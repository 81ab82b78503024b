"""The list kernels against loop references, and the engine's list-only path."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import braidax
from braidax import (
    BraidWord,
    ConwayError,
    LinkDiagram,
    SkeinEngine,
    axis_link_diagram,
    axis_word,
    closure_diagram,
    component_count,
    conway_polynomial,
    cycle_decomposition,
    delete_component,
    full_conway,
    permutation_of,
)
from braidax.conway import _det_bareiss, _laplacian_minor, _tree_sum
from braidax.kernels import get_kernels, splice_out

from conftest import CountingKernels, ShuffledStartsKernels, braid_words

K = get_kernels()


def compact_reference(conn, sign):
    """Crossing-by-crossing renumbering, the loop the kernel must match."""
    newidx = {}
    for c, s in enumerate(sign):
        if s != 0:
            newidx[c] = len(newidx)
    new_conn = [0] * (4 * len(newidx))
    new_sign = [0] * len(newidx)
    for c, k in newidx.items():
        new_sign[k] = sign[c]
        for r in range(4):
            q = conn[4 * c + r]
            new_conn[4 * k + r] = 4 * newidx[q >> 2] + (q & 3)
    return new_conn, new_sign


def linking_counts_reference(conn, sign, labels, starts):
    """Walk every component and add the sign of each crossing whose other
    strand lies on another component, the loop the kernel must match."""
    m = [[0] * len(starts) for _ in starts]
    for start in starts:
        a = labels[start]
        q = start
        while True:
            b = labels[q ^ 2]
            if b != a:
                m[a][b] += sign[q >> 2]
            q = conn[q + 1]
            if q == start:
                break
    return m


def live_crossings(sign):
    return [c for c, s in enumerate(sign) if s]


class TestCompact:
    def check(self, conn, sign):
        got_conn, got_sign = K.compact(conn, sign)
        assert type(got_conn) is list and type(got_sign) is list
        assert all(type(x) is int for x in got_conn + got_sign)
        assert (got_conn, got_sign) == compact_reference(conn, sign)
        LinkDiagram(got_conn, got_sign).validate()
        return got_conn, got_sign

    @given(braid_words(max_letters=10), st.booleans(), st.data())
    def test_matches_loop_after_surgery(self, word, axis, data):
        d = axis_link_diagram(word) if axis else closure_diagram(word)
        conn, sign = d.arrays()
        for _ in range(data.draw(st.integers(0, 3))):
            live = live_crossings(sign)
            if not live:
                break
            K.smooth_inplace(conn, sign, data.draw(st.sampled_from(live)), [])
        K.reidemeister_simplify(conn, sign)
        self.check(conn, sign)

    def test_nothing_removed_is_identity(self):
        d = axis_link_diagram(BraidWord(3, (1, -2, 1)))
        conn, sign = self.check(*d.arrays())
        assert conn == list(d.conn) and sign == list(d.sign)

    def test_everything_removed_is_empty(self):
        conn, sign = closure_diagram(BraidWord(3, (1, -1, 2, -2))).arrays()
        assert K.reidemeister_simplify(conn, sign) == 3
        assert not any(sign)
        assert self.check(conn, sign) == ([], [])


def remove_set_reference(conn, sign, dead, wire):
    """Delete the crossings marked in ``dead``; ``wire[q]`` is the out-port
    the strand entering at in-port q of a dead crossing continues through,
    or -1 when that strand is discarded.  Returns the loops split off."""
    handled = [False] * len(conn)
    dead_ids = [c for c, x in enumerate(dead) if x]
    loops = 0
    # strands entering the dead region from a live crossing
    for c in dead_ids:
        for q in (4 * c, 4 * c + 2):
            if wire[q] < 0 or handled[q]:
                continue
            feeder = conn[q]
            if dead[feeder >> 2]:
                continue
            cur = q
            while dead[cur >> 2]:
                handled[cur] = True
                assert wire[cur] >= 0, "surviving strand runs into an unwired port"
                cur = conn[wire[cur]]
            conn[feeder] = cur
            conn[cur] = feeder
    # strands living entirely inside the dead region become loops
    for c in dead_ids:
        for q in (4 * c, 4 * c + 2):
            if wire[q] < 0 or handled[q]:
                continue
            loops += 1
            cur = q
            while not handled[cur]:
                handled[cur] = True
                cur = conn[wire[cur]]
    for c in dead_ids:
        sign[c] = 0
    return loops


def _dead_wire(sign, wiring):
    """``dead``/``wire`` lists removing the crossings of ``wiring``
    ({in-port: out-port or -1})."""
    dead = [False] * len(sign)
    wire = [-1] * (4 * len(sign))
    for q, out in wiring.items():
        dead[q >> 2] = True
        wire[q] = out
    return dead, wire


def smooth_reference(conn, sign, c):
    wiring = {4 * c: 4 * c + 3, 4 * c + 2: 4 * c + 1}
    return remove_set_reference(conn, sign, *_dead_wire(sign, wiring))


def simplify_reference(conn, sign):
    """Kinks and cancelling clasps, removed in the kernel's scan order."""
    loops = 0
    changed = True
    while changed:
        changed = False
        for c in range(len(sign)):
            if sign[c] == 0:
                continue
            oi, oo, ui, uo = 4 * c, 4 * c + 1, 4 * c + 2, 4 * c + 3
            if conn[oo] == ui or conn[uo] == oi:
                wiring = {oi: oo, ui: uo}
                loops += remove_set_reference(conn, sign, *_dead_wire(sign, wiring))
                changed = True
                continue
            nxt = conn[oo]
            d = nxt >> 2
            if (nxt & 3) == 0 and d != c and sign[d] == -sign[c]:
                if conn[uo] == 4 * d + 2 or conn[4 * d + 3] == ui:
                    wiring = {oi: oo, ui: uo, 4 * d: 4 * d + 1, 4 * d + 2: 4 * d + 3}
                    loops += remove_set_reference(conn, sign, *_dead_wire(sign, wiring))
                    changed = True
    return loops


def delete_reference(conn, sign, labels, kill):
    wiring = {}
    for c in range(len(sign)):
        over_dies = kill[labels[4 * c]]
        under_dies = kill[labels[4 * c + 2]]
        if over_dies or under_dies:
            wiring[4 * c] = -1 if over_dies else 4 * c + 1
            wiring[4 * c + 2] = -1 if under_dies else 4 * c + 3
    return remove_set_reference(conn, sign, *_dead_wire(sign, wiring))


class TestSplice:
    """Every removal against the dead/wire loop reference."""

    def check(self, d, op, ref):
        conn, sign = d.arrays()
        rconn, rsign = d.arrays()
        assert op(conn, sign) == ref(rconn, rsign)
        got = K.compact(conn, sign)
        assert got == compact_reference(rconn, rsign)
        return got

    @given(braid_words(max_letters=10), st.booleans(), st.data())
    def test_matches_reference(self, word, axis, data):
        d = axis_link_diagram(word) if axis else closure_diagram(word)
        self.check(d, K.reidemeister_simplify, simplify_reference)
        if d.crossings == 0:
            return
        c = data.draw(st.integers(0, d.crossings - 1))
        self.check(
            d,
            lambda conn, sign: K.smooth_inplace(conn, sign, c, []),
            lambda conn, sign: smooth_reference(conn, sign, c),
        )
        # deleting components splices out every crossing they meet at once;
        # each deleted component closes up inside them and is no loop
        labels, ncomp, _ = K.trace_inports(d.conn)
        killed = data.draw(st.sets(st.integers(0, ncomp - 1), min_size=1))
        kill = [j in killed for j in range(ncomp)]
        ids = [c for c in range(d.crossings) if kill[labels[4 * c]] or kill[labels[4 * c + 2]]]
        self.check(
            d,
            lambda conn, sign: splice_out(conn, sign, ids, []) - len(killed),
            lambda conn, sign: delete_reference(conn, sign, labels, kill),
        )

    def test_kink_closure_is_one_loop(self):
        conn, sign = closure_diagram(BraidWord(2, (1,))).arrays()
        assert K.reidemeister_simplify(conn, sign) == 1
        assert K.compact(conn, sign)[1] == []

    def test_clasp_closure_is_two_loops(self):
        conn, sign = closure_diagram(BraidWord(2, (1, -1))).arrays()
        assert K.reidemeister_simplify(conn, sign) == 2
        assert not any(sign)

    def test_smoothing_a_kink_splits_off_its_loop(self):
        d = closure_diagram(BraidWord(3, (1, 1, 2)))
        assert d.conn[4 * 2 + 1] == 4 * 2 + 2  # crossing 2 is a kink
        conn, sign = self.check(
            d,
            lambda conn, sign: K.smooth_inplace(conn, sign, 2, []),
            lambda conn, sign: smooth_reference(conn, sign, 2),
        )
        assert sign == [1, 1]
        assert K.trace_inports(conn)[1] == 2


class TestSeededSimplify:
    """The worklist started from a switch, as the engine's chain runs it."""

    @given(braid_words(max_letters=12), st.booleans(), st.data())
    def test_settles_a_switch_in_a_reduced_diagram(self, word, axis, data):
        d = axis_link_diagram(word) if axis else closure_diagram(word)
        conn, sign = d.arrays()
        loops = d.free_loops + K.reidemeister_simplify(conn, sign)
        letters = [c for c in live_crossings(sign) if c < len(word.letters)]
        if not letters:
            return
        # crossing c is letter c of the word: switching it inverts the letter
        c = data.draw(st.sampled_from(letters))
        K.switch_inplace(conn, sign, c)
        loops += K.reidemeister_simplify(conn, sign, [conn[4 * c] >> 2, conn[4 * c + 2] >> 2, c])
        settled = (conn[:], sign[:])
        assert K.reidemeister_simplify(conn, sign) == 0
        assert (conn, sign) == settled
        switched = list(word.letters)
        switched[c] = -switched[c]
        switched = BraidWord(word.strands, tuple(switched))
        conn, sign = K.compact(conn, sign)
        coeffs = list(full_conway(LinkDiagram(conn, sign, loops)).coeffs)
        while len(coeffs) > 1 and not coeffs[-1]:
            coeffs.pop()
        assert tuple(coeffs) == conway_polynomial(axis_word(switched) if axis else switched)


class TestDeleteComponent:
    """Deleting a component on the braid word against deleting it from the
    diagram with the loop reference."""

    @given(
        braid_words(max_letters=10).filter(
            lambda word: cycle_decomposition(permutation_of(word)).count >= 2
        ),
        st.booleans(),
        st.data(),
    )
    def test_matches_diagram_deletion(self, word, axis, data):
        build = axis_link_diagram if axis else closure_diagram
        d = build(word)
        strand = data.draw(st.integers(1, word.strands))
        entry = d.entries[strand - 1]
        conn, sign = d.arrays()
        if entry < 0:  # a crossing-free strand: one of the free loops
            loops = d.free_loops - 1
        else:
            labels, ncomp, _ = K.trace_inports(conn)
            kill = [j == labels[entry] for j in range(ncomp)]
            loops = d.free_loops + delete_reference(conn, sign, labels, kill)
            conn, sign = K.compact(conn, sign)
        got = build(delete_component(word, strand))
        assert (list(got.conn), list(got.sign), got.free_loops) == (conn, sign, loops)


class TestLinkingCounts:
    """The counts over a caller's trace against a walk of each component."""

    def check(self, conn, sign):
        conn, sign = K.compact(conn, sign)
        labels, ncomp, starts = K.trace_inports(conn)
        got = K.linking_counts(sign, labels, ncomp)
        assert got == linking_counts_reference(conn, sign, labels, starts)
        assert all(type(x) is int for row in got for x in row)
        return got

    @given(braid_words(max_letters=10), st.booleans(), st.data())
    def test_matches_reference_after_surgery(self, word, axis, data):
        d = axis_link_diagram(word) if axis else closure_diagram(word)
        conn, sign = d.arrays()
        self.check(conn, sign)
        if d.crossings == 0:
            return
        if data.draw(st.booleans()):
            labels, ncomp, _ = K.trace_inports(conn)
            killed = data.draw(st.sets(st.integers(0, ncomp - 1)))
            delete_reference(conn, sign, labels, [j in killed for j in range(ncomp)])
            self.check(conn, sign)
        for _ in range(data.draw(st.integers(0, 3))):
            live = live_crossings(sign)
            if not live:
                break
            K.smooth_inplace(conn, sign, data.draw(st.sampled_from(live)), [])
            self.check(conn, sign)
        K.reidemeister_simplify(conn, sign)
        self.check(conn, sign)

    def test_only_self_crossings_count_zero(self):
        # two trefoils joined by a cancelling clasp, which simplify removes
        conn, sign = closure_diagram(BraidWord(4, (2, -2, 1, 1, 1, 3, 3, 3))).arrays()
        K.reidemeister_simplify(conn, sign)
        assert sign[:2] == [0, 0] and all(sign[2:])
        assert self.check(conn, sign) == [[0, 0], [0, 0]]

    @pytest.mark.parametrize("e", [1, -1])
    def test_hopf_link(self, e):
        d = closure_diagram(BraidWord(2, (e, e)))
        assert self.check(*d.arrays()) == [[0, 2 * e], [2 * e, 0]]


def chain_scan_reference(conn, sign, starts):
    """The violation scan before it built the frame: one walk over all
    components that lists the crossings first met on their under strand.
    Returns (nbad, bad_ids, eps), eps the signs before switching."""
    visited = [False] * len(sign)
    bad_ids = []
    eps = []
    for start in starts:
        cur = start
        while True:
            c = cur >> 2
            if not visited[c]:
                visited[c] = True
                if cur & 2:  # entered on the under strand
                    bad_ids.append(c)
                    eps.append(sign[c])
            cur = conn[cur + 1]
            if cur == start:
                break
    return len(bad_ids), bad_ids, eps


def leaf_frame_reference(conn, sign, labels, starts):
    """The second walk that built the frame after the scan: (walks, pos,
    counts), with walks indexed by label."""
    walks = [None] * len(starts)
    pos = [0] * len(conn)
    for s in starts:
        walk = []
        cur = s
        while True:
            pos[cur] = len(walk)
            walk.append(cur)
            cur = conn[cur + 1]
            if cur == s:
                break
        walks[labels[s]] = walk
    return walks, pos, linking_counts_reference(conn, sign, labels, starts)


def frame_scan_reference(conn, sign, labels, starts):
    """The frame route's ``chain_scan``: the violations and the node's frame,
    ``(bad_ids, (walks, pos, counts))``."""
    return chain_scan_reference(conn, sign, starts)[1], leaf_frame_reference(
        conn, sign, labels, starts
    )


class TestChainScan:
    """The violation list against the scan that walked beside the frame."""

    @given(braid_words(max_letters=10), st.booleans(), st.booleans(), st.booleans(),
           st.integers(0, 2**31 - 1))
    def test_matches_the_scan(self, word, axis, simplified, shuffled, seed):
        d = axis_link_diagram(word) if axis else closure_diagram(word)
        node = reduced_node(d) if simplified else d.arrays()
        if node is None:
            return  # simplifying left a free loop or no crossing
        conn, sign = node
        kernels = ShuffledStartsKernels(seed) if shuffled else K
        starts = kernels.trace_inports(conn)[2]
        before = (conn[:], sign[:])
        _, bad_ids, _ = chain_scan_reference(conn, sign, starts)
        assert K.chain_scan(conn, starts) == bad_ids
        assert (conn, sign) == before


def leaf_counts_reference(frame, sign, labels, c):
    """The frame route's leaf: the smoothing of self-crossing c against the
    components, from the frame.  Smoothing c splits its component j into
    the two arcs between c's visits; one pass over the shorter arc with the
    live ``sign`` gives ``row[m]``, its doubled linking number with
    component m, and ``row[j]`` with the rest of j.  None when an arc meets
    no other crossing, a free loop, which makes the child split."""
    walks, pos, _ = frame
    j = labels[4 * c]
    walk = walks[j]
    n = len(walk)
    a = pos[4 * c]
    b = pos[4 * c + 2]
    if a > b:
        a, b = b, a
    if b - a == 1 or b - a == n - 1:
        return None
    inner = 2 * (b - a) <= n
    arc = walk[a + 1 : b] if inner else walk[b + 1 :] + walk[:a]
    row = [0] * len(walks)
    rest = 0
    for q in arc:
        r = q ^ 2
        m = labels[r]
        if m != j:
            row[m] += sign[q >> 2]
        elif (a < pos[r] < b) != inner:  # the crossing's other visit is off the arc
            rest += sign[q >> 2]
    row[j] = rest
    return row


def is_odd(rows):
    return any(x & 1 for row in rows for x in row)


def bordered_tree_sum_reference(minor, row, j):
    """The frame route's leaf value: the tree sum of a leaf that splits its
    parent's component j into an arc with doubled counts ``row`` and the
    rest of j, as the cofactor that deletes the rest of j.  Every other
    component keeps its Laplacian row sum, so that cofactor is ``minor``,
    the parent's Laplacian less row and column j, bordered by the arc."""
    if is_odd([row]):
        raise ConwayError("odd inter-component crossing count")
    border = [-x for x in row]
    del border[j]
    m = [r + [x] for r, x in zip(minor, border)]
    m.append(border + [sum(row)])
    return _det_bareiss(m) >> len(row)


def leaf_reference(conn, sign, c):
    """The Hoste leaf built as a child: copy, smooth c, then a free loop
    (None) or the doubled linking numbers of the compacted, traced child."""
    conn, sign = conn[:], sign[:]
    if K.smooth_inplace(conn, sign, c, []):
        return None
    conn, sign = K.compact(conn, sign)
    labels, ncomp, _ = K.trace_inports(conn)
    return K.linking_counts(sign, labels, ncomp)


def tree_value_reference(rows):
    """Hoste's sum as the (0, 0) cofactor of the halved counts' Laplacian."""
    assert all(x % 2 == 0 for row in rows for x in row)
    minor = [[-(x >> 1) for x in row[1:]] for row in rows[1:]]
    for i, row in enumerate(rows[1:]):
        minor[i][i] = sum(row) >> 1
    return _det_bareiss(minor)


def child_rows(counts, j, row):
    """The leaf's full count matrix from its parent's counts and the arc's
    row: the rest of j stays row j, and the arc is the last row."""
    p = len(counts)
    rows = [counts[m][:] + [row[m]] for m in range(p)]
    for m in range(p):
        if m != j:
            rows[m][j] -= row[m]
            rows[j][m] -= row[m]
    return rows + [row + [0]]


def bordered_value(counts, j, row):
    if is_odd(counts):
        raise ConwayError("odd inter-component crossing count")
    keep = [i for i in range(len(counts)) if i != j]
    minor = [[sum(counts[i]) if i == k else -counts[i][k] for k in keep] for i in keep]
    return bordered_tree_sum_reference(minor, row, j)


class TestLeafCounts:
    """The frame route's Hoste leaves, the reference ``link_leaf_sum`` is
    tested against, against building each child."""

    def check(self, sign, labels, frame, ref_conn, ref_sign):
        """The frame route on ``sign`` against children built from the
        fully switched ``ref_conn``, ``ref_sign``."""
        # the frame keeps the node's labels, which a switch does not move
        assert sign == ref_sign
        ncomp = len(frame[2])
        counts = [[0] * ncomp for _ in range(ncomp)]
        for c, s in enumerate(sign):
            a, b = labels[4 * c], labels[4 * c + 2]
            if a != b:
                counts[a][b] += s
                counts[b][a] += s
        assert frame[2] == counts
        for c in range(len(sign)):
            j = labels[4 * c]
            if j != labels[4 * c + 2]:
                continue
            got = leaf_counts_reference(frame, sign, labels, c)
            want = leaf_reference(ref_conn, ref_sign, c)
            assert (got is None) == (want is None)
            if got is not None:
                assert len(got) == ncomp and len(want) == ncomp + 1
                rows = child_rows(counts, j, got)
                # equal up to renumbering the components
                assert sorted(map(sorted, rows)) == sorted(map(sorted, want))
                assert bordered_value(counts, j, got) == tree_value_reference(want)
        assert frame[2] == counts

    @given(braid_words(max_letters=10), st.booleans(), st.booleans(), st.data())
    def test_matches_building_the_child(self, word, axis, shuffled, data):
        d = axis_link_diagram(word) if axis else closure_diagram(word)
        conn, sign = d.arrays()
        if data.draw(st.booleans()):
            K.reidemeister_simplify(conn, sign)
            conn, sign = K.compact(conn, sign)
        labels, ncomp, starts = K.trace_inports(conn)
        if shuffled:
            starts = shuffled_starts(data, conn, labels, ncomp)
        bad_ids, frame = frame_scan_reference(conn, sign, labels, starts)
        counts = frame[2]
        # full switches up to the last built child, then sign-only flips,
        # which leave conn behind: the reference keeps switching a copy
        full = data.draw(st.integers(0, len(bad_ids)))
        flips = data.draw(st.integers(0, len(bad_ids) - full))
        ref_conn, ref_sign = conn, sign
        for i in range(full + flips):
            c = bad_ids[i]
            e = sign[c]  # each violation is switched once, at its own step
            if i == full:
                ref_conn, ref_sign = conn[:], sign[:]
            K.switch_inplace(ref_conn, ref_sign, c)
            if i >= full:
                sign[c] = -e
            a, b = labels[4 * c], labels[4 * c + 2]
            if a != b:
                counts[a][b] -= 2 * e
                counts[b][a] -= 2 * e
        self.check(sign, labels, frame, ref_conn, ref_sign)

    def test_kink_is_a_free_loop(self):
        conn, sign = closure_diagram(BraidWord(3, (1, 1, 2))).arrays()
        assert conn[4 * 2 + 1] == 4 * 2 + 2  # crossing 2 is a kink
        labels, _, starts = K.trace_inports(conn)
        _, frame = frame_scan_reference(conn, sign, labels, starts)
        assert leaf_counts_reference(frame, sign, labels, 2) is None
        assert leaf_reference(conn, sign, 2) is None
        self.check(sign, labels, frame, conn, sign)

    @given(st.integers(1, 6), st.data())
    def test_bordered_minor_is_the_tree_sum(self, p, data):
        even = st.integers(-4, 4).map(lambda x: 2 * x)
        counts = [[0] * p for _ in range(p)]
        for m in range(p):
            for n in range(m + 1, p):
                counts[m][n] = counts[n][m] = data.draw(even)
        for j in range(p):
            row = data.draw(st.lists(even, min_size=p, max_size=p))
            value = bordered_value(counts, j, row)
            assert value == _tree_sum(child_rows(counts, j, row))
            if p == 2:
                # the triangle's tree sum x*l + y*(l - y) that link_leaf_sum
                # adds, from doubled counts: four times the value
                x, y, l = row[j], row[1 - j], counts[0][1]
                assert 4 * value == x * l + y * (l - y)
            odd_row = row[:]
            odd_row[data.draw(st.integers(0, p - 1))] += 1
            with pytest.raises(ConwayError, match="odd inter-component crossing count"):
                bordered_value(counts, j, odd_row)
        if p > 1:
            m, n = data.draw(st.permutations(range(p)))[:2]
            counts[m][n] += 1
            counts[n][m] += 1
            with pytest.raises(ConwayError, match="odd inter-component crossing count"):
                bordered_value(counts, 0, [0] * p)


def shuffled_starts(data, conn, labels, ncomp):
    """The components in a drawn order, each from a drawn in-port of its own."""
    ports = [[] for _ in range(ncomp)]
    for q in range(0, len(conn), 2):
        ports[labels[q]].append(q)
    order = data.draw(st.permutations(range(ncomp)))
    return [data.draw(st.sampled_from(ports[j])) for j in order]


def link_leaf_reference(conn, sign, labels, starts):
    """A two-component node's self-crossing children at budget 3 closed one
    by one, the frame route ``link_leaf_sum`` replaces: the frame, then a
    ``leaf_counts`` row and a bordered minor per violation, flipping each
    violation's sign after its step.  Returns the kernel's tuple, with the
    total as four times the sum of the leaves' signed values (0 once a
    count is odd)."""
    bad_ids, frame = frame_scan_reference(conn, sign, labels, starts)
    counts = frame[2]
    sign = sign[:]
    odd = is_odd(counts)
    total = children = leaves = 0
    for c in bad_ids:
        e = sign[c]
        a, b = labels[4 * c], labels[4 * c + 2]
        if a == b:
            children += 1
            row = leaf_counts_reference(frame, sign, labels, c)
            if row is not None:
                leaves += 1
                if is_odd([row]):
                    odd = True
                elif not odd:
                    total += 4 * e * bordered_value(counts, a, row)
        else:
            counts[a][b] -= 2 * e
            counts[b][a] -= 2 * e
        sign[c] = -e
    return total, int(odd), children, leaves


def knot_words(max_letters=12):
    return braid_words(max_letters=max_letters).filter(
        lambda word: cycle_decomposition(permutation_of(word)).count == 1
    )


def two_component_diagrams():
    return st.one_of(
        braid_words(max_letters=10).filter(
            lambda word: cycle_decomposition(permutation_of(word)).count == 2
        ).map(closure_diagram),
        knot_words(max_letters=8).map(axis_link_diagram),
    )


class TestLinkLeafSum:
    """The one-sweep two-component kernel against the frame route it
    replaced, summed over a node's chain."""

    def check(self, conn, sign, starts):
        labels, ncomp, _ = K.trace_inports(conn)
        assert ncomp == 2
        before = (conn[:], sign[:])
        got = K.link_leaf_sum(conn, sign, labels, starts)
        assert (conn, sign) == before  # read-only: the node flips the signs itself
        want = link_leaf_reference(conn, sign, labels, starts)
        # an odd count has no tree sum: the engine raises before reading it
        assert got[1:] == want[1:] and (got[1] or got[0] == want[0])
        return got

    @given(two_component_diagrams(), st.booleans(), st.booleans(), st.data())
    def test_matches_the_frame_route(self, d, simplified, shuffled, data):
        node = reduced_node(d) if simplified else d.arrays()
        if node is None:
            return  # simplifying left a free loop or no crossing
        conn, sign = node
        labels, ncomp, starts = K.trace_inports(conn)
        if ncomp != 2:
            return  # simplifying split off a component's crossings
        if shuffled:
            starts = shuffled_starts(data, conn, labels, ncomp)
        total, odd, _, _ = self.check(conn, sign, starts)
        assert odd == 0 and total % 4 == 0

    def test_a_violation_around_the_whole_walk_is_a_free_loop(self):
        # crossing 0 is a kink of component 0, whose walk from in-port 2
        # meets it first on its under strand and last on its over strand,
        # with the other component's two crossings between: the arc around
        # its visits meets nothing, so its smoothing is split, not a leaf
        conn, sign = [9, 2, 1, 4, 3, 8, 11, 10, 5, 0, 7, 6], [1, 1, 1]
        assert self.check(conn, sign, [2, 6]) == (0, 0, 1, 0)
        assert self.check(conn, sign, [0, 6]) == (0, 0, 0, 0)

    def test_kink_is_a_free_loop(self):
        # crossing 2 of this two-component closure is a kink whose under
        # strand runs straight into its over strand: met first on the
        # under strand, it is a violation with an empty inner arc
        d = closure_diagram(BraidWord(3, (-2, -2, 1)))
        conn, sign = d.arrays()
        assert conn[4 * 2 + 3] == 4 * 2
        labels, _, starts = K.trace_inports(conn)
        assert K.chain_scan(conn, starts) == [1, 2]
        assert labels[4 * 2] == labels[4 * 2 + 2]
        assert self.check(conn, sign, starts) == (0, 0, 1, 0)

    def test_odd_arc_count_is_rejected(self):
        # a Gauss code no planar diagram has: the inner arc of crossing 1,
        # a violation of component 0, meets the other component once
        conn, sign = [5, 6, 11, 10, 9, 0, 1, 8, 7, 4, 3, 2], [1, 1, 1]
        labels, _, starts = K.trace_inports(conn)
        assert K.chain_scan(conn, starts) == [1]
        assert self.check(conn, sign, starts)[1:] == (1, 1, 1)
        with pytest.raises(ConwayError, match="odd inter-component crossing count"):
            SkeinEngine().truncated(LinkDiagram(conn, sign), 3)


def knot_leaf_reference(conn, sign, start):
    """A knot node's children at budget 2 closed one by one, the route the
    fused kernel replaces: the frame, then a ``leaf_counts`` row and the
    bordered minor per violation, flipping its sign after it.  Returns
    (a_2, children, leaves)."""
    labels, _, _ = K.trace_inports(conn)
    bad_ids, frame = frame_scan_reference(conn, sign, labels, [start])
    minor = _laplacian_minor(frame[2])
    value = leaves = 0
    for c in bad_ids:
        e = sign[c]
        row = leaf_counts_reference(frame, sign, labels, c)
        if row is not None:
            leaves += 1
            value += e * bordered_tree_sum_reference(minor, row, 0)
        sign[c] = -e
    return value, len(bad_ids), leaves


def knot_leaf_sum_reference(conn, sign, start):
    """The walk-then-arcs kernel the one-sweep kernel replaces: record the
    walk from ``start``, then per violation sum the shorter arc between its
    visits with the live signs and flip its sign after it.  Runs on a copy
    that was switched and smoothed in its arrays; returns the kernel's tuple."""
    walk = []
    pos = [0] * len(conn)
    cur = start
    while True:
        pos[cur] = len(walk)
        walk.append(cur)
        cur = conn[cur + 1]
        if cur == start:
            break
    n = len(walk)
    total = odd = children = leaves = 0
    for a in range(n):
        q = walk[a]
        if not q & 2:
            continue
        b = pos[q ^ 2]
        if b < a:  # met first on the over strand
            continue
        children += 1
        c = q >> 2
        e = sign[c]
        if b - a != 1 and b - a != n - 1:
            rest = 0
            if 2 * (b - a) <= n:
                for x in walk[a + 1 : b]:
                    o = pos[x ^ 2]
                    if o < a or o > b:  # the crossing's other visit is off the arc
                        rest += sign[x >> 2]
            else:
                for x in walk[b + 1 :] + walk[:a]:
                    if a < pos[x ^ 2] < b:
                        rest += sign[x >> 2]
            leaves += 1
            total += e * rest
            odd |= rest
        sign[c] = -e
    return total, odd & 1, children, leaves, n


def reduced_node(d):
    """A diagram's arrays as a node holds them: simplified and compacted, or
    None when simplifying leaves a free loop or no crossing."""
    conn, sign = d.arrays()
    if K.reidemeister_simplify(conn, sign) or not any(sign):
        return None
    return K.compact(conn, sign)


class ReadOnceList(list):
    """A list that counts the reads of each item and refuses writes,
    slices and iteration: a kernel handed one may only index it."""

    def __init__(self, items):
        super().__init__(items)
        self.reads = [0] * len(items)

    def __getitem__(self, i):
        self.reads[i] += 1
        return super().__getitem__(i)

    def __setitem__(self, i, value):
        raise AssertionError("the kernel wrote conn")

    def __iter__(self):
        raise AssertionError("the kernel iterated over conn")


class TestKnotLeafSum:
    """The one-sweep knot kernel against the walk-then-arcs kernel it
    replaced and against the per-leaf route."""

    @given(knot_words(), st.booleans(), st.data())
    def test_matches_the_walk_then_arcs_kernel(self, word, simplified, data):
        d = closure_diagram(word)
        node = reduced_node(d) if simplified else d.arrays()
        if node is None or not node[1]:
            return  # a crossing-free unknot
        conn, sign = node
        start = data.draw(st.sampled_from(range(0, len(conn), 2)))
        want = knot_leaf_sum_reference(conn, sign[:], start)
        assert K.knot_leaf_sum(conn, sign, [0] * len(sign), start, -1) == want

    @given(knot_words(), st.booleans(), st.data())
    def test_matches_the_per_leaf_route(self, word, simplified, data):
        d = closure_diagram(word)
        node = reduced_node(d) if simplified else d.arrays()
        if node is None or not node[1]:
            return  # a crossing-free unknot
        conn, sign = node
        start = data.draw(st.sampled_from(range(0, len(conn), 2)))
        before = sign[:]
        want = knot_leaf_reference(conn, sign[:], start)
        total, odd, children, leaves, ports = K.knot_leaf_sum(
            conn, sign, [0] * len(sign), start, -1
        )
        assert odd == 0 and total % 2 == 0
        assert ports == len(conn) // 2
        assert (total >> 1, children, leaves) == want
        assert sign == before  # read-only: the node flips the signs itself

    @given(
        st.one_of(
            braid_words(max_letters=10).filter(
                lambda word: cycle_decomposition(permutation_of(word)).count == 2
            ).map(closure_diagram),
            knot_words(max_letters=8).map(axis_link_diagram),
        ),
        st.integers(0, 2**31 - 1),
    )
    # a node whose shuffled chain smooths crossing 0
    @example(closure_diagram(BraidWord(3, (-2, -1, -2, -1, -2))), 5)
    def test_walk_in_place_matches_the_switched_smoothed_copy(self, d, seed):
        # every walk a two-component node at budget 3 makes of a knot child,
        # at every step of its chain, against the route it replaced: copy
        # the node's arrays, switch the crossings flip marks, smooth c (which
        # never frees a loop) and walk the copy from its in-port 0 (4 when c
        # is 0).  From the traced basepoints crossing 0 is met first on its
        # over strand, so it is never switched or smoothed; shuffled
        # basepoints reach both cases
        kernels = ShuffledStartsKernels(seed)

        def knot_leaf_sum(conn, sign, flip, start, smoothed):
            got = K.knot_leaf_sum(conn, sign, flip, start, smoothed)
            if smoothed >= 0:
                bconn = conn[:]
                bsign = [-e if f else e for e, f in zip(sign, flip)]
                for k, f in enumerate(flip):
                    if f:
                        K.switch_inplace(bconn, bsign, k)
                assert bsign == sign
                assert K.smooth_inplace(bconn, bsign, smoothed, []) == 0
                assert got == knot_leaf_sum_reference(bconn, bsign, 4 if smoothed == 0 else 0)
            return got

        kernels.knot_leaf_sum = knot_leaf_sum
        assert SkeinEngine(kernels).truncated(d, 3) == SkeinEngine().truncated(d, 3)

    def test_a_violation_around_the_whole_walk_is_a_free_loop(self):
        # from in-port 6 of this two-crossing unknot both crossings are
        # violations, and crossing 1 is met first and last: the arc around
        # its visits meets nothing, so neither smoothing is a leaf
        conn, sign = closure_diagram(BraidWord(3, (1, 2))).arrays()
        want = knot_leaf_sum_reference(conn, sign[:], 6)
        assert want == (0, 0, 2, 0, 4)
        assert K.knot_leaf_sum(conn, sign, [0, 0], 6, -1) == want

    def test_reads_each_conn_entry_at_most_once(self):
        # the dn n=61 axis link at a_3: every knot child of its root, a
        # two-component node at budget 3, is one linear walk, with no copy
        # or slice of conn
        kernels = CountingKernels()
        base = kernels.knot_leaf_sum
        most = []

        def knot_leaf_sum(conn, sign, flip, start, smoothed):
            conn = ReadOnceList(conn)
            out = base(conn, tuple(sign), tuple(flip), start, smoothed)
            most.append(max(conn.reads))
            assert sum(conn.reads) == out[4] + 2 * (smoothed >= 0)
            return out

        kernels.knot_leaf_sum = knot_leaf_sum
        form = braidax.canonical_odd_knot_braid(61)
        w = braidax.cyclic_free_reduce(braidax.square(braidax.family_member(form, 1)))
        d = axis_link_diagram(w)
        assert SkeinEngine(kernels).truncated(d, 3) == SkeinEngine().truncated(d, 3)
        assert len(most) > 50 and max(most) == 1
        assert "smooth_inplace" not in kernels.calls and "switch_inplace" not in kernels.calls

    def test_odd_arc_count_is_rejected(self):
        # a Gauss code no planar diagram has: walking from in-port 0, the
        # arc between crossing 1's visits meets crossing 0 only once
        conn, sign = [5, 6, 7, 4, 3, 0, 1, 2], [1, 1]
        assert K.trace_inports(conn)[1] == 1
        assert K.knot_leaf_sum(conn, sign, [0, 0], 0, -1) == (1, 1, 1, 1, 4)
        assert knot_leaf_sum_reference(conn, sign[:], 0) == (1, 1, 1, 1, 4)
        with pytest.raises(ConwayError, match="odd inter-component crossing count"):
            SkeinEngine().truncated(LinkDiagram(conn, sign), 2)


class TestFlavorSelection:
    def test_python_flavor_is_plain_functions(self):
        assert get_kernels().jitted is False
        assert get_kernels().trace_inports.__class__.__name__ == "function"


class ListOnlyKernels(CountingKernels):
    """The kernels, asserting that every diagram argument is a list."""

    # where each kernel takes conn and sign, by argument position
    CONN_AT = {"linking_counts": None}
    SIGN_AT = {
        "trace_inports": None,
        "split_components": None,
        "linking_counts": 0,
        "chain_scan": None,
    }

    def _counted(self, name, f):
        conn_at = self.CONN_AT.get(name, 0)
        sign_at = self.SIGN_AT.get(name, 1)

        def run(*args):
            for what, at in (("conn", conn_at), ("sign", sign_at)):
                if at is not None:
                    got = type(args[at]).__name__
                    assert type(args[at]) is list, f"{name} got {what} as {got}"
            return f(*args)

        return super()._counted(name, run)


class TestEngineRunsOnLists:
    """An ndarray slipping back into the hot path would stay correct
    but slow; this catches it at the first kernel call."""

    @given(braid_words(max_letters=8), st.booleans())
    def test_every_kernel_call_gets_lists(self, word, axis):
        d = axis_link_diagram(word) if axis else closure_diagram(word)
        budget = min(component_count(d) + 1, 4)
        kernels = ListOnlyKernels()
        got = SkeinEngine(kernels).truncated(d, budget)
        assert got == SkeinEngine().truncated(d, budget)
        assert kernels.calls or d.crossings == 0


def test_braidax_runs_without_numpy():
    """Import and run the library and the CLI with numpy made unimportable."""
    script = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from braidax import *\n"
        "from braidax.cli import main\n"
        "d = closure_diagram(BraidWord(3, (1, 1, 2, 2)))\n"
        "assert full_conway(d).coeffs == (0, 0, 1, 0, 0)\n"
        "assert linking_matrix(d).entries == ((0, 1, 0), (1, 0, 1), (0, 1, 0))\n"
        "assert delete_component(BraidWord(3, (1, 1, 2, 2)), 1) == BraidWord(2, (1, 1))\n"
        "sys.exit(main(['info', '--n', '3', '--', '1', '1', '2']))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(braidax.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert "numpy" not in proc.stderr
