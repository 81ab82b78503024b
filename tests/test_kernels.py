"""The list kernels against loop references, and the engine's list-only path."""

import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
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
from braidax.conway import _det_bareiss, _laplacian_minor, _leaf_tree_sum, _tree_sum
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
        LinkDiagram(got_conn, got_sign)  # the constructor checks the arc pairing
        return got_conn, got_sign

    @given(
        braid_words(max_letters=10),
        st.booleans(),
        st.lists(st.integers(0, 2**16), max_size=3),
        st.booleans(),
    )
    # every crossing but the last removed, one run from crossing 0: a
    # simplified diagram never has one crossing, so no draw reaches it
    @example(BraidWord(3, (1, 2, 1, 2)), False, [0, 0, 0], False)
    def test_matches_loop_after_surgery(self, word, axis, picks, simplify):
        # each pick smooths the live crossing it indexes, modulo their count
        d = axis_link_diagram(word) if axis else closure_diagram(word)
        conn, sign = d.arrays()
        for pick in picks:
            live = live_crossings(sign)
            if not live:
                break
            K.smooth_inplace(conn, sign, live[pick % len(live)], [])
        if simplify:
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


class TestSwitch:
    @given(braid_words(max_letters=10), st.booleans())
    @example(BraidWord(2, (1,)), False)  # one letter, both of whose arcs join two of its ports
    @example(BraidWord(3, (-2, -2, 1)), False)  # crossing 2 is a kink
    @example(BraidWord(1), True)  # the axis around one strand: the Hopf link
    def test_switch_is_the_inverted_letter(self, word, axis):
        # crossing c is letter c of the word: switching it must give exactly
        # the closure of the word with letter c inverted
        if axis:
            word = axis_word(word)
        for c in range(len(word.letters)):
            conn, sign = closure_diagram(word).arrays()
            K.switch_inplace(conn, sign, c)
            letters = list(word.letters)
            letters[c] = -letters[c]
            assert (conn, sign) == closure_diagram(BraidWord(word.strands, tuple(letters))).arrays()


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
            assert value == _tree_sum(child_rows(counts, j, row)) == _leaf_tree_sum(counts, j, row)
            if p == 2:
                # the triangle's tree sum x*l + y*(l - y) that link_leaf_sum
                # adds, from doubled counts: four times the value
                x, y, l = row[j], row[1 - j], counts[0][1]
                assert 4 * value == x * l + y * (l - y)
            odd_row = row[:]
            odd_row[data.draw(st.integers(0, p - 1))] += 1
            with pytest.raises(ConwayError, match="odd inter-component crossing count"):
                bordered_value(counts, j, odd_row)
            with pytest.raises(ConwayError, match="odd inter-component crossing count"):
                _leaf_tree_sum(counts, j, odd_row)
        if p > 1:
            m, n = data.draw(st.permutations(range(p)))[:2]
            counts[m][n] += 1
            counts[n][m] += 1
            with pytest.raises(ConwayError, match="odd inter-component crossing count"):
                bordered_value(counts, 0, [0] * p)
            with pytest.raises(ConwayError, match="odd inter-component crossing count"):
                _leaf_tree_sum(counts, 0, [0] * p)


def built_leaf_reference(conn, sign, c):
    """The Hoste leaf of self-crossing c built as a child, the route a
    three-or-more-component node's closing in its own arrays replaces: copy,
    smooth, simplify, compact, trace, ``linking_counts`` and the tree sum.
    Returns ``(value, rows)``, or ``(None, None)`` when simplifying frees a
    loop: that child is split."""
    conn, sign = conn[:], sign[:]
    todo = []
    loops = K.smooth_inplace(conn, sign, c, todo)
    if loops + K.reidemeister_simplify(conn, sign, todo):
        return None, None
    conn, sign = K.compact(conn, sign)
    labels, ncomp, _ = K.trace_inports(conn)
    rows = K.linking_counts(sign, labels, ncomp)
    return _tree_sum(rows), rows


def leaf_steps(conn, sign, labels, starts, p):
    """Run a node's chain at budget p + 1 as ``_eval`` does, switching and
    settling each violation in ``conn`` and ``sign`` and moving the doubled
    linking counts by -2e at each inter-component switch, and yield
    ``(c, counts)`` at each self-crossing violation, before its switch."""
    counts = K.linking_counts(sign, labels, p)
    for c in K.chain_scan(conn, starts):
        e = sign[c]
        if not e:
            continue
        a, b = labels[4 * c], labels[4 * c + 2]
        if a == b:
            yield c, counts
        K.switch_inplace(conn, sign, c)
        if a != b:
            counts[a][b] -= 2 * e
            counts[b][a] -= 2 * e
        if K.reidemeister_simplify(conn, sign, [conn[4 * c] >> 2, conn[4 * c + 2] >> 2, c]):
            return


def many_component_diagrams():
    def cycles(word):
        return cycle_decomposition(permutation_of(word)).count

    return st.one_of(
        braid_words(min_strands=3, min_letters=6, max_letters=14).filter(
            lambda w: cycles(w) >= 3
        ).map(closure_diagram),
        braid_words(min_strands=3, min_letters=4, max_letters=10).filter(
            lambda w: cycles(w) >= 2
        ).map(axis_link_diagram),
    )


class TestArcCounts:
    """A node at budget p + 1 with p >= 3 closes each self-crossing
    violation's Hoste leaf in its own arrays, from its doubled linking
    counts and one ``arc_counts`` walk: against building the child."""

    def check(self, conn, sign, starts):
        """Every leaf of the node's chain from ``starts``; returns how many
        built children simplified to a free loop."""
        labels, p, _ = K.trace_inports(conn)
        assert p >= 3
        freed = 0
        for c, counts in leaf_steps(conn, sign, labels, starts, p):
            # a switch moves the counts by -2e, and a settled clasp's two
            # crossings cancel
            assert counts == K.linking_counts(sign, labels, p)
            before = (conn[:], sign[:])
            row = K.arc_counts(conn, sign, labels, c, p)
            assert (conn, sign) == before
            got = _leaf_tree_sum(counts, labels[4 * c], row)
            want, rows = built_leaf_reference(conn, sign, c)
            if rows is None:
                # the built child is split; the free loop links nothing, so
                # the leaf's tree sum is 0
                freed += 1
                assert got == 0
                continue
            assert got == want
            # the same matrix up to numbering the components
            mine = child_rows(counts, labels[4 * c], row)
            assert sorted(map(sorted, mine)) == sorted(map(sorted, rows))
        return freed

    @settings(max_examples=150)
    @given(many_component_diagrams(), st.none() | st.integers(0, 2**31 - 1))
    def test_matches_building_the_child(self, d, seed):
        node = reduced_node(d)
        if node is None:
            return  # simplifying left a free loop or no crossing
        conn, sign = node
        # the traced basepoints, or the components in a seeded order, each
        # from a seeded in-port of its own
        trace = K.trace_inports if seed is None else ShuffledStartsKernels(seed).trace_inports
        _, p, starts = trace(conn)
        if p < 3:
            return  # simplifying split off a component's crossings
        self.check(conn, sign, starts)

    def test_a_free_loop_leaf_is_a_zero_leaf(self):
        # a four-component node, one of whose leaves has a built child that
        # simplifies to a free loop beside its crossings: the engine closes
        # it as a Hoste leaf worth 0, with the same coefficients
        word = BraidWord(5, (-2, -3, -2, -1, -4, -4, -1))
        conn, sign = reduced_node(closure_diagram(word))
        labels, p, starts = K.trace_inports(conn)
        assert p == 4
        assert self.check(conn, sign, starts) == 1
        eng = SkeinEngine()
        assert eng.truncated(closure_diagram(word), 5).coeffs == (0, 0, 0, -1, 0, 0)
        assert conway_polynomial(word) == (0, 0, 0, -1)
        assert (eng.nodes, eng.hits, eng.leaves) == (6, 0, 1)

    def test_odd_arc_count_is_rejected(self):
        # a pairing no planar diagram has: three components whose doubled
        # counts are even, and whose one violation, a self-crossing of
        # component 0, has an arc that meets component 2 once
        conn = [9, 4, 15, 14, 1, 12, 17, 18, 13, 0, 19, 16, 5, 8, 3, 2, 11, 6, 7, 10]
        sign = [-1, -1, -1, 1, -1]
        labels, p, starts = K.trace_inports(conn)
        assert p == 3 and K.chain_scan(conn, starts) == [4]
        counts = K.linking_counts(sign, labels, p)
        assert not is_odd(counts)
        row = K.arc_counts(conn, sign, labels, 4, p)
        assert is_odd([row])
        with pytest.raises(ConwayError, match="odd inter-component crossing count"):
            built_leaf_reference(conn, sign, 4)
        with pytest.raises(ConwayError, match="odd inter-component crossing count"):
            _leaf_tree_sum(counts, labels[16], row)
        eng = SkeinEngine()
        with pytest.raises(ConwayError, match="odd inter-component crossing count"):
            eng.truncated(LinkDiagram(conn, sign), 4)
        assert (eng.nodes, eng.leaves) == (2, 1)


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


def link_node_reference(conn, sign, labels, starts):
    """A two-component node at budget 3 closed by the routes
    ``link_leaf_sum`` replaces: the frame route for its self-crossing
    children, and each inter-component child as a copy of the node with the
    violations before it switched and it smoothed, walked by
    ``knot_leaf_sum_reference`` from ``starts[0]`` (from the port after it
    when the walk starts at it).  Returns the kernel's tuple less the port
    count; an odd count stops the node before any knot child."""
    total, odd, _, leaves = link_leaf_reference(conn, sign, labels, starts)
    chain = K.chain_scan(conn, starts)
    a1 = a3 = 0
    children = len(chain)
    if odd:
        return None, odd, children, leaves
    for i, c in enumerate(chain):
        if labels[4 * c] == labels[4 * c + 2]:
            continue
        bconn, bsign = conn[:], sign[:]
        for k in chain[:i]:
            K.switch_inplace(bconn, bsign, k)
        # the first component passes under c, and its smoothing leads on
        # along the second from c's over-out
        start = conn[4 * c + 1] if starts[0] == 4 * c + 2 else starts[0]
        if start >> 2 in chain[:i]:
            start ^= 2  # a switch relabels the ports by role
        assert K.smooth_inplace(bconn, bsign, c, []) == 0
        total2, kodd, kchildren, kleaves, ports = knot_leaf_sum_reference(bconn, bsign, start)
        assert ports == 2 * len(sign) - 2
        e = sign[c]
        a1 += e
        a3 += e * (total2 >> 1)
        odd |= kodd
        children += kchildren
        leaves += kleaves
    return (0, a1, 0, (total >> 2) + a3), odd, children, leaves


class TestLinkLeafSum:
    """The two-component kernel against the routes it replaced, summed over
    a node's chain: the frame route for the self-crossing children, and a
    switched and smoothed copy walked per knot child."""

    def check(self, conn, sign, starts):
        labels, ncomp, _ = K.trace_inports(conn)
        assert ncomp == 2
        before = (conn[:], sign[:])
        got = K.link_leaf_sum(conn, sign, labels, starts)
        assert (conn, sign) == before  # read-only: the node closes its children in place
        if K.split_components(conn, labels, 2):
            assert got is None  # the walk's split check: no child is closed
            return (None, 0)
        assert got[4] == len(conn) // 2
        want = link_node_reference(conn, sign, labels, starts)
        # an odd count has no tree sum: the engine raises before reading it
        assert got[1] == want[1] and (got[1] or got[:4] == want)
        return got

    @given(two_component_diagrams(), st.none() | st.integers(0, 2**31 - 1))
    # a knot child at the basepoint, whose walk starts and ends on one
    # crossing, and so has an arc around it that meets nothing
    @example(axis_link_diagram(BraidWord(2, (-1,))), 1)
    # a knot child with a crossing met just before it on the second component
    # and just after it on the first: adjacent visits across the junction
    @example(closure_diagram(BraidWord(2, (1, 1))), 5)
    def test_matches_the_frame_route(self, d, seed):
        node = reduced_node(d)
        if node is None:
            return  # simplifying left a free loop or no crossing
        conn, sign = node
        # the traced basepoints, or the components in a seeded order, each
        # from a seeded in-port of its own
        trace = K.trace_inports if seed is None else ShuffledStartsKernels(seed).trace_inports
        _, ncomp, starts = trace(conn)
        if ncomp != 2:
            return  # simplifying split off a component's crossings
        assert self.check(conn, sign, starts)[1] == 0

    def test_odd_arc_count_is_rejected(self):
        # a Gauss code no planar diagram has: the inner arc of crossing 1,
        # a violation of component 0, meets the other component once
        conn, sign = [5, 6, 11, 10, 9, 0, 1, 8, 7, 4, 3, 2], [1, 1, 1]
        labels, _, starts = K.trace_inports(conn)
        assert K.chain_scan(conn, starts) == [1]
        assert self.check(conn, sign, starts)[1] == 1
        with pytest.raises(ConwayError, match="odd inter-component crossing count"):
            SkeinEngine().truncated(LinkDiagram(conn, sign), 3)

    @pytest.mark.parametrize(
        "conn, sign",
        [
            ([11, 10, 7, 4, 3, 8, 9, 2, 5, 6, 1, 0], [1, -1, 1]),
            ([9, 6, 7, 8, 11, 10, 1, 2, 3, 0, 5, 4], [-1, -1, -1]),
        ],
        ids=["second_component_crossing", "inter_component_crossing"],
    )
    def test_odd_knot_child_arc_is_rejected(self, conn, sign):
        # Gauss codes no planar diagram has, whose linking count and
        # self-crossing leaves are even: a violation of a knot child, a
        # self-crossing of the second component or an inter-component
        # crossing, has an arc that meets an odd number of ports
        labels, _, starts = K.trace_inports(conn)
        assert link_leaf_reference(conn, sign, labels, starts)[1] == 0
        assert self.check(conn, sign, starts)[1] == 1
        with pytest.raises(ConwayError, match="odd inter-component crossing count"):
            SkeinEngine().truncated(LinkDiagram(conn, sign), 3)

    def test_reads_each_conn_entry_at_most_once(self):
        # the dn n=61 axis link at a_3: its root, a two-component node at
        # budget 3, closes every knot child from the walk it recorded, with
        # no copy, slice or second read of conn
        kernels = CountingKernels()
        base = kernels.link_leaf_sum
        reads = []

        def link_leaf_sum(conn, sign, labels, starts):
            conn = ReadOnceList(conn)
            out = base(conn, tuple(sign), labels, starts)
            reads.append(conn.reads)
            assert sum(conn.reads) == out[4]
            return out

        kernels.link_leaf_sum = link_leaf_sum
        form = braidax.canonical_odd_knot_braid(61)
        w = braidax.cyclic_free_reduce(braidax.square(braidax.family_member(form, 1)))
        d = axis_link_diagram(w)
        eng = SkeinEngine(kernels)
        assert eng.truncated(d, 3) == SkeinEngine().truncated(d, 3)
        assert len(reads) == 1 and max(reads[0]) == 1 and eng.nodes > 1000
        assert "smooth_inplace" not in kernels.calls and "switch_inplace" not in kernels.calls

    def test_a_knot_root_reads_each_conn_entry_at_most_once(self):
        # the closure of the same squared dn n=61 member at a_2: its root, a
        # knot at budget 2, closes every child in one walk from its one
        # basepoint, with no copy, slice or second read of conn
        kernels = CountingKernels()
        base = kernels.link_leaf_sum
        reads = []

        def link_leaf_sum(conn, sign, labels, starts):
            assert len(starts) == 1
            conn = ReadOnceList(conn)
            out = base(conn, tuple(sign), labels, starts)
            reads.append(conn.reads)
            assert sum(conn.reads) == out[4] == len(conn) // 2
            return out

        kernels.link_leaf_sum = link_leaf_sum
        form = braidax.canonical_odd_knot_braid(61)
        w = braidax.cyclic_free_reduce(braidax.square(braidax.family_member(form, 1)))
        d = closure_diagram(w)
        eng = SkeinEngine(kernels)
        assert eng.truncated(d, 2) == SkeinEngine().truncated(d, 2)
        assert len(reads) == 1 and max(reads[0]) == 1
        assert (eng.nodes, eng.leaves) == (324, 323)
        assert "chain_scan" not in kernels.calls and "smooth_inplace" not in kernels.calls


class KinkFreeWalkKernels(SimpleNamespace):
    """The kernels ``base``, with a ``link_leaf_sum`` that first asserts the
    closing walk's precondition: no crossing's two visits are adjacent, so
    the node has no kink."""

    def __init__(self, base):
        super().__init__(**vars(base))
        walk = base.link_leaf_sum

        def link_leaf_sum(conn, sign, labels, starts):
            # the strand leaving in-port q meets another crossing next
            assert all(conn[q + 1] >> 2 != q >> 2 for q in range(0, len(conn), 2))
            return walk(conn, sign, labels, starts)

        self.link_leaf_sum = link_leaf_sum


class TestClosingWalkPrecondition:
    """Every node the engine walks with ``link_leaf_sum`` has been through
    ``reidemeister_simplify``, from any basepoints and at any degree."""

    @given(braid_words(max_letters=12), st.booleans(), st.none() | st.integers(0, 2**31 - 1))
    # at full degree a smoothing leaves a kink in a two-component child at
    # budget 3, which only the child's own simplification removes
    @example(BraidWord(3, (1, 1, 2, -1, 2, 2)), False, None)
    def test_no_walked_node_has_adjacent_visits(self, word, axis, seed):
        d = axis_link_diagram(word) if axis else closure_diagram(word)
        base = K if seed is None else ShuffledStartsKernels(seed)
        for degree in (3, d.crossings):
            SkeinEngine(KinkFreeWalkKernels(base)).truncated(d, degree)


def two_pass_leaf_sum_reference(conn, sign, labels, starts):
    """``link_leaf_sum`` as it was before its walk filed the knot
    children's first-component terms: it records both walks and hands them
    to ``two_pass_children_reference``.  Kept as the reference the kernel
    must match on every node that is not split."""
    rank = [-1] * len(sign)
    opened_at = [None] * len(sign)  # a violation's walk state when it opened
    lk = drift = 0  # L at the start, and its change by the switches so far
    lin = rest = odd = leaves = children = 0  # the total is lk * lin + rest
    walks = []
    first = True
    for start in starts:
        j = labels[start]
        plus = minus = bad = closed = 0
        opened = y = 0
        walk = []
        cur = start
        while True:
            walk.append(cur)
            k = cur >> 2
            if labels[cur ^ 2] != j:
                s = sign[k]
                if first:
                    lk += s
                    if cur & 2:  # the first component passes under: a violation
                        drift -= 2 * s
                        children += 1
                elif not cur & 2:  # switched before this component's leaves
                    s = -s
                y += s
            else:
                r = rank[k]
                if r < 0:
                    rank[k] = opened
                    bit = 1 << opened
                    if sign[k] > 0:
                        plus |= bit
                    else:
                        minus |= bit
                    if cur & 2:  # met first on its under strand
                        children += 1
                        opened_at[k] = (closed, y, drift)
                        bad |= bit
                    opened += 1
                else:
                    was = opened_at[k]
                    if was is not None:  # a violation closes: a Hoste leaf
                        leaves += 1
                        inside = closed ^ was[0]  # the chords closed since it opened
                        cross = ((1 << opened) - (2 << r)) ^ inside
                        switched = inside & bad & ((1 << r) - 1)  # opened before it
                        x = (
                            (cross & plus).bit_count() - (cross & minus).bit_count()
                            - 2 * ((switched & plus).bit_count() - (switched & minus).bit_count())
                        )
                        yc = y - was[1]
                        e = sign[k]
                        odd |= x | yc
                        lin += e * (x + yc)
                        rest += e * ((x + yc) * was[2] - yc * yc)
                    closed |= 1 << r
            cur = conn[cur + 1]
            if cur == start:
                break
        walks.append(walk)
        first = False
    odd = (odd | lk) & 1
    ports = sum(map(len, walks))
    if odd or ports != 2 * len(sign):
        return None, odd, children, leaves, ports  # the node raises: no child is closed
    if len(walks) == 1:  # a knot: no inter-component crossing, and no knot child
        return (1, 0, lin >> 1), 0, children, leaves, ports
    a1, a3, odd, kids, kleaves = two_pass_children_reference(sign, labels, *walks)
    a3 += (lk * lin + rest) >> 2
    return (0, a1, 0, a3), odd & 1, children + kids, leaves + kleaves, ports


def two_pass_children_reference(sign, labels, first, second):
    """``_knot_children`` as it was: one backward pass over the
    recorded first walk sums each child's first-component terms, then one
    pass over ``second`` per child."""
    nf = len(first)
    fpos = [-1] * len(sign)  # an inter-component crossing's position on first
    at = [None] * len(sign)  # a self-crossing's state at its later visit on first
    kids = []  # (i, c, pairs, violations) on first after i, for each child
    j = labels[first[0]]
    total = violations = 0
    over = 0  # the signs of the inter-component crossings first passes over at or after p
    closed = plus = minus = 0  # bit b: the self-crossing whose later visit is b
    for p in range(nf - 1, -1, -1):
        q = first[p]
        k = q >> 2
        if labels[q ^ 2] != j:
            fpos[k] = p
            if q & 2:
                kids.append((p, k, total, violations))
            else:
                over += sign[k]
            continue
        was = at[k]
        if was is None:  # its later visit, met first going back
            at[k] = (p, over, closed)
            if q & 2:  # under here, so over at its earlier visit: not a violation
                if sign[k] > 0:
                    plus |= 1 << p
                else:
                    minus |= 1 << p
            continue
        b, o, snap = was
        e = sign[k]
        if q & 2:  # a violation: the non-violations first met inside, last met after b
            violations += 1
            inner = (closed ^ snap) >> (b + 1)
            total += e * (
                (inner & (plus >> (b + 1))).bit_count() - (inner & (minus >> (b + 1))).bit_count()
            )
        else:  # the inter-component violations of K_c inside
            total += e * (over - o)
        closed |= 1 << b
    # second, twice round; code holds at a self-crossing's position the
    # position of its next visit, at an inter-component crossing's the
    # complement (~) of its position on first
    ns = len(second)
    code = [0] * ns
    seen = [-1] * len(sign)  # a crossing's earlier position on second
    for p, q in enumerate(second):
        k = q >> 2
        u = seen[k]
        if labels[q ^ 2] == j:
            code[p] = ~fpos[k]
            seen[k] = p
        elif u < 0:
            seen[k] = p
        else:
            code[u] = p
            code[p] = u + ns
    code += [v if v < 0 else v + ns for v in code]
    second = second + second
    a1 = a3 = odd = children = adj = 0  # adj: violations whose visits c made adjacent
    for i, c, h, ch in kids:
        e = sign[c]
        a1 += e
        pc = seen[c]  # K_c reads second from pc + 1 to end - 1
        end = pc + ns
        openp = openm = 0  # bit p: a non-violation of K_c open at p
        xp = xm = 0  # bit f: an inter-component violation of K_c, closing on first at f
        for p in range(pc + 1, end):
            v = code[p]
            if v < 0 and ~v < i:
                continue  # an inter-component crossing met first before c: reads over
            q = second[p]
            s = sign[q >> 2]
            if v < 0:
                f = ~v
                if q & 2:  # a violation of K_c
                    ch += 1
                    between = end - 2 - p + f - i
                    odd |= between
                    if not between or not i and p == pc + 1 and f == nf - 1:
                        adj += 1  # adjacent across the junction, or around the walk
                    if s > 0:
                        xp |= 1 << f
                    else:
                        xm |= 1 << f
                else:  # the violations met before it and closing before it
                    low = (1 << f) - 1
                    h += s * ((xp & low).bit_count() - (xm & low).bit_count())
                    if s > 0:
                        openp |= 1 << p
                    else:
                        openm |= 1 << p
            elif v < end:  # its earlier visit in K_c
                if q & 2:
                    ch += 1
                elif s > 0:
                    openp |= 1 << p
                else:
                    openm |= 1 << p
            else:  # its later visit; the earlier was at v - ns
                v -= ns
                if second[v] & 2:  # a violation of K_c closes
                    odd |= p - v - 1
                    h += s * ((openp >> v).bit_count() - (openm >> v).bit_count())
                elif s > 0:
                    openp ^= 1 << v
                else:
                    openm ^= 1 << v
        a3 += e * h
        children += ch
    return a1, a3, odd, children, children - adj


class ComparedWalkKernels(SimpleNamespace):
    """The kernels ``base``, with a ``link_leaf_sum`` that checks every
    node the engine walks against the two-pass reference, and counts them."""

    def __init__(self, base):
        super().__init__(**vars(base))
        self.walked = self.split = 0
        walk = base.link_leaf_sum

        def link_leaf_sum(conn, sign, labels, starts):
            got = walk(conn, sign, labels, starts)
            self.walked += 1
            if len(starts) == 2 and K.split_components(conn, labels, 2):
                self.split += 1
                assert got is None
            else:
                assert got == two_pass_leaf_sum_reference(conn, sign, labels, starts)
            return got

        self.link_leaf_sum = link_leaf_sum


class TestFiledWalk:
    """The walk that files the knot children's first-component terms
    against the two-pass form it replaced, on every simplified, compacted
    node the engine walks, from any basepoints; and its split check against
    ``split_components``."""

    @given(braid_words(max_letters=12), st.booleans(), st.none() | st.integers(0, 2**31 - 1))
    @example(BraidWord(4, (1, 1, 1, 3, 3, 3)), False, None)
    def test_matches_the_two_pass_kernel(self, word, axis, seed):
        d = axis_link_diagram(word) if axis else closure_diagram(word)
        base = K if seed is None else ShuffledStartsKernels(seed)
        for degree in (3, d.crossings):
            SkeinEngine(ComparedWalkKernels(base)).truncated(d, degree)

    def test_a_split_closing_node_is_zero_with_no_child(self):
        # two trefoils side by side: the root is a two-component node at
        # budget 3, and its first component meets no inter-component
        # crossing; the engine returns zeros with the counts the
        # split_components check gave, and no memo entry
        d = closure_diagram(BraidWord(4, (1, 1, 1, 3, 3, 3)))
        kernels = ComparedWalkKernels(CountingKernels())
        eng = SkeinEngine(kernels)
        assert eng.truncated(d, 3).coeffs == (0, 0, 0, 0)
        assert (eng.nodes, eng.hits, eng.leaves) == (1, 0, 0)
        assert (kernels.walked, kernels.split) == (1, 1)
        assert "split_components" not in kernels.calls and not eng.memo


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


def half_sums(conn, sign, start):
    """The two orders of the pairs a knot's leaves sum, walked from
    ``start``: the sums of e_x * e_y over the interleaved pairs of a
    violation x and a non-violation y met x, y, x, y, and met y, x, y, x."""
    walk = []
    cur = start
    while True:
        walk.append(cur)
        cur = conn[cur + 1]
        if cur == start:
            break
    visits = {}
    for t, q in enumerate(walk):
        visits.setdefault(q >> 2, []).append((t, q & 2))
    chords = [(a, b, under, k) for k, ((a, under), (b, _)) in visits.items()]
    first = second = 0
    for a, b, under, x in chords:
        if not under:
            continue
        for c, d, under2, y in chords:
            if under2:
                continue
            if a < c < b < d:
                first += sign[x] * sign[y]
            elif c < a < d < b:
                second += sign[x] * sign[y]
    return first, second


def knot_case(conn, sign, start):
    """``link_leaf_sum`` on a knot walked from its one basepoint ``start``."""
    return K.link_leaf_sum(conn, sign, K.trace_inports(conn)[0], [start])


@st.composite
def knot_pairings(draw, max_crossings=7):
    """A one-component port pairing, planar or not, as ``(conn, sign)``:
    the walk visits every in-port once, in a drawn order."""
    n = draw(st.integers(1, max_crossings))
    walk = draw(st.permutations(range(0, 4 * n, 2)))
    conn = [0] * (4 * n)
    for q, nxt in zip(walk, walk[1:] + walk[:1]):
        conn[q + 1] = nxt
        conn[nxt] = q + 1
    sign = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    return conn, sign


class TestKnotLeafSum:
    """The kernel's one-component case, a knot at budget 2, against the
    one-sweep knot kernel it absorbed (kept as ``knot_leaf_sum_reference``'s
    walk-then-arcs form) and against the per-leaf route."""

    @given(knot_words(), st.data())
    def test_matches_the_walk_then_arcs_kernel(self, word, data):
        node = reduced_node(closure_diagram(word))
        if node is None:
            return  # a crossing-free unknot
        conn, sign = node
        start = data.draw(st.sampled_from(range(0, len(conn), 2)))
        total, *rest = knot_leaf_sum_reference(conn, sign[:], start)
        assert rest[0] == 0 and total % 2 == 0
        assert knot_case(conn, sign, start) == ((1, 0, total >> 1), *rest)

    @given(knot_words(), st.data())
    def test_matches_the_per_leaf_route(self, word, data):
        node = reduced_node(closure_diagram(word))
        if node is None:
            return  # a crossing-free unknot
        conn, sign = node
        start = data.draw(st.sampled_from(range(0, len(conn), 2)))
        before = sign[:]
        want = knot_leaf_reference(conn, sign[:], start)
        coeffs, odd, children, leaves, ports = knot_case(conn, sign, start)
        assert odd == 0 and ports == len(conn) // 2
        assert (coeffs[2], children, leaves) == want
        assert sign == before  # read-only: the node flips the signs itself

    @given(knot_words(), st.data())
    def test_each_order_is_half_the_total(self, word, data):
        # Polyak and Viro: on a planar diagram each order of the pairs gives
        # a_2, the order _knot_children closes a link's knot children with
        node = reduced_node(closure_diagram(word))
        if node is None:
            return  # a crossing-free unknot
        conn, sign = node
        start = data.draw(st.sampled_from(range(0, len(conn), 2)))
        a2 = knot_case(conn, sign, start)[0][2]
        assert half_sums(conn, sign, start) == (a2, a2)

    @settings(max_examples=300)
    @given(knot_pairings(), st.data())
    def test_matches_the_reference_on_any_pairing(self, pairing, data):
        # most pairings have no planar diagram, and many have an odd arc;
        # the kernel walks the node the pairing simplifies to
        d = LinkDiagram(*pairing)
        node = reduced_node(d)
        if node is None:
            assert SkeinEngine().truncated(d, 2).coeffs == (1, 0, 0)
            return
        conn, sign = node
        start = data.draw(st.sampled_from(range(0, len(conn), 2)))
        total, *rest = knot_leaf_sum_reference(conn, sign[:], start)
        coeffs, *got = knot_case(conn, sign, start)
        assert got == rest
        assert coeffs == (None if rest[0] else (1, 0, total >> 1))
        # the engine closes that node from its basepoint, and raises exactly
        # when an arc there is odd
        total, odd = knot_leaf_sum_reference(conn, sign[:], K.trace_inports(conn)[2][0])[:2]
        if odd:
            with pytest.raises(ConwayError, match="odd inter-component crossing count"):
                SkeinEngine().truncated(d, 2)
        else:
            assert SkeinEngine().truncated(d, 2).coeffs == (1, 0, total >> 1)

    def test_odd_arc_count_is_rejected(self):
        # a Gauss code no planar diagram has: walking from in-port 0, the
        # arc between crossing 1's visits meets crossing 0 only once
        conn, sign = [5, 6, 7, 4, 3, 0, 1, 2], [1, 1]
        assert K.trace_inports(conn)[1] == 1
        assert knot_case(conn, sign, 0) == (None, 1, 1, 1, 4)
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
        "assert linking_matrix(d) == ((0, 1, 0), (1, 0, 1), (0, 1, 0))\n"
        "assert delete_component(BraidWord(3, (1, 1, 2, 2)), 1) == BraidWord(2, (1, 1))\n"
        "sys.exit(main(['info', '--n', '3', '--', '1', '1', '2']))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(braidax.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert "numpy" not in proc.stderr
