"""The compiled and plain kernel paths must be interchangeable."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidax import BraidWord, LinkDiagram, SkeinEngine, axis_link_diagram, closure_diagram
from braidax.kernels import NUMBA_AVAILABLE, PYTHON_KERNELS, get_kernels

from conftest import braid_words

needs_numba = pytest.mark.skipif(not NUMBA_AVAILABLE, reason="numba not installed")


@needs_numba
class TestDualPath:
    @given(braid_words(max_letters=8))
    @settings(max_examples=25)
    def test_trace_and_split_agree(self, word):
        d = axis_link_diagram(word)
        jit = get_kernels("numba")
        py = get_kernels("python")
        lj, nj, sj = jit.trace_inports(d.conn)
        lp, np_, sp_ = py.trace_inports(d.conn)
        assert nj == np_
        assert (np.asarray(lj) == np.asarray(lp)).all()
        assert (np.asarray(sj) == np.asarray(sp_)).all()
        assert jit.split_components(d.conn, lj, nj) == py.split_components(d.conn, lp, np_)

    @given(braid_words(max_letters=8))
    @settings(max_examples=25)
    def test_chain_scan_agrees(self, word):
        d = closure_diagram(word)
        if d.crossings == 0:
            return
        jit = get_kernels("numba")
        py = get_kernels("python")
        labels, ncomp, starts = py.trace_inports(d.conn)
        nb_j, ids_j, eps_j = jit.chain_scan(d.conn, d.sign, starts)
        nb_p, ids_p, eps_p = py.chain_scan(d.conn, d.sign, starts)
        assert nb_j == nb_p
        assert list(ids_j) == list(ids_p)
        assert list(eps_j) == list(eps_p)

    @given(braid_words(max_letters=8))
    @settings(max_examples=25)
    def test_simplify_agrees(self, word):
        d = closure_diagram(word)
        for flavor_pair in [("numba", "python")]:
            a, b = (get_kernels(f) for f in flavor_pair)
            ca, sa = d.arrays()
            cb, sb = d.arrays()
            la = int(a.reidemeister_simplify(ca, sa))
            lb = int(b.reidemeister_simplify(cb, sb))
            assert la == lb
            assert (np.asarray(a.compact(ca, sa)[0]) == np.asarray(b.compact(cb, sb)[0])).all()

    @given(braid_words(max_letters=8), st.booleans(), st.data())
    @settings(max_examples=25)
    def test_smooth_and_delete_agree(self, word, axis, data):
        d = axis_link_diagram(word) if axis else closure_diagram(word)
        if d.crossings == 0:
            return
        jit = get_kernels("numba")
        py = get_kernels("python")
        c = data.draw(st.integers(0, d.crossings - 1))
        labels, ncomp, _ = py.trace_inports(d.conn)
        kill = np.array(data.draw(st.lists(st.booleans(), min_size=ncomp, max_size=ncomp)))
        for op in (
            lambda K, conn, sign: K.smooth_inplace(conn, sign, c),
            lambda K, conn, sign: K.delete_marked_components(conn, sign, labels, kill),
        ):
            ca, sa = d.arrays()
            cb, sb = d.arrays()
            assert int(op(jit, ca, sa)) == int(op(py, cb, sb))
            for x, y in zip(jit.compact(ca, sa), py.compact(cb, sb)):
                assert np.asarray(x).tolist() == np.asarray(y).tolist()

    @given(braid_words(max_letters=8), st.booleans(), st.data())
    @settings(max_examples=25)
    def test_linking_counts_agree_uncompacted(self, word, axis, data):
        d = axis_link_diagram(word) if axis else closure_diagram(word)
        conn, sign = d.arrays()
        if d.crossings:
            PYTHON_KERNELS.smooth_inplace(conn, sign, data.draw(st.integers(0, d.crossings - 1)))
        nj, cj = get_kernels("numba").linking_counts(conn, sign)
        assert (int(nj), [int(x) for x in cj]) == get_kernels("python").linking_counts(conn, sign)

    @given(braid_words(max_letters=10, max_strands=5))
    @settings(max_examples=15)
    def test_engine_results_identical(self, word):
        d = axis_link_diagram(word)
        jit_eng = SkeinEngine(get_kernels("numba"))
        py_eng = SkeinEngine(get_kernels("python"))
        assert jit_eng.truncated(d, 3).coeffs == py_eng.truncated(d, 3).coeffs


def compact_reference(conn, sign):
    """Crossing-by-crossing renumbering, the loop the kernel must match."""
    newidx = {}
    for c in range(sign.shape[0]):
        if sign[c] != 0:
            newidx[c] = len(newidx)
    new_conn = np.empty(4 * len(newidx), dtype=np.int32)
    new_sign = np.empty(len(newidx), dtype=np.int8)
    for c, k in newidx.items():
        new_sign[k] = sign[c]
        for r in range(4):
            q = int(conn[4 * c + r])
            new_conn[4 * k + r] = 4 * newidx[q >> 2] + (q & 3)
    return new_conn, new_sign


def linking_counts_reference(conn, sign):
    """``compact``, a full ``trace_inports`` and a per-crossing loop: the
    route a Hoste leaf took before the kernel read uncompacted arrays."""
    conn, sign = PYTHON_KERNELS.compact(conn, sign)
    labels, ncomp, _ = PYTHON_KERNELS.trace_inports(conn)
    m = np.zeros((ncomp, ncomp), dtype=np.int64)
    for c in range(sign.shape[0]):
        a, b = labels[4 * c], labels[4 * c + 2]
        if a != b:
            m[a, b] += sign[c]
            m[b, a] += sign[c]
    return ncomp, m.ravel().tolist()


class TestCompact:
    """The plain path alone, so it is checked whether or not numba is installed."""

    def check(self, conn, sign):
        got_conn, got_sign = PYTHON_KERNELS.compact(conn, sign)
        ref_conn, ref_sign = compact_reference(conn, sign)
        assert got_conn.dtype == np.int32 and got_sign.dtype == np.int8
        assert got_conn.tolist() == ref_conn.tolist()
        assert got_sign.tolist() == ref_sign.tolist()
        LinkDiagram(got_conn, got_sign).validate()
        return got_conn, got_sign

    @given(braid_words(max_letters=10), st.booleans(), st.data())
    def test_matches_loop_after_surgery(self, word, axis, data):
        d = axis_link_diagram(word) if axis else closure_diagram(word)
        conn, sign = d.arrays()
        for _ in range(data.draw(st.integers(0, 3))):
            live = np.flatnonzero(sign)
            if live.size == 0:
                break
            c = data.draw(st.sampled_from(live.tolist()))
            PYTHON_KERNELS.smooth_inplace(conn, sign, c)
        PYTHON_KERNELS.reidemeister_simplify(conn, sign)
        self.check(conn, sign)

    def test_nothing_removed_is_identity(self):
        d = axis_link_diagram(BraidWord(3, (1, -2, 1)))
        conn, sign = self.check(*d.arrays())
        assert conn.tolist() == d.conn.tolist() and sign.tolist() == d.sign.tolist()

    def test_everything_removed_is_empty(self):
        conn, sign = closure_diagram(BraidWord(3, (1, -1, 2, -2))).arrays()
        assert PYTHON_KERNELS.reidemeister_simplify(conn, sign) == 3
        assert not sign.any()
        conn, sign = self.check(conn, sign)
        assert conn.shape == (0,) and sign.shape == (0,)


def remove_set_reference(conn, sign, dead, wire):
    """Delete the crossings marked in ``dead``; ``wire[q]`` is the out-port
    the strand entering at in-port q of a dead crossing continues through,
    or -1 when that strand is discarded.  Returns the loops split off."""
    handled = np.zeros(conn.shape[0], dtype=np.bool_)
    loops = 0
    # strands entering the dead region from a live crossing
    for c in np.flatnonzero(dead):
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
    for c in np.flatnonzero(dead):
        for q in (4 * c, 4 * c + 2):
            if wire[q] < 0 or handled[q]:
                continue
            loops += 1
            cur = q
            while not handled[cur]:
                handled[cur] = True
                cur = conn[wire[cur]]
    sign[dead] = 0
    return loops


def _dead_wire(sign, wiring):
    """``dead``/``wire`` arrays removing the crossings of ``wiring``
    ({in-port: out-port or -1})."""
    dead = np.zeros(sign.shape[0], dtype=np.bool_)
    wire = np.full(4 * sign.shape[0], -1, dtype=np.int32)
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
        for c in range(sign.shape[0]):
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
    for c in range(sign.shape[0]):
        over_dies = kill[labels[4 * c]]
        under_dies = kill[labels[4 * c + 2]]
        if over_dies or under_dies:
            wiring[4 * c] = -1 if over_dies else 4 * c + 1
            wiring[4 * c + 2] = -1 if under_dies else 4 * c + 3
    return remove_set_reference(conn, sign, *_dead_wire(sign, wiring))


class TestSplice:
    """Every removal against the dead/wire loop reference, on the plain path."""

    def check(self, d, op, ref):
        conn, sign = d.arrays()
        rconn, rsign = d.arrays()
        assert int(op(conn, sign)) == ref(rconn, rsign)
        got = PYTHON_KERNELS.compact(conn, sign)
        want = compact_reference(rconn, rsign)
        assert [a.tolist() for a in got] == [a.tolist() for a in want]
        return got

    @given(braid_words(max_letters=10), st.booleans(), st.data())
    def test_matches_reference(self, word, axis, data):
        d = axis_link_diagram(word) if axis else closure_diagram(word)
        K = PYTHON_KERNELS
        self.check(d, K.reidemeister_simplify, simplify_reference)
        if d.crossings == 0:
            return
        c = data.draw(st.integers(0, d.crossings - 1))
        self.check(
            d,
            lambda conn, sign: K.smooth_inplace(conn, sign, c),
            lambda conn, sign: smooth_reference(conn, sign, c),
        )
        labels, ncomp, _ = K.trace_inports(d.conn)
        killed = data.draw(st.sets(st.integers(0, ncomp - 1), min_size=1))
        kill = np.isin(np.arange(ncomp), list(killed))
        self.check(
            d,
            lambda conn, sign: K.delete_marked_components(conn, sign, labels, kill),
            lambda conn, sign: delete_reference(conn, sign, labels, kill),
        )

    def test_kink_closure_is_one_loop(self):
        conn, sign = closure_diagram(BraidWord(2, (1,))).arrays()
        assert PYTHON_KERNELS.reidemeister_simplify(conn, sign) == 1
        assert PYTHON_KERNELS.compact(conn, sign)[1].shape == (0,)

    def test_clasp_closure_is_two_loops(self):
        conn, sign = closure_diagram(BraidWord(2, (1, -1))).arrays()
        assert PYTHON_KERNELS.reidemeister_simplify(conn, sign) == 2
        assert not sign.any()

    def test_smoothing_a_kink_splits_off_its_loop(self):
        d = closure_diagram(BraidWord(3, (1, 1, 2)))
        assert d.conn[4 * 2 + 1] == 4 * 2 + 2  # crossing 2 is a kink
        conn, sign = self.check(
            d,
            lambda conn, sign: PYTHON_KERNELS.smooth_inplace(conn, sign, 2),
            lambda conn, sign: smooth_reference(conn, sign, 2),
        )
        assert sign.tolist() == [1, 1]
        assert PYTHON_KERNELS.trace_inports(conn)[1] == 2


class TestLinkingCounts:
    """The one-walk leaf kernel against compact + trace + loop, uncompacted."""

    def check(self, conn, sign):
        got = PYTHON_KERNELS.linking_counts(conn, sign)
        assert got == linking_counts_reference(conn, sign)
        assert all(type(x) is int for x in got[1])
        return got

    @given(braid_words(max_letters=10), st.booleans(), st.data())
    def test_matches_reference_after_surgery(self, word, axis, data):
        d = axis_link_diagram(word) if axis else closure_diagram(word)
        K = PYTHON_KERNELS
        conn, sign = d.arrays()
        self.check(conn, sign)
        if d.crossings == 0:
            return
        if data.draw(st.booleans()):
            labels, ncomp, _ = K.trace_inports(conn)
            killed = data.draw(st.sets(st.integers(0, ncomp - 1)))
            K.delete_marked_components(conn, sign, labels, np.isin(np.arange(ncomp), list(killed)))
            self.check(conn, sign)
        for _ in range(data.draw(st.integers(0, 3))):
            live = np.flatnonzero(sign)
            if live.size == 0:
                break
            K.smooth_inplace(conn, sign, data.draw(st.sampled_from(live.tolist())))
            self.check(conn, sign)
        K.reidemeister_simplify(conn, sign)
        self.check(conn, sign)

    def test_only_self_crossings_count_zero(self):
        # two trefoils joined by a cancelling clasp, which simplify removes
        conn, sign = closure_diagram(BraidWord(4, (2, -2, 1, 1, 1, 3, 3, 3))).arrays()
        PYTHON_KERNELS.reidemeister_simplify(conn, sign)
        assert sign.tolist()[:2] == [0, 0] and sign[2:].all()
        assert self.check(conn, sign) == (2, [0, 0, 0, 0])

    @pytest.mark.parametrize("e", [1, -1])
    def test_hopf_link(self, e):
        d = closure_diagram(BraidWord(2, (e, e)))
        assert self.check(*d.arrays()) == (2, [0, 2 * e, 2 * e, 0])


class TestFlavorSelection:
    def test_python_flavor_is_plain_functions(self):
        assert PYTHON_KERNELS.jitted is False
        assert get_kernels("python").trace_inports.__class__.__name__ == "function"

    @needs_numba
    def test_numba_flavor_is_compiled(self):
        assert get_kernels("numba").jitted is True
        assert get_kernels("numba").trace_inports.__class__.__name__ != "function"

    def test_unknown_flavor_rejected(self):
        with pytest.raises(ValueError):
            get_kernels("fortran")
