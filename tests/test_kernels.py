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
