"""Diagram construction, linking, surgery, and component deletion."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

import braidax.diagram
from braidax import (
    BraidWord,
    DiagramError,
    LinkDiagram,
    WordError,
    axis_link_diagram,
    axis_word,
    canonical_odd_knot_braid,
    closure_diagram,
    component_count,
    conway_polynomial,
    conway_truncated,
    cycle_decomposition,
    cyclic_free_reduce,
    delete_component,
    family_member,
    linking_matrix,
    mirror,
    permutation_of,
    square,
    strand_linking,
)
from braidax.kernels import get_kernels

from conftest import CountingKernels, braid_words

K = get_kernels()


def w(n, *letters):
    return BraidWord(n, letters)


def surgery(d, op, *args):
    """``d`` after the in-place kernel ``op`` on its lists, compacted."""
    conn, sign = d.arrays()
    loops = op(conn, sign, *args) or 0
    return LinkDiagram(*K.compact(conn, sign), d.free_loops + loops)


def components(word):
    """The closure's components as top-position sets, by smallest position:
    the order ``linking_matrix`` numbers them in, the axis after them."""
    return [set(c) for c in cycle_decomposition(permutation_of(word)).cycles]


def split(d):
    """Whether the components with crossings fall into two groups sharing none."""
    labels, ncomp, _ = K.trace_inports(d.conn)
    return K.split_components(d.conn, labels, ncomp)


class TestClosureConstruction:
    def test_identity_is_unlink(self):
        d = closure_diagram(BraidWord(3))
        assert d.crossings == 0
        assert d.free_loops == 3
        assert component_count(d) == 3

    def test_hopf(self):
        d = closure_diagram(w(2, 1, 1))
        assert d.crossings == 2
        assert component_count(d) == 2

    @given(braid_words())
    def test_component_count_matches_cycles(self, word):
        # oracle: cycles of the braid permutation
        expected = cycle_decomposition(permutation_of(word)).count
        assert component_count(closure_diagram(word)) == expected

    @given(braid_words())
    def test_valid_arc_pairing(self, word):
        conn = closure_diagram(word).conn
        for x, y in enumerate(conn):
            assert 0 <= y < len(conn) and conn[y] == x and (x ^ y) & 1


class TestDiagramChecks:
    @pytest.mark.parametrize("d", ["x", None, w(2, 1, 1, 1)], ids=["str", "None", "BraidWord"])
    @pytest.mark.parametrize("f", [linking_matrix, component_count])
    def test_non_diagram_rejected(self, f, d):
        with pytest.raises(DiagramError, match=f"need a LinkDiagram, got {type(d).__name__}"):
            f(d)

    @pytest.mark.parametrize(
        "conn",
        [
            (0, 0, 0, 0),  # every port paired with in-port 0
            (1, 2, 3, 0),  # out-port 1 into in-port 2, which leads back to 3
            (2, 3, 0, 1),  # an out->out arc and an in->in arc
            (1, 0, 3, 3),  # out-port 3 arced to itself
            (1, 0, 3, 4),  # out-port 3 past the last port
            (1, 0, 3, -2),  # out-port 3 into a negative port
            (-1, 0, 3, 2),  # in-port 0 arced to a negative port
            (1.0, 0, 3, 2),  # a float port, equal to the right int
            (True, 0, 3, 2),  # a bool port, equal to the right int
            (1, "a", 3, 2),  # a string out-port, which sorted() would not take
        ],
        ids=["all-zero", "non-involution", "out-to-out", "out-self", "past-end", "negative-out",
             "negative-in", "float-port", "bool-port", "str-port"],
    )
    def test_malformed_conn_rejected(self, conn):
        with pytest.raises(DiagramError, match="out-port with one in-port"):
            LinkDiagram(conn, (1,))

    @pytest.mark.parametrize("sign", [(0,), (2,), (-3,), (1.0,), (True,), (-1.0,), ([1],)])
    def test_bad_sign_rejected(self, sign):
        # a float or bool sign used to be stored as given, and an unhashable
        # one escaped from set() as a bare TypeError
        with pytest.raises(DiagramError, match=r"\+1 or -1"):
            LinkDiagram((1, 0, 3, 2), sign)

    @pytest.mark.parametrize(
        "conn,sign,what", [(None, (), "conn"), ((), None, "sign"), (4, (1,), "conn")]
    )
    def test_non_iterable_arrays_rejected(self, conn, sign, what):
        # tuple() would escape as a bare TypeError
        with pytest.raises(DiagramError, match=f"^{what} must be iterable, got "):
            LinkDiagram(conn, sign)

    def test_wrong_length_rejected(self):
        with pytest.raises(DiagramError, match="four ports per crossing"):
            LinkDiagram((1, 0, 3), (1,))

    @pytest.mark.parametrize("loops", [-3, -1, 1.5, 2.0, True, "2", None])
    def test_bad_free_loops_rejected(self, loops):
        # component_count and the engine would pass a negative count on as
        # is, and a float would fail inside the engine
        with pytest.raises(DiagramError, match="free_loops must be an int >= 0"):
            LinkDiagram((), (), loops)

    @pytest.mark.parametrize(
        "entries",
        [
            (999, 0),  # past the last port
            (8, 0),  # one past the last in-port
            (-2, 0),  # negative, but not -1
            (1, 0),  # an out-port
            (0.0, 2),  # not an int
            (True, 2),  # a bool
            [0, 2],  # not a tuple
            "02",
        ],
        ids=["past-end", "past-last", "negative", "out-port", "float", "bool", "list", "str"],
    )
    def test_bad_entries_rejected(self, entries):
        d = closure_diagram(w(2, 1, 1))  # the Hopf link: in-ports 0, 2, 4 and 6
        with pytest.raises(DiagramError, match="entries must be None or a tuple"):
            LinkDiagram(d.conn, d.sign, 0, entries)

    @pytest.mark.parametrize("entries", [None, (), (-1, 6), (0, 2, -1)])
    def test_good_entries_accepted(self, entries):
        d = closure_diagram(w(2, 1, 1))
        assert LinkDiagram(d.conn, d.sign, 1, entries).entries == entries


class TestBraidBuiltDiagrams:
    """Braid-built words and diagrams skip the constructors' checks; this is
    the one place those checks see them."""

    @given(braid_words(max_strands=8, max_letters=20))
    def test_public_constructor_accepts_braid_built_diagrams(self, word):
        for d in (closure_diagram(word), axis_link_diagram(word)):
            assert type(d.conn) is tuple and type(d.sign) is tuple and type(d.entries) is tuple
            again = LinkDiagram(d.conn, d.sign, d.free_loops, d.entries)
            assert (again.conn, again.sign, again.free_loops, again.entries) == (
                d.conn, d.sign, d.free_loops, d.entries)

    def test_axis_link_sample_runs_no_check(self, monkeypatch):
        form = canonical_odd_knot_braid(7)
        calls = []
        for cls in (BraidWord, LinkDiagram):
            def counting(self, *args, check=cls.__init__, name=cls.__name__):
                calls.append(name)
                check(self, *args)
            monkeypatch.setattr(cls, "__init__", counting)
        word = cyclic_free_reduce(square(family_member(form, 1)))
        d = axis_link_diagram(word)
        assert calls == []
        assert d.crossings == len(word) + 2 * 7
        # the counters do see a construction from outside braidax
        LinkDiagram(d.conn, d.sign, d.free_loops, d.entries)
        BraidWord(2, (1,))
        assert calls == ["LinkDiagram", "BraidWord"]


class TestAxisConstruction:
    def test_single_strand_gives_hopf(self):
        d = axis_link_diagram(BraidWord(1))
        assert d.crossings == 2
        assert component_count(d) == 2
        assert linking_matrix(d) == ((0, 1), (1, 0))

    def test_two_trivial_strands(self):
        d = axis_link_diagram(BraidWord(2))
        lk = linking_matrix(d)
        assert component_count(d) == 3
        # labels: strand components first, axis last
        assert lk[0][2] == 1 and lk[1][2] == 1 and lk[0][1] == 0

    def test_axis_label_is_last(self):
        # components (1 2) and (3), then the axis, linking them 2 and 1 times
        word = w(3, 1)
        assert components(word) == [{1, 2}, {3}]
        assert linking_matrix(axis_link_diagram(word)) == (
            (0, 0, 2),
            (0, 0, 1),
            (2, 1, 0),
        )

    @given(braid_words(max_strands=8))
    def test_component_count_and_crossings(self, word):
        d = axis_link_diagram(word)
        cycles = cycle_decomposition(permutation_of(word))
        assert component_count(d) == cycles.count + 1
        assert d.crossings == len(word.letters) + 2 * word.strands

    @given(braid_words(max_strands=8))
    def test_axis_links_each_component_by_strand_count(self, word):
        cycles = components(word)
        lk = linking_matrix(axis_link_diagram(word))
        assert len(lk) == len(cycles) + 1
        for j, cyc in enumerate(cycles):
            assert lk[j][len(cycles)] == len(cyc)

    def test_axis_word(self):
        assert axis_word(w(2, 1, 1, 1)) == w(3, 1, 1, 1, 2, 1, 1, 2)
        assert axis_word(BraidWord(1)) == w(2, 1, 1)

    @given(braid_words())
    def test_axis_word_is_the_closure_plus_one_circle(self, word):
        # the axis is a component of its own: its top position is fixed, and
        # deleting it gives back the word
        n = word.strands
        braid = axis_word(word)
        assert permutation_of(braid)(n + 1) == n + 1
        assert delete_component(braid, n + 1) == word

    @pytest.mark.parametrize(
        "word", [BraidWord(1), w(2, 1), w(2, -1, -1, -1), w(3, 1, -2, 1, -2), w(4, 1, 3)]
    )
    def test_axis_word_closes_to_axis_link(self, word):
        d = axis_link_diagram(word)
        nabla = conway_truncated(d, d.crossings).coeffs
        burau = conway_polynomial(axis_word(word))
        assert nabla == burau + (0,) * (len(nabla) - len(burau))


class TestLinkingMatrix:
    def test_hopf_value(self):
        assert linking_matrix(closure_diagram(w(2, 1, 1)))[0][1] == 1

    @given(braid_words(min_strands=3))
    def test_matches_strand_linking(self, word):
        # independent computation: position tracking through the word
        cycles = components(word)
        lk = linking_matrix(closure_diagram(word))
        assert len(lk) == len(cycles)
        for a in range(len(cycles)):
            for b in range(a + 1, len(cycles)):
                want = strand_linking(word, cycles[a], cycles[b])
                assert lk[a][b] == want
                assert lk[b][a] == want

    @pytest.mark.parametrize(
        "d",
        [LinkDiagram((), (), k) for k in range(4)]
        + [closure_diagram(BraidWord(n)) for n in range(1, 5)],
    )
    def test_crossing_free_diagram(self, d):
        # no crossing to trace: every component is a free loop, unlinked
        p = d.free_loops
        assert component_count(d) == p
        assert linking_matrix(d) == ((0,) * p,) * p
        assert conway_truncated(d, 2).coeffs == (int(p == 1), 0, 0)

    @given(braid_words())
    def test_mirror_negates_entries(self, word):
        a = linking_matrix(closure_diagram(word))
        b = linking_matrix(closure_diagram(mirror(word)))
        assert a == tuple(tuple(-x for x in row) for row in b)

    def test_rejects_an_odd_inter_component_count(self):
        # each strand of one crossing closes on itself: two components that
        # cross once, a pairing no planar diagram has
        with pytest.raises(DiagramError, match="odd inter-component crossing count"):
            linking_matrix(LinkDiagram((1, 0, 3, 2), (1,)))

    @pytest.mark.parametrize(
        "entries",
        [
            lambda e: e[:-1],  # the axis's entry dropped
            lambda e: e[:1] + e[:-1],  # the axis's entry replaced by a strand's
            lambda e: e + (-1,),  # a free loop the diagram does not have
            lambda e: e[:2] + (-1,) + e[3:],  # component (3) taken for a free loop
        ],
    )
    def test_rejects_entries_that_miss_the_traced_components(self, entries):
        d = axis_link_diagram(w(3, 1, 1))  # components (1), (2), (3) and the axis
        with pytest.raises(DiagramError, match="entries do not match"):
            linking_matrix(LinkDiagram(d.conn, d.sign, d.free_loops, entries(d.entries)))


class TestSurgery:
    def test_smooth_single_crossing_closure(self):
        # oriented smoothing of the one-crossing unknot splits it in two
        d = closure_diagram(w(2, 1))
        assert component_count(surgery(d, K.smooth_inplace, 0, [])) == 2

    def test_smooth_and_switch_form_skein_triple(self):
        d = closure_diagram(w(3, 1, 1, 2))
        for c in range(d.crossings):
            p_orig = component_count(d)
            p_switch = component_count(surgery(d, K.switch_inplace, c))
            p_smooth = component_count(surgery(d, K.smooth_inplace, c, []))
            assert p_switch == p_orig
            assert abs(p_smooth - p_orig) == 1

    @given(braid_words(max_letters=8), st.data())
    def test_skein_triple_component_counts(self, word, data):
        d = closure_diagram(word)
        if d.crossings == 0:
            return
        c = data.draw(st.integers(0, d.crossings - 1))
        assert component_count(surgery(d, K.switch_inplace, c)) == component_count(d)
        assert abs(component_count(surgery(d, K.smooth_inplace, c, [])) - component_count(d)) == 1

    def test_switch_both_hopf_crossings(self):
        d = closure_diagram(w(2, 1, 1))
        flipped = surgery(surgery(d, K.switch_inplace, 0), K.switch_inplace, 1)
        assert linking_matrix(flipped)[0][1] == -1

    def test_switch_is_involution(self):
        d = closure_diagram(w(3, 1, 2, -1))
        again = surgery(surgery(d, K.switch_inplace, 1), K.switch_inplace, 1)
        assert again.conn == d.conn
        assert again.sign == d.sign

    # components are deleted on the braid word, before the diagram is built

    def test_delete_component_of_hopf(self):
        rest = closure_diagram(delete_component(w(2, 1, 1), 1))
        assert component_count(rest) == 1
        assert rest.crossings == 0

    def test_delete_axis(self):
        # the axis link of the rest is the axis link less that component
        word = w(4, 1, 1, 2, -3, 2)
        assert components(word) == [{1}, {2, 4}, {3}]
        full = linking_matrix(axis_link_diagram(word))
        rest = linking_matrix(axis_link_diagram(delete_component(word, 4)))
        assert rest == tuple(row[:1] + row[2:] for row in full[:1] + full[2:])

    def test_delete_invalid_label(self):
        for strand in (0, 3, -1):
            with pytest.raises(WordError, match="out of range"):
                delete_component(w(2, 1, 1), strand)

    @pytest.mark.parametrize("strand", [1.0, True, "1", None])
    def test_delete_non_int_label(self, strand):
        # True would pass as strand 1, and a float would index a list
        with pytest.raises(WordError, match="strand must be an int"):
            delete_component(w(2, 1, 1), strand)

    @pytest.mark.parametrize("word", [w(2, 1), w(3, 1, 2), BraidWord(1)])
    def test_delete_only_component_of_a_knot(self, word):
        with pytest.raises(WordError, match="only component"):
            delete_component(word, 1)

    def test_delete_renumbers_the_surviving_strands(self):
        assert delete_component(w(3, 1, 1, 2, 2), 1) == w(2, 1, 1)
        assert delete_component(w(3, 1, 1, 2, 2), 2) == BraidWord(2)
        # components (1), (2), (3 4); sigma_2 first meets strands 2 and 4
        assert delete_component(w(4, 1, 1, -3, 2, 2), 1) == w(3, -2, 1, 1)
        assert delete_component(w(4, 1, 1, -3, 2, 2), 4) == w(2, 1, 1)

    @given(braid_words())
    def test_mirror_commutes_with_closure(self, word):
        # the closure of the mirror word is the reflected closure: every
        # crossing switched, so port x takes role x ^ 2 and every sign flips
        d = closure_diagram(word)
        m = closure_diagram(mirror(word))
        assert all(m.conn[x ^ 2] == y ^ 2 for x, y in enumerate(d.conn))
        assert m.sign == tuple(-s for s in d.sign)


class TestOneTrace:
    """``linking_matrix`` traces once; deletion on the word calls no kernel."""

    @pytest.fixture
    def kernels(self, monkeypatch):
        kernels = CountingKernels()
        monkeypatch.setattr(braidax.diagram, "get_kernels", lambda: kernels)
        return kernels

    def test_linking_matrix(self, kernels):
        lk = linking_matrix(closure_diagram(w(3, 1, 1, 2, 2)))
        assert lk == ((0, 1, 0), (1, 0, 1), (0, 1, 0))
        assert kernels.calls == {"trace_inports": 1, "linking_counts": 1}

    def test_delete_component(self, kernels):
        rest = closure_diagram(delete_component(w(3, 1, 1, 2, 2), 1))
        assert kernels.calls == {}
        assert rest.crossings == 2 and component_count(rest) == 2


class TestSimplify:
    def test_kink_removal(self):
        d = surgery(closure_diagram(w(2, 1)), K.reidemeister_simplify)
        assert d.crossings == 0 and d.free_loops == 1

    def test_cancelling_pair(self):
        d = surgery(closure_diagram(w(2, 1, -1)), K.reidemeister_simplify)
        assert d.crossings == 0 and d.free_loops == 2
        assert conway_truncated(d, 2).coeffs == (0, 0, 0)  # the 2-unlink

    def test_hopf_not_simplified(self):
        assert surgery(closure_diagram(w(2, 1, 1)), K.reidemeister_simplify).crossings == 2

    def test_twist_chain_collapses(self):
        d = surgery(closure_diagram(w(2, 1, -1, 1, -1, 1, -1)), K.reidemeister_simplify)
        assert d.crossings == 0 and d.free_loops == 2

    @given(braid_words())
    def test_preserves_component_count(self, word):
        d = closure_diagram(word)
        assert component_count(surgery(d, K.reidemeister_simplify)) == component_count(d)

    @given(braid_words())
    def test_preserves_linking_multiset(self, word):
        # component labels may permute, so compare entry multisets
        d = closure_diagram(word)
        before = sorted(x for row in linking_matrix(d) for x in row)
        simplified = surgery(d, K.reidemeister_simplify)
        after = sorted(x for row in linking_matrix(simplified) for x in row)
        assert before == after


class TestSplitDetection:
    def test_distant_generators_closure(self):
        # closure of sigma_1^2 sigma_3^2 in B_5: two Hopf links sharing no
        # crossing, and strand 5 a free loop
        d = closure_diagram(w(5, 1, 1, 3, 3))
        assert split(d) and d.free_loops == 1

    def test_connected_closure(self):
        assert not split(closure_diagram(w(2, 1, 1)))

    def test_free_loop_beside_crossings(self):
        # the crossings form a connected Hopf link; the free loop splits it off
        d = closure_diagram(w(3, 1, 1))
        assert not split(d) and d.free_loops == 1
        assert conway_truncated(d, 3).coeffs == (0, 0, 0, 0)

    def test_single_unknot_not_split(self):
        d = surgery(closure_diagram(w(2, 1)), K.reidemeister_simplify)
        assert not split(d)
        assert conway_truncated(d, 2).coeffs == (1, 0, 0)
