"""Skein-engine values, invariants, and the lowest-coefficient formula."""

import random
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

import braidax.diagram
from braidax import (
    BraidWord,
    ConwayError,
    DiagramError,
    LinkDiagram,
    SkeinEngine,
    TruncatedPoly,
    axis_link_diagram,
    axis_sequence,
    axis_word,
    canonical_odd_knot_braid,
    closure_diagram,
    component_count,
    compose,
    conway_polynomial,
    conway_truncated,
    cyclic_free_reduce,
    family_member,
    full_conway,
    hoste_lowest,
    inverse,
    joint_cycle_check,
    linking_matrix,
    mirror,
    square,
    squared_family_check,
    two_cycle_check,
)
from braidax.kernels import get_kernels

from conftest import (
    CountingKernels,
    ShuffledStartsKernels,
    braid_words,
    spanning_tree_sum_enumerate,
)


def w(n, *letters):
    return BraidWord(n, letters)


# the squared dn family member of the canonical 9-strand knot form at m = 1
DN9 = cyclic_free_reduce(square(family_member(canonical_odd_knot_braid(9), 1)))


class NeverHits:
    """A memo that stores nothing, so every lookup misses."""

    def get(self, key):
        return None

    def __setitem__(self, key, value):
        pass


class TestBaseValues:
    def test_unknot_any_budget(self):
        d = closure_diagram(w(2, 1))
        assert conway_truncated(d, 5).coeffs == (1, 0, 0, 0, 0, 0)
        # a crossing-free unknot at budget 0 is a Hoste leaf at the root
        assert conway_truncated(closure_diagram(BraidWord(1)), 0).coeffs == (1,)

    def test_positive_hopf(self):
        # one skein step by hand: switching gives the 2-unlink (0),
        # smoothing gives the unknot (1), so nabla = z
        d = closure_diagram(w(2, 1, 1))
        assert conway_truncated(d, 1).coeffs == (0, 1)

    def test_trefoil(self):
        # one skein step: unknot + z * positive Hopf = 1 + z^2
        d = closure_diagram(w(2, 1, 1, 1))
        assert conway_truncated(d, 2).coeffs == (1, 0, 1)

    def test_figure_eight(self):
        d = closure_diagram(w(3, 1, -2, 1, -2))
        assert full_conway(d).coeffs[:3] == (1, 0, -1)

    def test_axis_of_two_trivial_strands(self):
        # two independent oracles: hand skein, and the spanning-tree formula
        # on linking numbers (1, 1, 0), both give a_2 = 1
        d = axis_link_diagram(BraidWord(2))
        assert hoste_lowest([[0, 0, 1], [0, 0, 1], [1, 1, 0]]) == 1
        assert conway_truncated(d, 2).coeffs == (0, 0, 1)

    def test_unlinks_vanish(self):
        d = closure_diagram(BraidWord(3))
        # a crossing-free diagram has no degree above 0, and a_0 is below
        # p - 1 = 2: the root asks for no degree at any budget
        for budget in (1, 2, 4):
            assert conway_truncated(d, budget).coeffs == (0,) * (budget + 1)

    def test_budget_zero_multicomponent_terminates(self):
        d = closure_diagram(w(3, 1, 1, 2, 2))
        assert conway_truncated(d, 0).coeffs == (0,)

    def test_negative_budget_rejected(self):
        with pytest.raises(ConwayError):
            conway_truncated(closure_diagram(w(2, 1)), -1)

    @pytest.mark.parametrize("budget", [2.5, 2.0, True, False, "2", None])
    def test_non_int_budget_rejected(self, budget):
        with pytest.raises(ConwayError, match="max_degree must be an int"):
            conway_truncated(closure_diagram(w(2, 1, 1, 1)), budget)

    @pytest.mark.parametrize("d", ["x", None, w(2, 1, 1, 1)], ids=["str", "None", "BraidWord"])
    def test_non_diagram_rejected(self, d):
        with pytest.raises(DiagramError, match="need a LinkDiagram, got "):
            conway_truncated(d, 2)
        with pytest.raises(DiagramError, match="need a LinkDiagram, got "):
            full_conway(d)

    def test_metadata_components(self):
        poly = conway_truncated(axis_link_diagram(BraidWord(2)), 2)
        assert poly.components == 3

    def test_window_access(self):
        poly = conway_truncated(closure_diagram(w(2, 1, 1, 1)), 2)
        with pytest.raises(ConwayError):
            poly[3]

    @pytest.mark.parametrize("m", [True, False, 1.0, "1", None], ids=repr)
    def test_window_index_must_be_an_int(self, m):
        # True would read a_1, and a float or a string would escape as a
        # TypeError from the tuple or the comparison
        poly = conway_truncated(closure_diagram(w(2, 1, 1, 1)), 2)
        with pytest.raises(ConwayError, match="coefficient index must be an int"):
            poly[m]

    def test_iterates_its_window(self):
        # without __iter__, iteration indexed past the window and raised
        poly = conway_truncated(closure_diagram(w(2, 1, 1, 1)), 2)
        assert list(poly) == list(poly.coeffs) == [1, 0, 1]
        assert 1 in poly and 7 not in poly

    def test_window_needs_one_coefficient_per_degree(self):
        with pytest.raises(ConwayError, match="exactly max_degree"):
            TruncatedPoly(2, (1, 0), 1)

    @pytest.mark.parametrize("coeffs", [None, 5, 1.5])
    def test_non_iterable_window_rejected(self, coeffs):
        # tuple() would escape as a bare TypeError
        with pytest.raises(ConwayError, match=f"^coeffs must be iterable, got {coeffs!r}$"):
            TruncatedPoly(1, coeffs, 2)


class TestEngineEquivalences:
    @given(braid_words(max_letters=8))
    def test_memo_does_not_change_results(self, word):
        d = axis_link_diagram(word)
        budget = min(component_count(d) + 1, 4)
        burau = (conway_polynomial(axis_word(word)) + (0,) * budget)[:budget + 1]
        unmemoized = SkeinEngine()
        unmemoized.memo = NeverHits()
        assert unmemoized.truncated(d, budget).coeffs == burau
        assert unmemoized.hits == 0
        assert conway_truncated(d, budget).coeffs == burau

    @given(braid_words(max_letters=8), st.integers(0, 2**31 - 1))
    def test_basepoint_independence(self, word, seed):
        d = closure_diagram(word)
        budget = min(component_count(d) + 1, 4)
        a = conway_truncated(d, budget).coeffs
        b = SkeinEngine(ShuffledStartsKernels(seed)).truncated(d, budget).coeffs
        assert a == b

    def test_seeded_shuffle_is_reproducible_and_exact(self):
        # two engines with one seed walk the same tree; the shuffled walk may
        # visit other nodes than the unshuffled one, never other values
        rng = random.Random(7)
        moved = 0
        for seed in range(40):
            n = rng.randint(2, 5)
            size = rng.randint(0, 10)
            letters = [rng.choice((-1, 1)) * rng.randint(1, n - 1) for _ in range(size)]
            word = BraidWord(n, tuple(letters))
            for d in (closure_diagram(word), axis_link_diagram(word)):
                budget = min(component_count(d) + 1, 4)
                plain = SkeinEngine()
                want = plain.truncated(d, budget).coeffs
                runs = []
                for _ in range(2):
                    eng = SkeinEngine(ShuffledStartsKernels(seed))
                    runs.append((eng.truncated(d, budget).coeffs, eng.nodes, eng.hits))
                assert runs[0] == runs[1]
                assert runs[0][0] == want
                moved += runs[0][1] != plain.nodes
        assert moved > 0

    @given(braid_words(max_letters=10))
    def test_parity_and_low_degree_vanishing(self, word):
        # the engine writes the vanishing coefficients itself, so the whole
        # window is checked against the Burau route as well
        d = closure_diagram(word)
        p = component_count(d)
        budget = min(p + 3, 6)
        poly = conway_truncated(d, budget)
        for m in range(budget + 1):
            if m < p - 1 or (m + p) % 2 == 0:
                assert poly[m] == 0
        assert poly.coeffs == (conway_polynomial(word) + (0,) * budget)[: budget + 1]

    @given(braid_words(max_letters=10))
    def test_lowest_coefficient_matches_formula(self, word):
        d = axis_link_diagram(word)
        p = component_count(d)
        burau = conway_polynomial(axis_word(word)) + (0,) * p
        assert burau[p - 1] == hoste_lowest(linking_matrix(d))

    @given(braid_words(max_letters=8), braid_words(max_letters=4))
    def test_conjugation_invariance_of_axis_link(self, word, conj):
        if conj.strands != word.strands:
            conj = BraidWord(
                word.strands, tuple(k for k in conj.letters if abs(k) < word.strands)
            )
        conjugated = compose(compose(conj, word), inverse(conj))
        budget = min(component_count(axis_link_diagram(word)) + 1, 4)
        assert (
            conway_truncated(axis_link_diagram(word), budget).coeffs
            == conway_truncated(axis_link_diagram(conjugated), budget).coeffs
        )

    @given(braid_words(max_letters=8))
    def test_mirror_rule(self, word):
        d = closure_diagram(word)
        budget = min(component_count(d) + 2, 5)
        a = conway_truncated(d, budget).coeffs
        b = conway_truncated(closure_diagram(mirror(word)), budget).coeffs
        assert b == tuple((-1) ** m * x for m, x in enumerate(a))

    def test_split_links_vanish(self):
        d = closure_diagram(w(5, 1, 1, 3, 3))
        assert conway_truncated(d, 4).coeffs == (0, 0, 0, 0, 0)


class TestSpanningTreeSum:
    def test_single_component(self):
        assert hoste_lowest([[0]]) == 1

    def test_two_components(self):
        assert hoste_lowest([[0, 5], [5, 0]]) == 5

    def test_three_components(self):
        # the three trees of the triangle: 1*2 + 1*3 + 2*3
        m = [[0, 1, 2], [1, 0, 3], [2, 3, 0]]
        assert spanning_tree_sum_enumerate(m) == 11
        assert hoste_lowest(m) == 11

    @pytest.mark.parametrize("p", range(1, 8))
    def test_evaluators_agree_on_random_matrices(self, p):
        rng = random.Random(100 + p)
        for _ in range(12):
            m = [[0] * p for _ in range(p)]
            for i in range(p):
                for j in range(i + 1, p):
                    m[i][j] = m[j][i] = rng.randint(-4, 4)
            assert spanning_tree_sum_enumerate(m) == hoste_lowest(m)

    def test_validation(self):
        with pytest.raises(ConwayError):
            hoste_lowest([[0, 1], [2, 0]])
        with pytest.raises(ConwayError):
            hoste_lowest([[1]])
        with pytest.raises(ConwayError):
            hoste_lowest([])
        with pytest.raises(ConwayError, match="square"):
            hoste_lowest([[0, 1], []])
        for m in (5, [[0, 1], 3], "01"):
            with pytest.raises(ConwayError, match="list of rows"):
                hoste_lowest(m)

    @pytest.mark.parametrize("x", [1.5, 2.0, "2", True, None])
    def test_non_int_entries_rejected(self, x):
        with pytest.raises(ConwayError, match="linking numbers must be ints"):
            hoste_lowest([[0, x], [x, 0]])


class TestEngineReuse:
    def test_shared_memo_accumulates(self):
        eng = SkeinEngine()
        d = axis_link_diagram(w(4, 1, 2, 3, 1))
        first = eng.truncated(d, 3).coeffs
        nodes_after_first = eng.nodes
        second = eng.truncated(d, 3).coeffs
        assert first == second
        assert eng.hits > 0 or eng.nodes == nodes_after_first + 1


class CarriedCountEngine(SkeinEngine):
    """Checks at every node that the component count handed down by the
    smoothing rule equals a fresh trace of the node's diagram, and that the
    node's budget is at least that count less one with budget + p odd: the
    root asks only for such a degree, and a smoothing keeps both.  The trace
    the root is handed labels the root's own diagram."""

    def _eval(self, conn, sign, loops, p, budget, todo, trace=None):
        assert budget >= p - 1 and (budget + p) % 2
        c, _ = get_kernels().compact(conn, sign)
        assert p == get_kernels().trace_inports(c)[1] + loops
        assert trace is None or trace[:2] == get_kernels().trace_inports(conn)[:2]
        return super()._eval(conn, sign, loops, p, budget, todo, trace)


class MiscountingEngine(SkeinEngine):
    """Hands every node one component too many, budget to match: a slip in
    the carried count that reaches the leaves."""

    def _eval(self, conn, sign, loops, p, budget, todo, trace=None):
        return super()._eval(conn, sign, loops, p + 1, budget + 1, todo, trace)


class BudgetLoggingEngine(SkeinEngine):
    """Logs the budget of every node it builds."""

    def __init__(self):
        super().__init__()
        self.budgets = []

    def _eval(self, conn, sign, loops, p, budget, todo, trace=None):
        self.budgets.append(budget)
        return super()._eval(conn, sign, loops, p, budget, todo, trace)


class StopCountingKernels(SimpleNamespace):
    """The kernels, counting the chain steps whose settling simplification
    (the one right after a ``switch_inplace``) split off a free loop."""

    def __init__(self):
        base = get_kernels()
        super().__init__(**vars(base))
        self.stops = 0
        self.after_switch = False

        def switch_inplace(*args):
            self.after_switch = True
            return base.switch_inplace(*args)

        def reidemeister_simplify(*args):
            loops = base.reidemeister_simplify(*args)
            self.stops += bool(self.after_switch and loops)
            self.after_switch = False
            return loops

        self.switch_inplace = switch_inplace
        self.reidemeister_simplify = reidemeister_simplify


class TestLeafFirstEngine:
    @given(
        braid_words(max_letters=8),
        st.booleans(),
        st.one_of(st.none(), st.integers(0, 2**31 - 1)),
    )
    def test_carried_component_count(self, word, axis, seed):
        d = axis_link_diagram(word) if axis else closure_diagram(word)
        budget = min(component_count(d) + 1, 4)

        def kernels():
            return get_kernels() if seed is None else ShuffledStartsKernels(seed)

        eng = CarriedCountEngine(kernels())
        ref = SkeinEngine(kernels())
        assert eng.truncated(d, budget).coeffs == ref.truncated(d, budget).coeffs

    def test_root_is_traced_with_the_engines_kernels(self, monkeypatch):
        axis = axis_link_diagram(w(3, 1, -2, 1))
        expected = conway_truncated(axis, 3).coeffs

        def process_wide(*_):
            raise AssertionError("engine reached the process-wide kernels")

        monkeypatch.setattr(braidax.diagram, "get_kernels", process_wide)
        kernels = CountingKernels()
        # three components at budget 0: zeros from the root's count alone
        split = closure_diagram(w(3, 1, 1, 2, 2))
        assert SkeinEngine(kernels).truncated(split, 0).coeffs == (0,)
        assert kernels.calls == {"trace_inports": 1}
        assert SkeinEngine(kernels).truncated(axis, 3).coeffs == expected

    def test_hoste_leaf_is_one_kernel_call(self):
        kernels = CountingKernels()
        eng = SkeinEngine(kernels)
        # the Hopf link at budget 1 is a Hoste leaf at the root, closed by
        # one linking_counts call right after the root node's trace: the
        # trace truncated made, since simplifying removes no crossing
        assert eng.truncated(closure_diagram(w(2, 1, 1)), 1).coeffs == (0, 1)
        assert kernels.calls == {
            "trace_inports": 1,
            "reidemeister_simplify": 1,
            "linking_counts": 1,
        }
        assert (eng.nodes, eng.leaves) == (1, 1)

    def test_a_root_that_loses_a_crossing_is_traced_again(self):
        # the kink sigma_2 leaves the Hopf link: the compacted root is
        # traced anew, and the trace truncated made is not reused
        kernels = CountingKernels()
        eng = SkeinEngine(kernels)
        assert eng.truncated(closure_diagram(w(3, 1, 1, 2)), 1).coeffs == (0, 1)
        assert kernels.calls == {
            "trace_inports": 2,
            "reidemeister_simplify": 1,
            "compact": 1,
            "linking_counts": 1,
        }
        assert (eng.nodes, eng.leaves) == (1, 1)

    def test_knot_node_closes_its_children_in_one_walk(self):
        kernels = CountingKernels()
        eng = SkeinEngine(kernels)
        # the trefoil at budget 2: the root is a knot node whose one child
        # is a Hoste leaf, closed with no chain_scan or switch
        assert eng.truncated(closure_diagram(w(2, 1, 1, 1)), 2).coeffs == (1, 0, 1)
        assert kernels.calls == {
            "trace_inports": 1,
            "reidemeister_simplify": 1,
            "link_leaf_sum": 1,
        }
        assert (eng.nodes, eng.leaves) == (2, 1)

    def test_leaf_rejects_a_wrong_component_count(self):
        # the trefoil at budget 2 has Hoste-leaf children, closed in the
        # root's walk and never traced: a wrong count reaching them is
        # rejected by the root's trace before any leaf is closed
        eng = MiscountingEngine(get_kernels())
        with pytest.raises(ConwayError, match="traced 1 components, carried 2"):
            eng.truncated(closure_diagram(w(2, 1, 1, 1)), 2)
        assert eng.leaves == 0
        # the Hopf link at budget 1 is a root leaf, closed like a built leaf
        # child right after its node's trace, which rejects the count first
        eng = MiscountingEngine(get_kernels())
        with pytest.raises(ConwayError, match="traced 2 components, carried 3"):
            eng.truncated(closure_diagram(w(2, 1, 1)), 1)
        assert eng.leaves == 0

    def test_interior_node_rejects_a_wrong_component_count(self):
        # the four-crossing torus link T(2, 4) at budget 3 is interior at the
        # root (the Hopf link's two crossings would cap its budget at 1)
        with pytest.raises(ConwayError, match="traced 2 components, carried 3"):
            MiscountingEngine(get_kernels()).truncated(closure_diagram(w(2, 1, 1, 1, 1)), 3)

    def test_knot_child_rejects_a_wrong_component_count(self):
        # T(2, 4) at budget 3 closes the knot children of its four
        # crossings inside its link_leaf_sum walk, never traced: a walk that
        # passes a crossing as its smoothing would joins the two components,
        # so each of the node's two walks visits every in-port
        kernels = SimpleNamespace(**vars(get_kernels()))

        def link_leaf_sum(conn, sign, labels, starts):
            conn = conn[:]
            conn[1], conn[3] = conn[3], conn[1]
            return get_kernels().link_leaf_sum(conn, sign, labels, starts)

        kernels.link_leaf_sum = link_leaf_sum
        d = closure_diagram(w(2, 1, 1, 1, 1))
        assert SkeinEngine().truncated(d, 3).coeffs == (0, 2, 0, 1)
        eng = SkeinEngine(kernels)
        with pytest.raises(ConwayError, match="traced 16 of 8 in-ports, carried 2"):
            eng.truncated(d, 3)
        assert (eng.nodes, eng.leaves) == (1, 0)

    def test_a_knot_child_never_frees_a_loop(self):
        # smoothing an inter-component crossing c frees a loop only when each
        # component passes c and nothing else (an inter-component crossing's
        # out-ports lead to the other component), and then each component
        # meets the other once: a node's link_leaf_sum rejects that odd
        # count before any child is closed.  The engine caps the root's
        # budget at its one crossing, so there it is a Hoste leaf, whose
        # tree sum rejects the count
        K = get_kernels()
        conn, sign = [1, 0, 3, 2], [1]
        labels, ncomp, starts = K.trace_inports(conn)
        assert ncomp == 2
        assert K.smooth_inplace(conn[:], sign[:], 0, []) == 1
        assert K.link_leaf_sum(conn, sign, labels, starts)[:2] == (None, 1)
        eng = SkeinEngine()
        with pytest.raises(ConwayError, match="odd inter-component crossing count"):
            eng.truncated(LinkDiagram(conn, sign), 3)
        assert eng.nodes == 1

    def test_odd_link_counts_are_rejected(self):
        # a two-component node at budget 3 checks the parity its
        # link_leaf_sum reports once, before any child is closed
        kernels = SimpleNamespace(**vars(get_kernels()))

        def link_leaf_sum(*args):
            coeffs, odd, children, leaves, ports = get_kernels().link_leaf_sum(*args)
            assert not odd
            return coeffs, 1, children, leaves, ports

        kernels.link_leaf_sum = link_leaf_sum
        d = closure_diagram(w(3, 1, 1, 1, 2, 2))  # a trefoil linked with an unknot
        assert SkeinEngine().truncated(d, 3).coeffs == (0, 1, 0, 1)
        eng = SkeinEngine(kernels)
        with pytest.raises(ConwayError, match="odd inter-component crossing count"):
            eng.truncated(d, 3)
        assert (eng.nodes, eng.leaves) == (1, 0)

    @pytest.mark.parametrize(
        "d, word, stops",
        [
            (axis_link_diagram(w(3, 2)), axis_word(w(3, 2)), 2),
            (closure_diagram(w(3, -1, 2, -1, 2)), w(3, -1, 2, -1, 2), 1),
        ],
        ids=["split_axis_link", "unknotted_figure_eight"],
    )
    def test_chain_stops_at_a_free_loop(self, d, word, stops):
        # a switch in a node's chain makes a kink or clasp whose removal
        # frees a loop: the switched diagram is split (the axis link, where
        # later violations are still live) or the unknot (the figure-eight,
        # p = 1), and the chain stops there with coeffs[0] for the rest
        kernels = StopCountingKernels()
        coeffs = SkeinEngine(kernels).truncated(d, d.crossings).coeffs
        assert kernels.stops == stops
        want = conway_polynomial(word)
        assert coeffs == want + (0,) * (len(coeffs) - len(want))

    @pytest.mark.parametrize(
        "run, nodes, hits, leaves, switches",
        [
            (lambda eng: squared_family_check(9, engine=eng).passed, 414, 0, 384, 0),
            (lambda eng: joint_cycle_check(5, engine=eng).passed, 580, 8, 445, 47),
            (lambda eng: two_cycle_check(2, 3, engine=eng).passed, 1357, 17, 1033, 76),
            # a_5 of the axis links of the canonical 9-strand knot family at
            # m = -2..2, the values the Burau route gives
            (
                lambda eng: axis_sequence(
                    canonical_odd_knot_braid(9), False, range(-2, 3), 5, engine=eng
                ).values == (-56, -14, 0, -14, -56),
                71782, 337, 63877, 2269,
            ),
        ],
        ids=["squared_family_9", "joint_cycle_5", "two_cycle_2_3", "odd_knot_9_a5"],
    )
    def test_pinned_node_counts(self, run, nodes, hits, leaves, switches):
        # leaves: every Hoste leaf, closed at the root, in a two-component
        # node's walk or in its three-or-more-component parent's arrays.  A
        # leaf closed in its parent is never simplified, so in joint_cycle_5
        # the four-component leaf whose built child would simplify to a free
        # loop beside 6 crossings counts as one, worth 0: that loop links
        # nothing.  switches: a node switches in conn each violation before
        # its last child; a two-component node at budget 3 closes its
        # children in one walk, so the a_3 of a knot's axis link switches
        # nothing in conn
        kernels = CountingKernels()
        eng = SkeinEngine(kernels)
        assert run(eng)
        assert (eng.nodes, eng.hits, eng.leaves) == (nodes, hits, leaves)
        assert kernels.calls.get("switch_inplace", 0) == switches

    @pytest.mark.parametrize(
        "d, word, degree, traffic",
        [
            (closure_diagram(DN9), DN9, 3, (38, 37)),
            (axis_link_diagram(DN9), axis_word(DN9), 4, (146, 136)),
            (closure_diagram(w(2, 1, 1)), w(2, 1, 1), 2, (1, 1)),
        ],
        ids=["dn_9_closure", "dn_9_axis_link", "hopf"],
    )
    def test_a_vanishing_top_degree_walks_the_tree_below_it(self, d, word, degree, traffic):
        # a_degree vanishes by parity, so the root evaluates degree - 1 and
        # pads with a zero
        below = SkeinEngine()
        want = below.truncated(d, degree - 1).coeffs + (0,)
        eng = SkeinEngine()
        assert eng.truncated(d, degree).coeffs == want
        assert (eng.nodes, eng.leaves) == (below.nodes, below.leaves) == traffic
        assert want == (conway_polynomial(word) + (0,) * degree)[: degree + 1]

    def test_no_degree_above_the_crossing_count_is_evaluated(self):
        # each smoothing spends a crossing and raises the degree by one, so
        # the root of this 16-crossing axis link evaluates the same tree at
        # degree 20000 as at 16, and pads the rest with zeros
        word = w(4, 1, 2, -3, 1, 2, -3, -1, 2)
        d = axis_link_diagram(word)
        assert d.crossings == 16
        capped = SkeinEngine()
        want = capped.truncated(d, 16).coeffs
        eng = BudgetLoggingEngine()
        assert eng.truncated(d, 20000).coeffs == want + (0,) * (20000 - 16)
        assert eng.budgets[0] == max(eng.budgets) == 16
        traffic = (eng.nodes, eng.hits, eng.leaves)
        assert traffic == (capped.nodes, capped.hits, capped.leaves) == (147, 29, 0)
        assert want == (conway_polynomial(axis_word(word)) + (0,) * 16)[:17]
