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
    LinkDiagram,
    SkeinEngine,
    axis_link_diagram,
    axis_word,
    closure_diagram,
    component_count,
    compose,
    conway_polynomial,
    conway_truncated,
    full_conway,
    hoste_lowest,
    inverse,
    joint_cycle_check,
    linking_matrix,
    mirror,
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
        # pruned at budget 1, a Hoste leaf at budget 2, interior at budget 4
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

    def test_metadata_components(self):
        poly = conway_truncated(axis_link_diagram(BraidWord(2)), 2)
        assert poly.components == 3

    def test_window_access(self):
        poly = conway_truncated(closure_diagram(w(2, 1, 1, 1)), 2)
        with pytest.raises(ConwayError):
            poly[3]


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
        d = closure_diagram(word)
        p = component_count(d)
        budget = min(p + 3, 6)
        poly = conway_truncated(d, budget)
        for m in range(budget + 1):
            if m < p - 1 or (m + p) % 2 == 0:
                assert poly[m] == 0

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
    smoothing rule equals a fresh trace of the node's diagram, and that a
    built child's budget is at least that count less one: a child with less
    budget is pruned by its parent, and only the root (``todo`` None) can be
    built with less."""

    def _eval(self, conn, sign, loops, p, budget, todo):
        assert budget >= p - 1 or todo is None
        c, _ = get_kernels().compact(conn, sign)
        assert p == get_kernels().trace_inports(c)[1] + loops
        return super()._eval(conn, sign, loops, p, budget, todo)


class MiscountingEngine(SkeinEngine):
    """Hands every node one component too many, budget to match: a slip in
    the carried count that reaches the leaves."""

    def _eval(self, conn, sign, loops, p, budget, todo):
        return super()._eval(conn, sign, loops, p + 1, budget + 1, todo)


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
        # three components at budget 0: pruned from the root's count alone
        split = closure_diagram(w(3, 1, 1, 2, 2))
        assert SkeinEngine(kernels).truncated(split, 0).coeffs == (0,)
        assert kernels.calls == {"trace_inports": 1}
        assert SkeinEngine(kernels).truncated(axis, 3).coeffs == expected

    def test_hoste_leaf_is_one_kernel_call(self):
        kernels = CountingKernels()
        eng = SkeinEngine(kernels)
        # the Hopf link at budget 1 is a Hoste leaf at the root, closed by
        # one linking_counts call right after the root node's trace
        assert eng.truncated(closure_diagram(w(2, 1, 1)), 1).coeffs == (0, 1)
        assert kernels.calls == {
            "trace_inports": 2,
            "reidemeister_simplify": 1,
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
            "trace_inports": 2,
            "reidemeister_simplify": 1,
            "knot_leaf_sum": 1,
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
        # the Hopf link at budget 3 is interior at the root, and so are the
        # children of its inter-component crossings
        with pytest.raises(ConwayError, match="traced 2 components, carried 3"):
            MiscountingEngine(get_kernels()).truncated(closure_diagram(w(2, 1, 1)), 3)

    def test_knot_child_rejects_a_wrong_component_count(self):
        # the Hopf link at budget 3 closes the knot children of its two
        # crossings in the root, each by one walk and never traced: a walk
        # that passes the smoothed crossing straight through, as if it were
        # not smoothed, stays on one component and misses the other's in-ports
        kernels = SimpleNamespace(**vars(get_kernels()))

        def knot_leaf_sum(conn, sign, flip, start, smoothed):
            conn = conn[:]
            o = 4 * smoothed + 1
            conn[o], conn[o + 2] = conn[o + 2], conn[o]
            return get_kernels().knot_leaf_sum(conn, sign, flip, start, smoothed)

        kernels.knot_leaf_sum = knot_leaf_sum
        d = closure_diagram(w(2, 1, 1))
        assert SkeinEngine().truncated(d, 3).coeffs == (0, 1, 0, 0)
        with pytest.raises(ConwayError, match="traced 1 of 2 in-ports, carried 1"):
            SkeinEngine(kernels).truncated(d, 3)

    def test_a_knot_child_never_frees_a_loop(self):
        # smoothing an inter-component crossing c frees a loop only when each
        # component passes c and nothing else (an inter-component crossing's
        # out-ports lead to the other component), and then each component
        # meets the other once: the node's link_leaf_sum rejects that odd
        # count before any child is closed
        K = get_kernels()
        conn, sign = [1, 0, 3, 2], [1]
        assert K.trace_inports(conn)[1] == 2
        assert K.smooth_inplace(conn[:], sign[:], 0, []) == 1
        eng = SkeinEngine()
        with pytest.raises(ConwayError, match="odd inter-component crossing count"):
            eng.truncated(LinkDiagram(conn, sign), 3)
        assert eng.nodes == 1

    def test_odd_link_counts_are_rejected(self):
        # a two-component node at budget 3 checks the parity its
        # link_leaf_sum reports once, before any child is closed
        kernels = SimpleNamespace(**vars(get_kernels()))

        def link_leaf_sum(*args):
            total, odd, children, leaves = get_kernels().link_leaf_sum(*args)
            assert not odd
            return total, 1, children, leaves

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
            (lambda eng: squared_family_check(9, engine=eng), 414, 0, 384, 0),
            (lambda eng: joint_cycle_check(5, engine=eng), 580, 8, 444, 47),
            (lambda eng: two_cycle_check(2, 3, engine=eng), 1357, 17, 1033, 76),
        ],
        ids=["squared_family_9", "joint_cycle_5", "two_cycle_2_3"],
    )
    def test_pinned_node_counts(self, run, nodes, hits, leaves, switches):
        # leaves: the linking_counts calls of the engine that built every
        # leaf (in joint_cycle_5 one four-component leaf child simplifies to
        # a free loop beside 6 crossings: split, so no Hoste leaf);
        # switches: a node switches crossings in conn only up to its last
        # built child, and after it flips their signs alone; a two-component
        # node at budget 3 builds none, so the a_3 of a knot's axis link
        # switches nothing in conn
        kernels = CountingKernels()
        eng = SkeinEngine(kernels)
        assert run(eng).passed
        assert (eng.nodes, eng.hits, eng.leaves) == (nodes, hits, leaves)
        assert kernels.calls.get("switch_inplace", 0) == switches
