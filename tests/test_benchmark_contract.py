"""The names the benchmark in ``perfbench/`` reads from braidax.

The benchmark wraps these names to trace them, so deleting or renaming one
breaks it; these tests fail first.  ``perfbench/tracing.py`` and
``perfbench/worker.py`` import neither numpy nor sympy at module level.
"""

from collections import Counter
from pathlib import Path

import pytest

import braidax
from braidax.kernels import get_kernels

from conftest import CountingKernels

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        import tracing
        import worker
    return tracing, worker


class LoggingKernels(CountingKernels):
    """The kernels, counted and logged by name in call order."""

    def __init__(self):
        self.log = []
        super().__init__()

    def _counted(self, name, f):
        def run(*args):
            self.log.append(name)
            return f(*args)

        return super()._counted(name, run)


def test_kernel_names(perfbench):
    tracing, _ = perfbench
    K = get_kernels()
    for name in ("jitted",) + tracing.ENGINE_KERNELS:
        assert hasattr(K, name), name


def test_boundary_names(perfbench):
    _, worker = perfbench
    for module, name, _layer in worker.BOUNDARY:
        assert callable(getattr(getattr(braidax, module), name)), f"{module}.{name}"


def test_engine_runs_on_traced_kernels(perfbench):
    tracing, _ = perfbench
    tracer = tracing.Tracer()
    eng = braidax.SkeinEngine(kernels=tracer.kernels(get_kernels()))
    d = braidax.closure_diagram(braidax.BraidWord(2, (1, 1, 1)))
    assert eng.truncated(d, 2).coeffs == (1, 0, 1)
    assert tracer.totals()["kernels.trace_inports"]["calls"] >= 1


@pytest.mark.parametrize(
    "form, degree",
    [(braidax.canonical_odd_knot_braid(7), 3), (braidax.canonical_joint_cycle_braid(6), 4)],
    ids=["a3_dn_7", "a4_eq54_6"],
)
def test_engine_calls_only_traced_kernels(perfbench, form, degree):
    # one a_3 and one a_4 evaluation of a squared family member's axis link,
    # as the benchmark's workloads make them: every kernel the engine calls
    # is traced, so its time shows in a per-layer row, except the Hoste-leaf
    # walks link_leaf_sum and arc_counts, whose time the trace files under
    # conway.self_s
    tracing, _ = perfbench
    w = braidax.cyclic_free_reduce(braidax.square(braidax.family_member(form, 1)))
    kernels = LoggingKernels()
    braidax.SkeinEngine(kernels).truncated(braidax.axis_link_diagram(w), degree)
    untraced = set(kernels.calls) - set(tracing.ENGINE_KERNELS)
    assert untraced <= {"link_leaf_sum", "arc_counts"}, untraced
    # the root, every built child and every switch settled for a later built
    # child simplify once, through the traced kernel; a knot child (of a
    # two-component node at budget 3) is closed inside that node's
    # link_leaf_sum, never copied, smoothed, switched or simplified
    calls = kernels.calls
    log = kernels.log
    after = Counter(zip(log, log[1:]))
    built = after["smooth_inplace", "reidemeister_simplify"]
    settled = after["switch_inplace", "reidemeister_simplify"]
    assert log[:2] == ["trace_inports", "reidemeister_simplify"]
    assert built == calls.get("smooth_inplace", 0)
    assert settled == calls.get("switch_inplace", 0)
    assert calls["link_leaf_sum"] > 0
    assert calls["reidemeister_simplify"] == 1 + built + settled
    # the a_3 root is a two-component node at budget 3, whose link_leaf_sum
    # meets its violations in its walk: only a node that builds children
    # scans its chain
    assert ("chain_scan" in calls) == (degree == 4)


def test_boundary_traces_the_deletions(perfbench):
    # odd eq54 deletes one component per sample and deletion choice: 4 x 2
    # calls at n = 5, so the benchmark's per-layer row cannot read 0
    tracing, worker = perfbench
    tracer = tracing.Tracer()
    with worker.traced_boundary(braidax, tracer):
        assert braidax.joint_cycle_check(5).passed
    totals = tracer.totals()
    assert totals["diagram.delete_component"]["calls"] == 8
    assert totals["diagram.axis_link_diagram"]["calls"] == 8
    assert braidax.experiments.delete_component is braidax.words.delete_component


@pytest.mark.parametrize("kind", ["dn", "prop25", "eq54", "lemma64", "twocycle", "oracle"])
def test_runners_call_braidax(perfbench, kind):
    # the smallest group of each kind the benchmark generates, run the way
    # the benchmark runs it: a changed signature fails here, not as a
    # failed benchmark operation
    _, worker = perfbench
    workloads = worker.workloads
    groups = [
        g
        for name in workloads.WORKLOADS
        for g in workloads.generate(name, 0)
        if g["kind"] == kind
    ]
    g = min(groups, key=lambda g: (
        g.get("n", 0) + g.get("n1", 0) + g.get("n2", 0) + g.get("strands", 0),
        sum(len(g.get(part, ())) for part in ("alpha", "beta", "letters")),
    ))
    _, problem = worker.RUNNERS[kind](braidax, braidax.SkeinEngine(), g)
    assert problem is None, problem
