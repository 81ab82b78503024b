"""One pass of a benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED TRACE SPANS_PATH
    python3 perfbench/worker.py --import-only

Imports braidax from the checkout's ``src`` (timing the import), runs and
checks every group of the workload once through braidax's own experiments,
and prints one JSON object as its last line of output.  With TRACE=1 the
calls into braidax are wrapped in spans (see tracing.py), the spans are
written to SPANS_PATH, and per-layer totals join the output.  With
--import-only it stops after the import and prints ``{"import_s": ...}``.
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import workloads
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Entry points traced at the benchmark boundary: (module, function, layer).
# The experiments call the words and diagram functions through their own
# module's names, so those names are the ones replaced.
BOUNDARY = (
    ("experiments", "family_member", "words"),
    ("experiments", "square", "words"),
    ("experiments", "cyclic_free_reduce", "words"),
    ("experiments", "axis_link_diagram", "diagram"),
    ("experiments", "delete_component", "diagram"),
    ("experiments", "fit_polynomial", "experiments"),
    ("diagram", "closure_diagram", "diagram"),
    ("burau", "conway_matches_alexander", "burau"),
)


def import_braidax():
    """Import braidax from this checkout; returns (package, seconds)."""
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import braidax

    import_s = time.perf_counter() - t0
    if Path(braidax.__file__).resolve().parent != SRC / "braidax":
        raise SystemExit(f"braidax was imported from {braidax.__file__}, not from {SRC}")
    return braidax, import_s


@contextlib.contextmanager
def traced_boundary(bx, tracer: Tracer):
    """Replace every BOUNDARY function by its traced wrapper while the block runs."""
    saved = []
    for module, name, layer in BOUNDARY:
        mod = getattr(bx, module)
        saved.append((mod, name, getattr(mod, name)))
        setattr(mod, name, tracer.wrap(f"{layer}.{name}", getattr(mod, name)))
    try:
        yield
    finally:
        for mod, name, fn in saved:
            setattr(mod, name, fn)


# ---------------------------------------------------------------------------
# one group each: returns (coefficient sequences, None or why the check failed)


def _form(bx, g):
    n = g["strands"]
    return bx.ExchangeForm(n, bx.BraidWord(n, tuple(g["alpha"])), bx.BraidWord(n, tuple(g["beta"])))


def _verdict(report, key, g):
    """The report must pass and its expected value match the transcribed closed form."""
    seqs = [v for k, v in sorted(report.computed.items()) if k.endswith("_sequence")]
    seqs = seqs or [report.computed["sequence"]]
    if report.expected[key] != g["target"]:
        return seqs, f"braidax expects {key} {report.expected[key]}, closed form {g['target']}"
    if not report.passed:
        return seqs, f"check failed: {report.computed}"
    return seqs, None


def run_dn(bx, eng, g):
    rep = bx.experiments.squared_family_check(g["n"], workloads.A3_MS, engine=eng)
    return _verdict(rep, "second_difference", g)


def run_prop25(bx, eng, g):
    rep = bx.experiments.progression_check(_form(bx, g), workloads.A3_MS, engine=eng)
    return _verdict(rep, "abs_difference", g)


def run_eq54(bx, eng, g):
    rep = bx.experiments.joint_cycle_check(g["n"], workloads.EQ54_MS, engine=eng)
    return _verdict(rep, "quadratic", g)


def run_lemma64(bx, eng, g):
    rep = bx.experiments.two_cycle_check(g["n1"], g["n2"], workloads.LEMMA64_MS, engine=eng)
    return _verdict(rep, "quadratic_sum", g)


def run_twocycle(bx, eng, g):
    ex = bx.experiments
    seq = ex.axis_sequence(_form(bx, g), False, workloads.TWOCYCLE_MS, 4, eng)
    try:
        cubic = ex.fit_polynomial(seq, 3).coefficient(3)
    except ex.FitError as exc:
        return [list(seq.values)], str(exc)
    return [list(seq.values)], None if cubic == 0 else f"cubic coefficient {cubic}"


def run_oracle(bx, eng, g):
    w = bx.BraidWord(g["strands"], tuple(g["letters"]))
    d = bx.diagram.closure_diagram(w)
    poly = eng.truncated(d, max(d.crossings, 1))  # the degree full_conway uses
    coeffs = list(poly.coeffs)
    if not bx.burau.conway_matches_alexander(poly.coeffs, w):
        return [coeffs], f"Conway polynomial {coeffs} disagrees with Burau"
    return [coeffs], parity_problem(poly)


def parity_problem(poly) -> str | None:
    """a_m vanishes when m < p-1 or m+p is even, p the component count."""
    p = poly.components
    for m, a in enumerate(poly.coeffs):
        if a and (m < p - 1 or (m + p) % 2 == 0):
            return f"a_{m} = {a} should vanish for {p} components"
    return None


RUNNERS = {
    "dn": run_dn,
    "prop25": run_prop25,
    "eq54": run_eq54,
    "lemma64": run_lemma64,
    "twocycle": run_twocycle,
    "oracle": run_oracle,
}


# ---------------------------------------------------------------------------
# one pass


SPEED_EVERY_S = 0.25  # least work between two speed samples, about 10 ms each


def speed_sample() -> float:
    """Seconds for a fixed pure-Python integer loop, the least of three runs
    (preemption only adds time).  It touches no braidax code and allocates
    nothing the garbage collector tracks, so it measures how fast the host
    runs this interpreter at the moment, which on a shared host swings by
    half for seconds at a time, in CPU time as much as in wall time."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        s = 0
        for i in range(40000):
            s += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return best


class Pass:
    """Runs every group once and accumulates timings, results and failures."""

    def __init__(self, bx, tracer: Tracer | None = None):
        self.bx = bx
        self.tracer = tracer
        base = bx.get_kernels()
        self.jitted = base.jitted
        self.kernels = tracer.kernels(base) if tracer is not None else base
        self.latencies: list[float] = []  # seconds per SkeinEngine.truncated call
        self.crossings: list[int] = []  # diagram size per call
        self.results: dict[str, list] = {}
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.nodes = 0
        self.hits = 0
        self.wall_s = 0.0
        self.speed_samples: list[float] = []  # taken between groups

    def engine(self):
        """A fresh engine on this pass's kernels whose ``truncated`` records
        each evaluation's latency and diagram size (and its span, if traced)."""
        eng = self.bx.SkeinEngine(kernels=self.kernels)
        inner = eng.truncated
        if self.tracer is not None:
            inner = self.tracer.wrap("conway.truncated", inner)

        def truncated(d, max_degree):
            t0 = time.perf_counter()
            poly = inner(d, max_degree)
            self.latencies.append(time.perf_counter() - t0)
            self.crossings.append(d.crossings)
            return poly

        eng.truncated = truncated
        return eng

    def run(self, groups):
        with traced_boundary(self.bx, self.tracer) if self.tracer else contextlib.nullcontext():
            self.speed_samples.append(speed_sample())
            last = time.perf_counter()
            for g in groups:
                self.group(g)
                if time.perf_counter() - last > SPEED_EVERY_S:
                    self.speed_samples.append(speed_sample())
                    last = time.perf_counter()

    def group(self, g):
        count = workloads.evaluations(g)
        self.attempted += count
        t0 = time.perf_counter()
        eng = self.engine()
        try:
            seqs, problem = RUNNERS[g["kind"]](self.bx, eng, g)
        except Exception as exc:  # a crashed evaluation counts as failed
            seqs, problem = None, f"{type(exc).__name__}: {exc}"
        self.wall_s += time.perf_counter() - t0
        self.nodes += eng.nodes
        self.hits += eng.hits
        self.results[g["label"]] = seqs
        if problem is not None:
            self.failed += count
            self.failures.append(f"{g['label']}: {problem}")


def main(argv) -> int:
    bx, import_s = import_braidax()
    if argv == ["--import-only"]:
        print(json.dumps({"import_s": import_s}))
        return 0
    workload, seed, trace, spans_path = argv[0], int(argv[1]), argv[2] == "1", Path(argv[3])
    import numpy
    import sympy

    groups = workloads.generate(workload, seed)
    tracer = Tracer() if trace else None
    run = Pass(bx, tracer)
    run.run(groups)
    out = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "import_s": import_s,
        "wall_s": run.wall_s,
        "speed_samples": run.speed_samples,
        "latencies": run.latencies,
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": run.failures,
        "results": run.results,
        "nodes": run.nodes,
        "memo_hits": run.hits,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "sizes": {
            "families": len(groups),
            "evaluations": run.attempted,
            "crossings_mean": sum(run.crossings) / max(len(run.crossings), 1),
            "crossings_max": max(run.crossings, default=0),
        },
        "env": {
            "kernel_flavor": "numba" if run.jitted else "python",
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "sympy": sympy.__version__,
            "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
        },
    }
    if tracer is not None:
        out["layers"] = tracer.totals()
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.dump(spans_path)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
