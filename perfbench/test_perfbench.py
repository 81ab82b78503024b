"""Self-tests of the benchmark: python3 -m pytest -q perfbench"""

import json

import pytest

import run
import worker
import workloads
from tracing import Tracer

bx, _ = worker.import_braidax()


def word(n, letters):
    return bx.BraidWord(n, tuple(letters))


def groups_of(workload, seed, kind):
    return [g for g in workloads.generate(workload, seed) if g["kind"] == kind]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generators_are_deterministic_per_seed(name):
    assert workloads.generate(name, 3) == workloads.generate(name, 3)
    assert workloads.generate(name, 3) != workloads.generate(name, 4)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a3_forms_are_admissible_knots_with_the_library_step(seed):
    forms = groups_of("a3_axis", seed, "prop25")
    assert len(forms) == len(workloads.A3_STRANDS) * workloads.A3_FORMS_PER_N
    for g in forms:
        n = g["strands"]
        w = word(n, g["alpha"] + g["beta"])
        assert bx.admits_exchange(w).admissible
        dec = bx.cycle_decomposition(bx.permutation_of(w), normalized=True)
        assert dec.count == 1
        assert bx.component_count(bx.closure_diagram(w)) == 1
        assert g["target"] == abs(n + 1 - 2 * dec.one_index)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a4_forms_close_to_two_components(seed):
    forms = groups_of("a4_families", seed, "twocycle")
    assert len(forms) == len(workloads.A4_STRANDS) * workloads.A4_FORMS_PER_N
    for g in forms:
        w = word(g["strands"], g["alpha"] + g["beta"])
        assert bx.admits_exchange(w).admissible
        assert bx.component_count(bx.closure_diagram(w)) == 2


def test_oracle_braids_follow_the_acceptance_style():
    braids = workloads.generate("oracle", 5)
    assert len(braids) >= 100
    for g in braids:
        assert 2 <= g["strands"] <= 6 and len(g["letters"]) <= 12
        word(g["strands"], g["letters"])  # validates the letters


def test_transcribed_closed_forms_match_the_library():
    from braidax.experiments import joint_cycle_target

    for n in range(5, 30, 2):
        assert workloads.second_difference_target(n) == bx.second_difference_target(n)
    for n in range(4, 20):
        assert workloads.joint_cycle_target(n) == joint_cycle_target(n)


def run_groups(groups, tracer=None):
    p = worker.Pass(bx, tracer)
    p.run(groups)
    return p


def small(workload, seed):
    """The cheaper groups of a workload: few strands, short words."""
    keep = []
    for g in workloads.generate(workload, seed):
        if g["kind"] == "oracle":
            if len(g["letters"]) <= 6:
                keep.append(g)
        elif g.get("strands", g.get("n", 0)) <= 6 and g["label"] != "eq54/6":
            keep.append(g)
    return keep


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_small_run_on_a_second_seed_passes_every_check(name):
    groups = small(name, 11)
    p = run_groups(groups)
    assert p.attempted == sum(workloads.evaluations(g) for g in groups) > 10
    assert (p.failed, p.failures) == (0, [])
    assert len(p.latencies) == p.attempted


def test_a_wrong_closed_form_fails_its_check():
    groups = {g["kind"]: g for g in small("a3_axis", 0) + small("a4_families", 0)}
    for kind in ("dn", "prop25", "eq54", "lemma64"):
        g = dict(groups[kind], target=groups[kind]["target"] + 1)
        p = run_groups([g])
        assert p.failed == workloads.evaluations(g) and len(p.failures) == 1, kind


def test_parity_rule_rejects_a_stray_coefficient():
    poly = bx.conway_truncated(bx.closure_diagram(word(2, [1, 1])), 2)  # Hopf link
    assert worker.parity_problem(poly) is None
    wrong = bx.TruncatedPoly(2, (1,) + poly.coeffs[1:], poly.components)
    assert worker.parity_problem(wrong) is not None


def test_traced_run_matches_untraced_and_accounts_for_kernel_time():
    groups = small("a4_families", 2)[:6] + small("oracle", 2)[:10]
    plain = run_groups(groups)
    tracer = Tracer()
    traced = run_groups(groups, tracer)
    assert traced.results == plain.results
    assert (traced.nodes, traced.hits) == (plain.nodes, plain.hits)
    totals = tracer.totals()
    assert totals["conway.truncated"]["calls"] == plain.attempted
    truncated = totals["conway.truncated"]
    kernel_s = sum(v["s"] for k, v in totals.items() if k.startswith("kernels."))
    assert truncated["self_s"] == pytest.approx(truncated["s"] - kernel_s)
    for name in run.TRACED_CALLS:
        assert name in totals
    # the boundary functions are restored after the traced pass
    assert bx.experiments.fit_polynomial is bx.fit_polynomial


def test_traced_worker_writes_spans_into_a_new_directory(tmp_path, monkeypatch, capsys):
    groups = small("oracle", 0)[:4]
    monkeypatch.setattr(workloads, "generate", lambda name, seed: groups)
    spans = tmp_path / "new" / "spans.json"
    assert worker.main(["oracle", "0", "1", str(spans)]) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["failed"] == 0 and out["layers"]["conway.truncated"]["calls"] == 4
    dumped = json.loads(spans.read_text())
    assert "burau.conway_matches_alexander" in dumped["names"]


def test_mismatched_passes_are_reported():
    a = {"trace": False, "results": {"x": [1]}, "nodes": 5, "memo_hits": 1}
    b = dict(a, trace=True)
    assert run.mismatches([a, b]) == []
    assert len(run.mismatches([a, dict(b, results={"x": [2]}, nodes=6)])) == 2
