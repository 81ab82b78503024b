"""The command line: parsing, outputs, exit codes, determinism."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import braidax
import braidax.burau
import braidax.cli
from braidax.burau import OracleError
from braidax.cli import main, _extract_word_tokens


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_process(cwd, *argv):
    """The CLI in a fresh interpreter, so that a traceback would show."""
    env = dict(os.environ, PYTHONPATH=str(Path(braidax.__file__).resolve().parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "braidax.cli", *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


class TestWordExtraction:
    def test_word_after_separator(self):
        word, rest = _extract_word_tokens(["info", "--n", "4", "--", "-3", "1", "2"])
        assert word == ["-3", "1", "2"]
        assert rest == ["info", "--n", "4"]

    def test_flags_may_follow_word(self):
        word, rest = _extract_word_tokens(
            ["invariant", "--n", "2", "--", "1", "1", "--degree", "1"]
        )
        assert word == ["1", "1"]
        assert rest == ["invariant", "--n", "2", "--degree", "1"]

    def test_no_separator(self):
        word, rest = _extract_word_tokens(["experiment", "dn", "--n", "5"])
        assert word is None


class TestInfo:
    def test_corpus_word(self, capsys):
        code, out, _ = run(capsys, "info", "--n", "4", "--", "-3", "-3", "-2", "1", "1", "2", "-1", "3", "-2")
        assert code == 0
        assert "exchange_admissible\tyes" in out
        assert "components\t1" in out
        assert "nonconjugacy_criterion\tapplies" in out

    def test_forbidden_pattern(self, capsys):
        code, out, _ = run(capsys, "info", "--n", "4", "--", "1", "3", "1", "3")
        assert code == 0
        assert "exchange_admissible\tno" in out

    def test_empty_word_degenerate(self, capsys):
        code, out, _ = run(capsys, "info", "--n", "3", "--")
        assert code == 0
        assert "components\t3" in out
        assert "degenerate" in out
        assert "nonconjugacy_criterion\tfails: exchange move is degenerate for n <= 3\n" in out

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run(capsys, "info", "--n", "4", "--", "1", "9")
        assert code == 2
        assert "position" in err

    def test_missing_word(self, capsys):
        code, _, err = run(capsys, "info", "--n", "4")
        assert code == 2

    @pytest.mark.parametrize("command", ["info", "invariant"])
    def test_strand_count_is_checked_before_the_letters(self, capsys, command):
        # every letter is out of range for a nonpositive strand count: the
        # count is the error, the same for both commands
        code, _, err = run(capsys, command, "--n", "-2", "--", "1")
        assert code == 2
        assert err == "error: strand count must be positive, got -2\n"


class TestInvariant:
    def test_hopf(self, capsys):
        code, out, _ = run(capsys, "invariant", "--n", "2", "--", "1", "1", "--degree", "1")
        assert code == 0
        assert "closure_nabla\t0 1" in out
        assert "hoste_check\tmatch" in out

    def test_trefoil_degree_two(self, capsys):
        code, out, _ = run(capsys, "invariant", "--n", "2", "--", "1", "1", "1", "--degree", "2")
        assert code == 0
        assert "closure_nabla\t1 0 1" in out
        assert "burau_check\tmatch" in out

    def test_axis_burau_check(self, capsys):
        code, out, _ = run(capsys, "invariant", "--n", "3", "--", "1", "-2", "1", "--degree", "2")
        assert code == 0
        assert "axis_nabla\t0 0 5" in out
        assert "axis_burau_check\tmatch" in out

    def test_axis_burau_check_on_long_word(self, capsys):
        code, out, _ = run(capsys, "invariant", "--n", "2", "--", *["1"] * 17, "--degree", "1")
        assert code == 0
        assert "\nburau_check\tmatch\n" in out
        assert "axis_burau_check\tmatch" in out

    @pytest.mark.parametrize("fail", ["raise", "wrong"])
    def test_burau_failure_exits_1(self, capsys, monkeypatch, fail):
        def broken(word):
            if fail == "raise":
                raise OracleError("left over")
            return (7,)

        monkeypatch.setattr(braidax.burau, "conway_polynomial", broken)
        monkeypatch.setattr(braidax.cli, "conway_polynomial", broken)
        code, out, err = run(capsys, "invariant", "--n", "2", "--", "1", "1", "1", "--degree", "2")
        assert code == 1
        suffix = " (left over)" if fail == "raise" else ""
        assert f"\nburau_check\tMISMATCH{suffix}\n" in out
        assert f"\naxis_burau_check\tMISMATCH{suffix}\n" in out
        # the axis link's a_1 is 2 by Hoste's formula; the wrong Burau has 0
        hoste = " (left over)" if fail == "raise" else " 0 vs 2"
        assert f"\nhoste_check\tMISMATCH{hoste}\n" in out
        assert "Traceback" not in err

    def test_hoste_failure_exits_1(self, capsys, monkeypatch):
        # the axis link of the trefoil braid has a_1 = 2; the formula is off by one
        monkeypatch.setattr(braidax.cli, "hoste_lowest", lambda lk: braidax.hoste_lowest(lk) + 1)
        code, out, _ = run(capsys, "invariant", "--n", "2", "--", "1", "1", "1", "--degree", "2")
        assert code == 1
        assert "\nhoste_check\tMISMATCH 2 vs 3\n" in out
        assert "\nburau_check\tmatch\n" in out
        assert "\naxis_burau_check\tmatch\n" in out

    @pytest.mark.parametrize("n", ["101", "160"])
    def test_size_above_cap_exits_2_before_any_work(self, capsys, monkeypatch, n):
        def work(w, degree):
            raise AssertionError("invariant ran above its cap")

        monkeypatch.setattr(braidax.cli, "_cmd_invariant", work)
        code, out, err = run(capsys, "invariant", "--n", n, "--", "1")
        assert code == 2
        assert (out, err) == ("", f"error: invariant takes --n up to 100, got {n}\n")

    def test_size_at_cap_is_accepted(self, capsys, monkeypatch):
        monkeypatch.setattr(braidax.cli, "_cmd_invariant", lambda w, degree: 0)
        assert run(capsys, "invariant", "--n", "100", "--", "1")[0] == 0

    def test_degree_above_cap_exits_2_before_any_work(self, capsys, monkeypatch):
        def work(w, degree):
            raise AssertionError("invariant ran above its cap")

        monkeypatch.setattr(braidax.cli, "_cmd_invariant", work)
        code, out, err = run(capsys, "invariant", "--n", "2", "--degree", "1001", "--", "1")
        assert code == 2
        assert (out, err) == ("", "error: invariant takes --degree up to 1000, got 1001\n")

    def test_degree_at_cap_is_accepted(self, capsys):
        code, out, _ = run(capsys, "invariant", "--n", "2", "--degree", "1000", "--", "1", "1", "1")
        assert code == 0
        assert f"\nclosure_nabla\t1 0 1{' 0' * 998}\n" in out
        assert "\nburau_check\tmatch\n" in out

    def test_deterministic_output(self, capsys):
        args = ("invariant", "--n", "3", "--", "1", "-2", "1", "--degree", "2")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2


class TestExperiment:
    def test_dn_n5(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "experiment", "dn", "--n", "5", "--out", str(tmp_path)
        )
        assert code == 0
        assert "result\tPASS" in out
        data = json.loads((tmp_path / "braidax_dn.json").read_text())
        assert data["passed"] is True
        assert data["expected"]["second_difference"] == -40
        tsv = (tmp_path / "braidax_dn.tsv").read_text()
        assert "expected.second_difference\t-40" in tsv
        assert "[runtime]" in err

    def test_table8(self, capsys, tmp_path):
        code, out, _ = run(capsys, "experiment", "table8", "--out", str(tmp_path))
        assert code == 0
        assert "computed.rows\t95" in out

    def test_lemma64(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "experiment", "lemma64", "--n1", "2", "--n2", "2", "--out", str(tmp_path)
        )
        assert code == 0
        assert "computed.quadratic_sum\t2" in out

    def test_prop25_canonical_odd(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "experiment", "prop25", "--canonical-odd", "5", "--out", str(tmp_path)
        )
        assert code == 0
        assert "expected.abs_difference\t0" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ("prop25", "--m-min", "0", "--m-max", "0"),
            ("table8", "--corpus", "missing.tsv"),
            ("table8", "--m-min", "0", "--m-max", "1"),
            ("dn", "--n", "5", "--out", "taken"),
            ("dn", "--n", "5", "--out", "taken/sub"),
            ("table8", "--n", "4"),
            ("prop25", "--canonical-odd", "5", "--n", "4", "--alpha", "1", "--beta", "3"),
        ],
    )
    def test_out_of_domain_input_exits_2(self, tmp_path, argv):
        (tmp_path / "taken").write_text("")  # a file where --out wants a directory
        proc = run_process(tmp_path, "experiment", *argv)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, stray",
        [
            (("experiment", "dn", "--n", "5", "--jobs", "2"), "--jobs 2"),
            (("invariant", "--n", "2", "--no-cache", "--", "1", "1"), "--no-cache"),
            (("experiment", "dn", "--n", "5", "--format", "json"), "--format json"),
        ],
        ids=["jobs", "no-cache", "format"],
    )
    def test_removed_flag_exits_2(self, tmp_path, argv, stray):
        proc = run_process(tmp_path, *argv)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert f"unrecognized arguments: {stray}" in proc.stderr

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("dn", "--n", "99999999"), "dn takes --n up to 101, got 99999999"),
            (("eq54", "--n", "99999"), "eq54 takes --n up to 16, got 99999"),
            (("lemma64", "--n1", "999", "--n2", "999"), "lemma64 takes --n1 up to 12, got 999"),
            (("lemma64", "--n1", "2", "--n2", "13"), "lemma64 takes --n2 up to 12, got 13"),
            (("prop25", "--canonical-odd", "103"), "prop25 takes --canonical-odd up to 101, got 103"),
            (("dn", "--n", "5", "--m-min", "-5000", "--m-max", "5000"),
             "dn takes m in -25..25, got -5000..5000"),
            (("eq54", "--n", "4", "--m-min", "-26", "--m-max", "0"),
             "eq54 takes m in -25..25, got -26..0"),
            (("prop25", "--canonical-odd", "5", "--m-min", "0", "--m-max", "26"),
             "prop25 takes m in -25..25, got 0..26"),
            (("prop25", "--n", "102", "--alpha", "1", "--beta", "101"),
             "prop25 takes --n up to 101, got 102"),
            # an m range is rejected as early where the experiment samples none
            (("table8", "--m-min", "0", "--m-max", "1"), "table8 takes no --m-min/--m-max"),
        ],
    )
    def test_size_above_cap_exits_2_before_any_work(self, capsys, tmp_path, argv, message):
        out_dir = tmp_path / "reports"
        code, out, err = run(capsys, "experiment", *argv, "--out", str(out_dir))
        assert code == 2
        assert (out, err) == ("", f"error: {message}\n")
        assert not out_dir.exists()

    def test_m_min_above_m_max_exits_2_before_any_work(self, capsys, tmp_path):
        out_dir = tmp_path / "reports"
        code, out, err = run(capsys, "experiment", "dn", "--n", "5", "--m-min", "3",
                             "--m-max", "1", "--out", str(out_dir))
        assert (code, out, err) == (2, "", "error: --m-min must not exceed --m-max\n")
        assert not out_dir.exists()

    def test_argument_the_experiment_rejects_leaves_no_out_directory(self, capsys, tmp_path):
        out_dir = tmp_path / "reports"
        code, out, err = run(capsys, "experiment", "dn", "--n", "6", "--out", str(out_dir))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out_dir.exists()

    def test_prop25_explicit_words_give_the_default_report(self, capsys, tmp_path):
        # the default form, spelled out
        code, _, _ = run(capsys, "experiment", "prop25", "--n", "4", "--alpha", "-1 -2",
                         "--beta", "-3", "--out", str(tmp_path))
        assert code == 0
        report = braidax.progression_check()
        assert (tmp_path / "braidax_prop25.tsv").read_bytes() == report.to_tsv().encode()
        assert (tmp_path / "braidax_prop25.json").read_bytes() == report.to_json().encode()

    def test_m_at_cap_is_accepted(self, capsys, tmp_path):
        code, out, _ = run(capsys, "experiment", "prop25", "--canonical-odd", "5",
                           "--m-min", "23", "--m-max", "25", "--out", str(tmp_path))
        assert code == 0
        assert out.endswith("result\tPASS\n")

    def test_missing_parameter(self, capsys, tmp_path):
        code, _, err = run(capsys, "experiment", "dn", "--out", str(tmp_path))
        assert code == 2
        assert "--n" in err

    def test_byte_identical_reports(self, capsys, tmp_path):
        run(capsys, "experiment", "dn", "--n", "5", "--out", str(tmp_path / "a"))
        run(capsys, "experiment", "dn", "--n", "5", "--out", str(tmp_path / "b"))
        for suffix in (".json", ".tsv"):
            a = (tmp_path / "a" / f"braidax_dn{suffix}").read_bytes()
            b = (tmp_path / "b" / f"braidax_dn{suffix}").read_bytes()
            assert a == b

    def test_unknown_experiment(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "unknown"])
        assert exc.value.code == 2


# ---------------------------------------------------------------------------
# fuzzing the exit-code contract

_WORDS = st.sampled_from(["1", "1 2", "-3 1", "2 2 2", "9", "x", ""])
_PATHS = st.sampled_from(["dir", "taken", "taken/sub", "new/nested", "junk.tsv", "missing.tsv"])
# every value small enough that a valid experiment takes well under a second
_EXPERIMENT_FLAGS = {
    "--n": st.sampled_from(["-1", "3", "4", "5", "x"]),
    "--n1": st.sampled_from(["1", "2", "3", "x"]),
    "--n2": st.sampled_from(["1", "2", "3", "x"]),
    "--alpha": _WORDS,
    "--beta": _WORDS,
    "--canonical-odd": st.sampled_from(["3", "5", "x"]),
    "--m-min": st.sampled_from(["-2", "0", "2", "x"]),
    "--m-max": st.sampled_from(["-2", "0", "2", "x"]),
    "--corpus": _PATHS,
    "--out": _PATHS,
}
# removed flags, which argparse rejects before any work: drawn into about one
# vector in ten, so that most vectors reach the commands
_RARELY = st.sampled_from([False] * 9 + [True])


@st.composite
def cli_vectors(draw):
    """Argument vectors for info, invariant and experiment: strand counts up
    to 4 (5 for experiments), at most five letters, degree at most 3,
    out-of-range letters, non-integer tokens, missing or contradictory
    flags, and paths that are files, directories or absent."""
    command = draw(st.sampled_from(["info", "invariant", "experiment"]))
    argv = [command]
    if command == "experiment":
        argv.append(draw(st.sampled_from(["dn", "eq54", "lemma64", "prop25", "table8", "nope"])))
        flags = draw(st.lists(st.sampled_from(sorted(_EXPERIMENT_FLAGS)), max_size=4, unique=True))
        for flag in flags:
            argv += [flag, draw(_EXPERIMENT_FLAGS[flag])]
        if draw(_RARELY):
            argv += [draw(st.sampled_from(["--jobs", "--format"])),
                     draw(st.sampled_from(["-1", "1", "x", "tsv", "both"]))]
    else:
        n = draw(st.sampled_from(["1", "2", "3", "4", "0", "x", None]))
        if n is not None:
            argv += ["--n", n]
        if command == "invariant":
            if draw(st.booleans()):
                argv += ["--degree", draw(st.sampled_from(["-1", "0", "1", "2", "3", "x"]))]
            if draw(_RARELY):
                argv.append("--no-cache")
        top = int(n) if n not in (None, "x") else 3  # letters 0 and +-top are out of range
        letters = st.sampled_from([str(k) for k in range(-top, top + 1)] + ["x"])
        if draw(st.sampled_from([True, True, True, False])):  # the word, mostly
            argv += ["--", *draw(st.lists(letters, max_size=5))]
    stray = draw(st.sampled_from([None] * 6 + ["--degree", "--bogus", "7"]))
    if stray is not None:
        argv.insert(draw(st.integers(1, len(argv))), stray)
    return argv


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    base = tmp_path_factory.mktemp("fuzz")
    (base / "dir").mkdir()
    (base / "taken").write_text("")  # a file where a directory is wanted
    (base / "junk.tsv").write_text("not a row\n1\t2\t3\n")
    return base


class TestFuzz:
    @given(cli_vectors())
    @settings(max_examples=300)
    def test_exit_code_contract(self, fuzz_dir, argv):
        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(fuzz_dir)  # reports without --out land here
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse
                    code = exc.code
        finally:
            os.chdir(cwd)
        assert code in (0, 1, 2), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()
