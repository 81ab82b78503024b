"""The command line: parsing, outputs, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import braidax
from braidax.cli import main, _extract_word_tokens


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run(capsys, "info", "--n", "4", "--", "1", "9")
        assert code == 2
        assert "position" in err

    def test_missing_word(self, capsys):
        code, _, err = run(capsys, "info", "--n", "4")
        assert code == 2


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
        ],
    )
    def test_out_of_domain_input_exits_2(self, tmp_path, argv):
        (tmp_path / "taken").write_text("")  # a file where --out wants a directory
        env = dict(os.environ, PYTHONPATH=str(Path(braidax.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "braidax.cli", "experiment", *argv],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1

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
