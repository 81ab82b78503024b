"""Exact fits, family experiments, and the corpus harness."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from math import comb, factorial, prod
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import braidax.experiments
from braidax import (
    BraidWord,
    CoefficientSequence,
    ExchangeForm,
    ExperimentError,
    FitError,
    PolynomialFit,
    WordError,
    axis_link_diagram,
    axis_sequence,
    axis_word,
    canonical_joint_cycle_braid,
    canonical_odd_knot_braid,
    conway_polynomial,
    corpus_check,
    cycle_decomposition,
    cyclic_free_reduce,
    delete_component,
    family_member,
    fit_polynomial,
    joint_cycle_check,
    load_corpus,
    permutation_of,
    progression_check,
    second_difference_target,
    square,
    squared_family_check,
    two_cycle_check,
)
from braidax.experiments import joint_cycle_target


class TestFitPolynomial:
    def seq(self, values, m_start=0):
        return CoefficientSequence(m_start, tuple(values))

    def test_constant(self):
        fit = fit_polynomial(self.seq((5, 5, 5)), 1)
        assert fit.coeffs == (Fraction(5), Fraction(0))

    def test_squares(self):
        fit = fit_polynomial(self.seq((0, 1, 4, 9, 16)), 2)
        assert fit.coeffs == (Fraction(0), Fraction(0), Fraction(1))

    def test_offset_quadratic(self):
        # samples of 2m^2 - 3m + 1 taken from m = -2
        values = [2 * m * m - 3 * m + 1 for m in range(-2, 3)]
        fit = fit_polynomial(self.seq(values, m_start=-2), 2)
        assert fit.coeffs == (Fraction(1), Fraction(-3), Fraction(2))

    def test_second_difference_of_quadratic_is_twice_leading(self):
        values = [7 * m * m + 2 * m - 4 for m in range(-1, 4)]
        second = [values[i + 2] - 2 * values[i + 1] + values[i] for i in range(3)]
        assert set(second) == {14}
        fit = fit_polynomial(self.seq(values, m_start=-1), 2)
        assert fit.coefficient(2) == 7

    def test_rejects_underdetermined(self):
        with pytest.raises(ExperimentError):
            fit_polynomial(self.seq((1, 2, 3)), 2)

    @pytest.mark.parametrize("bound", [-1, 0.5, 2.0, True, "2", None])
    def test_rejects_a_bad_degree_bound(self, bound):
        with pytest.raises(ExperimentError, match="degree_bound must be an int >= 0"):
            fit_polynomial(self.seq((0, 1, 4, 9, 16)), bound)
        assert fit_polynomial(self.seq((5, 5)), 0).coeffs == (Fraction(5),)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: CoefficientSequence(True, (1, 2, 3)),
            lambda: CoefficientSequence(0.5, (1, 2, 3)),
            lambda: CoefficientSequence(0, (1, 2, 3)).value_at(True),
            lambda: CoefficientSequence(0, (1, 2, 3)).value_at(1.5),
            lambda: PolynomialFit((Fraction(1), Fraction(2))).coefficient(True),
            lambda: PolynomialFit((Fraction(1), Fraction(2))).coefficient(1.0),
        ],
        ids=["m_start-bool", "m_start-float", "m-bool", "m-float", "k-bool", "k-float"],
    )
    def test_sequence_records_reject_a_non_int(self, call):
        with pytest.raises(ExperimentError, match="must be an int, got "):
            call()

    @pytest.mark.parametrize(
        "call,message",
        [
            (lambda: CoefficientSequence(0, None), "values must be iterable, got None"),
            (lambda: CoefficientSequence(0, 3), "values must be iterable, got 3"),
            (lambda: PolynomialFit(None), "coeffs must be iterable, got None"),
            (lambda: CoefficientSequence(0, (1, True)), "values must be ints, got (1, True)"),
            (lambda: CoefficientSequence(0, (1, 2.0)), "values must be ints, got (1, 2.0)"),
            (lambda: CoefficientSequence(0, ("1",)), "values must be ints, got ('1',)"),
            (lambda: CoefficientSequence(0, (Fraction(1),)), "values must be ints, got "),
            (lambda: fit_polynomial([1, 2, 3, 4], 1), "need a CoefficientSequence, got list"),
        ],
        ids=["values-none", "values-int", "coeffs-none", "bool", "float", "str", "fraction",
             "fit-list"],
    )
    def test_sequence_records_reject_bad_fields(self, call, message):
        # tuple() would escape as a bare TypeError, a non-int value would
        # reach fit_polynomial's integer arithmetic, and a non-sequence its
        # read of seq.values
        with pytest.raises(ExperimentError) as exc:
            call()
        assert str(exc.value).startswith(message)

    @given(
        st.integers(0, 6),
        st.lists(st.integers(-20, 20), min_size=7, max_size=7),
        st.integers(-5, 5),
        st.integers(0, 3),
    )
    def test_matches_the_fraction_peel(self, degree, newton, m_start, spare):
        # every integer-valued polynomial of degree <= 6, from its Newton
        # coefficients; the power ones may be fractions with denominators
        # up to 6!
        def fraction_peel(values, ms):
            rest = list(values)
            coeffs = [Fraction(0)] * (degree + 1)
            for k in range(degree, -1, -1):
                lead = rest
                for _ in range(k):
                    lead = [b - a for a, b in zip(lead, lead[1:])]
                coeffs[k] = Fraction(lead[0], factorial(k))
                rest = [r - coeffs[k] * m**k for r, m in zip(rest, ms)]
            return tuple(coeffs)

        ms = range(m_start, m_start + degree + 2 + spare)
        values = [sum(c * comb(m - m_start, j) for j, c in enumerate(newton[: degree + 1]))
                  for m in ms]
        fit = fit_polynomial(self.seq(values, m_start), degree)
        assert fit.coeffs == fraction_peel(values, ms)
        assert all(type(c) is Fraction for c in fit.coeffs)

    def test_fit_failure_names_offender(self):
        with pytest.raises(FitError) as exc:
            fit_polynomial(self.seq((0, 1, 4, 9, 99)), 2)
        assert exc.value.offending_m == 4

    @given(
        st.integers(0, 3),
        st.lists(st.integers(-5, 5), min_size=4, max_size=4),
        st.integers(-3, 3),
        st.integers(0, 4),
        st.dictionaries(st.integers(0, 8), st.integers(-3, 3), max_size=2),
    )
    def test_offender_is_the_first_sample_the_earlier_ones_miss(
        self, degree, coeffs, m_start, spare, bumps
    ):
        def lagrange(points, x):
            total = Fraction(0)
            for i, (xi, yi) in enumerate(points):
                term = Fraction(yi)
                for j, (xj, _) in enumerate(points):
                    if j != i:
                        term *= Fraction(x - xj, xi - xj)
                total += term
            return total

        count = degree + 2 + spare
        ms = range(m_start, m_start + count)
        values = [sum(c * m**k for k, c in enumerate(coeffs[: degree + 1])) for m in ms]
        for i, bump in bumps.items():
            if i < count:
                values[i] += bump
        # the reference interpolates the first degree + 1 samples; the fit
        # must agree with it up to the first sample it does not reproduce
        points = list(zip(ms, values))[: degree + 1]
        offender = next(
            (m for m, v in zip(ms, values) if lagrange(points, m) != v), None
        )
        seq = self.seq(values, m_start=m_start)
        if offender is None:
            fit = fit_polynomial(seq, degree)
            for m, v in zip(ms, values):
                assert sum(c * m**k for k, c in enumerate(fit.coeffs)) == v
        else:
            with pytest.raises(FitError, match=f"at m={offender} deviates") as exc:
                fit_polynomial(seq, degree)
            assert exc.value.offending_m == offender

    @given(
        st.lists(st.integers(-20, 20), min_size=1, max_size=6),
        st.integers(-10, 10),
        st.integers(0, 2),
        st.integers(0, 2),
    )
    def test_recovers_an_integer_valued_polynomial(self, binomial, m_start, slack, spare):
        # sum_k binomial[k] * C(m, k) takes integer values with rational power
        # coefficients; C(m, k) is expanded as prod_{j<k} (m - j) / k!
        expected = [Fraction(0)] * (len(binomial) + slack)
        for k, c in enumerate(binomial):
            basis = [Fraction(1)]
            for j in range(k):
                basis = [(basis[i - 1] if i else 0) - j * (basis[i] if i < len(basis) else 0)
                         for i in range(len(basis) + 1)]
            for i, b in enumerate(basis):
                expected[i] += c * b / factorial(k)

        def value(m):
            return sum(c * prod(range(m - k + 1, m + 1)) // factorial(k)
                       for k, c in enumerate(binomial))

        bound = len(expected) - 1
        ms = range(m_start, m_start + bound + 2 + spare)
        fit = fit_polynomial(self.seq([value(m) for m in ms], m_start=m_start), bound)
        assert fit.coeffs == tuple(expected)

    def test_rational_coefficients(self):
        # m(m-1)/2 has a fractional leading coefficient
        values = [m * (m - 1) // 2 for m in range(5)]
        fit = fit_polynomial(self.seq(values), 2)
        assert fit.coefficient(2) == Fraction(1, 2)

    def test_coefficient_of_a_negative_power_is_rejected(self):
        fit = fit_polynomial(self.seq((0, 1, 4, 9, 16)), 2)
        assert fit.coefficient(3) == 0  # above the degree: zero, not unknown
        with pytest.raises(ExperimentError, match="no coefficient of m\\^-1"):
            fit.coefficient(-1)

    def test_value_outside_the_samples_is_rejected(self):
        seq = self.seq((10, 20, 30))
        assert [seq.value_at(m) for m in seq.m_values] == [10, 20, 30]
        for m in (-1, 3):  # -1 used to wrap round to the value at m = 2
            with pytest.raises(ExperimentError, match=f"m={m} outside the sampled range"):
                seq.value_at(m)


class TestAxisSequence:
    def test_singleton_range(self, engine):
        form = ExchangeForm(4, BraidWord(4, (1,)), BraidWord(4, (3,)))
        seq = axis_sequence(form, False, [0], 4, engine)
        assert len(seq.values) == 1
        assert seq.m_values == (0,)

    def test_requires_contiguous_range(self, engine):
        form = ExchangeForm(4, BraidWord(4, (1,)), BraidWord(4, (3,)))
        for ms in ([0, 2], []):
            with pytest.raises(ExperimentError):
                axis_sequence(form, False, ms, 4, engine)

    def test_regression_baseline(self, engine):
        # frozen from the engine's own first verified run; guards against drift
        form = ExchangeForm(4, BraidWord(4, (1,)), BraidWord(4, (3,)))
        seq = axis_sequence(form, False, range(-2, 3), 4, engine)
        assert seq.values == (8, 5, 4, 5, 8)


class TestProgressionCheck:
    def test_default_family(self, engine):
        report = progression_check(engine=engine)
        assert report.passed
        assert report.expected["abs_difference"] == 1
        assert report.computed["constant"]

    def test_excluded_middle_case(self, engine):
        from braidax import canonical_odd_knot_braid

        report = progression_check(canonical_odd_knot_braid(5), engine=engine)
        assert report.passed
        assert report.expected["abs_difference"] == 0
        assert set(report.computed["differences"]) == {0}

    def test_rejects_link_seed(self, engine):
        form = ExchangeForm(4, BraidWord(4, (1,)), BraidWord(4, (3,)))
        with pytest.raises(Exception):
            progression_check(form, engine=engine)


class TestSecondDifferenceTargets:
    @pytest.mark.parametrize(
        "n,target", [(5, -40), (7, 56), (9, -144), (11, 176), (13, -312), (15, 360)]
    )
    def test_closed_form(self, n, target):
        assert second_difference_target(n) == target

    def test_rejects_even(self):
        with pytest.raises(ExperimentError):
            second_difference_target(6)


class TestJointCycleTargets:
    @pytest.mark.parametrize("n,target", [(4, 2), (5, 2), (6, 18), (7, 8), (8, 50), (9, 18)])
    def test_closed_form(self, n, target):
        assert joint_cycle_target(n) == target


@pytest.mark.parametrize(
    "call",
    [
        lambda: second_difference_target(5.5),
        lambda: second_difference_target(5.0),
        lambda: second_difference_target(True),
        lambda: joint_cycle_target(4.5),
        lambda: joint_cycle_target(4.0),
        lambda: two_cycle_check(2.0, 2),
        lambda: joint_cycle_check(4.5),
        lambda: squared_family_check(5.0),
        lambda: squared_family_check("7"),
        lambda: joint_cycle_check("6"),
    ],
)
def test_non_int_sizes_rejected(call):
    # a float size used to give a target of 0.0 or a TypeError traceback,
    # and a string size a TypeError from the comparison
    with pytest.raises((ExperimentError, WordError),
                       match=r"(must be an int|need an (odd )?int n >= \d), got "):
        call()


def test_progression_check_rejects_a_non_form():
    # reading form.strands escaped as a bare AttributeError
    with pytest.raises(WordError, match="^need an ExchangeForm, got str$"):
        progression_check("x")


@pytest.mark.parametrize(
    "call",
    [
        lambda eng: progression_check(m_range=[0.0, 1.0], engine=eng),
        lambda eng: squared_family_check(5, m_range=[True, 2, 3], engine=eng),
    ],
    ids=["float_m", "bool_m"],
)
def test_non_int_m_rejected(call):
    # a float m used to raise a TypeError traceback, and True ran as m = 1
    eng = braidax.SkeinEngine()
    with pytest.raises(ExperimentError, match="m must be an int"):
        call(eng)
    assert eng.nodes == 0


@pytest.mark.parametrize(
    "call,match",
    [
        (lambda: progression_check(m_range=[0]), "at least two m values"),
        (lambda: squared_family_check(5, m_range=range(2)), "at least three m values"),
        (lambda: two_cycle_check(2, 2, m_range=range(4)), "at least 5 samples"),
        (lambda: joint_cycle_check(4, m_range=range(3)), "at least 4 samples"),
        (lambda: progression_check(m_range=5), "^m_range must be iterable, got 5$"),
        (lambda: squared_family_check(5, 5), "^m_range must be iterable, got 5$"),
        (lambda: two_cycle_check(2, 2, 3), "^m_range must be iterable, got 3$"),
        (lambda: joint_cycle_check(4, None), "^m_range must be iterable, got None$"),
        (lambda: axis_sequence(canonical_odd_knot_braid(5), False, 5, 3),
         "^m_range must be iterable, got 5$"),
    ],
    ids=["prop25", "dn", "lemma64", "eq54", "prop25-int", "dn-int", "lemma64-int",
         "eq54-None", "axis_sequence-int"],
)
def test_too_few_m_values_rejected(call, match):
    # a non-iterable m_range, which has no m values, escaped as a bare TypeError
    with pytest.raises(ExperimentError, match=match):
        call()


class TestFamilyChecks:
    def test_dn_n5(self, engine):
        report = squared_family_check(5, engine=engine)
        assert report.passed
        assert report.computed["second_differences"] == [-40]

    def test_lemma64_22(self, engine):
        report = two_cycle_check(2, 2, engine=engine)
        assert report.passed
        assert report.computed["quadratic_sum"] == "2"
        assert report.computed["family_cubic"] == "0"
        assert report.computed["even_in_m"]

    def test_lemma64_takes_an_iterator(self, engine):
        # the range is read once, so an iterator is not used up by the check
        # on its length
        report = two_cycle_check(2, 2, m_range=iter(range(-2, 3)), engine=engine)
        assert report.to_json() == two_cycle_check(2, 2, engine=engine).to_json()
        assert report.parameters["m_range"] == [-2, -1, 0, 1, 2]

    def test_lemma64_without_a_pair_m_minus_m(self, engine):
        # 1..5 holds no pair m, -m, so evenness is neither claimed nor checked
        report = two_cycle_check(2, 2, m_range=range(1, 6), engine=engine)
        assert report.passed
        assert "even_in_m" not in report.computed
        assert any("evenness" in note for note in report.notes)

    def test_eq54_n4(self, engine):
        report = joint_cycle_check(4, engine=engine)
        assert report.passed
        assert report.computed["direct_quadratic"] == "2"

    def test_eq54_n5_both_deletions(self, engine):
        report = joint_cycle_check(5, engine=engine)
        assert report.passed
        assert report.computed["deletion_choices_agree"]
        assert report.computed["delete_with_strand_3_quadratic"] == "2"
        assert report.computed["delete_other_quadratic"] == "2"

    @pytest.mark.parametrize(
        "check", [lambda eng: two_cycle_check(2, 2, engine=eng),
                  lambda eng: joint_cycle_check(5, engine=eng)]
    )
    def test_fit_failure_keeps_the_report(self, engine, monkeypatch, check):
        # the second fit fails; the report keeps the passing run's targets
        # and every sampled sequence, and adds the fit error
        good = check(engine)
        fit = braidax.experiments.fit_polynomial
        calls = []

        def second_fails(seq, degree_bound):
            calls.append(seq)
            if len(calls) == 2:
                raise FitError("forced", offending_m=0)
            return fit(seq, degree_bound)

        monkeypatch.setattr(braidax.experiments, "fit_polynomial", second_fails)
        bad = check(engine)
        assert len(calls) == 2
        assert not bad.passed
        assert bad.expected == good.expected
        assert bad.notes == good.notes
        assert bad.computed["fit_error"] == "forced"
        sequences = {k: v for k, v in good.computed.items() if k.endswith("_sequence")}
        assert len(sequences) == 2
        assert sequences.items() <= bad.computed.items()
        assert "quadratic_sum" not in bad.computed
        assert "deletion_choices_agree" not in bad.computed

    @pytest.mark.parametrize("n", [4, 5])
    @pytest.mark.parametrize("ms", [range(-2, 6, 2), [2, 1, 0, -1]])
    def test_eq54_requires_contiguous_range(self, engine, n, ms):
        # samples at other m than the fit assumes would be fitted as m, m+1, ...
        with pytest.raises(ExperimentError, match="contiguous"):
            joint_cycle_check(n, m_range=ms, engine=engine)


class TestSkeinMatchesBurauAtBenchmarkSizes:
    """The skein window of the experiments' own members against the Burau
    route, at the sizes the benchmark runs: the property tests reach only
    8-letter words."""

    @staticmethod
    def check(engine, w, degree):
        w = cyclic_free_reduce(w)
        burau = conway_polynomial(axis_word(w)) + (0,) * degree
        assert engine.truncated(axis_link_diagram(w), degree).coeffs == burau[: degree + 1]

    @pytest.mark.parametrize("n", range(9, 14, 2))
    def test_dn_a3(self, engine, n):
        form = canonical_odd_knot_braid(n)
        for m in range(-1, 2):
            self.check(engine, square(family_member(form, m)), 3)

    @pytest.mark.parametrize("n", [6, 7])
    def test_eq54_a4(self, engine, n):
        form = canonical_joint_cycle_braid(n)
        strands = [None]
        if n % 2:  # both deletion choices of the squared middle cycle
            cycles = cycle_decomposition(permutation_of(square(form.word()))).cycles
            strands = [min(c) for c in cycles if set(c) <= set(range(3, n))]
            assert len(strands) == 2
        for strand in strands:
            for m in range(-1, 3):
                w = square(family_member(form, m))
                if strand is not None:
                    w = delete_component(w, strand)
                self.check(engine, w, 4)


class TestCorpus:
    def test_bundled_has_95_rows(self):
        assert len(load_corpus()) == 95

    def test_row_6_1(self):
        rows = dict(load_corpus())
        assert rows["6_1"] == "-3 -3 -2 1 1 2 -1 3 -2"

    def test_row_8_15(self):
        rows = dict(load_corpus())
        assert rows["8_15"] == "-3 -3 -2 -2 -3 -1 -1 2 -1"

    def test_check_passes(self):
        report = corpus_check()
        assert report.passed
        assert report.computed == {"rows": 95, "failures": 0}

    def test_check_reports_bad_rows(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_text("knot\tword\nX\t1 3 1 3\nY\t1 9 1\n")
        report = corpus_check(path)
        assert not report.passed
        assert report.computed["failures"] == 2

    def test_unreadable_path(self, tmp_path):
        with pytest.raises(ExperimentError, match="cannot read corpus"):
            load_corpus(tmp_path / "missing.tsv")

    @pytest.mark.parametrize("read", [load_corpus, corpus_check])
    def test_a_file_descriptor_is_not_a_path(self, tmp_path, read):
        # open() would read the descriptor and close it
        path = tmp_path / "corpus.tsv"
        path.write_text("X\t1 3\n")
        fd = os.open(path, os.O_RDONLY)
        try:
            with pytest.raises(ExperimentError, match="^cannot read corpus: .* not int$"):
                read(fd)
            os.fstat(fd)  # still open
        finally:
            os.close(fd)

    @pytest.mark.parametrize("path", [3.5, ["corpus.tsv"], "a\0b"], ids=["float", "list", "nul"])
    def test_a_non_path_is_rejected(self, path):
        with pytest.raises(ExperimentError, match="^cannot read corpus: "):
            load_corpus(path)

    def test_row_needs_two_fields(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_text("X\t1 3\tsurplus\n")
        with pytest.raises(ExperimentError, match="two tab-separated fields"):
            load_corpus(path)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_text("knot\tword\n\nX\t1 3\n   \nY\t2\n")
        assert load_corpus(path) == [("X", "1 3"), ("Y", "2")]

    def test_check_notes_a_closure_that_is_no_knot(self, tmp_path):
        # 1 3 splits as alpha = 1, beta = 3, and closes to two components
        path = tmp_path / "corpus.tsv"
        path.write_text("X\t1 3\n")
        report = corpus_check(path)
        assert not report.passed
        assert report.notes == ("X: closure is not a knot",)

    def test_check_notes_a_knot_without_an_exchange_move(self, tmp_path):
        # a knot whose two extreme indices interleave: 1 | 3 | 1 | 3
        path = tmp_path / "corpus.tsv"
        path.write_text("X\t1 1 2 3 1 2 3\n")
        report = corpus_check(path)
        assert not report.passed
        assert report.computed["failures"] == 1
        assert report.notes == ("X: criterion fails (no exchange-move splitting)",)

    def test_check_does_not_hide_a_fault_as_a_parse_failure(self, monkeypatch):
        def faulty(text, strands):
            raise TypeError("not a word error")

        monkeypatch.setattr(braidax.experiments, "parse_word", faulty)
        with pytest.raises(TypeError):
            corpus_check()


DN5_JSON = """{
  "computed": {
    "second_differences": [
      -40
    ],
    "sequence": [
      -15,
      5,
      -15
    ]
  },
  "expected": {
    "origin": "closed form -40-72k-32k^2 (n=5+4k) / 56+88k+32k^2 (n=7+4k)",
    "second_difference": -40
  },
  "experiment": "dn",
  "notes": [],
  "parameters": {
    "m_range": [
      -1,
      0,
      1
    ],
    "n": 5
  },
  "passed": true
}
"""


class TestReports:
    def test_json_deterministic_and_runtime_free(self, engine):
        r1 = squared_family_check(5, engine=engine)
        r2 = squared_family_check(5, engine=engine)
        assert r1.to_json() == r2.to_json()
        data = json.loads(r1.to_json())
        assert "runtime" not in data
        assert data["passed"] is True

    def test_json_bytes_pinned(self, engine):
        assert squared_family_check(5, engine=engine).to_json() == DN5_JSON

    def test_import_leaves_json_unloaded(self):
        # only to_json needs json, so import braidax does not pay for it; the
        # records are plain classes, so dataclasses and inspect stay unloaded
        script = (
            "import sys\n"
            "import braidax\n"
            "for name in ('json', 'dataclasses', 'inspect'):\n"
            "    assert name not in sys.modules, name\n"
            "braidax.squared_family_check(5).to_json()\n"
            "assert 'json' in sys.modules\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(braidax.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr

    def test_tsv_shape(self, engine):
        text = squared_family_check(5, engine=engine).to_tsv()
        lines = text.strip().split("\n")
        assert lines[0] == "experiment\tdn"
        assert "passed\tTrue" in lines
        assert all("\t" in ln for ln in lines)
