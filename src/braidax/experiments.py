"""Exact-arithmetic experiments over exchange-move braid families.

Each experiment builds a family b_m = alpha kappa^m beta kappa^-m from a
seed form, evaluates a truncated Conway coefficient of the axis link (of b_m
or of its square), fits the resulting integer sequence by exact finite
differences, and compares coefficients against closed-form targets.  A fit
that fails to be polynomial of the claimed degree is reported as a failure,
never patched over.

The k^m twist direction is fixed by the family constructor; first
differences of a coefficient sequence may be globally negated relative to a
drawing with the opposite twist direction, so checks on first differences
assert constancy and absolute value and report the realized sign.  Second
differences are direction-independent.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from math import factorial
from os import fspath

from .conway import SkeinEngine
from .diagram import axis_link_diagram
from .words import (
    BraidWord,
    ExchangeForm,
    WordError,
    _int,
    _items,
    _Value,
    cycle_decomposition,
    cyclic_free_reduce,
    canonical_joint_cycle_braid,
    canonical_odd_knot_braid,
    canonical_split_cycle_braid,
    delete_component,
    family_member,
    nonconjugacy_criterion,
    parse_word,
    permutation_of,
    square,
)


class ExperimentError(ValueError):
    pass


class FitError(ExperimentError):
    """A sample sequence is not polynomial of the claimed degree."""

    def __init__(self, message: str, offending_m: int | None = None):
        super().__init__(message)
        self.offending_m = offending_m


class CoefficientSequence(_Value):
    """Values of one Conway coefficient along a contiguous range of m; every
    value is an int (a bool is rejected)."""

    _fields = ("m_start", "values")

    def __init__(self, m_start: int, values: Iterable[int]):
        _int(m_start, "m_start", ExperimentError)
        values = _items(values, "values", ExperimentError)
        if any(type(v) is not int for v in values):
            raise ExperimentError(f"values must be ints, got {values!r}")
        self.__dict__.update(m_start=m_start, values=values)

    @property
    def m_values(self) -> tuple[int, ...]:
        return tuple(range(self.m_start, self.m_start + len(self.values)))

    def value_at(self, m: int) -> int:
        i = _int(m, "m", ExperimentError) - self.m_start
        if not 0 <= i < len(self.values):
            raise ExperimentError(f"m={m} outside the sampled range {self.m_values}")
        return self.values[i]


class PolynomialFit(_Value):
    """Exact polynomial in the power basis that every sample lies on, with
    rational coefficients from the leading finite differences."""

    _fields = ("coeffs",)

    def __init__(self, coeffs: Iterable[Fraction]):
        # coeffs[k] multiplies m^k
        self.__dict__["coeffs"] = _items(coeffs, "coeffs", ExperimentError)

    def coefficient(self, k: int) -> Fraction:
        if _int(k, "k", ExperimentError) < 0:
            raise ExperimentError(f"no coefficient of m^{k}")
        return self.coeffs[k] if k < len(self.coeffs) else Fraction(0)


class ExperimentReport(_Value):
    """Outcome of one experiment: parameters, targets with their origin,
    computed values, and a verdict."""

    _fields = ("experiment", "parameters", "expected", "computed", "passed", "notes")

    def __init__(self, experiment: str, parameters: dict, expected: dict, computed: dict,
                 passed: bool, notes: tuple[str, ...] = ()):
        self.__dict__.update(experiment=experiment, parameters=parameters, expected=expected,
                             computed=computed, passed=passed, notes=notes)

    def to_json(self) -> str:
        import json  # imported here: nothing else in braidax needs it

        fields = dict(zip(self._fields, self._values()))
        return json.dumps(fields, sort_keys=True, indent=2, default=str) + "\n"

    def to_tsv(self) -> str:
        lines = [f"experiment\t{self.experiment}"]
        for section in ("parameters", "expected", "computed"):
            d = getattr(self, section)
            for key in sorted(d):
                lines.append(f"{section}.{key}\t{d[key]}")
        lines.append(f"passed\t{self.passed}")
        for i, note in enumerate(self.notes):
            lines.append(f"note.{i}\t{note}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# sequences and exact fits


def axis_sequence(
    form: ExchangeForm,
    squared: bool,
    m_range,
    degree: int,
    engine: SkeinEngine | None = None,
    delete_strand: int | None = None,
) -> CoefficientSequence:
    """a_degree of the axis link of each family member (or of its square),
    in m order on one engine.

    With ``delete_strand`` the component through that top position of the
    unreduced word is deleted before evaluating.
    """
    ms = _items(m_range, "m_range", ExperimentError)
    for m in ms:
        _int(m, "m", ExperimentError)
    if not ms or ms != tuple(range(ms[0], ms[0] + len(ms))):
        raise ExperimentError("m_range must be a nonempty contiguous range")
    eng = engine if engine is not None else SkeinEngine()
    vals = []
    for m in ms:
        w = family_member(form, m)
        if squared:
            w = square(w)
        if delete_strand is not None:
            w = delete_component(w, delete_strand)
        d = axis_link_diagram(cyclic_free_reduce(w))
        vals.append(eng.truncated(d, degree)[degree])
    return CoefficientSequence(ms[0], vals)


def fit_polynomial(seq: CoefficientSequence, degree_bound: int) -> PolynomialFit:
    """Newton forward-difference fit of degree at most ``degree_bound``.

    The samples lie on such a polynomial exactly when every difference of
    order degree_bound + 1 vanishes.  The first nonzero one, at index i,
    names the first sample the fit of the samples before it misses, at
    m = m_start + i + degree_bound + 1, and raises ``FitError``.
    """
    if type(degree_bound) is not int or degree_bound < 0:
        raise ExperimentError(f"degree_bound must be an int >= 0, got {degree_bound!r}")
    if not isinstance(seq, CoefficientSequence):
        raise ExperimentError(f"need a CoefficientSequence, got {type(seq).__name__}")
    vals = seq.values
    if len(vals) < degree_bound + 2:
        raise ExperimentError(
            f"need at least {degree_bound + 2} samples for degree bound {degree_bound}"
        )
    diffs = vals
    for _ in range(degree_bound + 1):
        diffs = _differences(diffs)
    bad = next((i for i, d in enumerate(diffs) if d), None)
    if bad is not None:
        m = seq.m_start + bad + degree_bound + 1
        raise FitError(
            f"samples are not polynomial of degree {degree_bound}: "
            f"value {seq.value_at(m)} at m={m} deviates from the fit",
            offending_m=m,
        )
    # peel the power coefficients off from the top: the k-th difference of a
    # polynomial of degree k is k! times its leading coefficient.  The
    # samples are ints, so the polynomial is integer-valued and d! times it
    # has integer coefficients (d = degree_bound): every division is exact.
    scale = factorial(degree_bound)
    ms = seq.m_values
    rest = [scale * v for v in vals]
    coeffs = [0] * (degree_bound + 1)
    for k in range(degree_bound, -1, -1):
        lead = rest[:k + 1]
        for _ in range(k):
            lead = _differences(lead)
        c = coeffs[k] = lead[0] // factorial(k)
        rest = [r - c * m**k for r, m in zip(rest, ms)]
    return PolynomialFit([Fraction(c, scale) for c in coeffs])


def _differences(values) -> list:
    """First differences of a sequence."""
    return [b - a for a, b in zip(values, values[1:])]


def _fit_variants(variants, squared, ms, degree_bound, engine, computed, checks):
    """Sample a_4 over ``ms`` for each ``(tag, form, delete_strand)`` in
    turn on one engine, record it as ``{tag}_sequence`` and fit it to
    ``degree_bound``.

    A ``FitError`` is recorded as ``fit_error``, fails ``checks`` and ends
    the sampling.  Returns the sequence of each sampled variant and the fit
    of each fitted one, by tag.
    """
    engine = engine if engine is not None else SkeinEngine()
    sequences, fits = {}, {}
    for tag, form, strand in variants:
        seq = sequences[tag] = axis_sequence(form, squared, ms, 4, engine, strand)
        computed[f"{tag}_sequence"] = list(seq.values)
        try:
            fits[tag] = fit_polynomial(seq, degree_bound)
        except FitError as exc:
            computed["fit_error"] = str(exc)
            checks.append(False)
            break
    return sequences, fits


# ---------------------------------------------------------------------------
# the experiments


def progression_check(
    form: ExchangeForm | None = None,
    m_range=range(-2, 3),
    engine: SkeinEngine | None = None,
) -> ExperimentReport:
    """Arithmetic progression of a_3 along an axis-link family of a knot.

    The constant first difference has absolute value |n + 1 - 2l| where l is
    the position of the entry 1 in the permutation cycle written to end on n;
    the difference vanishes exactly when n is odd and l lands in the middle.
    """
    if form is None:
        form = ExchangeForm(4, BraidWord(4, (-1, -2)), BraidWord(4, (-3,)))
    ms = list(_items(m_range, "m_range", ExperimentError))
    if len(ms) < 2:
        raise ExperimentError("need at least two m values for a first difference")
    word = family_member(form, 0)  # the seed word; family_member checks the form
    n = word.strands
    perm = permutation_of(word)
    dec = cycle_decomposition(perm, normalized=True)  # errors unless a knot
    l = dec.one_index
    expected_abs = abs(n + 1 - 2 * l)
    seq = axis_sequence(form, False, ms, 3, engine)
    diffs = _differences(seq.values)
    constant = all(d == diffs[0] for d in diffs)
    notes = [
        f"normalized cycle {dec.normalized}, one at position {l}",
        f"realized difference sign: {('+' if diffs[0] > 0 else '-' if diffs[0] < 0 else '0')}",
        "family twist direction fixed by the constructor; first differences may be"
        " globally negated relative to the opposite convention",
    ]
    return ExperimentReport(
        "prop25",
        {"strands": n, "alpha": str(form.alpha), "beta": str(form.beta),
         "m_range": ms},
        {"abs_difference": expected_abs,
         "origin": "closed form |n + 1 - 2l| from the strand-by-strand linking count"},
        {"sequence": list(seq.values), "differences": diffs,
         "constant": constant, "abs_difference": abs(diffs[0])},
        constant and abs(diffs[0]) == expected_abs,
        tuple(notes),
    )


def second_difference_target(n: int) -> int:
    """Closed-form second difference of a_3 along the squared canonical
    odd-strand family: -40 - 72k - 32k^2 at n = 5+4k, 56 + 88k + 32k^2 at
    n = 7+4k."""
    if type(n) is not int or n % 2 == 0 or n < 5:
        raise ExperimentError(f"need an odd int n >= 5, got {n!r}")
    if n % 4 == 1:
        k = (n - 5) // 4
        return -40 - 72 * k - 32 * k * k
    k = (n - 7) // 4
    return 56 + 88 * k + 32 * k * k


def squared_family_check(
    n: int, m_range=range(-1, 2), engine: SkeinEngine | None = None
) -> ExperimentReport:
    """Second difference of a_3 over the squared odd-strand canonical family.

    The family member is squared before adding the axis; the canonical seed
    sits in the excluded middle-position case, where only the square braid
    separates the family, with a second difference given in closed form.
    """
    form = canonical_odd_knot_braid(n)
    target = second_difference_target(n)
    ms = list(_items(m_range, "m_range", ExperimentError))
    if len(ms) < 3:
        raise ExperimentError("need at least three m values for a second difference")
    seq = axis_sequence(form, True, ms, 3, engine)
    second = _differences(_differences(seq.values))
    constant = all(d == second[0] for d in second)
    return ExperimentReport(
        "dn",
        {"n": n, "m_range": ms},
        {"second_difference": target,
         "origin": "closed form -40-72k-32k^2 (n=5+4k) / 56+88k+32k^2 (n=7+4k)"},
        {"sequence": list(seq.values), "second_differences": second},
        constant and second[0] == target,
    )


def two_cycle_check(
    n1: int,
    n2: int,
    m_range=range(-2, 3),
    engine: SkeinEngine | None = None,
) -> ExperimentReport:
    """a_4 along the two-cycle family is cubic-free in m, even in m for the
    bare seed, and the quadratic coefficients of the family and its mirror
    add up to 2(n1-1)(n2-1).

    A sequence that is not cubic fails the report with ``fit_error`` and
    ends the sampling; the quadratic sum is reported only when both fit.
    """
    ms = list(_items(m_range, "m_range", ExperimentError))
    if len(ms) < 5:
        raise ExperimentError("need at least 5 samples for the cubic fit")
    form = canonical_split_cycle_braid(n1, n2)
    target = 2 * (n1 - 1) * (n2 - 1)
    computed = {}
    checks = []
    notes = []
    variants = [("family", form, None), ("mirror", form.mirrored(), None)]
    sequences, fits = _fit_variants(variants, False, ms, 3, engine, computed, checks)
    for tag, fit in fits.items():
        computed[f"{tag}_cubic"] = str(fit.coefficient(3))
        computed[f"{tag}_quadratic"] = str(fit.coefficient(2))
        checks.append(fit.coefficient(3) == 0)
    # a_4(m) == a_4(-m) pointwise for the bare seed
    family_seq = sequences["family"]
    pairs = [m for m in family_seq.m_values if m > 0 and -m in family_seq.m_values]
    if pairs:
        even = all(family_seq.value_at(m) == family_seq.value_at(-m) for m in pairs)
        computed["even_in_m"] = even
        checks.append(even)
    else:
        notes.append("evenness in m not checked: the m range holds no pair m, -m with m != 0")
    if len(fits) == 2:
        quad_sum = sum(fit.coefficient(2) for fit in fits.values())
        computed["quadratic_sum"] = str(quad_sum)
        checks.append(quad_sum == target)
    return ExperimentReport(
        "lemma64",
        {"n1": n1, "n2": n2, "m_range": ms},
        {"quadratic_sum": target, "cubic": 0,
         "origin": "closed form 2(n1-1)(n2-1) for the mirror-pair quadratic sum"},
        computed,
        all(checks),
        tuple(notes),
    )


def joint_cycle_target(n: int) -> int:
    """Quadratic coefficient of a_4 for the joint-cycle construction with all
    auxiliary strand linkings zero: 2(k+1)^2 at n = 5+2k, 2(2k+1)^2 at
    n = 4+2k."""
    if type(n) is not int or n < 4:
        raise ExperimentError(f"need an int n >= 4, got {n!r}")
    if n % 2 == 0:
        k = (n - 4) // 2
        return 2 * (2 * k + 1) ** 2
    k = (n - 5) // 2
    return 2 * (k + 1) ** 2


def joint_cycle_check(
    n: int, m_range=range(-1, 3), engine: SkeinEngine | None = None
) -> ExperimentReport:
    """Quadratic growth of a_4 over the squared joint-cycle family.

    For odd n the squared middle cycle closes into two components and one of
    them is deleted before evaluating; both deletion choices are computed and
    compared.  For even n the axis link of the square is used directly.
    A sequence that is not quadratic fails the report with ``fit_error``
    and ends the sampling; the choices are compared only when both fit.
    """
    ms = list(_items(m_range, "m_range", ExperimentError))
    if len(ms) < 4:
        raise ExperimentError("need at least 4 samples for the quadratic fit")
    form = canonical_joint_cycle_braid(n)
    target = joint_cycle_target(n)
    computed = {}
    checks = []
    notes = [
        "auxiliary strand linkings all vanish for this construction, so the"
        " linking-dependent part of the quadratic target drops out",
    ]

    if n % 2 == 0:
        variants = [("direct", form, None)]
        notes.append("even strand count: no component deletion")
    else:
        w0 = square(form.word())
        cycles = cycle_decomposition(permutation_of(w0)).cycles
        middle = [c for c in cycles if set(c) <= set(range(3, n))]
        first = next(c for c in middle if 3 in c)
        second = next(c for c in middle if 3 not in c)
        variants = [("delete_with_strand_3", form, min(first)),
                    ("delete_other", form, min(second))]
        notes.append(
            "odd strand count: the squared middle cycle closes into two components;"
            " the one containing strand 3 is deleted by default and the other"
            " choice is reported alongside"
        )
    _, fits = _fit_variants(variants, True, ms, 2, engine, computed, checks)
    quads = {tag: fit.coefficient(2) for tag, fit in fits.items()}
    for tag, quad in quads.items():
        computed[f"{tag}_quadratic"] = str(quad)
        checks.append(quad == target)
    if len(quads) == 2:
        agree = len(set(quads.values())) == 1
        computed["deletion_choices_agree"] = agree
        checks.append(agree)
    return ExperimentReport(
        "eq54",
        {"n": n, "m_range": ms},
        {"quadratic": target,
         "origin": "closed form 2(k+1)^2 (n=5+2k) / 2(2k+1)^2 (n=4+2k) at zero"
                   " auxiliary linking"},
        computed,
        all(checks),
        tuple(notes),
    )


# ---------------------------------------------------------------------------
# the braid-word corpus


def load_corpus(path=None) -> list[tuple[str, str]]:
    """Rows (knot_name, word) of the bundled 4-braid corpus, or of the TSV
    file at ``path``, a str, bytes or os.PathLike: a file descriptor is no path."""
    if path is None:
        from importlib import resources  # imported here: only the bundled corpus needs it

        text = resources.files("braidax.data").joinpath("table8.tsv").read_text()
    else:
        # fspath raises TypeError on an int, which open would take as a file
        # descriptor; ValueError covers a decode error and a NUL in the path
        try:
            with open(fspath(path)) as f:
                text = f.read()
        except (OSError, ValueError, TypeError) as exc:
            raise ExperimentError(f"cannot read corpus: {exc}") from exc
    rows = []
    lines = text.splitlines()
    start = 1 if lines and lines[0].split("\t")[0] == "knot" else 0
    for ln in lines[start:]:
        if not ln.strip():
            continue
        parts = ln.split("\t")
        if len(parts) != 2:
            raise ExperimentError(f"corpus row must have two tab-separated fields: {ln!r}")
        rows.append((parts[0], parts[1]))
    return rows


def corpus_check(path=None) -> ExperimentReport:
    """Every corpus word must parse as a 4-braid, close to a knot, and
    satisfy the non-conjugacy criterion, which asks for an exchange move."""
    rows = load_corpus(path)
    failures = []
    for name, text in rows:
        try:
            w = parse_word(text, 4)
        except WordError as exc:
            failures.append(f"{name}: parse failure: {exc}")
            continue
        if cycle_decomposition(permutation_of(w)).count != 1:
            failures.append(f"{name}: closure is not a knot")
            continue
        verdict = nonconjugacy_criterion(w)
        if not verdict.applies:
            failures.append(f"{name}: criterion fails ({verdict.reason})")
    passed = len(rows) == 95 and not failures
    return ExperimentReport(
        "table8",
        {"rows": len(rows), "source": "bundled" if path is None else str(path)},
        {"rows": 95, "failures": 0},
        {"rows": len(rows), "failures": len(failures)},
        passed,
        tuple(failures[:20]),
    )
