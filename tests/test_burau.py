"""The Burau route to the Conway polynomial and its agreement with the skein
engine."""

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from braidax import (
    BraidWord,
    LaurentPoly,
    axis_link_diagram,
    axis_word,
    canonical_joint_cycle_braid,
    canonical_odd_knot_braid,
    closure_diagram,
    component_count,
    conway_matches_alexander,
    conway_polynomial,
    conway_truncated,
    cyclic_free_reduce,
    cycle_decomposition,
    delete_component,
    family_member,
    full_conway,
    permutation_of,
    square,
)
from braidax.burau import (
    _ZERO,
    OracleError,
    _as_poly,
    _det,
    _less_one,
    _peel,
    _shifted_sum,
    _submul,
    reduced_burau,
)
from braidax.conway import _det_bareiss

from conftest import braid_words, exchange_forms, laurent_polys


def w(n, *letters):
    return BraidWord(n, letters)


def skein(d):
    """The skein engine's full polynomial, trailing zeros stripped."""
    coeffs = list(full_conway(d).coeffs)
    while len(coeffs) > 1 and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


# ---------------------------------------------------------------------------
# the earlier route, kept as a reference: the Alexander polynomial up to a
# unit +-s^k, from a Burau matrix in t built with generic polynomial products


_T = LaurentPoly(1, (1,))
_T_INV = LaurentPoly(-1, (1,))


def reference_burau(word):
    size = word.strands - 1
    m = [[LaurentPoly(0, (1,)) if r == c else LaurentPoly(0, ()) for c in range(size)]
         for r in range(size)]
    for letter in word.letters:
        j = abs(letter) - 1
        left, mid, right = (_T, -_T, 1) if letter > 0 else (1, -_T_INV, _T_INV)
        for row in m:
            x = row[j] * mid
            if j > 0:
                x = x + row[j - 1] * left
            if j < size - 1:
                x = x + row[j + 1] * right
            row[j] = x
    return m


def alexander_burau(word):
    """Alexander polynomial of the closure, in s with t = s^2, up to +-s^k."""
    n = word.strands
    if n == 1:
        return LaurentPoly(0, (1,))
    m = reference_burau(word)
    for i, row in enumerate(m):
        row[i] = row[i] - 1
    delta = _det_bareiss(m) // LaurentPoly(0, (1,) * n)
    in_s = [0] * (2 * len(delta.coeffs) - 1)
    in_s[::2] = delta.coeffs
    return LaurentPoly(2 * delta.min_exp, tuple(in_s))


def unit_normalized(p):
    """Canonical representative up to multiplication by +-s^k."""
    if not p:
        return p
    flip = -1 if p.coeffs[0] < 0 else 1
    return LaurentPoly(0, tuple(flip * c for c in p.coeffs))


def equal_up_to_units(a, b):
    return unit_normalized(a) == unit_normalized(b)


def conway_to_laurent(coeffs):
    """Substitute z = s - 1/s into a coefficient list a_0, a_1, ..."""
    z = LaurentPoly(-1, (-1, 0, 1))
    power = LaurentPoly(0, (1,))
    acc = LaurentPoly(0, ())
    for a in coeffs:
        acc = acc + power * a
        power = power * z
    return acc


def dn_axis_word(n, m=1):
    """The axis word of a squared dn family member, as the dn experiment
    builds it."""
    return axis_word(cyclic_free_reduce(square(family_member(canonical_odd_knot_braid(n), m))))


class TestRepresentation:
    @pytest.mark.parametrize("n", (3, 4, 5))
    def test_braid_relation(self, n):
        assert reduced_burau(w(n, 1, 2, 1)) == reduced_burau(w(n, 2, 1, 2))

    def test_far_commutation(self):
        assert reduced_burau(w(5, 1, 4)) == reduced_burau(w(5, 4, 1))

    @pytest.mark.parametrize("n,i", [(3, 1), (4, 2), (5, 4)])
    def test_inverse_matrices(self, n, i):
        assert reduced_burau(w(n, i, -i)) == reduced_burau(w(n))
        assert reduced_burau(w(n, -i, i)) == reduced_burau(w(n))

    @given(braid_words(max_letters=8, max_strands=5))
    def test_shifts_match_products(self, word):
        assert reduced_burau(word) == reference_burau(word)


class TestAlexanderValues:
    def test_unknot(self):
        assert conway_polynomial(w(2, 1)) == (1,)

    def test_trefoil(self):
        # 1x1 reduced matrix (-t)^3: det = -t^3 - 1, over 1 + t that is
        # -(1 - t + t^2); times (-1)^3 s^-2 it is s^2 - 1 + s^-2 = z^2 + 1
        assert conway_polynomial(w(2, 1, 1, 1)) == (1, 0, 1)
        assert conway_polynomial(w(2, -1, -1, -1)) == (1, 0, 1)

    def test_figure_eight(self):
        assert conway_polynomial(w(3, 1, -2, 1, -2)) == (1, 0, -1)

    def test_hopf(self):
        assert conway_polynomial(w(2, 1, 1)) == (0, 1)

    def test_negative_hopf(self):
        assert conway_polynomial(w(2, -1, -1)) == (0, -1)

    def test_five_two(self):
        # leading coefficient 2 is no unit: Bareiss must divide exactly
        assert conway_polynomial(w(3, 1, 1, 1, 2, -1, 2)) == (1, 0, 2)

    def test_five_one(self):
        assert conway_polynomial(w(2, 1, 1, 1, 1, 1)) == (1, 0, 3, 0, 1)

    def test_split_closure_vanishes(self):
        assert conway_polynomial(w(3, 1)) == (0,)

    def test_one_strand(self):
        assert conway_polynomial(w(1)) == (1,)

    def test_mirror_invariance_up_to_units(self):
        a = alexander_burau(w(2, 1, 1, 1))
        b = alexander_burau(w(2, -1, -1, -1))
        assert equal_up_to_units(a, b)


class TestLaurentHelpers:
    def test_normalization(self):
        p = LaurentPoly(-3, (-2, 0, 4))
        assert unit_normalized(p) == LaurentPoly(0, (2, 0, -4))

    def test_zero(self):
        assert not LaurentPoly(2, (3,)) - LaurentPoly(2, (3,))
        with pytest.raises(ZeroDivisionError):
            LaurentPoly(0, (1,)) // LaurentPoly(0, ())

    def test_conway_substitution_of_z(self):
        # nabla = z becomes s - 1/s
        assert conway_to_laurent((0, 1)) == LaurentPoly(-1, (-1, 0, 1))

    def test_conway_substitution_of_one(self):
        assert conway_to_laurent((1,)) == LaurentPoly(0, (1,))

    def test_exact_division(self):
        # (s^2 - 1) / (s + 1) = s - 1
        assert LaurentPoly(0, (-1, 0, 1)) // LaurentPoly(0, (1, 1)) == LaurentPoly(0, (-1, 1))
        assert LaurentPoly(-2, (2, 4)) // 2 == LaurentPoly(-2, (1, 2))

    def test_integer_operands(self):
        p = LaurentPoly(-1, (3, 0, -2))
        assert p // 1 is p and p * 1 is p
        assert not p * 0 and not 0 * p
        assert -2 * p == LaurentPoly(-1, (-6, 0, 4))
        assert LaurentPoly(0, (1, 5)) - 1 == LaurentPoly(1, (5,))
        assert not LaurentPoly(0, (1,)) == 1  # == compares polynomials only

    @pytest.mark.parametrize(
        "num,den",
        [
            (LaurentPoly(0, (1, 1)), LaurentPoly(0, (1, 0, 1))),  # remainder 1 + s
            (LaurentPoly(0, (1, 0, 1)), LaurentPoly(0, (1, 1))),  # remainder 2
            (LaurentPoly(0, (1, 2)), LaurentPoly(0, (2,))),  # not over the integers
            (LaurentPoly(0, (1, 2)), 2),
        ],
    )
    def test_inexact_division_raises(self, num, den):
        with pytest.raises(OracleError):
            num // den

    @pytest.mark.parametrize(
        "min_exp,coeffs",
        [
            (0, [1, 0, 1]),  # 1 + s^2 is not symmetric
            (-3, [1, 0, 0, 0, 1]),  # s^-3 + s
            (-2, [1]),  # s^-2 alone
        ],
    )
    def test_peel_rejects_leftovers(self, min_exp, coeffs):
        with pytest.raises(OracleError):
            _peel(min_exp, coeffs)

    def test_oracle_error_names_the_polynomials_by_repr(self):
        with pytest.raises(OracleError) as exc:
            LaurentPoly(0, (1, 1)) // LaurentPoly(0, (1, 2))
        assert str(exc.value) == "LaurentPoly(0, (1, 1)) is not divisible by LaurentPoly(0, (1, 2))"
        with pytest.raises(OracleError) as exc:
            _peel(-2, [1])
        assert "LaurentPoly(" in str(exc.value) and "s^" not in str(exc.value)

    def test_peel(self):
        # z^4 = s^4 - 4s^2 + 6 - 4s^-2 + s^-4 and z^2 = s^2 - 2 + s^-2,
        # so s^4 - 2 + s^-4 = z^4 + 4z^2
        assert _peel(-4, [1, 0, 0, 0, -2, 0, 0, 0, 1]) == (0, 0, 4, 0, 1)


class TestOracleAgreement:
    @pytest.mark.parametrize(
        "word",
        [
            w(2, 1, 1, 1),
            w(2, 1, 1),
            w(3, 1, -2, 1, -2),
            w(3, 1, 1, 2, 2),
            w(4, 1, 2, 3, 1, -2, 3),
            w(3, ),
            w(4, -1, -2, -3),
            w(2, 1, 1, 1, 1, 1),
        ],
    )
    def test_named_words(self, word):
        coeffs = full_conway(closure_diagram(word)).coeffs
        assert conway_matches_alexander(coeffs, word)

    @given(braid_words(max_letters=10, max_strands=5))
    def test_random_words(self, word):
        coeffs = full_conway(closure_diagram(word)).coeffs
        assert conway_matches_alexander(coeffs, word)

    def test_sign_is_checked(self):
        # -z and -(1 + z^2) agree with the Hopf link and the trefoil up to units
        assert not conway_matches_alexander((0, -1), w(2, 1, 1))
        assert not conway_matches_alexander((-1, 0, -1), w(2, 1, 1, 1))

    def test_trailing_zeros(self):
        assert conway_matches_alexander((1, 0, 1, 0, 0), w(2, 1, 1, 1))
        assert conway_matches_alexander((0, 0, 0), w(3, 1))
        assert conway_matches_alexander((), w(3, 1))
        assert not conway_matches_alexander((1, 0, 1, 0, 1), w(2, 1, 1, 1))
        assert not conway_matches_alexander((1,), w(2, 1, 1, 1))

    @pytest.mark.parametrize("coeffs", [5, None, 1.5])
    def test_non_iterable_coeffs_rejected(self, coeffs):
        # list() would escape as a bare TypeError
        with pytest.raises(OracleError, match=f"^coeffs must be iterable, got {coeffs!r}$"):
            conway_matches_alexander(coeffs, w(2, 1, 1, 1))


@st.composite
def laurent_matrices(draw):
    """Square matrices of size 0..5, some of whose columns are made zero or
    free of units (a unit is doubled)."""
    n = draw(st.integers(0, 5))
    m = [[draw(laurent_polys()) for _ in range(n)] for _ in range(n)]
    for c in draw(st.sets(st.integers(0, n - 1))) if n else ():
        zero = draw(st.booleans())
        for row in m:
            if zero:
                row[c] = _ZERO
            elif row[c].coeffs in ((1,), (-1,)):
                row[c] = row[c] * 2
    return m


class TestDeterminant:
    @given(laurent_matrices())
    # a negative, shifted unit pivot in the second row, then a deferred column
    @example([[LaurentPoly(0, (2, 1)), LaurentPoly(1, (3,))],
              [LaurentPoly(-2, (-1,)), LaurentPoly(0, (1, 1))]])
    # a zero column
    @example([[LaurentPoly(0, (1,)), _ZERO], [LaurentPoly(0, (1, 1)), _ZERO]])
    # no unit anywhere: Bareiss alone
    @example([[LaurentPoly(0, (2,)), LaurentPoly(0, (1, 1))],
              [LaurentPoly(1, (1, 1)), LaurentPoly(0, (3,))]])
    def test_equals_bareiss(self, m):
        assert _det([row[:] for row in m]) == _as_poly(_det_bareiss(m))

    def test_unit_pivots_bound_the_work(self, monkeypatch):
        # every column of sigma_1 .. sigma_99's 99 x 99 matrix but the last
        # has a unit pivot; full Bareiss on it makes over 600,000 products
        # of two polynomials
        products = 0
        mul = LaurentPoly.__mul__

        def counting(self, other):
            nonlocal products
            products += isinstance(other, LaurentPoly)
            return mul(self, other)

        monkeypatch.setattr(LaurentPoly, "__mul__", counting)
        assert conway_polynomial(BraidWord(100, tuple(range(1, 100)))) == (1,)
        assert products <= 1000

    @given(braid_words(max_letters=10, max_strands=6), st.data())
    def test_unused_generator_gives_zero(self, word, data):
        i = data.draw(st.integers(1, word.strands - 1))
        word = BraidWord(word.strands, tuple(k for k in word.letters if abs(k) != i))
        assert conway_polynomial(word) == (0,)
        assert skein(closure_diagram(word)) == (0,)


def _t(k):
    return LaurentPoly(k, (1,))


_NONZERO = laurent_polys().filter(bool)
_SHIFTS = st.integers(-2, 2)


class TestKernels:
    """Each fused kernel equals the ``LaurentPoly`` expression it replaces."""

    @given(laurent_polys(), _NONZERO, _NONZERO)
    def test_submul(self, a, x, q):
        assert _submul(a, x, q) == a - x * q

    @given(laurent_polys(), _NONZERO, _NONZERO)
    def test_submul_cancels(self, rest, x, q):
        # the result is rest: zero, or a polynomial that lost end terms
        assert _submul(x * q + rest, x, q) == rest

    @given(laurent_polys(), laurent_polys(), laurent_polys(), _SHIFTS, _SHIFTS, _SHIFTS)
    def test_shifted_sum(self, left, mid, right, sl, sm, sr):
        assume(left or mid or right)
        want = left * _t(sl) - mid * _t(sm) + right * _t(sr)
        assert _shifted_sum(left, mid, right, sl, sm, sr) == want

    @given(laurent_polys(), laurent_polys(), laurent_polys(), _SHIFTS, _SHIFTS, _SHIFTS)
    def test_shifted_sum_cancels(self, left, right, rest, sl, sm, sr):
        # mid is chosen so that the sum is rest
        mid = (left * _t(sl) + right * _t(sr) - rest) * _t(-sm)
        assume(left or mid or right)
        assert _shifted_sum(left, mid, right, sl, sm, sr) == rest

    @given(laurent_polys())
    @example(_ZERO)
    @example(LaurentPoly(0, (1,)))  # to zero
    @example(LaurentPoly(0, (1, 0, 4)))  # loses its lowest term
    @example(LaurentPoly(-2, (3, 0, 1)))  # loses its highest term
    @example(LaurentPoly(3, (-1,)))
    @example(LaurentPoly(-5, (2, 7)))
    def test_less_one(self, p):
        assert _less_one(p) == p - 1


def _route_words():
    """Degree and word of the samples that ``dn`` 5 and 7 and ``eq54`` 5
    evaluate on their default windows: the squared members, and for ``eq54``
    the squared members less each middle component in turn."""
    for n in (5, 7):
        for m in (-1, 0, 1):
            word = square(family_member(canonical_odd_knot_braid(n), m))
            yield pytest.param(3, word, id=f"dn{n}-m{m}")
    form = canonical_joint_cycle_braid(5)
    cycles = cycle_decomposition(permutation_of(square(form.word()))).cycles
    for strand in (min(c) for c in cycles if set(c) <= set(range(3, 5))):
        for m in (-1, 0, 1, 2):
            word = delete_component(square(family_member(form, m)), strand)
            yield pytest.param(4, word, id=f"eq54_5-strand{strand}-m{m}")


class TestExactRoute:
    @pytest.mark.parametrize("degree,word", list(_route_words()))
    def test_equals_skein_window_on_experiment_samples(self, engine, degree, word):
        word = cyclic_free_reduce(word)
        window = engine.truncated(axis_link_diagram(word), degree).coeffs
        assert (conway_polynomial(axis_word(word)) + (0,) * degree)[:degree + 1] == window

    @given(braid_words(max_letters=8, max_strands=5))
    def test_equals_skein_on_closures_and_axis_links(self, word):
        assert conway_polynomial(word) == skein(closure_diagram(word))
        assert conway_polynomial(axis_word(word)) == skein(axis_link_diagram(word))

    @given(braid_words(max_letters=8, max_strands=5))
    def test_reference_agrees_up_to_units(self, word):
        for b in (word, axis_word(word)):
            got = conway_to_laurent(conway_polynomial(b))
            assert equal_up_to_units(got, alexander_burau(b))

    @given(exchange_forms(max_cycles=3), st.integers(-2, 2))
    def test_equals_skein_on_family_members(self, form, m):
        # the a_0..a_3 window the experiments read, on the axis link of at
        # most four components; from five on, both routes give zeros alone
        member = family_member(form, m)
        d = axis_link_diagram(member)
        assert component_count(d) <= 4
        window = (conway_polynomial(axis_word(member)) + (0,) * 4)[:4]
        assert window == conway_truncated(d, 3).coeffs

    def test_reference_agrees_on_dn_axis_word(self):
        b = dn_axis_word(13)
        got = conway_to_laurent(conway_polynomial(b))
        assert equal_up_to_units(got, alexander_burau(b))
