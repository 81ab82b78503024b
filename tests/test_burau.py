"""The Alexander-polynomial oracle and its agreement with the skein engine."""

import pytest
from hypothesis import given

from braidax import (
    BraidWord,
    LaurentPoly,
    alexander_burau,
    closure_diagram,
    conway_matches_alexander,
    conway_to_laurent,
    equal_up_to_units,
    full_conway,
)
from braidax.burau import OracleError, reduced_burau

from conftest import braid_words


def w(n, *letters):
    return BraidWord(n, letters)


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


class TestAlexanderValues:
    def test_unknot(self):
        assert alexander_burau(w(2, 1)).unit_normalized() == LaurentPoly(0, (1,))

    def test_trefoil(self):
        # 1x1 reduced matrix (-t)^3 by hand: det(-t^3 - 1), normalized to
        # 1 - t + t^2 in t = s^2
        got = alexander_burau(w(2, 1, 1, 1)).unit_normalized()
        assert got == LaurentPoly(0, (1, 0, -1, 0, 1))

    def test_figure_eight(self):
        got = alexander_burau(w(3, 1, -2, 1, -2)).unit_normalized()
        assert got == LaurentPoly(0, (1, 0, -3, 0, 1))

    def test_hopf(self):
        got = alexander_burau(w(2, 1, 1)).unit_normalized()
        assert got == LaurentPoly(0, (1, 0, -1))

    def test_five_two(self):
        # leading coefficient 2 is no unit: Bareiss must divide exactly
        got = alexander_burau(w(3, 1, 1, 1, 2, -1, 2)).unit_normalized()
        assert got == LaurentPoly(0, (2, 0, -3, 0, 2))

    def test_five_one(self):
        got = alexander_burau(w(2, 1, 1, 1, 1, 1)).unit_normalized()
        assert got == LaurentPoly(0, (1, 0, -1, 0, 1, 0, -1, 0, 1))

    def test_split_closure_vanishes(self):
        assert alexander_burau(w(3, 1)).is_zero()

    def test_mirror_invariance_up_to_units(self):
        a = alexander_burau(w(2, 1, 1, 1))
        b = alexander_burau(w(2, -1, -1, -1))
        assert equal_up_to_units(a, b)


class TestLaurentHelpers:
    def test_normalization(self):
        p = LaurentPoly(-3, (-2, 0, 4))
        assert p.unit_normalized() == LaurentPoly(0, (2, 0, -4))

    def test_zero(self):
        assert (LaurentPoly(2, (3,)) - LaurentPoly(2, (3,))).is_zero()

    def test_conway_substitution_of_z(self):
        # nabla = z becomes s - 1/s
        assert conway_to_laurent((0, 1)) == LaurentPoly(-1, (-1, 0, 1))

    def test_conway_substitution_of_one(self):
        assert conway_to_laurent((1,)) == LaurentPoly(0, (1,))

    def test_exact_division(self):
        # (s^2 - 1) / (s + 1) = s - 1
        assert LaurentPoly(0, (-1, 0, 1)) // LaurentPoly(0, (1, 1)) == LaurentPoly(0, (-1, 1))
        assert LaurentPoly(-2, (2, 4)) // 2 == LaurentPoly(-2, (1, 2))

    @pytest.mark.parametrize(
        "num,den",
        [
            (LaurentPoly(0, (1, 1)), LaurentPoly(0, (1, 0, 1))),  # remainder 1 + s
            (LaurentPoly(0, (1, 0, 1)), LaurentPoly(0, (1, 1))),  # remainder 2
            (LaurentPoly(0, (1, 2)), LaurentPoly(0, (2,))),  # not over the integers
        ],
    )
    def test_inexact_division_raises(self, num, den):
        with pytest.raises(OracleError):
            num // den


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
