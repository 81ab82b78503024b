"""One-variable Alexander polynomial of braid closures, via the reduced
Burau representation.

This is a validation oracle for the skein engine, built on entirely
different mathematics: the determinant det(rho(b) - I) divided by
(1 + t + .. + t^{n-1}) gives the Alexander polynomial of the closure up to
a unit +-t^k (Kassel-Turaev, *Braid Groups*, section 3).  Substituting
z = t^(1/2) - t^(-1/2) into a fully computed Conway polynomial must agree,
again up to units.

Everything is exact integer arithmetic on Laurent polynomials in the
half-power variable s with t = s^2, so all exponents stay integral.  The
Burau matrix is built by column operations, its determinant comes from the
same fraction-free elimination that evaluates Hoste's cofactor
(``conway._det_bareiss``), and the final division is exact: a nonzero
remainder raises ``OracleError`` instead of returning a wrong polynomial.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .conway import _det_bareiss
from .words import BraidWord


class OracleError(ValueError):
    pass


@dataclass(frozen=True)
class LaurentPoly:
    """Integer Laurent polynomial in one variable.

    ``coeffs[i]`` is the coefficient of the monomial with exponent
    ``min_exp + i``; a nonzero polynomial keeps nonzero first and last
    coefficients, and the zero polynomial is the empty tuple.  The ring
    operations take a ``LaurentPoly`` or an integer as the right operand,
    and ``*`` also an integer on the left; ``//`` is exact division.
    """

    min_exp: int
    coeffs: tuple[int, ...]

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls(0, ())

    @classmethod
    def _trimmed(cls, min_exp: int, coeffs: list[int]) -> "LaurentPoly":
        lo, hi = 0, len(coeffs)
        while lo < hi and not coeffs[lo]:
            lo += 1
        while hi > lo and not coeffs[hi - 1]:
            hi -= 1
        if lo == hi:
            return cls.zero()
        return cls(min_exp + lo, tuple(coeffs[lo:hi]))

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.min_exp, tuple(-c for c in self.coeffs))

    def __add__(self, other) -> "LaurentPoly":
        other = _as_poly(other)
        if not other.coeffs:
            return self
        if not self.coeffs:
            return other
        lo = min(self.min_exp, other.min_exp)
        hi = max(self.min_exp + len(self.coeffs), other.min_exp + len(other.coeffs))
        out = [0] * (hi - lo)
        for p in (self, other):
            off = p.min_exp - lo
            for i, c in enumerate(p.coeffs):
                out[off + i] += c
        return LaurentPoly._trimmed(lo, out)

    def __sub__(self, other) -> "LaurentPoly":
        return self + -_as_poly(other)

    def __mul__(self, other) -> "LaurentPoly":
        other = _as_poly(other)
        if not self.coeffs or not other.coeffs:
            return LaurentPoly.zero()
        b = other.coeffs
        out = [0] * (len(self.coeffs) + len(b) - 1)
        for i, x in enumerate(self.coeffs):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        # over the integers the extreme products are nonzero: already trimmed
        return LaurentPoly(self.min_exp + other.min_exp, tuple(out))

    __rmul__ = __mul__

    def __floordiv__(self, other) -> "LaurentPoly":
        """Exact quotient; ``OracleError`` when the remainder is not zero."""
        other = _as_poly(other)
        b = other.coeffs
        if not b:
            raise ZeroDivisionError("division by the zero polynomial")
        if not self.coeffs:
            return self
        rem = list(self.coeffs)
        q = [0] * max(len(rem) - len(b) + 1, 0)
        for k in reversed(range(len(q))):
            # an exact integer quotient must divide every leading coefficient
            q[k], r = divmod(rem[k + len(b) - 1], b[-1])
            if r:
                break
            for i, y in enumerate(b):
                rem[k + i] -= q[k] * y
        if any(rem):
            raise OracleError(f"{self} is not divisible by {other}")
        return LaurentPoly(self.min_exp - other.min_exp, tuple(q))

    def unit_normalized(self) -> "LaurentPoly":
        """Canonical representative up to multiplication by +-s^k."""
        if self.is_zero():
            return LaurentPoly.zero()
        flip = -1 if self.coeffs[0] < 0 else 1
        return LaurentPoly(0, tuple(flip * c for c in self.coeffs))

    def __str__(self):
        if self.is_zero():
            return "0"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                terms.append(f"{c}*s^{self.min_exp + i}")
        return " + ".join(terms)


def _as_poly(x) -> LaurentPoly:
    if isinstance(x, LaurentPoly):
        return x
    return LaurentPoly._trimmed(0, [operator.index(x)])


def equal_up_to_units(a: LaurentPoly, b: LaurentPoly) -> bool:
    return a.unit_normalized() == b.unit_normalized()


# ---------------------------------------------------------------------------
# reduced Burau matrices over t = s^2

_ONE = LaurentPoly(0, (1,))
_T = LaurentPoly(2, (1,))
_T_INV = LaurentPoly(-2, (1,))


def reduced_burau(w: BraidWord) -> list[list[LaurentPoly]]:
    """Product of the (n-1)x(n-1) generator matrices in word order, as rows.

    Right multiplication by the image of sigma_i changes only column
    j = i-1, which becomes t*col_{j-1} - t*col_j + col_{j+1}; by the image
    of sigma_i^-1 it becomes col_{j-1} - t^-1*col_j + t^-1*col_{j+1}.
    Columns outside the matrix count as zero.
    """
    size = w.strands - 1
    m = [[_ONE if r == c else LaurentPoly.zero() for c in range(size)] for r in range(size)]
    for letter in w.letters:
        j = abs(letter) - 1
        left, mid, right = (_T, -_T, _ONE) if letter > 0 else (_ONE, -_T_INV, _T_INV)
        for row in m:
            x = row[j] * mid
            if j > 0:
                x = x + row[j - 1] * left
            if j < size - 1:
                x = x + row[j + 1] * right
            row[j] = x
    return m


def alexander_burau(w: BraidWord) -> LaurentPoly:
    """Alexander polynomial of the closure, in s with t = s^2, up to +-s^k."""
    n = w.strands
    if n == 1:
        return _ONE
    m = reduced_burau(w)
    for i, row in enumerate(m):
        row[i] = row[i] - 1
    return _det_bareiss(m) // LaurentPoly(0, (1, 0) * (n - 1) + (1,))


# ---------------------------------------------------------------------------
# Conway-side substitution


def conway_to_laurent(coeffs) -> LaurentPoly:
    """Substitute z = s - 1/s into a coefficient list a_0, a_1, ..."""
    z = LaurentPoly(-1, (-1, 0, 1))
    power = _ONE
    acc = LaurentPoly.zero()
    for a in coeffs:
        acc = acc + power * a
        power = power * z
    return acc


def conway_matches_alexander(coeffs, w: BraidWord) -> bool:
    """Does the full Conway polynomial agree with the Burau-side Alexander
    polynomial of the closure, up to units?"""
    return equal_up_to_units(conway_to_laurent(coeffs), alexander_burau(w))
