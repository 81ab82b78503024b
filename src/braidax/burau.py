"""Exact Conway polynomial of braid closures, via the reduced Burau
representation.

This is a second route to the coefficients the skein engine computes, built
on entirely different mathematics.  For a braid b on N strands with
exponent sum e, and t = s^2 (Kassel-Turaev, *Braid Groups*, Thm 3.13):

    Delta(s) = (-1)^e * s^-(e-N+1) * det(rho(b) - I) / (1 + t + .. + t^(N-1))

is the Conway-normalised Alexander polynomial of the closure, with its
sign and its power of s fixed, and nabla(s - 1/s) = Delta(s).  Peeling off
the top power of z = s - 1/s gives the coefficients a_0, a_1, .. exactly.

Everything is exact integer arithmetic on Laurent polynomials.  The Burau
matrix, its determinant and the division are in t, so every polynomial is
half as long as in s; only Delta is mapped to s (t^k -> s^2k), where the
power s^-(e-N+1) may be odd, for the peeling.  A word that leaves a
generator unused has a split closure, and gets 0 before any matrix is built.
Otherwise the matrix is built by column operations, each entry one sum of
shifted neighbours.  Its determinant eliminates on unit entries +-t^k first,
which need no division, and hands only the block without unit pivots to the
fraction-free elimination that evaluates Hoste's cofactor
(``conway._det_bareiss``).  Each step of building the matrix, of subtracting
I and of the unit-pivot elimination writes one coefficient list and trims
it once (``_shifted_sum``, ``_less_one``, ``_submul``): no product
polynomial is built only to be subtracted.  The division and the peeling are exact: anything
left over raises ``OracleError`` instead of returning a wrong polynomial.
"""

from __future__ import annotations

from .conway import _det_bareiss
from .words import BraidWord, _items, _need_word, exponent_sum


class OracleError(ValueError):
    pass


class LaurentPoly:
    """Integer Laurent polynomial in one variable.

    ``coeffs[i]`` is the coefficient of the monomial with exponent
    ``min_exp + i``; a nonzero polynomial keeps nonzero first and last
    coefficients, and the zero polynomial is the empty tuple.  The ring
    operations take a ``LaurentPoly`` or an integer as the right operand,
    and ``*`` also an integer on the left; ``//`` is exact division.
    Instances are treated as immutable.
    """

    __slots__ = ("min_exp", "coeffs")

    def __init__(self, min_exp: int, coeffs: tuple[int, ...]):
        self.min_exp = min_exp
        self.coeffs = coeffs

    @staticmethod
    def _trimmed(min_exp: int, coeffs: list[int]) -> "LaurentPoly":
        lo, hi = 0, len(coeffs)
        while lo < hi and not coeffs[lo]:
            lo += 1
        if lo == hi:
            return _ZERO
        while not coeffs[hi - 1]:
            hi -= 1
        return LaurentPoly(min_exp + lo, tuple(coeffs[lo:hi]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.min_exp == other.min_exp and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        return f"LaurentPoly({self.min_exp}, {self.coeffs})"

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.min_exp, tuple([-c for c in self.coeffs]))

    def _plus(self, other: "LaurentPoly", sign: int) -> "LaurentPoly":
        """self + sign * other, for sign +-1."""
        b = other.coeffs
        if not b:
            return self
        a = self.coeffs
        if not a:
            return other if sign > 0 else -other
        lo = min(self.min_exp, other.min_exp)
        hi = max(self.min_exp + len(a), other.min_exp + len(b))
        out = [0] * (hi - lo)
        off = self.min_exp - lo
        out[off:off + len(a)] = a
        off = other.min_exp - lo
        for i, c in enumerate(b, off):
            out[i] += sign * c
        return LaurentPoly._trimmed(lo, out)

    def __add__(self, other) -> "LaurentPoly":
        return self._plus(_as_poly(other), 1)

    def __sub__(self, other) -> "LaurentPoly":
        return self._plus(_as_poly(other), -1)

    def __mul__(self, other) -> "LaurentPoly":
        a = self.coeffs
        if isinstance(other, LaurentPoly):
            b = other.coeffs
            if not a or not b:
                return _ZERO
            if len(a) > len(b):
                a, b = b, a
            out = [0] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                if x:
                    for j, y in enumerate(b, i):
                        out[j] += x * y
            # over the integers the extreme products are nonzero: already trimmed
            return LaurentPoly(self.min_exp + other.min_exp, tuple(out))
        k = other.__index__()
        if k == 1:
            return self
        if not k or not a:
            return _ZERO
        return LaurentPoly(self.min_exp, tuple([k * x for x in a]))

    __rmul__ = __mul__

    def __floordiv__(self, other) -> "LaurentPoly":
        """Exact quotient; ``OracleError`` when the remainder is not zero."""
        if not isinstance(other, LaurentPoly):
            if other == 1:
                return self
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
            for i, y in enumerate(b, k):
                rem[i] -= q[k] * y
        if any(rem):
            raise OracleError(f"{self!r} is not divisible by {other!r}")
        return LaurentPoly(self.min_exp - other.min_exp, tuple(q))


_ZERO = LaurentPoly(0, ())
_ONE = LaurentPoly(0, (1,))


def _as_poly(x) -> LaurentPoly:
    if isinstance(x, LaurentPoly):
        return x
    x = x.__index__()
    return LaurentPoly(0, (x,)) if x else _ZERO


# ---------------------------------------------------------------------------
# reduced Burau matrices over t


def _shifted_sum(left: LaurentPoly, mid: LaurentPoly, right: LaurentPoly,
                 sl: int, sm: int, sr: int) -> LaurentPoly:
    """t^sl * left - t^sm * mid + t^sr * right, as one trimmed polynomial;
    at least one of the three is nonzero."""
    a, b, c = left.coeffs, mid.coeffs, right.coeffs
    ea, eb, ec = left.min_exp + sl, mid.min_exp + sm, right.min_exp + sr
    # a shifted trimmed polynomial stays trimmed; a zero operand takes a
    # nonzero one's exponent, so that it moves neither bound
    if not b:
        if not c:
            return LaurentPoly(ea, a)
        if not a:
            return LaurentPoly(ec, c)
        eb = ea
    elif not a:
        if not c:
            return LaurentPoly(eb, tuple([-x for x in b]))
        ea = eb
    elif not c:
        ec = eb
    lo = min(ea, eb, ec)
    out = [0] * (max(ea + len(a), eb + len(b), ec + len(c)) - lo)
    out[ea - lo:ea - lo + len(a)] = a
    for i, x in enumerate(b, eb - lo):
        out[i] -= x
    for i, x in enumerate(c, ec - lo):
        out[i] += x
    return LaurentPoly._trimmed(lo, out)


def reduced_burau(w: BraidWord) -> list[list[LaurentPoly]]:
    """Product of the (n-1)x(n-1) generator matrices in word order, as rows.

    Right multiplication by the image of sigma_i changes only column
    j = i-1, which becomes t*col_{j-1} - t*col_j + col_{j+1}; by the image
    of sigma_i^-1 it becomes col_{j-1} - t^-1*col_j + t^-1*col_{j+1}.
    Columns outside the matrix count as zero.  Every product is a shift of
    exponents by 0 or +-1.  A row with zeros in columns j-1, j and j+1
    keeps its zero in column j, so it is skipped.
    """
    size = w.strands - 1
    m = [[_ONE if r == c else _ZERO for c in range(size)] for r in range(size)]
    for letter in w.letters:
        j = abs(letter) - 1
        shifts = (1, 1, 0) if letter > 0 else (0, -1, -1)
        for row in m:
            left = row[j - 1] if j > 0 else _ZERO
            right = row[j + 1] if j < size - 1 else _ZERO
            if left.coeffs or row[j].coeffs or right.coeffs:
                row[j] = _shifted_sum(left, row[j], right, *shifts)
    return m


# ---------------------------------------------------------------------------
# the Conway polynomial


def _peel(min_exp: int, coeffs: list[int]) -> tuple[int, ...]:
    """Coefficients a_0..a_D of nabla with nabla(s - 1/s) equal to the
    polynomial sum_i coeffs[i] s^(min_exp+i), whose top coefficient is
    nonzero; ``OracleError`` when no such nabla exists."""
    top = min_exp + len(coeffs) - 1
    if 0 <= top and -top <= min_exp:
        c = [0] * (min_exp + top) + list(coeffs)  # c[i] is the coefficient of s^(i - top)
        out = [0] * (top + 1)
        for k in range(top, -1, -1):
            a = c[k + top]
            if not a:
                continue
            out[k] = a
            # subtract a * (s - 1/s)^k = a * sum_i (-1)^i C(k, i) s^(k - 2i)
            binom = a
            for i in range(k + 1):
                c[k - 2 * i + top] -= binom
                binom = -binom * (k - i) // (i + 1)
        if not any(c):
            return tuple(out)
    raise OracleError(f"{LaurentPoly(min_exp, tuple(coeffs))!r} is no polynomial in s - 1/s")


def _submul(a: LaurentPoly, x: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """a - x * q, as one trimmed polynomial, for nonzero x and q."""
    b, c, p = x.coeffs, q.coeffs, a.coeffs
    e = x.min_exp + q.min_exp
    lo, hi = e, e + len(b) + len(c) - 1
    if p:
        lo, hi = min(lo, a.min_exp), max(hi, a.min_exp + len(p))
    out = [0] * (hi - lo)
    out[a.min_exp - lo:a.min_exp - lo + len(p)] = p
    for i, u in enumerate(b, e - lo):
        if u:
            for j, y in enumerate(c, i):
                out[j] -= u * y
    return LaurentPoly._trimmed(lo, out)


def _less_one(p: LaurentPoly) -> LaurentPoly:
    """p - 1, as one trimmed polynomial."""
    c, e = p.coeffs, p.min_exp
    lo = min(e, 0)
    out = [0] * (max(e + len(c), 1) - lo)
    out[e - lo:e - lo + len(c)] = c
    out[-lo] -= 1
    return LaurentPoly._trimmed(lo, out)


def _det(m: list[list[LaurentPoly]]) -> LaurentPoly:
    """Exact determinant of the square matrix ``m``, which it consumes,
    eliminating on unit pivots +-t^k before any fraction-free step.

    Each column in turn takes the first live row whose entry there is a
    unit u as its pivot row, scales that row by u^-1 once, and subtracts its
    multiples from the live rows with a nonzero entry in the column; the
    others are left alone, and no division but by u is needed.  A column
    with no unit entry is deferred, and an all-zero one makes the
    determinant 0.  Only the live rows by the deferred columns go to
    ``conway._det_bareiss``, whose entries grow in degree at every step.
    """
    n = len(m)
    cols = list(range(n))  # the columns not yet pivoted on
    sign, shift = 1, 0  # the pivots' product and places, as +-t^shift
    for c in range(n):
        for r, row in enumerate(m):
            u = row[c].coeffs
            if u == (1,) or u == (-1,):
                break
        else:
            if not any(row[c] for row in m):
                return _ZERO
            continue
        pivot = m.pop(r)
        pos = len(cols) - n + c  # every deferred column comes before c
        del cols[pos]
        if (r + pos) % 2:
            sign = -sign
        k = pivot[c].min_exp
        shift += k
        sign *= u[0]
        scaled = [(j, LaurentPoly(q.min_exp - k, (q if u[0] > 0 else -q).coeffs))
                  for j in cols if (q := pivot[j])]
        for row in m:
            x = row[c]
            if x:
                for j, q in scaled:
                    row[j] = _submul(row[j], x, q)
    if not m:
        return LaurentPoly(shift, (sign,))
    if len(m) == 1:  # one deferred entry is its own determinant
        # _det_bareiss would return it too, after copying the block twice;
        # 259 of the 385 determinants of the benchmark's oracle seed 13 end here
        rest = m[0][cols[0]]
    else:
        rest = _det_bareiss([[row[j] for j in cols] for row in m])
    if not rest:
        return _ZERO
    return LaurentPoly(rest.min_exp + shift, (rest if sign > 0 else -rest).coeffs)


def conway_polynomial(w: BraidWord) -> tuple[int, ...]:
    """Coefficients a_0..a_deg of the closure's Conway polynomial, exactly;
    ``(0,)`` for a split closure."""
    _need_word(w)
    n = w.strands
    if len({abs(k) for k in w.letters}) < n - 1:
        # sigma_i changes column i-1 alone, so an unused generator leaves
        # that column of rho(b) - I zero: the closure is split
        return (0,)
    m = reduced_burau(w)
    for i, row in enumerate(m):
        row[i] = _less_one(row[i])
    det = _det(m)
    if not det:
        return (0,)
    delta = det // LaurentPoly(0, (1,) * n)  # 1 + t + .. + t^(N-1)
    e = exponent_sum(w)
    sign = -1 if e % 2 else 1
    in_s = [0] * (2 * len(delta.coeffs) - 1)  # t^k is s^2k
    in_s[::2] = [sign * c for c in delta.coeffs]
    return _peel(2 * delta.min_exp - (e - n + 1), in_s)


def conway_matches_alexander(coeffs, w: BraidWord) -> bool:
    """Is ``coeffs`` (a_0, a_1, .., trailing zeros allowed) exactly the Conway
    polynomial of the closure that the Burau route gives?"""
    burau = conway_polynomial(w)  # checks w before coeffs is read
    coeffs = _items(coeffs, "coeffs", OracleError) + (0,) * len(burau)
    return coeffs[:len(burau)] == burau and not any(coeffs[len(burau):])
