"""Truncated Conway-polynomial coefficients via the skein relation.

The engine resolves a diagram against the descending order: traversing the
components from basepoints, the first crossing met on its under strand is
switched (same degree budget, strictly closer to descending) and smoothed
(budget less one, times z, signed).  Descending diagrams are unlinks, worth
1 for a knot and 0 otherwise.

Every node is handed its component count p, free loops included: smoothing a
crossing whose two strands lie on one component splits it (p + 1), smoothing
any other crossing joins two (p - 1), and switching keeps p.  A node whose
budget is below p - 1 is pruned from p alone, and at budget p - 1 one
``linking_counts`` call gives the lowest coefficient (both are link
invariants; Hoste, Proc. AMS 94, 1985).  The root and every built child
close so, the leaf right after its trace; the other leaves close in their
parent and are never built.

Every other node runs one pipeline: Reidemeister simplification,
``compact``, a trace that must find p components, the split check and the
memo.  Then ``chain_scan`` lists its descending violations in one walk.
Each violation's child is closed in the node (below) or copied, smoothed
and recursed on, and the violation is then switched.  It is switched only
at its own step, so the node reads its sign from ``sign`` when it comes to
it.  A knot at budget 2 walks itself once in ``knot_leaf_sum`` instead, and
a two-component node at budget 3 closes every child in its own arrays.

Each kink or cancelling clasp is removed once, in the node whose move made
it, by one worklist kernel (``reidemeister_simplify`` with a ``todo`` list).
The root checks every crossing.  A built child checks only the crossings its
smoothing reconnected, because its parent is already reduced.  Every switch
in a node's chain, up to its last built child, is settled in the node's own
arrays (a node that builds no child settles none): the worklist starts at
the switched crossing and the crossings feeding its in-ports, and follows
the removals it sets off, so no sibling rediscovers the clasps the switches
made.  The settled chain stays valid: removing kinks and clasps keeps the
order in which the remaining crossings are met from the basepoints, so
``chain_scan``'s list less the removed crossings (sign 0, skipped) is still
the descending resolution.  A settled switch that frees a loop ends the
chain: the switched diagram is split, or is the unknot at p = 1, so the rest
of the chain adds only ``coeffs[0]``, which is already set.  After the last
built child a switch only flips a sign.

Smoothing a self-crossing adds a component and spends one degree, so that
child is pruned in the node when its budget is at most p, and is a Hoste
leaf at budget p + 1.  At p >= 3 that leaf is built and closed after its
trace (294 of the 3896 such children of the benchmark's ``a4_families``,
seed 13); at p = 1 and p = 2 each closes in one read-only walk of its node.

A knot at budget 2 builds no child at all: every crossing is a
self-crossing, so each violation's smoothing is a two-component Hoste leaf
whose a_1 is the linking number of the two arcs between its visits.  One
kernel call (``knot_leaf_sum``) walks the knot once from a basepoint, lists
the violations as ``chain_scan`` does and sums their leaves in the same
sweep, reading nothing twice and writing nothing; most leaves of the
benchmark's a_3 and a_4 runs close there.

A two-component node at budget 3, the node every a_3 of a knot's axis link
and every a_4 of a two-cycle link runs through, builds no child either.
Smoothing a self-crossing of component a splits it into an arc A and the
rest R beside the other component B, a leaf whose a_2 is the spanning-tree
sum of the triangle, x*l + y*(l - y) with x = lk(A, R), y = lk(A, B) and
l = lk(a, B); one ``link_leaf_sum`` walk sums them all.  Each other child
is a knot at budget 2, which the node closes in its own arrays: no copy,
smoothing, simplification, ``compact``, trace, split check or memo entry.
The walk passes the smoothed crossing as the smoothing would, from the
in-port the compacted child's walk would start at.  Such a node never
writes ``conn``: a switch flips the crossing's sign and marks it in
``flip``, and the walk reads a marked crossing's strands the other way up.
An unreduced diagram is still a diagram of the knot.  In place of the
trace, the walk must visit every crossing but the smoothed one twice.
Smoothing an inter-component crossing never frees a loop: that needs each
component to pass the crossing alone, an odd count that ``link_leaf_sum``
reports before any child.

All coefficients are exact integers; there is no floating point here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import LinkDiagram, LinkingMatrix
from .kernels import get_kernels


class ConwayError(ValueError):
    pass


@dataclass(frozen=True)
class TruncatedPoly:
    """Coefficients a_0..a_max_degree of the Conway polynomial.

    Coefficients beyond ``max_degree`` are unknown, not zero.  ``components``
    records the component count of the source link: a_m vanishes whenever
    m < components-1 or m+components is even.
    """

    max_degree: int
    coeffs: tuple[int, ...]
    components: int | None = None

    def __post_init__(self):
        if len(self.coeffs) != self.max_degree + 1:
            raise ConwayError("need exactly max_degree+1 coefficients")

    def __getitem__(self, m: int) -> int:
        if not (0 <= m <= self.max_degree):
            raise ConwayError(f"coefficient {m} outside computed window 0..{self.max_degree}")
        return self.coeffs[m]


class SkeinEngine:
    """Reusable skein engine with a memo shared across calls.

    The memo is always on: it maps ``(conn, sign, budget)`` of a simplified,
    compacted interior node to its coefficients.  Few lookups hit, but each
    hit saves a subtree: without it the benchmark's ``a4_families`` workload
    walks 11% more nodes (seed 13).  On ``a3_axis`` it hits nothing, since
    the root of a knot's axis link closes every child itself.

    ``nodes`` counts every node, closed children included, ``hits`` the memo
    hits, and ``leaves`` the Hoste leaves, closed from linking numbers after
    their trace (the root or a built child) or in their parent's walk.  A
    child that has a free loop, before or after its simplification, is
    split and not a Hoste leaf.

    Every kernel call goes through ``kernels`` (``get_kernels()`` by
    default).  Each node resolves its crossings from the basepoints its
    ``trace_inports`` call returns, so a kernels namespace that permutes
    those basepoints walks another skein tree to the same coefficients.
    """

    def __init__(self, kernels=None):
        self.k = kernels if kernels is not None else get_kernels()
        self.memo = {}
        self.nodes = 0
        self.hits = 0
        self.leaves = 0

    def truncated(self, d: LinkDiagram, max_degree: int) -> TruncatedPoly:
        if isinstance(max_degree, bool) or not isinstance(max_degree, int):
            raise ConwayError(f"max_degree must be an int, got {max_degree!r}")
        if max_degree < 0:
            raise ConwayError("max_degree must be >= 0")
        conn, sign = d.arrays()
        p = d.free_loops
        if sign:
            p += self.k.trace_inports(conn)[1]
        coeffs = self._eval(conn, sign, d.free_loops, p, max_degree, None)
        return TruncatedPoly(max_degree, tuple(coeffs), p)

    # -- internals ---------------------------------------------------------

    def _eval(self, conn, sign, loops, p, budget, todo) -> tuple[int, ...]:
        """Coefficients a_0..a_budget of a node; ``todo`` lists the crossings
        that can be a kink or a clasp (``None``: any of them)."""
        K = self.k
        self.nodes += 1
        zero = (0,) * (budget + 1)
        if budget < p - 1:
            return zero  # pruned: a_m vanishes for m < p - 1
        loops += K.reidemeister_simplify(conn, sign, todo)
        if not any(sign):
            if loops == 1:
                return (1,) + (0,) * budget
            return zero
        if loops:
            return zero  # crossing-free loop beside crossings: split link
        if 0 in sign:
            conn, sign = K.compact(conn, sign)
        labels, ncomp, starts = K.trace_inports(conn)
        if ncomp != p:
            raise ConwayError(f"node traced {ncomp} components, carried {p}")
        if budget < p:  # a Hoste leaf at budget p - 1
            self.leaves += 1
            return zero[:-1] + (_tree_sum(K.linking_counts(sign, labels, p)),)
        if ncomp >= 2 and K.split_components(conn, labels, ncomp):
            return zero
        key = (tuple(conn), tuple(sign), budget)
        hit = self.memo.get(key)
        if hit is not None:
            self.hits += 1
            return hit
        if p == 1 and budget == 2:  # a knot root: every child is closed here, in one walk
            out = (1, 0, self._knot_a2(conn, sign, [0] * len(sign), starts[0], -1))
            self.memo[key] = out
            return out
        bad_ids = K.chain_scan(conn, starts)
        coeffs = [1 if p == 1 else 0] + [0] * budget
        # a two-component node at budget 3 closes every child here and never
        # writes conn: a knot child's walk reads a crossing marked in flip switched
        knots = p == 2 and budget == 3
        if knots:
            total, odd, children, leaves = K.link_leaf_sum(conn, sign, labels, starts)
            if odd:
                raise ConwayError("odd inter-component crossing count")
            self.nodes += children
            self.leaves += leaves
            coeffs[3] = total >> 2  # times z
            flip = [0] * len(sign)
        # smoothing a self-crossing leaves p + 1 components and budget - 1,
        # pruned here when budget <= p
        prunes = budget <= p
        # the last child that is copied and smoothed
        last = -1 if knots else len(bad_ids) - 1
        while prunes and last >= 0 and (
            labels[4 * bad_ids[last]] == labels[4 * bad_ids[last] + 2]
        ):
            last -= 1
        for i, c in enumerate(bad_ids):
            e = sign[c]  # c is switched only at its own step, below
            if not e:
                continue  # removed by an earlier switch's simplification
            a = labels[4 * c]
            b = labels[4 * c + 2]
            if knots:
                if a != b:
                    # the child is walked from its in-port 0 (4 when c is
                    # 0), the basepoint its compacted copy would have
                    self.nodes += 1
                    s = 4 if c == 0 else 0
                    coeffs[1] += e
                    coeffs[3] += e * self._knot_a2(conn, sign, flip, s ^ flip[s >> 2], c)
            elif a == b and prunes:
                self.nodes += 1
            else:
                bconn = conn[:]
                bsign = sign[:]
                btodo = []
                bloops = K.smooth_inplace(bconn, bsign, c, btodo)
                sub = self._eval(bconn, bsign, bloops, p + 1 if a == b else p - 1,
                                 budget - 1, btodo)
                for j in range(1, budget + 1):
                    coeffs[j] += e * sub[j - 1]
            # switch c before the next step; after the last, nothing reads
            # the node's arrays
            if i < last:
                K.switch_inplace(conn, sign, c)
                # settle the switch once, for every later built child: a
                # kink or clasp it made holds c, found from c or from the
                # crossing feeding one of its in-ports
                if K.reidemeister_simplify(
                    conn, sign, [conn[4 * c] >> 2, conn[4 * c + 2] >> 2, c]
                ):
                    # a free loop: the switched diagram is split, or the
                    # unknot at p = 1, and worth coeffs[0] either way
                    break
            else:
                # no later child is built, and a knot child reads c's
                # strands through flip
                sign[c] = -e
                if knots:
                    flip[c] = 2
        out = tuple(coeffs)
        self.memo[key] = out
        return out

    def _knot_a2(self, conn, sign, flip, start, smoothed) -> int:
        """a_2 of a knot, from one ``knot_leaf_sum`` walk that closes every
        child of the knot at budget 2: the compacted diagram ``conn``,
        ``sign`` with crossing ``smoothed`` smoothed (-1: none) and the
        crossings ``flip`` marks switched, from in-port ``start``.  The walk
        must visit every live crossing twice."""
        total, odd, children, leaves, ports = self.k.knot_leaf_sum(
            conn, sign, flip, start, smoothed
        )
        live = len(sign) - (smoothed >= 0)
        if ports != 2 * live:
            raise ConwayError(f"node traced {ports} of {2 * live} in-ports, carried 1")
        if odd:
            raise ConwayError("odd inter-component crossing count")
        self.nodes += children
        self.leaves += leaves
        return total >> 1


def _tree_sum(counts: list[list[int]]) -> int:
    """Hoste's lowest coefficient from doubled linking numbers, as rows."""
    if any(x & 1 for row in counts for x in row):
        raise ConwayError("odd inter-component crossing count")
    # the cofactor of n rows is a minor of order n - 1, so halving every
    # entry divides it by 2^(n - 1)
    return _det_bareiss(_laplacian_minor(counts)) >> (len(counts) - 1)


def conway_truncated(d: LinkDiagram, max_degree: int) -> TruncatedPoly:
    """Coefficients a_0..a_max_degree of the diagram's link, exact."""
    return SkeinEngine().truncated(d, max_degree)


def full_conway(d: LinkDiagram) -> TruncatedPoly:
    """The complete polynomial: every smoothing removes a crossing while
    raising the degree, so the degree never exceeds the crossing count."""
    return conway_truncated(d, max(d.crossings, 1))


# ---------------------------------------------------------------------------
# lowest coefficient from linking numbers


def _as_lk_rows(m: LinkingMatrix | list | tuple) -> list[list[int]]:
    rows = m.entries if isinstance(m, LinkingMatrix) else m
    if not isinstance(rows, (list, tuple)) or not all(isinstance(r, (list, tuple)) for r in rows):
        raise ConwayError("linking matrix must be a list of rows")
    out = [list(row) for row in rows]
    if any(isinstance(x, bool) or not isinstance(x, int) for row in out for x in row):
        raise ConwayError("linking numbers must be ints")
    p = len(out)
    if any(len(row) != p or row[i] for i, row in enumerate(out)):
        raise ConwayError("linking matrix must be square with zero diagonal")
    if any(out[i][j] != out[j][i] for i in range(p) for j in range(i)):
        raise ConwayError("linking matrix must be symmetric")
    return out


def _det_bareiss(m: list[list]):
    """Exact determinant by fraction-free Gaussian elimination (Bareiss 1968).

    Works over any integral domain whose elements support ``+ - *``, exact
    ``//`` and truthiness, with integers mixed in: the integers themselves
    (Hoste's cofactor), and ``burau.LaurentPoly`` (the Burau route), whose
    ``*`` and ``//`` take an integer operand without building a polynomial,
    so the first pass's ``// 1`` returns its dividend.  A singular matrix
    gives its ring's zero.
    """
    n = len(m)
    if n == 0:
        return 1
    m = [row[:] for row in m]
    sgn = 1
    denom = 1
    for k in range(n - 1):
        if not m[k][k]:
            for r in range(k + 1, n):
                if m[r][k]:
                    m[k], m[r] = m[r], m[k]
                    sgn = -sgn
                    break
            else:
                return m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // denom
        denom = m[k][k]
    return sgn * m[n - 1][n - 1]


def _laplacian_minor(rows: list[list[int]]) -> list[list[int]]:
    """The Laplacian of a square, symmetric, zero-diagonal integer matrix
    given as nested lists, less its first row and column."""
    keep = range(1, len(rows))
    return [[sum(rows[i]) if i == k else -rows[i][k] for k in keep] for i in keep]


def hoste_lowest(m: LinkingMatrix | list | tuple) -> int:
    """Lowest Conway coefficient a_{p-1} of a p-component link from its
    linking numbers: the sum over spanning trees of the complete graph of
    their edge products, as a cofactor of the Laplacian (matrix-tree
    theorem)."""
    rows = _as_lk_rows(m)
    if not rows:
        raise ConwayError("need at least one component")
    return _det_bareiss(_laplacian_minor(rows))
