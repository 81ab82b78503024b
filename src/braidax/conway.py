"""Truncated Conway-polynomial coefficients via the skein relation.

The engine resolves a diagram against the descending order: traversing the
components from basepoints, the first crossing met on its under strand is
switched (same degree budget, strictly closer to descending) and smoothed
(budget less one, times z, signed).  Descending diagrams are unlinks, worth
1 for a knot and 0 otherwise.

Every node is handed its component count p, free loops included: smoothing a
crossing whose two strands lie on one component splits it (p + 1), smoothing
any other crossing joins two (p - 1), and switching keeps p.

The vanishing law is applied once, at the root: a_m of a p-component link
is 0 when m < p - 1 or m + p is even (Hoste, Proc. AMS 94, 1985, gives the
lowest one), and when m exceeds the crossing count, since each smoothing
spends a crossing and a degree.  So ``truncated`` asks ``_eval`` only for
the last degree m with m + p odd and m at most the crossing count, none
when that m is below p - 1, and pads with zeros.  A switch keeps
(p, budget) and a smoothing moves them to (p +- 1, budget - 1), so
budget + p keeps its parity down the tree: every node has budget p - 1, a
Hoste leaf whose a_{p-1} is one ``linking_counts`` call, or at least
p + 1.  Only a root closes so, right after its trace; every other leaf
closes in its parent and is never built.

Every other node runs one pipeline: Reidemeister simplification,
``compact``, a trace that must find p components, the split check and the
memo.  The root reuses the trace ``truncated`` made of its diagram unless
simplifying removed a crossing, so a root is traced once when it is already
reduced.  A knot at budget 2 and a two-component node at budget 3 then close
every child in their own arrays, in one ``link_leaf_sum`` call (below),
whose walk is also their split check: a link whose first component meets
no inter-component crossing is split, and is worth 0 with no memo entry.
Any other node lists its descending violations in one ``chain_scan`` walk,
and each violation's child is closed in the node's arrays (a Hoste leaf,
below) or copied, smoothed and recursed on, before the violation is
switched.  It is switched only at its own step, so the node reads its sign
from ``sign`` when it comes to it.

Each kink or cancelling clasp is removed once, in the node whose move made
it, by one worklist kernel (``reidemeister_simplify`` with a ``todo`` list).
The root checks every crossing.  A built child checks only the crossings its
smoothing reconnected, because its parent is already reduced.  Every switch
in a node's chain before its last child is settled in the node's own
arrays: the worklist starts at the switched crossing and the crossings
feeding its in-ports, and follows the removals it sets off, so no sibling
rediscovers the clasps the switches made.  The settled chain stays valid:
removing kinks and clasps keeps the order in which the remaining crossings
are met from the basepoints, so ``chain_scan``'s list less the removed
crossings (sign 0, skipped) is still the descending resolution.  A settled
switch that frees a loop ends the chain: the switched diagram is split, or
is the unknot at p = 1, so the rest of the chain adds only ``coeffs[0]``,
which is already set.  Nothing reads the node's arrays after its last
child, so that violation is not switched.

Smoothing a self-crossing adds a component and spends one degree, so at
budget p + 1 that child is a Hoste leaf.  At p = 1 and p = 2 each closes in
one read-only walk of its node (below).  At p >= 3 the node closes each in
its own arrays as its chain reaches it, and builds nothing: no copy,
smoothing, simplification, ``compact`` or trace.  Smoothing self-crossing c
of component a splits it into the arc A from c's over-out to its under-in
and the rest R.  One ``arc_counts`` walk of A sums its signed crossings
with every other component, and with R: the self-crossings of a that A
passes once.  The leaf's doubled linking counts are then the node's, with
R's row less A's, and a_p is their tree sum.  Linking numbers survive
Reidemeister moves, so the leaf needs no simplification.  The node reads its
own counts with one ``linking_counts`` call at its first leaf, and a switch
of an inter-component crossing moves them by -2e; settling a switch removes
kinks, which link nothing, and clasps, whose two crossings cancel.  A leaf
whose built child would simplify to a free loop beside its crossings is
closed the same way and is worth 0, since that loop links nothing.

A two-component node at budget 3, the node every a_3 of a knot's axis link
and every a_4 of a two-cycle link runs through, builds no child.
Smoothing a self-crossing of component a splits it into an arc A and the
rest R beside the other component B, a leaf whose a_2 is the spanning-tree
sum of the triangle, x*l + y*(l - y) with x = lk(A, R), y = lk(A, B) and
l = lk(a, B).  Smoothing an inter-component violation c gives a knot K_c
at budget 2, with the violations before c switched.  One
``link_leaf_sum`` call closes them all in the node's arrays and writes
nothing: no copy, smoothing, simplification, ``compact``, trace, split
check, memo entry or ``chain_scan`` call.  Its walk of the two components
sums the triangle leaves.  Walked from the node's basepoint, K_c meets
every switched crossing first over, so its a_2 is one order of Polyak and
Viro's Gauss-diagram sum over the crossings it meets after c, with the
node's signs.  The pairs that end on the first component are chords of it,
and count for K_c when they open after c, so the walk files each one under
the number of knot children met before it opened, and one suffix sum gives
every K_c its share.  The walk records the second component, and one pass
over it from c gives the rest: O(|first| + |second| + children x |second|)
in place of a walk of the whole knot per child.  K_c stays unsimplified, and
an unreduced diagram is still a diagram of the link.  The node itself has
been traced and simplified first, so no crossing's two visits are adjacent
and every self-crossing's smoothing is a Hoste leaf.  The walk counts the
in-ports it visits only to guard the basepoints a kernels namespace
returns: the node raises when its walks miss a crossing.  Smoothing an
inter-component crossing never frees a loop: that needs each component to
pass the crossing alone, an odd count that ``link_leaf_sum`` reports
before any child.  On a pairing no planar diagram has, the two orders of
the sum can differ, so a_3 there depends on the route.

A knot at budget 2, always a root since a two-component node closes its
knot children itself, is the one-component case of that walk: each
violation's smoothing is a Hoste leaf whose a_1 is the linking number of
the two arcs between its visits, and ``link_leaf_sum`` sums them from the
knot's one basepoint, with no knot child to sweep.

All coefficients are exact integers; there is no floating point here.
"""

from __future__ import annotations

from collections.abc import Iterable

from .diagram import LinkDiagram, _need_diagram
from .kernels import get_kernels
from .words import _int, _items, _Value


class ConwayError(ValueError):
    pass


class TruncatedPoly(_Value):
    """Coefficients a_0..a_max_degree of the Conway polynomial.

    Coefficients beyond ``max_degree`` are unknown, not zero.  ``components``
    records the component count of the source link: a_m vanishes whenever
    m < components-1 or m+components is even, and the skein engine writes
    those zeros without evaluating them.
    """

    _fields = ("max_degree", "coeffs", "components")

    def __init__(self, max_degree: int, coeffs: Iterable[int], components: int):
        coeffs = _items(coeffs, "coeffs", ConwayError)
        if len(coeffs) != max_degree + 1:
            raise ConwayError("need exactly max_degree+1 coefficients")
        fields = self.__dict__
        fields["max_degree"] = max_degree
        fields["coeffs"] = coeffs
        fields["components"] = components

    def __iter__(self):
        return iter(self.coeffs)

    def __getitem__(self, m: int) -> int:
        if not 0 <= _int(m, "coefficient index", ConwayError) <= self.max_degree:
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
    hits, and ``leaves`` the Hoste leaves: a root's, closed from linking
    numbers after its trace, and every other, closed in its parent without
    being built or simplified.  A root left with a free loop by its
    simplification is split and not a Hoste leaf.  A leaf closed in its
    parent counts even when its built child would have simplified to a free
    loop; its tree sum is then 0.

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
        """Coefficients a_0..a_max_degree of the link of ``d``.

        ``d`` must be planar, as every braid-built diagram is.  On a pairing
        that no planar diagram has, which ``LinkDiagram`` accepts, the
        coefficients are no link invariant and can change with the
        basepoints ``kernels.trace_inports`` returns.
        """
        _need_diagram(d)
        if _int(max_degree, "max_degree", ConwayError) < 0:
            raise ConwayError("max_degree must be >= 0")
        conn, sign = d.arrays()
        trace = self.k.trace_inports(conn)
        p = d.free_loops + trace[1]
        # each smoothing spends a crossing and raises the degree by one, so
        # no coefficient above the crossing count is nonzero
        m = min(max_degree, len(sign))
        top = m - (m + p + 1) % 2  # the last m with m + p odd
        if top < max(p - 1, 0):
            return TruncatedPoly(max_degree, (0,) * (max_degree + 1), p)
        coeffs = self._eval(conn, sign, d.free_loops, p, top, None, trace)
        return TruncatedPoly(max_degree, coeffs + (0,) * (max_degree - top), p)

    # -- internals ---------------------------------------------------------

    def _eval(self, conn, sign, loops, p, budget, todo, trace=None) -> tuple[int, ...]:
        """Coefficients a_0..a_budget of a node, with budget + p odd and
        budget >= p - 1; ``todo`` lists the crossings that can be a kink or
        a clasp (``None``: any of them), and ``trace`` is the root's
        ``trace_inports`` of ``conn``, reused when simplifying removes no
        crossing."""
        K = self.k
        self.nodes += 1
        zero = (0,) * (budget + 1)
        loops += K.reidemeister_simplify(conn, sign, todo)
        if not any(sign):
            if loops == 1:
                return (1,) + (0,) * budget
            return zero
        if loops:
            return zero  # crossing-free loop beside crossings: split link
        if 0 in sign:
            conn, sign = K.compact(conn, sign)
            trace = None
        labels, ncomp, starts = trace or K.trace_inports(conn)
        if ncomp != p:
            raise ConwayError(f"node traced {ncomp} components, carried {p}")
        if budget < p:  # a Hoste leaf at budget p - 1
            self.leaves += 1
            return zero[:-1] + (_tree_sum(K.linking_counts(sign, labels, p)),)
        closing = budget == p + 1 and p <= 2  # every child is closed here, in one walk
        if ncomp >= 2 and not closing and K.split_components(conn, labels, ncomp):
            return zero
        key = (tuple(conn), tuple(sign), budget)
        hit = self.memo.get(key)
        if hit is not None:
            self.hits += 1
            return hit
        if closing:
            walked = K.link_leaf_sum(conn, sign, labels, starts)
            if walked is None:
                return zero  # the walk's split check: no memo entry, as above
            out, odd, children, leaves, ports = walked
            if ports != 2 * len(sign):
                raise ConwayError(f"node traced {ports} of {2 * len(sign)} in-ports, carried {p}")
            if odd:
                raise ConwayError("odd inter-component crossing count")
            self.nodes += children
            self.leaves += leaves
            self.memo[key] = out
            return out
        bad_ids = K.chain_scan(conn, starts)
        coeffs = [1 if p == 1 else 0] + [0] * budget
        # at budget p + 1, here p >= 3, a self-crossing's child is a Hoste
        # leaf, closed from the node's doubled linking counts, read at its
        # first leaf and then moved only by a switched inter-component
        # crossing: a settled clasp's two crossings cancel
        counts = None
        last = len(bad_ids) - 1
        for i, c in enumerate(bad_ids):
            e = sign[c]  # c is switched only at its own step, below
            if not e:
                continue  # removed by an earlier switch's simplification
            a = labels[4 * c]
            b = labels[4 * c + 2]
            if a == b and budget == p + 1:
                if counts is None:
                    counts = K.linking_counts(sign, labels, p)
                self.nodes += 1
                self.leaves += 1
                row = K.arc_counts(conn, sign, labels, c, p)
                coeffs[budget] += e * _leaf_tree_sum(counts, a, row)
            else:
                bconn = conn[:]
                bsign = sign[:]
                btodo = []
                bloops = K.smooth_inplace(bconn, bsign, c, btodo)
                # smoothing a self-crossing splits its component, any other joins two
                bp = p + 1 if a == b else p - 1
                sub = self._eval(bconn, bsign, bloops, bp, budget - 1, btodo)
                for j in range(1, budget + 1):
                    coeffs[j] += e * sub[j - 1]
            if i == last:
                break  # nothing reads the node's arrays after its last child
            K.switch_inplace(conn, sign, c)
            if counts is not None and a != b:
                counts[a][b] -= 2 * e
                counts[b][a] -= 2 * e
            # settle the switch once, for every later child: a kink or clasp
            # it made holds c, found from c or from the crossing feeding one
            # of its in-ports
            if K.reidemeister_simplify(conn, sign, [conn[4 * c] >> 2, conn[4 * c + 2] >> 2, c]):
                # a free loop: the switched diagram is split, or the unknot
                # at p = 1, and worth coeffs[0] either way
                break
        out = tuple(coeffs)
        self.memo[key] = out
        return out


def _tree_sum(counts: list[list[int]]) -> int:
    """Hoste's lowest coefficient from doubled linking numbers, as rows."""
    if any(x & 1 for row in counts for x in row):
        raise ConwayError("odd inter-component crossing count")
    # the cofactor of n rows is a minor of order n - 1, so halving every
    # entry divides it by 2^(n - 1)
    return _det_bareiss(_laplacian_minor(counts)) >> (len(counts) - 1)


def _leaf_tree_sum(counts: list[list[int]], a: int, row: list[int]) -> int:
    """Hoste's lowest coefficient of the leaf that splits component a of a
    node with doubled counts ``counts`` into an arc, with doubled counts
    ``row`` (``row[a]`` with the rest of a), and the rest."""
    if any(x & 1 for x in row) or any(x & 1 for r in counts for x in r):
        raise ConwayError("odd inter-component crossing count")
    # the cofactor that deletes the rest of a: each other component keeps
    # its Laplacian row, since its counts with the rest and the arc sum to
    # those with a, and the arc takes row and column a; halving its p rows
    # of doubled counts divides it by 2^p
    m = [[-x for x in r] for r in counts]
    for b, r in enumerate(counts):
        m[b][b] = sum(r)
        m[b][a] = m[a][b] = -row[b]
    m[a][a] = sum(row)
    return _det_bareiss(m) >> len(row)


def conway_truncated(d: LinkDiagram, max_degree: int) -> TruncatedPoly:
    """Coefficients a_0..a_max_degree of the diagram's link, exact."""
    return SkeinEngine().truncated(d, max_degree)


def full_conway(d: LinkDiagram) -> TruncatedPoly:
    """The complete polynomial: every smoothing removes a crossing while
    raising the degree, so the degree never exceeds the crossing count."""
    _need_diagram(d)
    return conway_truncated(d, max(d.crossings, 1))


# ---------------------------------------------------------------------------
# lowest coefficient from linking numbers


def _as_lk_rows(rows: list | tuple) -> list[list[int]]:
    if not isinstance(rows, (list, tuple)) or not all(isinstance(r, (list, tuple)) for r in rows):
        raise ConwayError("linking matrix must be a list of rows")
    out = [list(row) for row in rows]
    if any(type(x) is not int for row in out for x in row):
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
    (Hoste's cofactor), and ``burau.LaurentPoly``, whose ``*`` and ``//``
    take an integer operand without building a polynomial, so the first
    pass's ``// 1`` returns its dividend.  The Burau route calls it only on
    the block its unit pivots leave (``burau._det``), since every entry here
    grows in degree at every step.  A singular matrix gives its ring's zero.
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


def hoste_lowest(m: list | tuple) -> int:
    """Lowest Conway coefficient a_{p-1} of a p-component link from its
    linking numbers: the sum over spanning trees of the complete graph of
    their edge products, as a cofactor of the Laplacian (matrix-tree
    theorem)."""
    rows = _as_lk_rows(m)
    if not rows:
        raise ConwayError("need at least one component")
    return _det_bareiss(_laplacian_minor(rows))
