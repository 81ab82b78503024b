"""List-level primitives for oriented link diagrams.

A diagram with c crossings is stored as two Python lists of ints:

* ``sign``: c entries, the crossing sign (+1 or -1); 0 marks a removed
  crossing.  Until ``compact`` drops it, strands pass straight through a
  removed crossing (in-port q to out-port q+1) and its ports are scratch:
  every removal goes through ``splice_out``, which reconnects the live ports
  around it at once and reports the crossings at both ends of each arc it
  makes.
* ``conn``: 4c entries, a symmetric arc pairing between ports.  Crossing k
  owns ports 4k..4k+3 with roles over-in (0), over-out (1), under-in (2),
  under-out (3).  Even ports are in-ports, odd ports are out-ports, and a
  strand entering at in-port q leaves through out-port q+1.  For every arc,
  ``conn[out] == in`` and ``conn[in] == out``.  Exchanging a crossing's
  strands, as a switch or an inverted braid letter does, relabels its ports
  by role, r <-> r ^ 2, and the arcs follow their ports.

Crossing-free loop components are counted separately by the caller; the
surgery routines here return how many such loops they split off.

Kinks and cancelling clasps go in one worklist kernel,
``reidemeister_simplify(conn, sign, todo)``: a kink or a clasp can appear
only at the ends of an arc some move made, so the caller lists the crossings
its move touched (a smoothing and ``splice_out`` append them to ``todo``
themselves), each removal pushes the ends of the arcs it makes, and nothing
is scanned twice.  With no list it checks every crossing.  The
read-only kernels accept tuples too (a ``LinkDiagram`` holds tuples); the
in-place ones need lists.

``linking_counts`` reads the labels of a ``trace_inports`` call the caller
has already made, so ``linking_matrix``, a root Hoste leaf and a node of
three or more components walk their diagram once after its trace.  Every
other Hoste leaf closes in its parent with no copy.  In a node of three or
more components, a self-crossing's leaf comes from those counts and one
``arc_counts`` walk of the arc its smoothing splits off.
``link_leaf_sum`` closes every child of a knot at budget 2 or a
two-component node at budget 3, with no determinant: the self-crossing
leaves in one read-only walk (a knot is its one-component case) and the
knot children of a link's inter-component violations from what that walk
files and records (``_knot_children``): the first component's share of
every child comes from one suffix sum, the second's from a pass over the
second component per child.  The walk meets the node's descending
violations in ``chain_scan`` order, so neither node calls ``chain_scan``,
and it finds a split link itself, so neither node calls
``split_components``.  It takes a traced node that has been through
``reidemeister_simplify``, so no crossing's two visits are adjacent.

Every kernel is a plain Python function: the engine reads single items in
loops, and a list item is read several times faster than an ndarray item.
``get_kernels()`` returns the namespace the skein engine calls through, so a
caller can hand the engine a wrapped copy (to count or time the calls).  The
same seam is how the tests permute basepoints: a copy whose ``trace_inports``
returns its ``starts`` shuffled and re-picked must not change a coefficient.
"""

from __future__ import annotations

from operator import itemgetter
from types import SimpleNamespace


def trace_inports(conn):
    """Label every in-port with its component id, discovery-ordered.

    Returns (labels, ncomp, starts) where labels has one entry per port (-1
    on out-ports) and starts[j] is the smallest in-port of component j.
    """
    nport = len(conn)
    labels = [-1] * nport
    starts = []
    ncomp = 0
    for q in range(0, nport, 2):
        if labels[q] >= 0:
            continue
        starts.append(q)
        cur = q
        while True:
            labels[cur] = ncomp
            cur = conn[cur + 1]
            if cur == q:
                break
        ncomp += 1
    return labels, ncomp, starts


def split_components(conn, labels, ncomp):
    """True when the crossing-adjacency graph of components is disconnected."""
    parent = list(range(ncomp))
    for c in range(len(conn) // 4):
        a = labels[4 * c]
        b = labels[4 * c + 2]
        # find roots
        ra = a
        while parent[ra] != ra:
            ra = parent[ra]
        rb = b
        while parent[rb] != rb:
            rb = parent[rb]
        if ra != rb:
            parent[rb] = ra
    roots = 0
    for j in range(ncomp):
        if parent[j] == j:
            roots += 1
    return roots > 1


def linking_counts(sign, labels, ncomp):
    """Twice the linking numbers of the ``ncomp`` traced components.

    ``labels`` is the ``trace_inports`` labeling of the same compacted
    diagram, or of it before switches and removals, which keep each
    crossing's pair of components (a removed crossing has sign 0).  Returns
    rows: ``counts[a][b]`` is the signed count of the crossings between
    components a and b.
    """
    counts = [[0] * ncomp for _ in range(ncomp)]
    for c in range(len(sign)):
        a = labels[4 * c]
        b = labels[4 * c + 2]
        if a != b:
            s = sign[c]
            counts[a][b] += s
            counts[b][a] += s
    return counts


def arc_counts(conn, sign, labels, c, p):
    """Twice the linking numbers of the arc that smoothing self-crossing c
    splits off its component a, with every other component and with the
    rest of a, in one walk of the arc and without smoothing it.

    ``labels`` is the node's ``trace_inports`` labeling, made before its
    switches and removals: a switch exchanges a crossing's in-port roles but
    not its pair of components, so the other strand at in-port q lies on
    ``labels[q] ^ labels[q ^ 2] ^ a``.  c itself is not switched yet, and
    the arc runs from its over-out to its under-in, which its smoothing
    joins.  Returns a row of ``p`` counts: ``row[b]`` with component b, and
    ``row[a]`` with the rest of a, the self-crossings the arc passes once.
    """
    a = labels[4 * c]
    row = [0] * p
    once = set()  # the self-crossings of a met once on the arc so far
    end = 4 * c + 2
    q = conn[end - 1]
    while q != end:
        s = sign[q >> 2]
        b = labels[q] ^ labels[q ^ 2] ^ a
        if b != a:
            row[b] += s
        elif q >> 2 in once:
            row[a] -= s  # its second visit: a crossing of the arc with itself
        else:
            once.add(q >> 2)
            row[a] += s
        q = conn[q + 1]
    return row


def link_leaf_sum(conn, sign, labels, starts):
    """Close every child of a knot at budget 2 or a two-component node at
    budget 3 in one read-only walk of its components, in ``starts`` order,
    and, for the link, one pass over the second component per knot child.

    The node has been through ``reidemeister_simplify``: it has no kink, so
    no crossing's two visits are adjacent, neither arc of a self-crossing
    is empty, and smoothing one splits off no free loop.

    The violations are the crossings first met on their under strand, in
    ``chain_scan`` order.  Smoothing a self-crossing violation c of
    component a splits it into the inner arc A between c's visits and the
    rest R.  On a knot that is a Hoste leaf whose a_1 is x = lk(A, R); beside
    the other component B of a link it is one whose a_2 is the
    spanning-tree sum of the triangle, x*l + y*(l - y), with y = lk(A, B)
    and l = lk(a, B).  The walk counts X = 2x, Y = 2y and L = 2l as signed
    crossings, with every violation before c switched, as the node switches
    them:

    * X counts the self-crossings that interleave c.  Each crossing takes a
      rank when the walk first meets it, and bitmasks of ranks hold the
      self-crossings by sign and the chords closed so far.  When c closes,
      the chords opened since it opened and the chords closed since are the
      visits between its two, and their symmetric difference is the chords
      that interleave it: one opened before c reads switched if it is a
      violation, one opened inside the arc unswitched.
    * The first component meets each inter-component crossing first, so one
      on c's arc keeps its sign, and L is its start value less twice the
      inter-component violations met before c.  The start value is known
      after the walk, so the total is kept linear in it.
    * The second component meets them all switched: one it passes over, a
      violation, reads negated, and L is final.

    A knot has one component, so Y = L = 0 and its a_2 is half the sum of
    e_c * X over its leaves.

    The inter-component violations of a link, where the first component
    passes under, have knot children at budget 2, which ``_knot_children``
    closes.  Their terms that lie on the first component alone are pairs of
    chords of it, and count for a child exactly when the chord opens after
    the child's crossing.  So the walk files each such term, and each
    violation of the first component, under the number of knot children
    met before its chord opened, and it records every inter-component
    crossing's position on the first component and the second component's
    walk.

    Returns ``None`` for a link whose first component meets no
    inter-component crossing: the link is split, worth 0, and no child is
    closed.  Otherwise returns ``(coeffs, odd, children, leaves, ports)``:
    the node's coefficients, ``(1, 0, a2)`` for a knot or ``(0, a1, 0, a3)``
    for a link, exact when ``odd`` is 0 and ``None`` when the walk found an
    odd count or missed a crossing; ``odd``, nonzero when L, an X, a Y or an
    arc of a knot child is odd; how many children (the node's violations
    and their knot children's) and Hoste leaves the node has; and how many
    in-ports the walk visited, twice the crossings when ``starts`` holds one
    in-port of each component.
    """
    rank = [-1] * len(sign)
    opened_at = [None] * len(sign)  # a violation's walk state when it opened
    filed = [None] * len(sign)  # a non-violation's bucket and over sum when it opened
    fpos = [-1] * len(sign)  # an inter-component crossing's position on the first component
    kids = []  # the knot children (position, crossing), in walk order
    pairs = [0]  # bucket t: the pair terms of the chords opened after t knot children
    viols = [0]  # bucket t: the violations among those chords
    nk = 0  # knot children met so far; 0 off the first component, which files nothing
    lk = drift = 0  # L at the start, and its change by the switches so far
    over = 0  # the signs of the inter-component crossings the first component passes over
    lin = rest = odd = leaves = children = pos = 0  # the total is lk * lin + rest
    second = []
    first = True
    for start in starts:
        j = labels[start]
        plus = minus = bad = closed = 0
        opened = y = 0
        cur = start
        while True:
            k = cur >> 2
            if labels[cur ^ 2] != j:
                s = sign[k]
                if first:
                    fpos[k] = pos
                    lk += s
                    if cur & 2:  # the first component passes under: a violation
                        drift -= 2 * s
                        children += 1
                        kids.append((pos, k))
                        pairs.append(0)
                        viols.append(0)
                        nk += 1
                    else:
                        over += s
                elif not cur & 2:  # switched before this component's leaves
                    s = -s
                y += s
            else:
                r = rank[k]
                if r < 0:
                    rank[k] = opened
                    bit = 1 << opened
                    if sign[k] > 0:
                        plus |= bit
                    else:
                        minus |= bit
                    if cur & 2:  # met first on its under strand
                        children += 1
                        opened_at[k] = (closed, y, drift, nk)
                        bad |= bit
                    elif nk:
                        filed[k] = (nk, over)
                    opened += 1
                else:
                    was = opened_at[k]
                    e = sign[k]
                    if was is not None:  # a violation closes: a Hoste leaf
                        leaves += 1
                        inside = closed ^ was[0]  # the chords closed since it opened
                        since = (1 << opened) - (2 << r)  # the chords opened since
                        cross = since ^ inside
                        switched = inside & bad & ((1 << r) - 1)  # opened before it
                        x = (
                            (cross & plus).bit_count() - (cross & minus).bit_count()
                            - 2 * ((switched & plus).bit_count() - (switched & minus).bit_count())
                        )
                        yc = y - was[1]
                        odd |= x | yc
                        lin += e * (x + yc)
                        rest += e * ((x + yc) * was[2] - yc * yc)
                        t = was[3]
                        if t:  # its pairs with the non-violations opened inside, still open
                            since &= ~(inside | bad)
                            pairs[t] += e * (
                                (since & plus).bit_count() - (since & minus).bit_count()
                            )
                            viols[t] += 1
                    else:
                        f = filed[k]
                        if f is not None:  # its pairs with the over-first crossings inside
                            pairs[f[0]] += e * (over - f[1])
                    closed |= 1 << r
            if first:
                pos += 1
            else:
                second.append(cur)
            cur = conn[cur + 1]
            if cur == start:
                break
        if first and len(starts) > 1 and pos == opened + closed.bit_count():
            return None  # every visit was a self-crossing's: split
        first = False
        nk = 0
    odd = (odd | lk) & 1
    ports = pos + len(second)
    if odd or ports != 2 * len(sign):
        return None, odd, children, leaves, ports  # the node raises: no child is closed
    if len(starts) == 1:  # a knot: no inter-component crossing, and no knot child
        return (1, 0, lin >> 1), 0, children, leaves, ports
    a1, a3, odd, kchildren, kleaves = _knot_children(sign, pos, fpos, kids, pairs, viols, second)
    a3 += (lk * lin + rest) >> 2
    return (0, a1, 0, a3), odd & 1, children + kchildren, leaves + kleaves, ports


def _knot_children(sign, nf, fpos, kids, pairs, viols, second):
    """The knot children of a two-component node at budget 3, from what
    ``link_leaf_sum`` filed on its first component of ``nf`` in-ports
    and from the in-ports its second component visits, in walk order.

    The child of an inter-component violation c, at position i of the
    first component's walk, is the knot K_c walked from the node's first
    basepoint: the first component up to c, then ``second`` from c round to
    c, then the first component after c.  Every violation before c is
    switched, and those are the violations the first component meets
    before i, so each crossing K_c meets first before i reads over.  So
    K_c's violations are those it meets first after i, with the node's
    signs, and its a_2 is the sum of e_x * e_y over the pairs of them met x,
    y, x, y with x a violation and y not: one order of Polyak and Viro's
    Gauss-diagram sum (IMRN 1994), which on a planar diagram alone is a_2.
    The pairs fall in two kinds:

    * Those whose crossings both end on the first component after i: two
      self-crossings of the first component, or an inter-component
      violation of K_c (the second component passes under) with an
      over-first self-crossing of the first component around its visit
      there.  Each such term is a chord of the first component, and it
      counts for K_c when the chord opens after i.  ``link_leaf_sum`` filed
      it, and each of the first component's violations, in ``pairs`` and
      ``viols`` under the number t of knot children met before the chord
      opened, so K_c, the m-th child in ``kids``, takes the buckets past m:
      one suffix sum over the children.
    * The others touch the second component: two inter-component crossings,
      an inter-component crossing and a self-crossing of the second
      component, or two of those.  One pass over ``second`` from c sums them
      for K_c, with the violations of K_c first met there; an
      inter-component crossing met before i on the first component, at
      ``fpos``, is read over.

    The node has no kink, but K_c is an unsimplified child.  Smoothing c
    makes the visits of an inter-component crossing adjacent when it is met
    just before c on ``second`` and just after it on the first component,
    and when c is at position 0 it makes the first and last visits of K_c's
    walk those of one crossing.  Such a violation's smoothing is split, and
    K_c's leaves are its other violations.  Bitmasks over positions hold
    the pairs' other ends.

    Returns ``(a1, a3, odd, children, leaves)``: the sums over the children
    of c's sign and of its sign times a_2 of K_c; nonzero when an arc of a
    violation of some K_c meets an odd number of ports (on the first
    component that arc is a self-crossing leaf's, whose parity the node
    already checks); and the children and leaves of the K_c.
    """
    # second, twice round; code holds at a self-crossing's position the
    # position of its next visit, at an inter-component crossing's the
    # complement (~) of its position on the first component
    ns = len(second)
    code = [0] * ns
    seen = [-1] * len(sign)  # a crossing's earlier position on second
    for p, q in enumerate(second):
        k = q >> 2
        u = seen[k]
        f = fpos[k]
        if f >= 0:
            code[p] = ~f
            seen[k] = p
        elif u < 0:
            seen[k] = p
        else:
            code[u] = p
            code[p] = u + ns
    code += [v if v < 0 else v + ns for v in code]
    second = second + second
    a1 = a3 = odd = children = adj = 0  # adj: violations whose visits c made adjacent
    h0 = ch0 = 0  # the first-component terms and violations of the chords opened after c
    for m in range(len(kids) - 1, -1, -1):
        i, c = kids[m]
        h0 += pairs[m + 1]
        ch0 += viols[m + 1]
        h = h0
        ch = ch0
        e = sign[c]
        a1 += e
        pc = seen[c]  # K_c reads second from pc + 1 to end - 1
        end = pc + ns
        openp = openm = 0  # bit p: a non-violation of K_c open at p
        xp = xm = 0  # bit f: an inter-component violation of K_c, closing on first at f
        for p in range(pc + 1, end):
            v = code[p]
            if v < 0 and ~v < i:
                continue  # an inter-component crossing met first before c: reads over
            q = second[p]
            s = sign[q >> 2]
            if v < 0:
                f = ~v
                if q & 2:  # a violation of K_c
                    ch += 1
                    between = end - 2 - p + f - i
                    odd |= between
                    if not between or not i and p == pc + 1 and f == nf - 1:
                        adj += 1  # adjacent across the junction, or around the walk
                    if s > 0:
                        xp |= 1 << f
                    else:
                        xm |= 1 << f
                else:  # the violations met before it and closing before it
                    low = (1 << f) - 1
                    h += s * ((xp & low).bit_count() - (xm & low).bit_count())
                    if s > 0:
                        openp |= 1 << p
                    else:
                        openm |= 1 << p
            elif v < end:  # its earlier visit in K_c
                if q & 2:
                    ch += 1
                elif s > 0:
                    openp |= 1 << p
                else:
                    openm |= 1 << p
            else:  # its later visit; the earlier was at v - ns
                v -= ns
                if second[v] & 2:  # a violation of K_c closes
                    odd |= p - v - 1
                    h += s * ((openp >> v).bit_count() - (openm >> v).bit_count())
                elif s > 0:
                    openp ^= 1 << v
                else:
                    openm ^= 1 << v
        a3 += e * h
        children += ch
    return a1, a3, odd, children, children - adj


def chain_scan(conn, starts):
    """Walk the components from ``starts`` once and list the descending
    violations; a node that builds children calls it.

    A crossing first met on its under strand is 'bad'.  Switching the bad
    crossings in encounter order turns the diagram descending, and the
    strand path itself never changes, so a single read-only pass suffices.
    Runs on compacted arrays.
    """
    visited = [False] * (len(conn) >> 2)
    bad_ids = []
    for start in starts:
        cur = start
        while True:
            c = cur >> 2
            if not visited[c]:
                visited[c] = True
                if cur & 2:  # entered on the under strand
                    bad_ids.append(c)
            cur = conn[cur + 1]
            if cur == start:
                break
    return bad_ids


def switch_inplace(conn, sign, c):
    """Exchange the over and under strands of crossing c and flip its sign."""
    base = 4 * c
    for r, e in enumerate(conn[base : base + 4]):
        if e >> 2 == c:  # an arc between two of c's ports: relabel its far end too
            e ^= 2
        q = base + (r ^ 2)
        conn[q] = e
        conn[e] = q
    sign[c] = -sign[c]


def splice_out(conn, sign, ids, todo):
    """Remove crossings ``ids``, passing every strand straight through.

    A strand arriving from a live crossing is reconnected to the live
    in-port it reaches, and the crossings at both ends of that new arc are
    appended to ``todo``: only they can have become a kink or a clasp.  A
    strand that closes up inside the removed crossings is counted and
    returned as a free loop.  The removed crossings' in-ports are
    overwritten with -1 as they are walked.
    """
    for c in ids:
        sign[c] = 0
    for c in ids:
        for q in (4 * c, 4 * c + 2):
            feeder = conn[q]
            if feeder < 0 or sign[feeder >> 2] == 0:
                continue
            cur = q
            while sign[cur >> 2] == 0:
                nxt = conn[cur + 1]
                conn[cur] = -1
                cur = nxt
            conn[feeder] = cur
            conn[cur] = feeder
            todo.append(feeder >> 2)
            todo.append(cur >> 2)
    loops = 0
    for c in ids:
        for q in (4 * c, 4 * c + 2):
            if conn[q] < 0:
                continue
            loops += 1
            cur = q
            while conn[cur] >= 0:
                conn[cur] = -1
                cur = conn[cur + 1]
    return loops


def smooth_inplace(conn, sign, c, todo):
    """Oriented smoothing: over-in continues to under-out, under-in to
    over-out, and the crossing disappears.  Returns split-off loops; the
    crossings at the ends of the arcs it makes go to ``todo``."""
    oo = 4 * c + 1
    uo = oo + 2
    a = conn[oo]
    b = conn[uo]
    conn[oo], conn[uo], conn[a], conn[b] = b, a, uo, oo
    return splice_out(conn, sign, (c,), todo)


def reidemeister_simplify(conn, sign, todo=None):
    """Remove kinks and cancelling clasps until none remain.

    Kink: one of the crossing's out-ports is arced straight back into the
    in-port of its other strand.  Cancelling clasp: two crossings of
    opposite sign joined by two direct arcs with the same strand on top at
    both, found from the one whose over strand runs into the other.

    ``todo`` lists the crossings to check, popped last first (``None``:
    every crossing, from 0 up).  Each removal pushes the crossings at both
    ends of the arcs it makes, so when ``todo`` holds every kink and, of
    every clasp, the crossing its over strand leaves, none remains
    afterwards.  Returns the number of free loops split off.
    """
    if todo is None:
        todo = list(range(len(sign) - 1, -1, -1))
    pop = todo.pop
    loops = 0
    while todo:
        c = pop()
        s = sign[c]
        if not s:
            continue
        oi = 4 * c
        ui = oi + 2
        uo = oi + 3
        nxt = conn[oi + 1]
        if nxt == ui or conn[uo] == oi:
            loops += splice_out(conn, sign, (c,), todo)
            continue
        # clasp cancellation: our over strand runs straight into d's
        # over-in, and the under strands are joined directly too
        d = nxt >> 2
        if (nxt & 3) == 0 and d != c and sign[d] == -s:
            if conn[uo] == nxt + 2 or conn[nxt + 3] == ui:
                loops += splice_out(conn, sign, (c, d), todo)
    return loops


def compact(conn, sign):
    """Drop removed crossings and renumber the rest, preserving order.

    Removed crossings come in runs.  The live crossings between two runs
    move down by four ports for each removed crossing before them, so one
    range slice renumbers their ports, one slice of ``conn`` keeps them, and
    one ``itemgetter`` call renumbers all the kept ports: the Python work is
    per run and per removed crossing, none per live one.
    """
    n = len(sign)
    renum = [0] * len(conn)  # a live port's new number
    ports = []  # the live crossings' ports, in order
    lo = shift = c = 0  # lo: the first port of the live run
    left = sign.count(0)
    while left:
        c = sign.index(0, c)
        end = c + 1
        while end < n and not sign[end]:
            end += 1
        left -= end - c
        q = 4 * c
        renum[lo:q] = range(lo - shift, q - shift)
        ports += conn[lo:q]
        shift += 4 * (end - c)
        lo = 4 * end
        c = end
    renum[lo:] = range(lo - shift, len(conn) - shift)
    ports += conn[lo:]
    if not ports:
        return [], []
    return list(itemgetter(*ports)(renum)), list(filter(None, sign))


KERNELS = SimpleNamespace(
    jitted=False,  # the benchmark records it as the kernel flavor
    trace_inports=trace_inports,
    split_components=split_components,
    linking_counts=linking_counts,
    arc_counts=arc_counts,
    link_leaf_sum=link_leaf_sum,
    chain_scan=chain_scan,
    switch_inplace=switch_inplace,
    smooth_inplace=smooth_inplace,
    reidemeister_simplify=reidemeister_simplify,
    compact=compact,
)


def get_kernels() -> SimpleNamespace:
    """The kernel namespace the skein engine and the diagram functions call."""
    return KERNELS
