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
  ``conn[out] == in`` and ``conn[in] == out``.

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
has already made, so ``linking_matrix`` and a Hoste leaf the engine builds
walk their diagram once after its trace.  The other Hoste leaves close in
their parent by a read-only sweep with no copy, arc slice or determinant:
``knot_leaf_sum`` closes every child of a knot node at budget 2, and
``link_leaf_sum`` every self-crossing child of a two-component node at
budget 3.  ``knot_leaf_sum`` takes the knot as its node holds it, a
crossing smoothed and others switched, without a copy: a two-component node
at budget 3 walks each of its knot children in its own arrays.

Every kernel is a plain Python function: the engine reads single items in
loops, and a list item is read several times faster than an ndarray item.
``get_kernels()`` returns the namespace the skein engine calls through, so a
caller can hand the engine a wrapped copy (to count or time the calls).  The
same seam is how the tests permute basepoints: a copy whose ``trace_inports``
returns its ``starts`` shuffled and re-picked must not change a coefficient.
"""

from __future__ import annotations

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
    if ncomp <= 1:
        return False
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
    diagram.  Returns rows: ``counts[a][b]`` is the signed count of the
    crossings between components a and b.
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


def knot_leaf_sum(conn, sign, flip, start, smoothed):
    """Close every child of a knot node at budget 2 in one read-only walk.

    The knot is the diagram of ``conn`` with crossing ``smoothed`` smoothed
    (-1: none) and every crossing k with ``flip[k] == 2`` switched, walked
    from in-port ``start``; nothing is written.  The walk passes the smoothed
    crossing as its smoothing does, leaving through the other strand's
    out-port, and reads a switched crossing's strands the other way up.

    The descending violations are the crossings first met on their under
    strand, in encounter order, as ``chain_scan`` lists them.  Smoothing one
    gives a two-component Hoste leaf whose a_1 is the linking number of the
    two arcs between its visits; an arc that meets no other crossing is a
    free loop, which makes the child split.  The node flips each violation's
    sign after its leaf, so of two interleaved violations the later one's
    leaf reads the earlier flipped and the pair cancels: the total needs
    only the pairs of a violation and an interleaved non-violation, with the
    signs the walk starts with.

    Each crossing takes a rank when the walk first meets it, and bitmasks of
    ranks hold the non-violations by sign and the chords closed so far.
    When a violation closes, the chords opened since it opened and the
    chords closed since are the visits between its two, and their symmetric
    difference is the chords that interleave it.

    Returns ``(total, odd, children, leaves, ports)``: the sum over the
    leaves of the violation's sign times the doubled linking number, nonzero
    when a doubled count is odd, how many violations and leaves there were,
    and how many in-ports the walk visited, twice the live crossings when
    the diagram is a knot.
    """
    rank = [-1] * len(sign)
    opened_at = [None] * len(sign)  # a violation's closed chords when it opened
    plus = minus = closed = 0
    opened = ports = total = odd = children = leaves = last0 = 0
    cur = start
    while True:
        k = cur >> 2
        if k == smoothed:
            cur = conn[(cur ^ 2) + 1]
        else:
            ports += 1
            r = rank[k]
            if r < 0:
                rank[k] = opened
                if (cur ^ flip[k]) & 2:  # met first on its under strand
                    children += 1
                    opened_at[k] = closed
                elif sign[k] > 0:
                    plus |= 1 << opened
                else:
                    minus |= 1 << opened
                opened += 1
            else:
                was = opened_at[k]
                if was is not None:
                    inside = closed ^ was  # the chords closed since it opened
                    # the visits between its two, as many as the chords opened
                    # and closed since, and of the interleaved chords' parity
                    between = opened - r - 1 + inside.bit_count()
                    if between:  # else the inner arc is a free loop
                        leaves += 1
                        odd |= between
                        if not r:
                            last0 = ports
                        cross = ((1 << opened) - (2 << r)) ^ inside
                        total += sign[k] * (
                            (cross & plus).bit_count() - (cross & minus).bit_count()
                        )
                closed |= 1 << r
            cur = conn[cur + 1]
        if cur == start:
            break
    if last0 == ports:  # the first violation closed last: the arc around is a free loop
        leaves -= 1
    return total, odd & 1, children, leaves, ports


def link_leaf_sum(conn, sign, labels, starts):
    """Close every self-crossing child of a two-component node at budget 3
    in one read-only walk of its components, in ``starts`` order.

    Smoothing a self-crossing violation c of component a splits it into the
    inner arc A between c's visits and the rest R, beside the other
    component B: a Hoste leaf whose a_2 is the spanning-tree sum of the
    triangle, x*l + y*(l - y), with x = lk(A, R), y = lk(A, B) and
    l = lk(a, B).  The walk counts X = 2x, Y = 2y and L = 2l as signed
    crossings, with every violation before c in ``chain_scan`` order
    switched, as the node switches them:

    * The first component meets each inter-component crossing first, so one
      on c's arc keeps its sign, and L is its start value less twice the
      inter-component violations met before c.  The start value is known
      after the walk, so the total is kept linear in it.
    * The second component meets them all switched: one it passes over, a
      violation, reads negated, and L is final.
    * X counts the self-crossings that interleave c, found from ranks and
      rank bitmasks as in ``knot_leaf_sum``: one opened before c reads
      switched if it is a violation, one opened inside the arc unswitched.

    An empty arc is a free loop, which makes the child split: the inner arc
    when c's visits are adjacent, the outer when c opens and closes the
    walk (that one sums to 0, since X = 0 and Y = L).

    Returns ``(total, odd, children, leaves)``: the sum over the leaves of
    c's sign times X*L + Y*(L - Y), four times their a_2; nonzero when L,
    an X or a Y is odd; the self-crossing violations and the leaves.
    """
    rank = [-1] * len(sign)
    opened_at = [None] * len(sign)  # a violation's walk state when it opened
    lk = drift = 0  # L at the start, and its change by the switches so far
    lin = rest = odd = children = leaves = 0  # the total is lk * lin + rest
    first = True
    for start in starts:
        j = labels[start]
        plus = minus = bad = closed = 0
        opened = ports = y = 0
        last0 = -1
        cur = start
        while True:
            k = cur >> 2
            if labels[cur ^ 2] != j:
                s = sign[k]
                if first:
                    lk += s
                    if cur & 2:  # the first component passes under: a violation
                        drift -= 2 * s
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
                        opened_at[k] = (closed, y, drift, ports)
                        bad |= bit
                    opened += 1
                else:
                    was = opened_at[k]
                    if was is not None and ports - was[3] > 1:  # else a free inner arc
                        leaves += 1
                        if not was[3]:
                            last0 = ports
                        inside = closed ^ was[0]  # the chords closed since it opened
                        cross = ((1 << opened) - (2 << r)) ^ inside
                        switched = inside & bad & ((1 << r) - 1)  # opened before it
                        x = (
                            (cross & plus).bit_count() - (cross & minus).bit_count()
                            - 2 * ((switched & plus).bit_count() - (switched & minus).bit_count())
                        )
                        yc = y - was[1]
                        e = sign[k]
                        odd |= x | yc
                        lin += e * (x + yc)
                        rest += e * ((x + yc) * was[2] - yc * yc)
                    closed |= 1 << r
            ports += 1
            cur = conn[cur + 1]
            if cur == start:
                break
        if last0 == ports - 1:  # the first port's violation closed last
            leaves -= 1
        first = False
    return lk * lin + rest, (odd | lk) & 1, children, leaves


def chain_scan(conn, starts):
    """Walk the components from ``starts`` once and list the descending
    violations.

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
    oi = 4 * c
    oo = oi + 1
    ui = oi + 2
    uo = oi + 3
    p_oi = conn[oi]
    p_ui = conn[ui]
    n_oo = conn[oo]
    n_uo = conn[uo]

    # remap the endpoints of the (up to four) incident arcs: for ports of
    # crossing c, over<->under means XOR with 2
    def f(p):
        if p >> 2 == c:
            return p ^ 2
        return p

    a1o, a1i = f(p_oi), ui
    a2o, a2i = f(p_ui), oi
    a3o, a3i = uo, f(n_oo)
    a4o, a4i = oo, f(n_uo)
    conn[a1o] = a1i
    conn[a1i] = a1o
    conn[a2o] = a2i
    conn[a2i] = a2o
    conn[a3o] = a3i
    conn[a3i] = a3o
    conn[a4o] = a4i
    conn[a4i] = a4o
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
    """Drop removed crossings and renumber the rest, preserving order."""
    live = [c for c, s in enumerate(sign) if s]
    first = [0] * len(sign)  # new first port of each live crossing
    for k, c in enumerate(live):
        first[c] = 4 * k
    new_conn = [first[q >> 2] + (q & 3) for c in live for q in conn[4 * c : 4 * c + 4]]
    return new_conn, [sign[c] for c in live]


KERNELS = SimpleNamespace(
    jitted=False,  # the benchmark records it as the kernel flavor
    trace_inports=trace_inports,
    split_components=split_components,
    linking_counts=linking_counts,
    link_leaf_sum=link_leaf_sum,
    knot_leaf_sum=knot_leaf_sum,
    chain_scan=chain_scan,
    switch_inplace=switch_inplace,
    smooth_inplace=smooth_inplace,
    reidemeister_simplify=reidemeister_simplify,
    compact=compact,
)


def get_kernels() -> SimpleNamespace:
    """The kernel namespace the skein engine and the diagram functions call."""
    return KERNELS
