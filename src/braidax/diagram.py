"""Oriented planar link diagrams: braid closures, axis-addition links, and
component deletion.

Diagrams are values: a diagram holds its arrays as tuples, and every
operation copies them to lists for the kernels and returns a new diagram.
The arrays follow the port conventions of :mod:`braidax.kernels`.  Positive
braid letters put the strand entering from the smaller position on top, and
the crossing sign always equals the letter sign.  The braid axis is oriented so
that it links every strand positively.
"""

from __future__ import annotations

from dataclasses import dataclass

from .kernels import get_kernels
from .words import BraidWord, cycle_decomposition, permutation_of

# port roles within a crossing
OVER_IN, OVER_OUT, UNDER_IN, UNDER_OUT = 0, 1, 2, 3


class DiagramError(ValueError):
    """Inconsistent diagram data or invalid surgery target."""


@dataclass(frozen=True)
class ComponentInfo:
    """One labeled component: which top strand positions it uses (for braid
    closures), or the axis, or an isolated crossing-free loop."""

    kind: str  # "strand", "axis", "loop", or "unknown"
    strands: frozenset[int] = frozenset()
    entry: int = -1


@dataclass(frozen=True)
class ComponentLabeling:
    count: int
    infos: tuple[ComponentInfo, ...]

    def label_containing_strand(self, k: int) -> int:
        for j, info in enumerate(self.infos):
            if k in info.strands:
                return j
        raise DiagramError(f"no component contains strand {k}")

    @property
    def axis_label(self) -> int | None:
        for j, info in enumerate(self.infos):
            if info.kind == "axis":
                return j
        return None


@dataclass(frozen=True)
class LinkingMatrix:
    """Pairwise component linking numbers: symmetric, zero diagonal."""

    entries: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.entries)

    def __getitem__(self, km: tuple[int, int]) -> int:
        return self.entries[km[0]][km[1]]


@dataclass(frozen=True, eq=False)
class LinkDiagram:
    """A link diagram: crossing signs, the arc pairing of ports, and a count
    of crossing-free loop components."""

    conn: tuple[int, ...]
    sign: tuple[int, ...]
    free_loops: int = 0
    meta: tuple[ComponentInfo, ...] | None = None

    def __post_init__(self):
        # frozen here, so a diagram built from the kernels' lists is a value
        object.__setattr__(self, "conn", tuple(self.conn))
        object.__setattr__(self, "sign", tuple(self.sign))
        if len(self.conn) != 4 * len(self.sign):
            raise DiagramError("conn must hold four ports per crossing")

    @property
    def crossings(self) -> int:
        return len(self.sign)

    def arrays(self) -> tuple[list[int], list[int]]:
        """Fresh mutable copies of the underlying arrays."""
        return list(self.conn), list(self.sign)

    def validate(self) -> None:
        """Check the arc pairing is a perfect out/in matching."""
        conn = self.conn
        for x, y in enumerate(conn):
            if y < 0 or y >= len(conn) or conn[y] != x:
                raise DiagramError(f"port {x} is not consistently paired")
            if (x & 1) == (y & 1):
                raise DiagramError(f"arc {x}-{y} does not join an out-port to an in-port")
        for s in self.sign:
            if s not in (-1, 1):
                raise DiagramError("crossing signs must be +1 or -1")


# ---------------------------------------------------------------------------
# construction


def _braid_part(w: BraidWord, extra: int):
    """Lay out one crossing per letter; returns (conn, sign, cur, first_in).

    ``extra`` reserves space for additional crossings (the axis weave).
    ``cur[p]`` is the dangling out-port at position p after the word,
    ``first_in[p]`` the first in-port the strand from top position p meets.
    """
    n = w.strands
    ncross = len(w.letters) + extra
    conn = [-1] * (4 * ncross)
    sign = [0] * ncross
    cur = [-1] * n
    first_in = [-1] * n
    for c, k in enumerate(w.letters):
        i = abs(k) - 1
        sign[c] = 1 if k > 0 else -1
        if k > 0:
            in_left, in_right = 4 * c + OVER_IN, 4 * c + UNDER_IN
            out_left, out_right = 4 * c + UNDER_OUT, 4 * c + OVER_OUT
        else:
            in_left, in_right = 4 * c + UNDER_IN, 4 * c + OVER_IN
            out_left, out_right = 4 * c + OVER_OUT, 4 * c + UNDER_OUT
        for pos, inp in ((i, in_left), (i + 1, in_right)):
            if cur[pos] >= 0:
                conn[cur[pos]] = inp
                conn[inp] = cur[pos]
            else:
                first_in[pos] = inp
        cur[i], cur[i + 1] = out_left, out_right
    return conn, sign, cur, first_in


def _strand_meta(w: BraidWord, first_in: list[int]) -> list[ComponentInfo]:
    """Braid components ordered by smallest top-strand position."""
    cycles = cycle_decomposition(permutation_of(w)).cycles
    infos = []
    for cyc in sorted(cycles, key=min):
        k = min(cyc)
        if first_in[k - 1] >= 0:
            infos.append(ComponentInfo("strand", frozenset(cyc), first_in[k - 1]))
        else:
            infos.append(ComponentInfo("loop", frozenset(cyc)))
    return infos


def closure_diagram(w: BraidWord) -> LinkDiagram:
    """Closure of a braid word: one crossing per letter, bottom position k
    joined back to top position k."""
    conn, sign, cur, first_in = _braid_part(w, 0)
    loops = 0
    for p in range(w.strands):
        if cur[p] >= 0:
            conn[cur[p]] = first_in[p]
            conn[first_in[p]] = cur[p]
        else:
            loops += 1
    meta = tuple(_strand_meta(w, first_in))
    return LinkDiagram(conn, sign, loops, meta)


def axis_word(w: BraidWord) -> BraidWord:
    """beta * s_n .. s_1 s_1 .. s_n on n + 1 strands: the braid whose closure
    is the axis link of ``w`` (the axis becomes strand n + 1)."""
    n = w.strands
    loop = tuple(range(n, 0, -1)) + tuple(range(1, n + 1))
    return BraidWord(n + 1, w.letters + loop)


def axis_link_diagram(w: BraidWord) -> LinkDiagram:
    """Closure plus the braid axis: an unknotted circle passing over every
    strand once and back under every strand, linking each component by its
    strand count.  Adds 2n crossings, all positive."""
    n = w.strands
    base = len(w.letters)
    conn, sign, cur, first_in = _braid_part(w, 2 * n)
    over = [base + p for p in range(n)]          # axis over strand p
    under = [base + n + p for p in range(n)]     # strand p over the returning axis
    for p in range(n):
        co, cu = over[p], under[p]
        sign[co] = 1
        sign[cu] = 1
        # strand at position p: ..cur[p] -> co.under_in, co.under_out -> cu.over_in
        inp = 4 * co + UNDER_IN
        if cur[p] >= 0:
            conn[cur[p]] = inp
            conn[inp] = cur[p]
        else:
            first_in[p] = inp
        conn[4 * co + UNDER_OUT] = 4 * cu + OVER_IN
        conn[4 * cu + OVER_IN] = 4 * co + UNDER_OUT
        cur[p] = 4 * cu + OVER_OUT
    # the axis itself: rightward over positions 0..n-1, back leftward underneath
    for p in range(n - 1):
        conn[4 * over[p] + OVER_OUT] = 4 * over[p + 1] + OVER_IN
        conn[4 * over[p + 1] + OVER_IN] = 4 * over[p] + OVER_OUT
    conn[4 * over[n - 1] + OVER_OUT] = 4 * under[n - 1] + UNDER_IN
    conn[4 * under[n - 1] + UNDER_IN] = 4 * over[n - 1] + OVER_OUT
    for p in range(n - 1, 0, -1):
        conn[4 * under[p] + UNDER_OUT] = 4 * under[p - 1] + UNDER_IN
        conn[4 * under[p - 1] + UNDER_IN] = 4 * under[p] + UNDER_OUT
    conn[4 * under[0] + UNDER_OUT] = 4 * over[0] + OVER_IN
    conn[4 * over[0] + OVER_IN] = 4 * under[0] + UNDER_OUT
    for p in range(n):
        conn[cur[p]] = first_in[p]
        conn[first_in[p]] = cur[p]
    meta = tuple(_strand_meta(w, first_in)) + (
        ComponentInfo("axis", frozenset(), 4 * over[0] + OVER_IN),
    )
    return LinkDiagram(conn, sign, 0, meta)


# ---------------------------------------------------------------------------
# tracing and linking


def _traced(d: LinkDiagram) -> tuple[ComponentLabeling, list[int] | None]:
    """The public labeling and the in-port labels of one trace (None for a
    crossing-free diagram), so callers that need both trace once."""
    if d.crossings == 0:
        infos = d.meta if d.meta is not None else tuple(
            ComponentInfo("loop") for _ in range(d.free_loops)
        )
        return ComponentLabeling(d.free_loops, tuple(infos)), None
    K = get_kernels()
    labels, ncomp, starts = K.trace_inports(d.conn)
    if d.meta is not None:
        if len(d.meta) != ncomp + d.free_loops:
            raise DiagramError("stored labeling does not match traced components")
        return ComponentLabeling(ncomp + d.free_loops, d.meta), labels
    infos = [ComponentInfo("unknown", entry=q) for q in starts]
    infos += [ComponentInfo("loop") for _ in range(d.free_loops)]
    return ComponentLabeling(ncomp + d.free_loops, tuple(infos)), labels


def trace_components(d: LinkDiagram) -> ComponentLabeling:
    """Deterministic component labeling.

    Braid-built diagrams keep their construction labels (components by
    smallest top position, axis last); diagrams produced by surgery fall back
    to first-port discovery order.  Crossing-free loops come after the
    crossing components in the fallback order.
    """
    return _traced(d)[0]


def linking_matrix(d: LinkDiagram) -> LinkingMatrix:
    """Half the signed inter-component crossing counts, in label order."""
    K = get_kernels()
    labeling, labels = _traced(d)
    p = labeling.count
    out = [[0] * p for _ in range(p)]
    if d.crossings:
        ncomp = p - d.free_loops
        counts = K.linking_counts(d.sign, labels, ncomp)
        # map public labels to traced labels through their entry ports
        pub_to_traced = {}
        for j, info in enumerate(labeling.infos):
            if info.entry >= 0:
                pub_to_traced[j] = labels[info.entry]
        if len(pub_to_traced) != ncomp:
            raise DiagramError("component entries do not cover all traced components")
        for j, tj in pub_to_traced.items():
            for k, tk in pub_to_traced.items():
                if j == k:
                    continue
                c = counts[tj][tk]
                if c % 2:
                    raise DiagramError("odd inter-component crossing count")
                out[j][k] = c // 2
    return LinkingMatrix(tuple(tuple(row) for row in out))


# ---------------------------------------------------------------------------
# surgery


def delete_component(d: LinkDiagram, j: int) -> LinkDiagram:
    """Remove component j (by public label); crossings it shares with
    survivors are retracted by pulling the surviving strand straight."""
    K = get_kernels()
    labeling, labels = _traced(d)
    if not (0 <= j < labeling.count):
        raise DiagramError(f"no component {j} among {labeling.count}")
    info = labeling.infos[j]
    if info.entry < 0:
        if d.free_loops < 1:
            raise DiagramError("loop component missing")
        return LinkDiagram(d.conn, d.sign, d.free_loops - 1, None)
    conn, sign = d.arrays()
    kill = [False] * (labeling.count - d.free_loops)  # one per traced component
    kill[labels[info.entry]] = True
    loops = K.delete_marked_components(conn, sign, labels, kill)
    conn, sign = K.compact(conn, sign)
    return LinkDiagram(conn, sign, d.free_loops + loops)


def component_count(d: LinkDiagram) -> int:
    if d.crossings == 0:
        return d.free_loops
    K = get_kernels()
    _, ncomp, _ = K.trace_inports(d.conn)
    return ncomp + d.free_loops
