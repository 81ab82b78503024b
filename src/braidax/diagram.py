"""Oriented planar link diagrams: braid closures, axis-addition links, and
their linking numbers.

Diagrams are values: a diagram holds its arrays as tuples, and every
operation copies them to lists for the kernels and returns a new diagram.
The arrays follow the port conventions of :mod:`braidax.kernels`.
:func:`closure_diagram` is the one constructor from a braid: positive letters
put the strand entering from the smaller position on top, and the crossing
sign always equals the letter sign.  Its diagrams are valid and planar by
construction, so they skip the checks ``LinkDiagram`` runs on a diagram
built outside braidax.  An axis-addition link is the closure of
:func:`axis_word`, whose extra strand is the braid axis, oriented so that it
links every strand positively.  A component is deleted on the braid word
(:func:`braidax.words.delete_component`), before the diagram is built.
"""

from __future__ import annotations

from collections.abc import Iterable
from operator import itemgetter

from .kernels import get_kernels
from .words import BraidWord, _items, _need_word, _Value, _word


class DiagramError(ValueError):
    """Inconsistent diagram data."""


class LinkDiagram(_Value):
    """A link diagram: crossing signs, the arc pairing of ports, and a count
    of crossing-free loop components.  It is built only from a ``conn`` that
    pairs every out-port with one in-port, both ways, and signs of +1 or -1:
    a walk along anything else may never return.  Every port and sign must
    be an ``int``; a bool or a float is rejected.

    A braid-built diagram keeps ``entries``, the first in-port met from each
    top position (-1 for a crossing-free strand), so the axis's entry comes
    last on an axis link, the axis being its braid's last strand;
    ``linking_matrix`` numbers components in their order of first appearance
    there.  ``free_loops`` must be an int >= 0, and ``entries`` None or a
    tuple whose items are each -1 or an in-port of ``conn``.

    These checks run only on a diagram built outside braidax.  Planarity is
    not checked: a pairing that no planar diagram has is accepted, but the
    skein engine's coefficients of it are no link invariant and can depend
    on the basepoints.  A braid-built diagram (``closure_diagram``) is valid
    and planar by construction and is built without the checks.

    Two diagrams are equal only when they are the same object.
    """

    _fields = ("conn", "sign", "free_loops", "entries")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, conn: Iterable[int], sign: Iterable[int], free_loops: int = 0,
                 entries: tuple[int, ...] | None = None):
        # frozen here, so a diagram built from the kernels' lists is a value
        conn = _items(conn, "conn", DiagramError)
        sign = _items(sign, "sign", DiagramError)
        n = len(conn)
        if n != 4 * len(sign):
            raise DiagramError("conn must hold four ports per crossing")
        # int ports only; the out-ports reach every in-port once, and each
        # in-port leads back
        outs = conn[1::2]
        if any(type(q) is not int for q in conn) or n and (
            sorted(outs) != list(range(0, n, 2))
            or itemgetter(*outs)(conn) != tuple(range(1, n, 2))
        ):
            raise DiagramError("conn must pair each out-port with one in-port, both ways")
        if any(type(e) is not int for e in sign) or not set(sign) <= {1, -1}:
            raise DiagramError("crossing signs must be +1 or -1")
        if type(free_loops) is not int or free_loops < 0:
            raise DiagramError(f"free_loops must be an int >= 0, got {free_loops!r}")
        if entries is not None and (
            type(entries) is not tuple
            or any(type(q) is not int or q != -1 and (q & 1 or not 0 <= q < n) for q in entries)
        ):
            raise DiagramError(f"entries must be None or a tuple of -1 and in-ports, got {entries!r}")
        self.__dict__.update(conn=conn, sign=sign, free_loops=free_loops, entries=entries)

    @property
    def crossings(self) -> int:
        return len(self.sign)

    def arrays(self) -> tuple[list[int], list[int]]:
        """Fresh mutable copies of the underlying arrays."""
        return list(self.conn), list(self.sign)


def _need_diagram(d) -> None:
    if not isinstance(d, LinkDiagram):
        raise DiagramError(f"need a LinkDiagram, got {type(d).__name__}")


# ---------------------------------------------------------------------------
# construction


def closure_diagram(w: BraidWord) -> LinkDiagram:
    """Closure of a braid word: one crossing per letter, bottom position k
    joined back to top position k."""
    _need_word(w)
    letters = w.letters
    end = 4 * len(letters)
    # port end + p stands for top position p until the closing pass: the
    # first in-port met from p is paired with it, and read back from it
    conn = [-1] * (end + w.strands)
    cur = list(range(end, len(conn)))  # the dangling out-port at each position
    c = 0
    for k in letters:
        # a is the in-port of the strand from position i, b of the one from i + 1
        if k > 0:
            i, a, b = k - 1, c, c + 2
        else:
            i, a, b = -k - 1, c + 2, c
        q = cur[i]
        conn[q] = a
        conn[a] = q
        q = cur[i + 1]
        conn[q] = b
        conn[b] = q
        cur[i] = b + 1
        cur[i + 1] = a + 1
        c += 4
    entries = conn[end:]
    del conn[end:]
    loops = 0
    for q, first in zip(cur, entries):
        if first < 0:
            loops += 1
        else:
            conn[q] = first
            conn[first] = q
    # valid and planar by construction, so built without the checks of __init__
    d = object.__new__(LinkDiagram)
    fields = d.__dict__
    fields["conn"] = tuple(conn)
    fields["sign"] = tuple([1 if k > 0 else -1 for k in letters])
    fields["free_loops"] = loops
    fields["entries"] = tuple(entries)
    return d


def axis_word(w: BraidWord) -> BraidWord:
    """beta * s_n .. s_1 s_1 .. s_n on n + 1 strands: the braid whose closure
    is the axis link of ``w`` (the axis becomes strand n + 1)."""
    _need_word(w)
    n = w.strands
    loop = tuple(range(n, 0, -1)) + tuple(range(1, n + 1))
    return _word(n + 1, w.letters + loop)


def axis_link_diagram(w: BraidWord) -> LinkDiagram:
    """Closure plus the braid axis: the closure of :func:`axis_word`, whose
    last strand runs under every strand once and back over every strand,
    linking each component by its strand count.  Adds 2n crossings, all
    positive, and puts the axis's entry last."""
    return closure_diagram(axis_word(w))


# ---------------------------------------------------------------------------
# linking


def linking_matrix(d: LinkDiagram) -> tuple[tuple[int, ...], ...]:
    """Half the signed inter-component crossing counts, as rows: symmetric,
    zero diagonal.

    Components come in their order of first appearance in ``d.entries``, a
    crossing-free strand counting as one loop: by smallest top position, the
    axis last.  A diagram without entries (a ``LinkDiagram`` constructed
    directly) numbers its components in discovery order, its free loops last.
    """
    _need_diagram(d)
    K = get_kernels()
    labels, ncomp, starts = K.trace_inports(d.conn)
    entries = d.entries if d.entries is not None else tuple(starts) + (-1,) * d.free_loops
    order = []  # the traced label of each component, None for a free loop
    for q in entries:
        t = labels[q] if q >= 0 else None
        if t is None or t not in order:
            order.append(t)
    if len(order) != ncomp + d.free_loops or order.count(None) != d.free_loops:
        raise DiagramError("entries do not match the traced components")
    counts = K.linking_counts(d.sign, labels, ncomp)
    rows = []
    for tj in order:
        row = [0 if tj is None or tk is None else counts[tj][tk] for tk in order]
        if any(c % 2 for c in row):
            raise DiagramError("odd inter-component crossing count")
        rows.append(tuple(c // 2 for c in row))
    return tuple(rows)


def component_count(d: LinkDiagram) -> int:
    _need_diagram(d)
    _, ncomp, _ = get_kernels().trace_inports(d.conn)
    return ncomp + d.free_loops
