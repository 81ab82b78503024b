"""Braid words in Artin generators, their permutations, and exchange-move structure.

A braid word on n strands is a sequence of signed generator letters: the
integer i > 0 stands for the positive generator on strands (i, i+1), and
i < 0 for its inverse.  Words read left to right, braids are drawn top to
bottom, and the induced permutation maps a top position to the bottom
position of the strand starting there.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence  # already loaded by re, which fractions imports


class WordError(ValueError):
    """Invalid braid word, strand count, or letter index."""


class _Value:
    """Base of braidax's immutable records.

    A record names its fields in ``_fields`` and stores them through
    ``__dict__`` in its own ``__init__``, after its checks.  Records of one
    class are equal when their fields are, hash by their fields, print as
    ``Name(field=value, ...)``, and refuse to set or delete an attribute.
    """

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        d = self.__dict__
        return tuple([d[f] for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        d = self.__dict__
        return f"{type(self).__name__}({', '.join(f'{f}={d[f]!r}' for f in self._fields)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _items(values, what: str, error: type[ValueError] = WordError) -> tuple:
    """``tuple(values)``; a non-iterable raises ``error`` with a one-line message."""
    try:
        return tuple(values)
    except TypeError:
        raise error(f"{what} must be iterable, got {values!r}") from None


def _int(value, what: str, error: type[ValueError] = WordError) -> int:
    """``value`` when it is an int; a bool, a float or anything else raises
    ``error`` with a one-line message."""
    if type(value) is not int:
        raise error(f"{what} must be an int, got {value!r}")
    return value


class BraidWord(_Value):
    """A word in the Artin generators of the braid group on ``strands`` strands.

    ``letters`` holds nonzero integers; ``k`` means the generator on strands
    (|k|, |k|+1) raised to the power sign(k).  The empty word is the identity.
    The strand count and every letter must be an ``int``; a bool or a float
    is rejected.  These checks run where a word enters braidax: a word that
    braidax derives from checked words (a product, inverse, mirror, rotation,
    reduction, twist, family member, split, deleted component or axis word)
    is built by ``_word`` without checking again.
    """

    _fields = ("strands", "letters")

    def __init__(self, strands: int, letters: Iterable[int] = ()):
        if _int(strands, "strand count") < 1:
            raise WordError(f"strand count must be positive, got {strands}")
        letters = _items(letters, "letters")
        for pos, k in enumerate(letters):
            if type(k) is not int or k == 0 or abs(k) >= strands:
                why = f"out of range for {strands} strands" if type(k) is int else "is not an int"
                raise WordError(f"letter {k!r} at position {pos} {why}")
        fields = self.__dict__
        fields["strands"] = strands
        fields["letters"] = letters

    def __len__(self):
        return len(self.letters)

    def __str__(self):
        return " ".join(str(k) for k in self.letters)


def _word(n: int, letters: tuple[int, ...]) -> BraidWord:
    """The ``BraidWord`` of a strand count and letter tuple already known to
    be valid, built without the checks of ``BraidWord.__init__``."""
    w = object.__new__(BraidWord)
    fields = w.__dict__
    fields["strands"] = n
    fields["letters"] = letters
    return w


def _need_word(w) -> None:
    if not isinstance(w, BraidWord):
        raise WordError(f"need a BraidWord, got {type(w).__name__}")


class Permutation(_Value):
    """A permutation of {1..n}, stored as the image tuple (1-indexed)."""

    _fields = ("images",)

    def __init__(self, images: Iterable[int]):
        images = _items(images, "images")
        n = len(images)
        if any(type(k) is not int for k in images) or sorted(images) != list(range(1, n + 1)):
            raise WordError(f"not a bijection of 1..{n}: {images}")
        self.__dict__["images"] = images

    def __call__(self, k: int) -> int:
        return self.images[k - 1]


class CycleDecomposition(_Value):
    """Disjoint cycles of a permutation, covering {1..n}.

    When the permutation is a single n-cycle and the normalized writing was
    requested, ``normalized`` holds the cycle written as (x_1, .., x_{n-1}, n),
    i.e. ending on n, with the cycle mapping x_i to x_{i+1} and n to x_1;
    ``one_index`` is the position l with x_l = 1.
    """

    _fields = ("cycles", "normalized", "one_index")

    def __init__(self, cycles: tuple[tuple[int, ...], ...],
                 normalized: tuple[int, ...] | None = None, one_index: int | None = None):
        self.__dict__.update(cycles=cycles, normalized=normalized, one_index=one_index)

    @property
    def count(self) -> int:
        return len(self.cycles)


class Admissibility(_Value):
    """Result of the exchange-move admissibility test.  On n <= 3 strands
    the move is trivial and the test returns admissible by convention."""

    _fields = ("admissible",)

    def __init__(self, admissible: bool):
        self.__dict__["admissible"] = admissible

    def __bool__(self):
        return self.admissible


class CriterionVerdict(_Value):
    """Whether a word meets the non-conjugacy criterion.

    The criterion: the word has at least 4 strands, admits an exchange move
    and its permutation fixes neither position 1 nor position n.  ``reason``
    names the first failed condition, or is None when the criterion applies.
    """

    _fields = ("applies", "reason")

    def __init__(self, applies: bool, reason: str | None = None):
        self.__dict__.update(applies=applies, reason=reason)

    def __bool__(self):
        return self.applies


class ExchangeForm(_Value):
    """A braid split as alpha * beta with alpha avoiding the last generator
    and beta avoiding the first, the seed of an exchange-move family."""

    _fields = ("strands", "alpha", "beta")

    def __init__(self, strands: int, alpha: BraidWord, beta: BraidWord):
        n = _int(strands, "strand count")
        _need_word(alpha)
        _need_word(beta)
        if alpha.strands != n or beta.strands != n:
            raise WordError("alpha/beta strand counts must match the form")
        if any(abs(k) == n - 1 for k in alpha.letters):
            raise WordError(f"alpha may not use generator {n - 1}")
        if any(abs(k) == 1 for k in beta.letters):
            raise WordError("beta may not use generator 1")
        self.__dict__.update(strands=n, alpha=alpha, beta=beta)

    def word(self) -> BraidWord:
        return compose(self.alpha, self.beta)

    def mirrored(self) -> "ExchangeForm":
        return ExchangeForm(self.strands, mirror(self.alpha), mirror(self.beta))


# ---------------------------------------------------------------------------
# elementary word operations


def compose(a: BraidWord, b: BraidWord) -> BraidWord:
    """Concatenate two words on the same strand count (group multiplication)."""
    _need_word(a)
    _need_word(b)
    if a.strands != b.strands:
        raise WordError(f"strand counts differ: {a.strands} vs {b.strands}")
    return _word(a.strands, a.letters + b.letters)


def inverse(w: BraidWord) -> BraidWord:
    _need_word(w)
    return _word(w.strands, tuple(-k for k in reversed(w.letters)))


def mirror(w: BraidWord) -> BraidWord:
    """Interchange every generator with its inverse (sign flip only)."""
    _need_word(w)
    return _word(w.strands, tuple(-k for k in w.letters))


def free_reduce(w: BraidWord) -> BraidWord:
    """Cancel adjacent inverse pairs until none remain."""
    _need_word(w)
    out: list[int] = []
    for k in w.letters:
        if out and out[-1] == -k:
            out.pop()
        else:
            out.append(k)
    return _word(w.strands, tuple(out))


def cyclic_free_reduce(w: BraidWord) -> BraidWord:
    """Free reduction that also cancels across the wrap-around.

    The word is freely reduced once; then one scan from both ends counts
    the cancelling pairs of ends, and one slice strips them.  The middle of
    a freely reduced word is freely reduced, so nothing is scanned again.
    The result is conjugate to the input, so every conjugacy invariant
    (closure link, axis link) is unchanged.
    """
    w = free_reduce(w)
    a = w.letters
    i = 0
    while 2 * i + 2 <= len(a) and a[i] == -a[-1 - i]:
        i += 1
    return _word(w.strands, a[i:len(a) - i]) if i else w


def square(w: BraidWord) -> BraidWord:
    return compose(w, w)


def exponent_sum(w: BraidWord) -> int:
    _need_word(w)
    return sum(1 if k > 0 else -1 for k in w.letters)


# ---------------------------------------------------------------------------
# permutations and cycles


def permutation_of(w: BraidWord) -> Permutation:
    """Image of the word under the homomorphism sending each generator to the
    transposition of its two strand positions."""
    _need_word(w)
    at = list(range(w.strands))  # at[p] = strand currently at position p
    for k in w.letters:
        i = abs(k) - 1
        at[i], at[i + 1] = at[i + 1], at[i]
    images = [0] * w.strands
    for p, strand in enumerate(at, 1):
        images[strand] = p
    return Permutation(images)


def cycle_decomposition(p: Permutation, normalized: bool = False) -> CycleDecomposition:
    """Disjoint cycles, each written starting from its smallest element.

    With ``normalized=True`` the permutation must be a single n-cycle; the
    cycle is then rewritten to end on n and the position of the entry 1 is
    reported.
    """
    if not isinstance(p, Permutation):
        raise WordError(f"need a Permutation, got {type(p).__name__}")
    n = len(p.images)
    seen = [False] * (n + 1)
    cycles = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        k = p(start)
        while k != start:
            cyc.append(k)
            seen[k] = True
            k = p(k)
        cycles.append(tuple(cyc))
    result = CycleDecomposition(tuple(cycles))
    if not normalized:
        return result
    if len(cycles) != 1 or len(cycles[0]) != n:
        raise WordError("normalized writing requires a single n-cycle")
    # the one cycle starts at 1; rotate it to end on n, at index i
    c = cycles[0]
    i = c.index(n)
    return CycleDecomposition(tuple(cycles), c[i + 1:] + c[:i + 1], n - i)


def delete_component(w: BraidWord, strand: int) -> BraidWord:
    """The word whose closure is that of ``w`` less the component through
    top position ``strand``.

    Every letter touching a strand of that permutation cycle is dropped, and
    each surviving letter is renumbered by its strand's rank among the
    surviving strands.  Deleting the whole closure is an error.
    """
    _need_word(w)
    n = w.strands
    if not 1 <= _int(strand, "strand") <= n:
        raise WordError(f"strand {strand} out of range for {n} strands")
    p = permutation_of(w)
    keep = [True] * n  # whether the strand at each position survives
    k = strand
    while keep[k - 1]:
        keep[k - 1] = False
        k = p(k)
    if not any(keep):
        raise WordError("cannot delete the only component of the closure")
    letters = []
    for k in w.letters:
        i = abs(k) - 1
        if keep[i] and keep[i + 1]:
            r = sum(keep[:i]) + 1
            letters.append(r if k > 0 else -r)
        keep[i], keep[i + 1] = keep[i + 1], keep[i]
    return _word(sum(keep), tuple(letters))


def strand_linking(w: BraidWord, a_set: Iterable[int], b_set: Iterable[int]) -> int:
    """Linking number of the closure sublinks over two disjoint cycle sets.

    Each set must be a union of cycles of the braid permutation; the result
    is half the signed count of crossings between a strand of one set and a
    strand of the other.
    """
    _need_word(w)
    a, b = frozenset(_items(a_set, "a_set")), frozenset(_items(b_set, "b_set"))
    if a & b:
        raise WordError("strand sets must be disjoint")
    cyc = {frozenset(c) for c in cycle_decomposition(permutation_of(w)).cycles}
    for s in (a, b):
        rem = set(s)
        for c in cyc:
            if c <= rem:
                rem -= c
        if rem:
            raise WordError(f"{sorted(s)} is not a union of permutation cycles")
    total = 0
    at = list(range(1, w.strands + 1))
    for k in w.letters:
        i = abs(k) - 1
        s, t = at[i], at[i + 1]
        if (s in a and t in b) or (s in b and t in a):
            total += 1 if k > 0 else -1
        at[i], at[i + 1] = t, s
    if total % 2:
        raise WordError("odd inter-set crossing count; sets do not close up")
    return total // 2


# ---------------------------------------------------------------------------
# twists, the exchange band, and families


def kappa_word(n: int) -> BraidWord:
    """The pure band braid (sigma_1 .. sigma_{n-2})(sigma_{n-2} .. sigma_1)
    conjugating one side of an exchange move."""
    if _int(n, "strand count") < 3:
        raise WordError(f"band word needs n >= 3, got {n}")
    up = tuple(range(1, n - 1))
    return _word(n, up + up[::-1])


def admits_exchange(w: BraidWord) -> Admissibility:
    """Test whether some cyclic rotation splits as alpha*beta (alpha without
    the last generator, beta without the first): whether ``exchange_split``
    finds the split.  Strand counts n <= 3 are degenerate and count as
    admissible.
    """
    _need_word(w)
    if w.strands <= 3:
        return Admissibility(True)
    return Admissibility(exchange_split(w) is not None)


def exchange_split(w: BraidWord) -> ExchangeForm | None:
    """Split a cyclic rotation of w as alpha*beta, or None if not admissible.

    If one extreme index never occurs, the part allowed to contain the other
    extreme absorbs the whole word.  Otherwise the word is rotated to start
    right after a top-index letter whose next extreme letter is an index-1
    letter, and alpha runs up to the first top-index letter.  The split
    exists exactly when the rest, beta, holds no index-1 letter, that is
    when each extreme index forms one contiguous cyclic block.  The rule is
    the same at every strand count: on 3 strands w = sigma_1 sigma_2 splits
    as alpha = sigma_1, beta = sigma_2, and on 2 strands, where the two
    extreme indices coincide, only the empty word splits.
    """
    _need_word(w)
    n = w.strands
    has_one = any(abs(k) == 1 for k in w.letters)
    has_top = any(abs(k) == n - 1 for k in w.letters)
    if not has_top:
        return ExchangeForm(n, w, _word(n, ()))
    if not has_one:
        return ExchangeForm(n, _word(n, ()), w)
    ext = [i for i, k in enumerate(w.letters) if abs(k) in (1, n - 1)]
    # with both indices present, some top-index letter is followed,
    # cyclically, by an index-1 letter
    start = next(
        i + 1
        for i, j in zip(ext, ext[1:] + ext[:1])
        if abs(w.letters[i]) == n - 1 and abs(w.letters[j]) == 1
    )
    rot = w.letters[start:] + w.letters[:start]
    first_top = next(i for i, k in enumerate(rot) if abs(k) == n - 1)
    if any(abs(k) == 1 for k in rot[first_top:]):
        return None
    return ExchangeForm(n, _word(n, rot[:first_top]), _word(n, rot[first_top:]))


def family_member(form: ExchangeForm, m: int) -> BraidWord:
    """The m-th exchange-move iterate alpha * kappa^m * beta * kappa^-m.

    The letters are joined once into one word; at m = 0 the twists are
    empty and the member is the seed word.  The band word kappa needs
    n >= 3 strands, so a form on fewer strands has no family.
    """
    if not isinstance(form, ExchangeForm):
        raise WordError(f"need an ExchangeForm, got {type(form).__name__}")
    _int(m, "m")
    kap = kappa_word(form.strands).letters
    twist = kap * m if m >= 0 else tuple(-k for k in reversed(kap)) * -m
    untwist = tuple(-k for k in reversed(twist))
    return _word(form.strands, form.alpha.letters + twist + form.beta.letters + untwist)


def nonconjugacy_criterion(w: BraidWord) -> CriterionVerdict:
    """Admissible, and the permutation moves both boundary positions.

    When this holds, iterating the exchange move produces infinitely many
    pairwise non-conjugate braids with the same closure.
    """
    _need_word(w)
    n = w.strands
    if n <= 3:
        # on 3 strands alpha lies in <s_1> and commutes with kappa = s_1^2,
        # so every family member is conjugate to the seed; below, no kappa
        return CriterionVerdict(False, "exchange move is degenerate for n <= 3")
    if exchange_split(w) is None:
        return CriterionVerdict(False, "no exchange-move splitting")
    p = permutation_of(w)
    if p(1) == 1:
        return CriterionVerdict(False, "permutation fixes position 1")
    if p(n) == n:
        return CriterionVerdict(False, f"permutation fixes position {n}")
    return CriterionVerdict(True)


# ---------------------------------------------------------------------------
# canonical families


def canonical_odd_knot_braid(n: int) -> ExchangeForm:
    """The odd-strand knot seed with alternating negative generators.

    alpha is the single letter 1^-1 and beta the remaining letters of
    sigma_1^-1 sigma_3^-1 .. sigma_{n-2}^-1 * sigma_2^-1 sigma_4^-1 .. sigma_{n-1}^-1.
    Its permutation is an n-cycle whose normalized writing has the entry 1
    exactly in the middle position, the configuration where the axis-link
    degree-3 coefficient alone cannot separate the family.
    """
    if _int(n, "n") < 5 or n % 2 == 0:
        raise WordError(f"need odd n >= 5, got {n}")
    alpha = BraidWord(n, (-1,))
    odds = tuple(-i for i in range(3, n - 1, 2))
    evens = tuple(-i for i in range(2, n, 2))
    beta = BraidWord(n, odds + evens)
    return ExchangeForm(n, alpha, beta)


def canonical_joint_cycle_braid(n: int) -> ExchangeForm:
    """Seed whose permutation joins positions 1, n, 2 in one 3-cycle and
    cycles the middle strands separately.

    alpha = sigma_1; beta = w' * band, where w' = sigma_3 .. sigma_{n-2}
    (empty for n = 4) realizes the middle cycle and the band word
    sigma_2 .. sigma_{n-2} sigma_{n-1} sigma_{n-2}^-1 .. sigma_2^-1 swaps
    positions 2 and n.  All strand-linking numbers among strands 1, 2, n and
    the middle cycle vanish for this construction.
    """
    if _int(n, "n") < 4:
        raise WordError(f"need n >= 4, got {n}")
    alpha = BraidWord(n, (1,))
    wprime = tuple(range(3, n - 1))
    band = tuple(range(2, n)) + tuple(-i for i in range(n - 2, 1, -1))
    beta = BraidWord(n, wprime + band)
    return ExchangeForm(n, alpha, beta)


def canonical_split_cycle_braid(n1: int, n2: int) -> ExchangeForm:
    """Seed with permutation cycles exactly (1..n1) and (n1+1..n1+n2):
    alpha = sigma_1 .. sigma_{n1-1}, beta = sigma_{n1+1} .. sigma_{n-1}."""
    if _int(n1, "cycle length") < 2 or _int(n2, "cycle length") < 2:
        raise WordError("both cycle lengths must be >= 2")
    n = n1 + n2
    alpha = BraidWord(n, tuple(range(1, n1)))
    beta = BraidWord(n, tuple(range(n1 + 1, n)))
    return ExchangeForm(n, alpha, beta)


# ---------------------------------------------------------------------------
# text format


def parse_word(text: str | Sequence[int | str], strands: int) -> BraidWord:
    """Parse the whitespace-separated signed-integer word format.

    An integer i > 0 means the i-th generator, i < 0 its inverse.  The strand
    count is always given alongside, never inferred.  A token is an int or
    an integer string; a float or a bool is rejected, not truncated.  Only
    the tokens are checked here; ``BraidWord`` checks the strand count, then
    the letters.
    """
    tokens = text.split() if isinstance(text, str) else _items(text, "tokens")
    letters = []
    for pos, tok in enumerate(tokens):
        try:
            k = int(tok) if isinstance(tok, str) else tok  # int() would truncate a float
        except ValueError:
            k = None
        if type(k) is not int:
            raise WordError(f"token {tok!r} at position {pos} is not an integer")
        letters.append(k)
    return BraidWord(strands, tuple(letters))
