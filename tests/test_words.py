"""Braid words, permutations, and exchange-move structure."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from braidax import (
    Admissibility,
    BraidWord,
    CoefficientSequence,
    CriterionVerdict,
    CycleDecomposition,
    ExchangeForm,
    ExperimentReport,
    LinkDiagram,
    Permutation,
    PolynomialFit,
    TruncatedPoly,
    WordError,
    admits_exchange,
    axis_word,
    canonical_joint_cycle_braid,
    canonical_odd_knot_braid,
    canonical_split_cycle_braid,
    closure_diagram,
    compose,
    conway_matches_alexander,
    conway_polynomial,
    cycle_decomposition,
    cyclic_free_reduce,
    delete_component,
    exchange_split,
    exponent_sum,
    family_member,
    free_reduce,
    inverse,
    kappa_word,
    mirror,
    nonconjugacy_criterion,
    parse_word,
    permutation_of,
    square,
    strand_linking,
)

from conftest import braid_words, exchange_forms


def w(n, *letters):
    return BraidWord(n, letters)


def rotate(word, k):
    """Move the first k letters to the end: a conjugate of the word."""
    return BraidWord(word.strands, word.letters[k:] + word.letters[:k])


class TestElementaryOps:
    def test_compose_concatenates(self):
        assert compose(w(4, 1, 2), w(4, 3)).letters == (1, 2, 3)

    def test_compose_identity(self):
        word = w(4, 2, -3)
        assert compose(BraidWord(4), word).letters == word.letters

    def test_compose_inverse_pair_reduces_to_identity(self):
        assert free_reduce(compose(w(2, 1), w(2, -1))).letters == ()

    def test_compose_strand_mismatch(self):
        with pytest.raises(WordError):
            compose(w(3, 1), w(4, 1))

    def test_mirror_flips_signs(self):
        assert mirror(w(3, 1, -2)).letters == (-1, 2)

    def test_inverse_antihomomorphism(self):
        assert inverse(w(3, 1, 2)).letters == (-2, -1)

    def test_free_reduce(self):
        assert free_reduce(w(2, 1, -1)).letters == ()
        assert not free_reduce(w(2, 1, -1))  # an empty word is falsy
        assert free_reduce(w(4, 1, 2, -2, 3)).letters == (1, 3)
        already = w(4, 1, 2, 1)
        assert free_reduce(already).letters == already.letters

    def test_cyclic_free_reduce(self):
        assert cyclic_free_reduce(w(4, 1, 2, -2, 3, -1)).letters == (3,)
        assert cyclic_free_reduce(w(4, 2, 1, 3, -1, -2)).letters == (3,)
        assert cyclic_free_reduce(w(3, 1, 2, -1)).letters == (2,)
        assert cyclic_free_reduce(w(3, 1, -2)).letters == (1, -2)

    @given(braid_words(max_letters=16))
    def test_cyclic_free_reduce_matches_reduce_to_a_fixed_point(self, word):
        def reference(v):
            # reduce freely, strip a cancelling pair of ends, and reduce the
            # whole middle again, until the ends no longer cancel
            v = free_reduce(v)
            while len(v.letters) >= 2 and v.letters[0] == -v.letters[-1]:
                v = free_reduce(BraidWord(v.strands, v.letters[1:-1]))
            return v

        reduced = cyclic_free_reduce(word)
        assert reduced == reference(word)
        out = reduced.letters
        assert all(a != -b for a, b in zip(out, out[1:]))
        assert len(out) < 2 or out[0] != -out[-1]

    @given(braid_words(max_letters=8), st.data())
    def test_cyclic_free_reduce_matches_pair_by_pair_stripping(self, core, data):
        n = core.strands
        u = data.draw(st.lists(st.integers(-(n - 1), n - 1).filter(bool), max_size=8))
        word = BraidWord(n, tuple(u) + core.letters + tuple(-k for k in reversed(u)))

        def reference(v):
            # reduce freely, then strip one cancelling pair of ends per word
            v = free_reduce(v)
            while len(v.letters) >= 2 and v.letters[0] == -v.letters[-1]:
                v = BraidWord(v.strands, v.letters[1:-1])
            return v

        assert cyclic_free_reduce(word) == reference(word)

    def test_square_and_stabilize(self):
        assert square(w(2, 1)).letters == (1, 1)

    def test_letter_validation(self):
        with pytest.raises(WordError):
            BraidWord(3, (3,))
        with pytest.raises(WordError):
            BraidWord(3, (0,))

    @pytest.mark.parametrize("letter", [1.5, 1.0, True, "1", None])
    def test_non_int_letter_rejected(self, letter):
        # closure_diagram would fail on a float, and True would pass as
        # letter 1
        with pytest.raises(WordError, match=f"letter {letter!r} at position 1 is not an int"):
            BraidWord(3, (1, letter))

    @pytest.mark.parametrize("strands", [2.5, 3.0, True, "3", None])
    def test_non_int_strand_count_rejected(self, strands):
        with pytest.raises(WordError, match="strand count must be an int"):
            BraidWord(strands, (1,))

    @pytest.mark.parametrize("letters", [None, 5, 1.5])
    def test_non_iterable_letters_rejected(self, letters):
        # tuple() would escape as a bare TypeError
        with pytest.raises(WordError, match=f"^letters must be iterable, got {letters!r}$"):
            BraidWord(3, letters)

    @pytest.mark.parametrize(
        "entry",
        [
            closure_diagram,
            axis_word,
            lambda word: delete_component(word, 1),
            exchange_split,
            conway_polynomial,
            lambda word: conway_matches_alexander((1,), word),
            lambda word: compose(word, w(3, 1)),
            lambda word: compose(w(3, 1), word),
            inverse,
            mirror,
            free_reduce,
            cyclic_free_reduce,
            square,
            lambda word: ExchangeForm(3, word, BraidWord(3)),
            lambda word: ExchangeForm(3, BraidWord(3), word),
            permutation_of,
            exponent_sum,
            admits_exchange,
            nonconjugacy_criterion,
            lambda word: strand_linking(word, (1,), (2,)),
        ],
        ids=["closure_diagram", "axis_word", "delete_component", "exchange_split",
             "conway_polynomial", "conway_matches_alexander", "compose-left",
             "compose-right", "inverse", "mirror", "free_reduce",
             "cyclic_free_reduce", "square", "form-alpha", "form-beta", "permutation_of",
             "exponent_sum", "admits_exchange", "nonconjugacy_criterion", "strand_linking"],
    )
    @pytest.mark.parametrize("bad", ["1 2", (1, 2), None], ids=["str", "tuple", "None"])
    def test_word_entry_points_reject_a_non_word(self, entry, bad):
        # a derived word is built unchecked, so every derivation must start
        # from a checked BraidWord
        with pytest.raises(WordError, match=f"^need a BraidWord, got {type(bad).__name__}$"):
            entry(bad)


def _round_trips(word):
    """The public constructor accepts a derived word and rebuilds it equal."""
    assert type(word) is BraidWord
    assert type(word.letters) is tuple
    assert BraidWord(word.strands, word.letters) == word


class TestDerivedWordsRoundTrip:
    """Derived words skip the letter check; the public constructor, which
    runs it, must accept each one as it is."""

    @given(braid_words(max_letters=16), braid_words(max_letters=16))
    def test_word_derivations(self, word, other):
        if other.strands == word.strands:
            _round_trips(compose(word, other))
        for derived in (inverse(word), mirror(word), free_reduce(word),
                        cyclic_free_reduce(word), square(word), axis_word(word)):
            _round_trips(derived)

    @given(braid_words(max_letters=16), st.data())
    def test_delete_component(self, word, data):
        strand = data.draw(st.integers(1, word.strands))
        try:
            derived = delete_component(word, strand)
        except WordError:  # the only component
            return
        _round_trips(derived)

    @given(braid_words(max_letters=16))
    def test_exchange_split(self, word):
        form = exchange_split(word)
        if form is not None:
            _round_trips(form.alpha)
            _round_trips(form.beta)
            _round_trips(form.word())

    @given(exchange_forms(), st.integers(-3, 3))
    def test_family_member_and_twist(self, form, m):
        _round_trips(kappa_word(form.strands))
        _round_trips(family_member(form, m))
        _round_trips(family_member(form.mirrored(), m))


class TestPermutations:
    def test_non_bijection_rejected(self):
        with pytest.raises(WordError, match="not a bijection"):
            Permutation((1, 1, 3))

    @pytest.mark.parametrize("images", [(1, "a"), (True, 2), (1.0, 2)], ids=repr)
    def test_non_int_images_rejected(self, images):
        # sorted() would escape as a bare TypeError on (1, "a"), and a bool
        # or a float would pass as the int it equals
        with pytest.raises(WordError, match="^not a bijection of 1..2"):
            Permutation(images)

    @pytest.mark.parametrize("images", [None, 3])
    def test_non_iterable_images_rejected(self, images):
        with pytest.raises(WordError, match=f"^images must be iterable, got {images!r}$"):
            Permutation(images)

    @pytest.mark.parametrize("p", [(2, 1), None, w(2, 1)], ids=["tuple", "None", "BraidWord"])
    def test_cycle_decomposition_rejects_a_non_permutation(self, p):
        # reading p.images would escape as a bare AttributeError
        with pytest.raises(WordError, match=f"^need a Permutation, got {type(p).__name__}$"):
            cycle_decomposition(p)

    def test_single_generator_is_transposition(self):
        assert permutation_of(w(2, 1)).images == (2, 1)

    def test_identity_word(self):
        assert permutation_of(BraidWord(5)).images == (1, 2, 3, 4, 5)

    def test_staircase_cycle(self):
        # composing (12)(23)(34) left to right by hand: 1->4, 2->1, 3->2, 4->3
        p = permutation_of(w(4, 1, 2, 3))
        assert p.images == (4, 1, 2, 3)
        assert cycle_decomposition(p).cycles == ((1, 4, 3, 2),)

    @given(braid_words(max_letters=16), st.integers(0, 16))
    def test_homomorphism(self, word, cut):
        cut = min(cut, len(word.letters))
        a = BraidWord(word.strands, word.letters[:cut])
        b = BraidWord(word.strands, word.letters[cut:])
        pa, pb = permutation_of(a).images, permutation_of(b).images
        # left to right: the composite sends k to pb(pa(k))
        assert permutation_of(compose(a, b)).images == tuple(pb[k - 1] for k in pa)

    def test_cycle_count_identity(self):
        dec = cycle_decomposition(permutation_of(BraidWord(4)))
        assert dec.count == 4

    def test_normalized_writing_b4(self):
        dec = cycle_decomposition(permutation_of(w(4, -1, -2, -3)), normalized=True)
        assert dec.normalized == (3, 2, 1, 4)
        assert dec.one_index == 3

    def test_normalized_writing_b5(self):
        dec = cycle_decomposition(permutation_of(w(5, -1, -3, -2, -4)), normalized=True)
        assert dec.normalized == (4, 2, 1, 3, 5)
        assert dec.one_index == 3

    def test_normalized_requires_full_cycle(self):
        with pytest.raises(WordError):
            cycle_decomposition(permutation_of(w(4, 1)), normalized=True)

    @given(st.integers(1, 12).flatmap(lambda n: st.permutations(range(2, n + 1))))
    def test_normalized_writing_of_random_n_cycles(self, rest):
        # the n-cycle (1, rest...), against a second walk of the permutation
        cycle = (1, *rest)
        n = len(cycle)
        images = [0] * n
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            images[a - 1] = b
        p = Permutation(tuple(images))
        writing = []
        k = p(n)
        while k != n:
            writing.append(k)
            k = p(k)
        writing.append(n)
        dec = cycle_decomposition(p, normalized=True)
        assert dec.cycles == (cycle,)
        assert dec.normalized == tuple(writing)
        assert dec.one_index == writing.index(1) + 1


class TestExponentSum:
    def test_positive_word(self):
        assert exponent_sum(w(4, 1, 2, 3)) == 3

    @given(braid_words())
    def test_mirror_negates(self, word):
        assert exponent_sum(mirror(word)) == -exponent_sum(word)

    @given(exchange_forms(), st.integers(-3, 3))
    def test_family_exponent_independent_of_m(self, form, m):
        assert exponent_sum(family_member(form, m)) == exponent_sum(form.word())


class TestStrandLinking:
    def test_positive_hopf(self):
        assert strand_linking(w(2, 1, 1), {1}, {2}) == 1

    def test_mirror_negates(self):
        assert strand_linking(w(2, -1, -1), {1}, {2}) == -1

    def test_three_strand_pairs(self):
        word = w(3, 1, 1, 2, 2)
        assert strand_linking(word, {1}, {2}) == 1
        assert strand_linking(word, {2}, {3}) == 1
        assert strand_linking(word, {1}, {3}) == 0

    def test_rejects_overlap(self):
        with pytest.raises(WordError):
            strand_linking(w(3, 1, 1, 2, 2), {1}, {1, 2})

    def test_rejects_split_cycle(self):
        with pytest.raises(WordError):
            strand_linking(w(2, 1), {1}, {2})  # (1 2) is one cycle

    @pytest.mark.parametrize(
        "a_set,b_set,what",
        [(3, {1, 2}, "a_set"), ({1, 2}, 3, "b_set"), (None, {3}, "a_set")],
        ids=["a-int", "b-int", "a-None"],
    )
    def test_rejects_a_non_iterable_set(self, a_set, b_set, what):
        # frozenset() would escape as a bare TypeError
        bad = a_set if what == "a_set" else b_set
        with pytest.raises(WordError, match=f"^{what} must be iterable, got {bad!r}$"):
            strand_linking(w(3, 1, 1), a_set, b_set)

    @given(braid_words(min_strands=3, max_strands=6, max_letters=10))
    def test_symmetry_and_additivity(self, word):
        cycles = [set(c) for c in cycle_decomposition(permutation_of(word)).cycles]
        if len(cycles) < 2:
            return
        a, b = cycles[0], cycles[1]
        assert strand_linking(word, a, b) == strand_linking(word, b, a)
        assert strand_linking(mirror(word), a, b) == -strand_linking(word, a, b)
        if len(cycles) >= 3:
            c = cycles[2]
            assert strand_linking(word, a, b | c) == strand_linking(
                word, a, b
            ) + strand_linking(word, a, c)


class TestTwistWords:
    def test_band_word_small(self):
        assert kappa_word(4).letters == (1, 2, 2, 1)
        assert kappa_word(3).letters == (1, 1)

    @pytest.mark.parametrize("n", range(3, 13))
    def test_band_word_is_pure(self, n):
        assert permutation_of(kappa_word(n)).images == tuple(range(1, n + 1))

    def test_band_word_needs_three_strands(self):
        with pytest.raises(WordError):
            kappa_word(2)

    @pytest.mark.parametrize("n", [4.0, True, "4", None])
    def test_band_word_non_int_strand_count_rejected(self, n):
        with pytest.raises(WordError, match="strand count must be an int"):
            kappa_word(n)


class TestExchange:
    def test_corpus_word_is_admissible(self):
        word = parse_word("-3 -3 -2 1 1 2 -1 3 -2", 4)
        assert admits_exchange(word)

    def test_forbidden_pattern(self):
        assert not admits_exchange(w(4, 1, 3, 1, 3))

    def test_already_split(self):
        form = exchange_split(w(4, 1, 2, 3))
        assert form.alpha.letters == (1, 2)
        assert form.beta.letters == (3,)

    def test_degenerate_small_strand_counts(self):
        assert admits_exchange(w(3, 1, 2, 1, 2)) == Admissibility(True)

    def test_split_absorbs_when_one_extreme_missing(self):
        no_top = exchange_split(w(5, 1, 2, 1))
        assert no_top.alpha.letters == (1, 2, 1) and no_top.beta.letters == ()
        no_one = exchange_split(w(5, 4, 2, 3))
        assert no_one.alpha.letters == () and no_one.beta.letters == (4, 2, 3)

    def test_split_none_when_inadmissible(self):
        assert exchange_split(w(4, 1, 3, 1, 3)) is None

    def test_three_strand_split(self):
        # the two extreme indices 1 and 2 are distinct on three strands
        form = exchange_split(w(3, 1, 2))
        assert form.alpha.letters == (1,) and form.beta.letters == (2,)
        form = exchange_split(w(3, 2, -1, 1))
        assert form.alpha.letters == (-1, 1) and form.beta.letters == (2,)
        assert exchange_split(w(3, 1, 2, 1, 2)) is None
        assert admits_exchange(w(3, 1, 2, 1, 2)).admissible

    def test_two_strand_split(self):
        # the extreme indices coincide, so only the empty word splits
        assert exchange_split(BraidWord(2)).word().letters == ()
        assert exchange_split(w(2, 1)) is None

    @given(braid_words(min_strands=4, max_strands=6))
    def test_admissibility_rotation_invariant(self, word):
        base = bool(admits_exchange(word))
        for k in range(len(word.letters)):
            assert bool(admits_exchange(rotate(word, k))) == base

    @given(braid_words(min_strands=3, max_strands=6))
    def test_split_is_rotation_of_input(self, word):
        form = exchange_split(word)
        # a word splits exactly when each extreme index forms at most one
        # contiguous cyclic block, counted here independently
        n = word.strands
        pat = [abs(k) == 1 for k in word.letters if abs(k) in (1, n - 1)]
        boundaries = sum(pat[i] != pat[i - 1] for i in range(len(pat)))
        assert (form is not None) == (boundaries <= 2)
        if n >= 4:  # on 3 strands admissibility holds by convention
            assert (form is not None) == bool(admits_exchange(word))
        if form is None:
            return
        rejoined = form.word().letters
        rotations = {
            rotate(word, k).letters for k in range(max(1, len(word.letters)))
        }
        assert rejoined in rotations

    def test_form_validation(self):
        with pytest.raises(WordError):
            ExchangeForm(4, w(4, 3), BraidWord(4))
        with pytest.raises(WordError):
            ExchangeForm(4, BraidWord(4), w(4, 1))
        with pytest.raises(WordError, match="strand counts must match"):
            ExchangeForm(4, BraidWord(3), BraidWord(4))

    @pytest.mark.parametrize("n, strands", [(4.0, 4), (True, 1)], ids=["float", "bool"])
    def test_form_needs_an_int_strand_count(self, n, strands):
        # alpha.strands == n holds for 4 == 4.0 and 1 == True
        with pytest.raises(WordError, match=f"^strand count must be an int, got {n!r}$"):
            ExchangeForm(n, BraidWord(strands), BraidWord(strands))


class TestFamily:
    def test_m_zero(self):
        form = ExchangeForm(4, w(4, 1), w(4, 3))
        assert family_member(form, 0).letters == (1, 3)

    def test_m_one_spells_out_the_band(self):
        form = ExchangeForm(4, w(4, 1), w(4, 3))
        assert family_member(form, 1).letters == (1, 1, 2, 2, 1, 3, -1, -2, -2, -1)

    @given(exchange_forms(), st.integers(-4, 4))
    def test_family_is_the_composed_iterate(self, form, m):
        kappa = kappa_word(form.strands)
        twist = BraidWord(form.strands)
        for _ in range(abs(m)):
            twist = compose(twist, kappa if m > 0 else inverse(kappa))
        expected = compose(compose(form.alpha, twist), compose(form.beta, inverse(twist)))
        assert family_member(form, m) == expected

    @pytest.mark.parametrize("m", [1.5, 1.0, True, "1", None])
    def test_non_int_m_rejected(self, m):
        # True would build the m = 1 member
        form = ExchangeForm(4, w(4, 1), w(4, 3))
        with pytest.raises(WordError, match="m must be an int"):
            family_member(form, m)

    @pytest.mark.parametrize("bad", [w(3, 1), (1,), None], ids=["BraidWord", "tuple", "None"])
    def test_non_form_rejected(self, bad):
        with pytest.raises(WordError, match=f"^need an ExchangeForm, got {type(bad).__name__}$"):
            family_member(bad, 1)

    def test_family_needs_the_band_word(self):
        form = ExchangeForm(2, BraidWord(2), BraidWord(2))
        for m in (-1, 0, 1):
            with pytest.raises(WordError, match="band word needs n >= 3"):
                family_member(form, m)

    @given(exchange_forms(), st.integers(-3, 3))
    def test_family_permutation_independent_of_m(self, form, m):
        assert (
            permutation_of(family_member(form, m)).images
            == permutation_of(form.word()).images
        )


class TestCriterion:
    def test_corpus_word_applies(self):
        verdict = nonconjugacy_criterion(parse_word("-3 -3 -2 1 1 2 -1 3 -2", 4))
        assert verdict.applies and verdict

    def test_fixed_first_position(self):
        verdict = nonconjugacy_criterion(w(4, 2, 3, 2))
        assert not verdict.applies and "position 1" in verdict.reason
        assert not verdict  # a failed verdict is falsy

    def test_fixed_last_position(self):
        verdict = nonconjugacy_criterion(w(4, 1, 2))
        assert not verdict.applies and "position 4" in verdict.reason

    @pytest.mark.parametrize("word", [w(1), w(2, 1), w(2, 1, -1, 1), w(3, 1, 2), w(3, 1, -2, 1, -2)])
    def test_degenerate_strand_counts(self, word):
        # on 3 strands alpha commutes with kappa = s_1^2, so every family
        # member is conjugate to the seed; the criterion never applies
        verdict = nonconjugacy_criterion(word)
        assert not verdict.applies and verdict.reason == "exchange move is degenerate for n <= 3"


class TestCanonicalFamilies:
    def test_odd_knot_braid_word(self):
        form = canonical_odd_knot_braid(5)
        assert form.word().letters == (-1, -3, -2, -4)

    @pytest.mark.parametrize("n,writing,l", [(5, (4, 2, 1, 3, 5), 3), (7, (6, 4, 2, 1, 3, 5, 7), 4)])
    def test_odd_knot_braid_normalized_cycle(self, n, writing, l):
        dec = cycle_decomposition(
            permutation_of(canonical_odd_knot_braid(n).word()), normalized=True
        )
        assert dec.normalized == writing
        assert dec.one_index == l == (n - 1) // 2 + 1

    @pytest.mark.parametrize("n", (5, 7, 9, 11))
    def test_odd_knot_braid_passes_checks(self, n):
        form = canonical_odd_knot_braid(n)
        word = form.word()
        assert admits_exchange(word)
        assert nonconjugacy_criterion(word).applies

    def test_odd_knot_braid_rejects_even(self):
        with pytest.raises(WordError):
            canonical_odd_knot_braid(6)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: canonical_odd_knot_braid(5.0),
            lambda: canonical_odd_knot_braid(True),
            lambda: canonical_joint_cycle_braid(4.5),
            lambda: canonical_joint_cycle_braid(5.0),
            lambda: canonical_split_cycle_braid(2.0, 2),
            lambda: canonical_split_cycle_braid(2, True),
            lambda: canonical_odd_knot_braid("7"),
            lambda: canonical_joint_cycle_braid("6"),
        ],
    )
    def test_non_int_sizes_rejected(self, build):
        # a string size would escape as a TypeError from the comparison
        with pytest.raises(WordError, match="^(n|cycle length) must be an int, got "):
            build()

    def test_joint_cycle_braid_needs_four_strands(self):
        with pytest.raises(WordError, match="need n >= 4"):
            canonical_joint_cycle_braid(3)

    def test_split_cycle_braid_needs_two_strand_cycles(self):
        with pytest.raises(WordError, match="both cycle lengths must be >= 2"):
            canonical_split_cycle_braid(1, 3)

    def test_joint_cycle_braid_n4(self):
        form = canonical_joint_cycle_braid(4)
        assert form.word().letters == (1, 2, 3, -2)
        dec = cycle_decomposition(permutation_of(form.word()))
        assert (1, 4, 2) in dec.cycles and (3,) in dec.cycles

    def test_joint_cycle_braid_n6(self):
        dec = cycle_decomposition(permutation_of(canonical_joint_cycle_braid(6).word()))
        assert set(dec.cycles) == {(1, 6, 2), (3, 5, 4)}

    @pytest.mark.parametrize("n", (4, 5, 6, 7))
    def test_joint_cycle_strand_linkings_vanish(self, n):
        # the construction realizes the extra cycle with a word that never
        # touches strands 1, 2, n, so all auxiliary linkings are zero
        word = canonical_joint_cycle_braid(n).word()
        cycles = cycle_decomposition(permutation_of(word)).cycles
        main = next(c for c in cycles if 1 in c)
        others = [c for c in cycles if 1 not in c]
        for other in others:
            assert strand_linking(word, set(main), set(other)) == 0

    def test_split_cycle_braid(self):
        form = canonical_split_cycle_braid(2, 2)
        assert form.word().letters == (1, 3)
        assert set(cycle_decomposition(permutation_of(form.word())).cycles) == {
            (1, 2),
            (3, 4),
        }
        form32 = canonical_split_cycle_braid(3, 2)
        assert form32.word().letters == (1, 2, 4)

    @given(st.integers(2, 5), st.integers(2, 5))
    def test_split_cycle_lengths(self, n1, n2):
        word = canonical_split_cycle_braid(n1, n2).word()
        lengths = sorted(len(c) for c in cycle_decomposition(permutation_of(word)).cycles)
        assert lengths == sorted((n1, n2))


class TestParsing:
    def test_roundtrip(self):
        word = parse_word("-3 -3 -2 1 1 2 -1 3 -2", 4)
        assert str(word) == "-3 -3 -2 1 1 2 -1 3 -2"

    def test_position_reported(self):
        with pytest.raises(WordError, match="position 2"):
            parse_word("1 2 x", 4)
        with pytest.raises(WordError, match="position 1"):
            parse_word("1 5 1", 4)

    @pytest.mark.parametrize("tokens", [[1.9, 2], [1, 2.0], [True, 2], "1 2.0", [1, None]])
    def test_non_int_token_rejected(self, tokens):
        # int() would truncate a float token: [1.9, 2] would parse as 1 2
        with pytest.raises(WordError, match="is not an integer"):
            parse_word(tokens, 4)

    @pytest.mark.parametrize("text", [None, 5])
    def test_non_iterable_text_rejected(self, text):
        # list() would escape as a bare TypeError
        with pytest.raises(WordError, match=f"^tokens must be iterable, got {text!r}$"):
            parse_word(text, 4)

    def test_int_and_string_tokens_mix(self):
        assert parse_word([1, "-2", " 3 "], 4).letters == (1, -2, 3)


# Each record twice, built from separate but equal arguments.
RECORDS = {
    "BraidWord": lambda: BraidWord(3, (1, -2)),
    "Permutation": lambda: Permutation((2, 1, 3)),
    "CycleDecomposition": lambda: CycleDecomposition(((1, 3, 2),), (2, 1, 3), 2),
    "Admissibility": lambda: Admissibility(True),
    "CriterionVerdict": lambda: CriterionVerdict(False, "no exchange-move splitting"),
    "ExchangeForm": lambda: canonical_odd_knot_braid(5),
    "TruncatedPoly": lambda: TruncatedPoly(2, (1, 0, 1), 1),
    "CoefficientSequence": lambda: CoefficientSequence(-1, (-15, 5, -15)),
    "PolynomialFit": lambda: PolynomialFit((Fraction(1), Fraction(-1, 2))),
}


class TestRecords:
    """The immutable records keep the repr, equality, hashing and
    frozenness of value types."""

    def test_reprs(self):
        assert repr(w(3, 1, -2)) == "BraidWord(strands=3, letters=(1, -2))"
        assert repr(canonical_odd_knot_braid(5)) == (
            "ExchangeForm(strands=5, alpha=BraidWord(strands=5, letters=(-1,)), "
            "beta=BraidWord(strands=5, letters=(-3, -2, -4)))"
        )
        assert repr(TruncatedPoly(2, (1, 0, 1), 1)) == (
            "TruncatedPoly(max_degree=2, coeffs=(1, 0, 1), components=1)"
        )
        assert repr(cycle_decomposition(permutation_of(w(3, 1)))) == (
            "CycleDecomposition(cycles=((1, 2), (3,)), normalized=None, one_index=None)"
        )

    @pytest.mark.parametrize("make", RECORDS.values(), ids=RECORDS.keys())
    def test_equal_records_hash_alike(self, make):
        a, b = make(), make()
        assert a is not b and a == b and not a != b
        assert hash(a) == hash(b)
        assert a != object() and len({a, b}) == 1

    @pytest.mark.parametrize(
        "make",
        [
            lambda seq: BraidWord(3, seq((1, -2))),
            lambda seq: Permutation(seq((2, 1))),
            lambda seq: TruncatedPoly(1, seq((0, 1)), 2),
            lambda seq: CoefficientSequence(0, seq((1, 2))),
            lambda seq: PolynomialFit(seq((Fraction(1, 2),))),
        ],
        ids=["BraidWord", "Permutation", "TruncatedPoly", "CoefficientSequence", "PolynomialFit"],
    )
    def test_records_hold_tuples(self, make):
        # a record built from a list would differ from its tuple twin and
        # fail to hash
        a, b = make(list), make(tuple)
        assert a == b and hash(a) == hash(b)

    def test_equality_needs_the_same_class(self):
        assert Admissibility(True) != CriterionVerdict(True)
        assert w(3, 1) != w(4, 1) and w(3, 1) != w(3, -1)

    def test_report_compares_field_by_field(self):
        def report(passed):
            return ExperimentReport("dn", {"n": 5}, {}, {"sequence": [1]}, passed, ("a",))

        assert report(True) == report(True) and report(True) != report(False)
        with pytest.raises(TypeError):  # a dict field makes it unhashable
            hash(report(True))

    @pytest.mark.parametrize("make", RECORDS.values(), ids=RECORDS.keys())
    def test_fields_are_frozen(self, make):
        rec = make()
        name = next(iter(vars(rec)))
        with pytest.raises(AttributeError):
            setattr(rec, name, None)
        with pytest.raises(AttributeError):
            delattr(rec, name)
        with pytest.raises(AttributeError):
            rec.extra = 1
        assert make() == rec

    def test_diagram_is_frozen_and_compares_by_identity(self):
        d = closure_diagram(w(2, 1, 1))
        with pytest.raises(AttributeError):
            d.sign = (1, 1)
        with pytest.raises(AttributeError):
            del d.conn
        twin = LinkDiagram(d.conn, d.sign, d.free_loops, d.entries)
        assert d == d and d != twin and hash(d) != hash(twin)

    def test_keyword_construction(self):
        assert BraidWord(strands=3, letters=(1,)) == w(3, 1)
        assert BraidWord(strands=3) == BraidWord(3, ())
        assert ExchangeForm(strands=3, alpha=w(3, 1), beta=w(3, 2)) == ExchangeForm(3, w(3, 1), w(3, 2))
        assert CycleDecomposition(cycles=((1,),)) == CycleDecomposition(((1,),), None, None)
        assert CriterionVerdict(applies=True).reason is None
        assert TruncatedPoly(max_degree=0, coeffs=(1,), components=1) == TruncatedPoly(0, (1,), 1)
        assert CoefficientSequence(m_start=0, values=(1,)) == CoefficientSequence(0, (1,))
        assert PolynomialFit(coeffs=(Fraction(1),)).coefficient(0) == 1
        d = LinkDiagram(conn=(1, 0, 3, 2), sign=(1,))
        assert (d.free_loops, d.entries) == (0, None)
        r = ExperimentReport(experiment="x", parameters={}, expected={}, computed={}, passed=True)
        assert r.notes == ()
