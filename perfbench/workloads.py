"""Seeded inputs for the benchmark workloads, in plain Python.

Nothing here imports braidax: the generators build braid words as lists of
signed generator indices, and the closed-form targets are transcribed from
the paper, so a change to the library cannot change what it is checked
against.  The same seed always gives the same groups in the same order.

A group is a JSON-able dict with a ``label`` and a ``kind``:

* ``dn``: braidax's ``squared_family_check(n)``; its second difference of a_3
  must equal ``target``.
* ``prop25``: ``progression_check`` on the seeded knot-closing exchange form
  ``alpha``/``beta``; the |step| of a_3 must equal ``target``, |n+1-2l|.
* ``eq54``: ``joint_cycle_check(n)``; the quadratic coefficient of a_4 must
  equal ``target``.
* ``lemma64``: ``two_cycle_check(n1, n2)``; the quadratic sum of the family
  and its mirror must equal ``target``.
* ``twocycle``: ``axis_sequence`` of a_4 over the seeded two-component form
  ``alpha``/``beta``, which ``fit_polynomial`` must find cubic-free.
* ``oracle``: one braid whose closure gets the full Conway polynomial,
  compared against the Burau-side Alexander polynomial.
"""

from __future__ import annotations

import random

WORKLOADS = ("a3_axis", "a4_families", "oracle")

# m windows of the families (the experiments' defaults, except prop25, whose
# three samples give the two first differences the law needs).
A3_MS = range(-1, 2)
EQ54_MS = range(-1, 3)
LEMMA64_MS = range(-2, 3)
TWOCYCLE_MS = range(-2, 3)

# Random exchange forms: strand counts, and forms per strand count.
A3_STRANDS = range(4, 10)
A3_FORMS_PER_N = 8
A4_STRANDS = (4,)
A4_FORMS_PER_N = 12
# Oracle braids stay within 5 letters.  The sympy determinant's cost varies
# several-fold between words of one size, and more with the size: over five
# seeds, 100 braids of up to 10 letters gave pass times with a quartile
# spread of 51% of their median, 1200 braids of up to 5 letters 9% (raw
# wall time in both).
ORACLE_BRAIDS = 1200
ORACLE_MAX_STRANDS = 6
ORACLE_MAX_LETTERS = 5


# ---------------------------------------------------------------------------
# permutations (same conventions as braidax.words.permutation_of)


def permutation(n: int, letters) -> tuple[int, ...]:
    """images[j-1] = bottom position of the strand starting at top position j."""
    at = list(range(n))  # at[p] = strand currently at position p
    for k in letters:
        i = abs(k) - 1
        at[i], at[i + 1] = at[i + 1], at[i]
    images = [0] * n
    for p, strand in enumerate(at):
        images[strand] = p + 1
    return tuple(images)


def cycles(images) -> list[tuple[int, ...]]:
    """Disjoint cycles, each starting from its smallest element."""
    seen = set()
    out = []
    for start in range(1, len(images) + 1):
        if start in seen:
            continue
        cyc = [start]
        seen.add(start)
        k = images[start - 1]
        while k != start:
            cyc.append(k)
            seen.add(k)
            k = images[k - 1]
        out.append(tuple(cyc))
    return out


def one_position(images) -> int:
    """Position l of the entry 1 in the n-cycle written to end on n."""
    n = len(images)
    writing = []
    k = images[n - 1]
    while k != n:
        writing.append(k)
        k = images[k - 1]
    writing.append(n)
    return writing.index(1) + 1


# ---------------------------------------------------------------------------
# closed forms


def second_difference_target(n: int) -> int:
    """a_3 second difference over the squared odd-strand canonical family."""
    if n % 4 == 1:
        k = (n - 5) // 4
        return -40 - 72 * k - 32 * k * k
    k = (n - 7) // 4
    return 56 + 88 * k + 32 * k * k


def joint_cycle_target(n: int) -> int:
    """Quadratic coefficient of a_4 over the squared joint-cycle family."""
    if n % 2 == 0:
        k = (n - 4) // 2
        return 2 * (2 * k + 1) ** 2
    k = (n - 5) // 2
    return 2 * (k + 1) ** 2


def mirror_quadratic_sum_target(n1: int, n2: int) -> int:
    return 2 * (n1 - 1) * (n2 - 1)


# ---------------------------------------------------------------------------
# workloads


def random_form(rng: random.Random, n: int, ncycles: int):
    """Exchange form on n strands whose closure has ``ncycles`` components.

    alpha draws from generators 1..n-2 and beta from 2..n-1, so the word is
    exchange-admissible by construction.  The word length is fixed per n and
    has the parity the cycle count needs (an n-cycle is a product of n-1
    transpositions, two cycles of n-2), and no letter is followed by its
    inverse, cyclically, so the diagram sizes vary little with the seed.
    """
    length = n + 2 - ncycles
    la = (length + 1) // 2
    lb = length - la
    while True:
        alpha = [rng.choice((1, -1)) * rng.randint(1, n - 2) for _ in range(la)]
        beta = [rng.choice((1, -1)) * rng.randint(2, n - 1) for _ in range(lb)]
        word = alpha + beta
        reduced = all(word[i] != -word[i - 1] for i in range(length))
        if reduced and len(cycles(permutation(n, word))) == ncycles:
            return alpha, beta


def a3_axis(rng: random.Random) -> list[dict]:
    """a_3 on large axis links: squared dn families and knot progressions."""
    groups = [
        {"label": f"dn/{n}", "kind": "dn", "n": n, "target": second_difference_target(n)}
        for n in (5, 7, 9, 11, 13)
    ]
    for n in A3_STRANDS:
        for r in range(A3_FORMS_PER_N):
            alpha, beta = random_form(rng, n, 1)
            step = abs(n + 1 - 2 * one_position(permutation(n, alpha + beta)))
            groups.append({"label": f"prop25/{n}.{r}", "kind": "prop25", "strands": n,
                           "alpha": alpha, "beta": beta, "target": step})
    return groups


def a4_families(rng: random.Random) -> list[dict]:
    """a_4 over many small diagrams: eq54, lemma64 and random two-cycle forms."""
    groups = [
        {"label": f"eq54/{n}", "kind": "eq54", "n": n, "target": joint_cycle_target(n)}
        for n in (4, 5, 6, 7)
    ]
    for n1, n2 in ((2, 2), (2, 3), (3, 3)):
        groups.append({"label": f"lemma64/{n1},{n2}", "kind": "lemma64", "n1": n1, "n2": n2,
                       "target": mirror_quadratic_sum_target(n1, n2)})
    for n in A4_STRANDS:
        for r in range(A4_FORMS_PER_N):
            alpha, beta = random_form(rng, n, 2)
            groups.append({"label": f"twocycle/{n}.{r}", "kind": "twocycle", "strands": n,
                           "alpha": alpha, "beta": beta})
    return groups


def oracle(rng: random.Random) -> list[dict]:
    """Full Conway polynomials of small closures, each checked against Burau.

    Strand and letter counts are spread evenly over 2..6 and 0..5 so that
    every seed draws the same mix of sizes; the letters are random.
    """
    groups = []
    for i in range(ORACLE_BRAIDS):
        n = 2 + i % (ORACLE_MAX_STRANDS - 1)
        length = (i // (ORACLE_MAX_STRANDS - 1)) % (ORACLE_MAX_LETTERS + 1)
        letters = [rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(length)]
        groups.append({"label": f"braid/{i}", "kind": "oracle", "strands": n,
                       "letters": letters})
    return groups


GENERATORS = {"a3_axis": a3_axis, "a4_families": a4_families, "oracle": oracle}


def generate(workload: str, seed: int) -> list[dict]:
    """The workload's groups for this seed, in a seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    groups = GENERATORS[workload](rng)
    rng.shuffle(groups)
    return groups


def evaluations(group: dict) -> int:
    """Coefficient evaluations one group costs."""
    kind = group["kind"]
    if kind == "oracle":
        return 1
    if kind in ("dn", "prop25"):
        return len(A3_MS)
    if kind == "eq54":  # odd n evaluates both deletion choices
        return len(EQ54_MS) * (1 if group["n"] % 2 == 0 else 2)
    if kind == "lemma64":  # the family and its mirror
        return 2 * len(LEMMA64_MS)
    return len(TWOCYCLE_MS)
