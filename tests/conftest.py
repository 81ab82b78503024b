import itertools
import random
from types import SimpleNamespace

import hypothesis
import pytest
from hypothesis import assume
from hypothesis import strategies as st

from braidax import (
    BraidWord,
    ExchangeForm,
    LaurentPoly,
    SkeinEngine,
    cycle_decomposition,
    permutation_of,
)
from braidax.burau import _ZERO
from braidax.kernels import get_kernels

# the skein engine's run time varies a lot between examples; no deadlines
hypothesis.settings.register_profile(
    "braidax", deadline=None, max_examples=60, derandomize=True
)
hypothesis.settings.load_profile("braidax")


@st.composite
def braid_words(draw, min_strands=2, max_strands=6, max_letters=12, min_letters=0):
    n = draw(st.integers(min_strands, max_strands))
    letters = draw(
        st.lists(
            st.integers(-(n - 1), n - 1).filter(lambda k: k != 0),
            min_size=min_letters,
            max_size=max_letters,
        )
    )
    return BraidWord(n, tuple(letters))


@st.composite
def exchange_forms(draw, min_strands=4, max_strands=6, max_letters=5, max_cycles=None):
    """Forms whose closure has at most ``max_cycles`` components, if given:
    every family member has the permutation of the form's word."""
    n = draw(st.integers(min_strands, max_strands))
    alpha = draw(
        st.lists(
            st.integers(-(n - 2), n - 2).filter(lambda k: k != 0),
            max_size=max_letters,
        )
    )
    beta = draw(
        st.lists(
            st.integers(2, n - 1).flatmap(lambda i: st.sampled_from([i, -i])),
            max_size=max_letters,
        )
    )
    form = ExchangeForm(n, BraidWord(n, tuple(alpha)), BraidWord(n, tuple(beta)))
    if max_cycles is not None:
        assume(cycle_decomposition(permutation_of(form.word())).count <= max_cycles)
    return form


def laurent_polys(max_terms=30):
    """Trimmed integer Laurent polynomials: zero, units +-t^k, and up to
    ``max_terms`` coefficients from a lowest exponent in -8..8, with internal
    zeros."""
    coeffs = st.lists(st.one_of(st.just(0), st.integers(-3, 3), st.integers(-10**6, 10**6)),
                      max_size=max_terms)
    return st.one_of(
        st.just(_ZERO),
        st.builds(LaurentPoly, st.integers(-8, 8), st.sampled_from([(1,), (-1,)])),
        st.builds(LaurentPoly._trimmed, st.integers(-8, 8), coeffs),
    )


@pytest.fixture(scope="session")
def engine():
    """One memoized engine shared across a test session."""
    return SkeinEngine()


class CountingKernels(SimpleNamespace):
    """The kernels, with every call counted by name."""

    def __init__(self):
        super().__init__(calls={})
        for name, f in vars(get_kernels()).items():
            if callable(f):
                setattr(self, name, self._counted(name, f))

    def _counted(self, name, f):
        def run(*args):
            self.calls[name] = self.calls.get(name, 0) + 1
            return f(*args)

        return run


class ShuffledStartsKernels(SimpleNamespace):
    """The kernels, with the basepoints of every trace permuted: the
    components in a seeded random order, each started from a seeded random
    in-port of its own.  Coefficients must not depend on the basepoints."""

    def __init__(self, seed):
        super().__init__(**vars(get_kernels()))
        rng = random.Random(seed)
        trace = self.trace_inports

        def trace_inports(conn):
            labels, ncomp, _ = trace(conn)
            ports = [[] for _ in range(ncomp)]
            for q in range(0, len(labels), 2):
                ports[labels[q]].append(q)
            order = list(range(ncomp))
            rng.shuffle(order)
            return labels, ncomp, [rng.choice(ports[j]) for j in order]

        self.trace_inports = trace_inports


def spanning_tree_sum_enumerate(rows):
    """Sum over the labeled trees on the rows' indices (Pruefer sequences)
    of the products of their edge weights ``rows[i][j]``: the reference that
    ``hoste_lowest``'s Laplacian cofactor is compared against."""
    p = len(rows)
    total = 0
    for seq in itertools.product(range(p), repeat=max(p - 2, 0)):
        avail = [1] * p
        for s in seq:
            avail[s] += 1
        prod = 1
        for s in seq:
            leaf = min(v for v in range(p) if avail[v] == 1)
            prod *= rows[leaf][s]
            avail[leaf] -= 1
            avail[s] -= 1
        if p >= 2:
            u, v = (x for x in range(p) if avail[x] == 1)
            prod *= rows[u][v]
        total += prod
    return total
