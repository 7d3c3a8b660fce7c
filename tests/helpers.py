"""Shared constructors and brute-force references for the tests."""

from fractions import Fraction

import numpy as np

from hallustat.core import Str
from hallustat.measures import FiniteSupport


def uniform_support(members) -> FiniteSupport:
    """The uniform law over distinct strings: every atom has mass 1/k."""
    members = tuple(members)
    return FiniteSupport(tuple((s, Fraction(1, len(members))) for s in members))


def product_probs(pmf, m):
    """Probabilities of all len(pmf)^m symbol sequences, lexicographic order."""
    out = pmf.astype(np.float64).copy()
    for _ in range(m - 1):
        out = np.multiply.outer(out, pmf).ravel()
    return out


def sample_batch_per_draw(dist, rng, size):
    """Reference for LengthFactored.sample_batch: the same two uniform arrays,
    decoded one draw at a time in Python ints, one new Str per draw."""
    u_len = rng.random(size)
    u_off = rng.random(size)
    lengths = np.searchsorted(dist._sampling_cum, u_len, side="right")
    q = dist.alphabet.size
    out = []
    for i in range(size):
        n = int(lengths[i])
        level = q**n
        if level < 2**62:
            off = int(u_off[i] * float(level))
        else:
            off = int(Fraction(float(u_off[i])) * level)
        off = min(off, level - 1)
        syms = [0] * n
        for j in range(n - 1, -1, -1):
            off, syms[j] = divmod(off, q)
        out.append(Str(dist.alphabet, tuple(syms)))
    return out
