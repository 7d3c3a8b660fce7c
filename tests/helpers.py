"""Shared constructors and brute-force references for the tests."""

from fractions import Fraction

import numpy as np

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
