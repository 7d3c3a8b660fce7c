"""Smallest high-probability sets of i.i.d. symbol blocks.

Exact companion to the asymptotic equipartition story. The probability of an
i.i.d. block depends only on its type (how often each symbol occurs), so the
greedy smallest set whose mass clears 1 - delta is built from the
C(m+K-1, K-1) type classes, each of multinomial size, rather than from the
K^m blocks (the method of types: Csiszar, IEEE Trans. IT 1998; Cover &
Thomas, ch. 11). All mass arithmetic is exact: every float pmf entry is an
integer over a common power-of-two denominator. Comparing log2(size)/m
against the source entropy shows the compression rate an optimal fixed set
achieves at small m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import DomainError, check_budget


@dataclass(frozen=True)
class SourceModel:
    """An i.i.d. source over K symbols given by its probability vector."""

    pmf: tuple[float, ...]

    def __post_init__(self):
        if len(self.pmf) < 1:
            raise DomainError("pmf must be non-empty")
        if not all(p >= 0.0 for p in self.pmf):  # also rejects NaN
            raise DomainError("pmf entries must be nonnegative")
        total = math.fsum(self.pmf)
        if abs(total - 1.0) > 1e-12:
            raise DomainError(f"pmf must sum to 1 within 1e-12, got {total!r}")

    @cached_property
    def entropy_bits(self) -> float:
        return -math.fsum(p * math.log2(p) for p in self.pmf if p > 0.0)


@dataclass(frozen=True)
class TypicalSetReport:
    m: int
    delta: float
    set_size: int
    mass: float
    rate: float  # log2(set_size) / m
    entropy_gap: float  # rate - source entropy


def _dyadic_numerators(pmf) -> tuple[list[int], int]:
    """Integers n_i and one power of two D with pmf[i] == n_i / D exactly."""
    ratios = [float(p).as_integer_ratio() for p in pmf]
    denom = max(den for _, den in ratios)
    return [num * (denom // den) for num, den in ratios], denom


def _types(m: int, k: int):
    """Every type of an m-block over k symbols (m >= 1) as its nonzero
    (symbol, count) pairs, in one list updated in place between yields.

    Successor: set aside the last symbol's count t, take one from the last
    nonzero count before it, and give t + 1 to the symbol after that one.
    """
    counts = [(0, m)]
    while True:
        yield counts
        t = counts.pop()[1] if counts[-1][0] == k - 1 else 0
        if not counts:
            return
        s, c = counts.pop()
        if c > 1:
            counts.append((s, c - 1))
        counts.append((s + 1, t + 1))


def smallest_high_mass_set(
    source: SourceModel, m: int, delta: float, budget: int = 10**7
) -> TypicalSetReport:
    """Exactly find the size of the smallest set of m-blocks with mass above
    1 - delta (greedy by probability, which is optimal).

    Types are taken in decreasing block probability; whole type classes join
    the set while the mass stays at or below 1 - delta, and the boundary type
    contributes just enough blocks to pass it. `mass` is the exact mass of
    the set, rounded once to float. The budget bounds max(K^m, m): the K^m
    blocks the set is chosen from, which the number of types never exceeds,
    and the block length m of each type, which exceeds K^m only at K = 1.
    K^m has at least m*floor(log2 K) bits, which check_budget compares first.
    """
    if m < 1:
        raise DomainError(f"m must be >= 1, got {m}")
    if not 0.0 < delta < 1.0:
        raise DomainError(f"delta must lie in (0,1), got {delta}")
    k = len(source.pmf)
    check_budget(
        lambda: f"enumerating {k}^{m} blocks of length {m} exceeds budget {budget}",
        budget,
        m * (k.bit_length() - 1),
        lambda: max(k**m, m),
    )
    nums, denom = _dyadic_numerators(source.pmf)
    target = Fraction(1.0 - delta)
    # Work in integers over one power-of-two denominator shared by the block
    # weights (denom^m) and the target.
    scale = max(denom**m, target.denominator)
    weight_scale = scale // denom**m
    target_num = target.numerator * (scale // target.denominator)
    types = []
    # Each count c of a symbol s multiplies the type's weight by n_s^c and its
    # class size by comb(positions left, c), which gives the multinomial
    # m! / prod(c_s!).
    for counts in _types(m, k):
        weight = weight_scale
        count = 1
        left = m
        for s, c in counts:
            weight *= nums[s] ** c
            count *= math.comb(left, c)
            left -= c
        types.append((weight, count))
    types.sort(key=lambda wc: wc[0], reverse=True)

    cum = 0
    size = 0
    for weight, count in types:
        if cum + count * weight > target_num:
            # weight > 0 here, since cum <= target_num.
            take = (target_num - cum) // weight + 1
            size += take
            cum += take * weight
            break
        size += count
        cum += count * weight
    mass = cum / scale
    rate = math.log2(size) / m
    return TypicalSetReport(
        m=m,
        delta=delta,
        set_size=size,
        mass=mass,
        rate=rate,
        entropy_gap=rate - source.entropy_bits,
    )


def check_source_coding(report: TypicalSetReport, epsilon: float) -> bool:
    """Does the found set witness rate within epsilon of entropy at mass
    above 1 - delta?"""
    return report.entropy_gap < epsilon and report.mass > 1.0 - report.delta
