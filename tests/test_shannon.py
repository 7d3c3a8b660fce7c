import itertools
import math
import tracemalloc

import numpy as np
import pytest

from hallustat.errors import BudgetExceeded, DomainError
from hallustat.shannon import (
    SourceModel,
    check_source_coding,
    smallest_high_mass_set,
)

from helpers import product_probs


def test_source_validation():
    with pytest.raises(DomainError):
        SourceModel(())
    with pytest.raises(DomainError):
        SourceModel((0.5, 0.6))
    with pytest.raises(DomainError):
        SourceModel((-0.1, 1.1))
    SourceModel((0.25, 0.25, 0.25, 0.25))


def test_source_rejects_nan_entry():
    # NaN passes both "p < 0" and the sum check, and has no integer ratio
    with pytest.raises(DomainError):
        SourceModel((float("nan"), 1.0))


def test_entropy_values():
    assert SourceModel((0.5, 0.5)).entropy_bits == 1.0
    assert SourceModel((1.0, 0.0)).entropy_bits == 0.0  # zero atoms contribute nothing
    b = SourceModel((0.9, 0.1))
    expected = -(0.9 * math.log2(0.9) + 0.1 * math.log2(0.1))
    assert b.entropy_bits == pytest.approx(expected, rel=1e-15)
    assert SourceModel((0.25,) * 4).entropy_bits == 2.0


def test_uniform_binary_small_block():
    # need mass > 0.8 out of 8 equal blocks: 7 of them
    r = smallest_high_mass_set(SourceModel((0.5, 0.5)), 3, 0.2)
    assert r.set_size == 7
    assert r.mass == 0.875
    assert r.rate == pytest.approx(math.log2(7) / 3)
    assert r.entropy_gap == pytest.approx(math.log2(7) / 3 - 1.0)


def test_biased_source_compresses():
    r = smallest_high_mass_set(SourceModel((0.9, 0.1)), 20, 0.1)
    assert r.set_size == 3130  # far below 2^20
    assert r.mass > 0.9
    assert r.entropy_gap == pytest.approx(0.11160175350171775, abs=1e-12)
    assert check_source_coding(r, 0.2)
    assert not check_source_coding(r, 0.1)


def test_greedy_set_is_optimal_brute():
    src = SourceModel((0.6, 0.3, 0.1))
    m = 2
    r = smallest_high_mass_set(src, m, 0.25)
    probs = [
        src.pmf[a] * src.pmf[b] for a, b in itertools.product(range(3), repeat=m)
    ]
    # no subset of fewer blocks reaches the mass target
    for size in range(r.set_size):
        best = sum(sorted(probs, reverse=True)[:size])
        assert best <= 1 - 0.25 + 1e-12
    assert r.mass > 1 - 0.25


def test_set_size_monotone_in_delta():
    src = SourceModel((0.7, 0.2, 0.1))
    sizes = [smallest_high_mass_set(src, 5, d).set_size
             for d in (0.05, 0.1, 0.2, 0.4, 0.6)]
    assert sizes == sorted(sizes, reverse=True)


def test_domain_errors():
    src = SourceModel((0.5, 0.5))
    with pytest.raises(DomainError):
        smallest_high_mass_set(src, 0, 0.1)
    with pytest.raises(DomainError):
        smallest_high_mass_set(src, 3, 0.0)
    with pytest.raises(DomainError):
        smallest_high_mass_set(src, 3, 1.0)


def test_budget_guard():
    src = SourceModel((0.9, 0.1))
    with pytest.raises(BudgetExceeded) as err:
        smallest_high_mass_set(src, 25, 0.1)  # 2^25 > 10^7
    assert err.value.required == 2**25
    # 2^20000 has more digits than int-to-str conversion allows
    with pytest.raises(BudgetExceeded) as err:
        smallest_high_mass_set(src, 20_000, 0.1)
    assert err.value.required == 2**20_000
    # 1^m = 1 block, but its one type is a length-m tuple: m is bounded too
    one = SourceModel((1.0,))
    with pytest.raises(BudgetExceeded) as err:
        smallest_high_mass_set(one, 10**8, 0.1)
    assert err.value.required == 10**8
    with pytest.raises(BudgetExceeded) as err:
        smallest_high_mass_set(one, 11, 0.1, budget=10)
    assert err.value.required == 11
    assert smallest_high_mass_set(one, 10, 0.1, budget=10).set_size == 1


def test_budget_rejects_huge_block_counts_without_forming_them():
    # 3^(10^6) has about 1.6 million bits; the bit-length bound rejects it
    with pytest.raises(BudgetExceeded) as err:
        smallest_high_mass_set(SourceModel((0.5, 0.3, 0.2)), 10**6, 0.1)
    assert err.value.required is None


def test_single_symbol_source():
    r = smallest_high_mass_set(SourceModel((1.0,)), 4, 0.5)
    assert r.set_size == 1
    assert r.mass == 1.0
    assert r.rate == 0.0


def test_single_symbol_long_block_holds_counts_not_blocks():
    # one type of length 10^7: its count vector, not a 10^7-entry block
    tracemalloc.start()
    try:
        r = smallest_high_mass_set(SourceModel((1.0,)), 10**7, 0.1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert r.set_size == 1
    assert peak < 2**21


def _brute_force_set(pmf, m, delta):
    """Reference: every K^m block's float probability, sorted, float cumsum."""
    probs = product_probs(np.asarray(pmf, dtype=np.float64), m)
    cumulative = np.cumsum(probs[np.argsort(-probs, kind="stable")])
    idx = min(int(np.searchsorted(cumulative, 1.0 - delta, side="right")), probs.size - 1)
    return idx + 1, float(cumulative[idx])


@pytest.mark.parametrize(
    "pmf, max_m",
    [
        ((1.0,), 12),
        ((0.5, 0.5), 12),  # uniform: every block ties
        ((0.9, 0.1), 12),
        ((0.7, 0.0, 0.3), 10),  # a zero-probability symbol
        ((1 / 3, 1 / 3, 1 / 3), 10),
        ((0.6, 0.3, 0.1), 10),
        ((0.25, 0.25, 0.25, 0.25), 8),
        ((0.4, 0.3, 0.2, 0.1), 8),
    ],
)
def test_type_classes_match_block_enumeration(pmf, max_m):
    # Each 1 - delta lies off the sums of these block masses. Where a prefix
    # mass equals 1 - delta in exact arithmetic (0.4 + 0.3 against 1 - 0.3),
    # the reference's float cumsum may land on either side of it.
    src = SourceModel(pmf)
    for m in range(1, max_m + 1):
        for delta in (0.013, 0.047, 0.11, 0.29, 0.53, 0.87):
            r = smallest_high_mass_set(src, m, delta)
            size, mass = _brute_force_set(pmf, m, delta)
            assert r.set_size == size, (pmf, m, delta)
            assert abs(r.mass - mass) <= 1e-12, (pmf, m, delta)


def test_large_alphabet_single_symbol_blocks():
    # types come from an iterator, not recursion, so K = 1000 is fine
    r = smallest_high_mass_set(SourceModel((0.001,) * 1000), 1, 0.4995)
    assert r.set_size == 501
    assert r.mass == pytest.approx(0.501, abs=1e-12)
