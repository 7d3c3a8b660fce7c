import itertools

import numpy as np
import pytest

from hallustat import kernels

from helpers import product_probs


def _layout(q, top):
    # base/pow tables for lengths 0..top
    pow_i = np.array([q**n for n in range(top + 1)], dtype=np.int64)
    base = np.concatenate(([0], np.cumsum(pow_i)[:-1])).astype(np.int64)
    return base, pow_i.astype(np.float64), pow_i


def test_sample_codes_np_decodes_lengths_and_offsets():
    base, pow_f, pow_i = _layout(2, 3)
    cum = np.array([0.5, 0.75, 0.875, 1.0])
    u_len = np.array([0.0, 0.49, 0.5, 0.74, 0.875, 0.999])
    u_off = np.array([0.0, 0.99, 0.0, 0.99, 0.5, 0.999])
    codes, lengths = kernels.sample_codes(u_len, u_off, cum, base, pow_f, pow_i)
    assert lengths.tolist() == [0, 0, 1, 1, 3, 3]
    assert codes.tolist() == [0, 0, 1, 2, 7 + 4, 7 + 7]


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("cum", [
    (0.5, 0.75, 0.875, 0.9375, 1.0),
    (0.25, 0.25, 0.625, 0.625, 0.9, 1.0),  # levels 1 and 3 have no mass
], ids=["geometric", "repeated-edges"])
def test_sample_codes_lengths_equal_searchsorted_from_every_low(q, cum):
    # On the whole table and on each prefix cum[:top+1], for every low <= top:
    # u at 0.0, exactly at each edge, and just below each edge, keeping the u
    # in [cum[low - 1], cum[top]) that the caller may pass.
    cum = np.array(cum)
    edges = np.concatenate(([0.0], cum, np.nextafter(cum, 0)))
    for top in range(1, len(cum)):
        table = cum[:top + 1]
        base, pow_f, pow_i = _layout(q, top)
        for low in range(top + 1):
            floor = table[low - 1] if low else 0.0
            u_len = np.unique(edges[(floor <= edges) & (edges < table[top])])
            u_off = np.linspace(0.0, 1.0, len(u_len), endpoint=False)
            codes, lengths = kernels.sample_codes(u_len, u_off, table, base, pow_f, pow_i, low)
            expected = np.searchsorted(table, u_len, side="right")
            assert lengths.tolist() == expected.tolist()
            offsets = np.minimum((u_off * pow_f[expected]).astype(np.int64),
                                 pow_i[expected] - 1)
            assert codes.tolist() == (base[expected] + offsets).tolist()
            assert lengths.dtype == codes.dtype == np.int64


def test_product_probs_np_brute():
    pmf = np.array([0.5, 0.3, 0.2])
    got = product_probs(pmf, 3)
    brute = [
        pmf[a] * pmf[b] * pmf[c]
        for a, b, c in itertools.product(range(3), repeat=3)
    ]
    assert got.tolist() == pytest.approx(brute, abs=0)
    assert got.shape == (27,)


def test_product_probs_m1():
    pmf = np.array([0.9, 0.1])
    assert product_probs(pmf, 1).tolist() == [0.9, 0.1]
