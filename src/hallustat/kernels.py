"""Hot array kernels with numba and pure-numpy twins.

The numba path is used when numba imports cleanly and the environment
variable HALLUSTAT_DISABLE_NUMBA is unset (or "0"); otherwise the numpy
twin runs. Both twins perform the same floating point operations in the
same order, so their outputs are bitwise identical; benchmarks/bench_kernels.py
measures both and asserts agreement. product_probs is no longer called by
the library (shannon works on type classes, not on all K^m blocks): its
numpy form is the brute-force reference the tests check shannon against,
and its numba twin is kept only for the agreement check.

Strings appear here only as int64 shortlex codes. Code layout for alphabet
size q: base[L] = number of strings shorter than L, code = base[L] + offset
with offset in [0, q^L). Callers guarantee all codes fit below 2^62.
"""

from __future__ import annotations

import os

import numpy as np

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba installed
    HAVE_NUMBA = False


def numba_enabled() -> bool:
    if not HAVE_NUMBA:
        return False
    return os.environ.get("HALLUSTAT_DISABLE_NUMBA", "0") in ("", "0")


def sample_codes_np(u_len, u_off, cum, base, pow_f, pow_i):
    """Decode uniform pairs into (codes, lengths).

    u_len picks the length by inverse CDF on cum (first index with
    cum > u); u_off picks the offset as floor(u * q^L), clamped into range.
    """
    lengths = np.searchsorted(cum, u_len, side="right").astype(np.int64)
    offs = (u_off * pow_f[lengths]).astype(np.int64)
    offs = np.minimum(offs, pow_i[lengths] - 1)
    return base[lengths] + offs, lengths


def count_misses_np(codes, keys_sorted, empty_mode):
    """Hallucination count for a memorizer on coded draws.

    A draw hallucinates iff its code is absent from keys_sorted and the
    default (empty) output is unacceptable for it: empty_mode 0 accepts the
    empty output only on code 0, mode 1 never, mode 2 always.
    """
    if empty_mode == 2:
        return 0
    if keys_sorted.size == 0:
        miss = np.ones(codes.size, dtype=bool)
    else:
        pos = np.searchsorted(keys_sorted, codes)
        pos_c = np.minimum(pos, keys_sorted.size - 1)
        miss = keys_sorted[pos_c] != codes
    if empty_mode == 0:
        miss &= codes != 0
    return int(np.count_nonzero(miss))


def product_probs_np(pmf, m):
    """Probabilities of all len(pmf)^m symbol sequences, lexicographic order."""
    out = pmf.astype(np.float64).copy()
    for _ in range(m - 1):
        out = np.multiply.outer(out, pmf).ravel()
    return out


if HAVE_NUMBA:

    @njit(cache=True)
    def _sample_codes_nb(u_len, u_off, cum, base, pow_f, pow_i):
        n = u_len.shape[0]
        codes = np.empty(n, np.int64)
        lengths = np.empty(n, np.int64)
        for i in range(n):
            u = u_len[i]
            lo = 0
            hi = cum.shape[0]
            while lo < hi:
                mid = (lo + hi) // 2
                if cum[mid] > u:
                    hi = mid
                else:
                    lo = mid + 1
            level = lo
            off = np.int64(u_off[i] * pow_f[level])
            cap = pow_i[level] - 1
            if off > cap:
                off = cap
            codes[i] = base[level] + off
            lengths[i] = level
        return codes, lengths

    @njit(cache=True)
    def _count_misses_nb(codes, keys_sorted, empty_mode):
        if empty_mode == 2:
            return 0
        total = 0
        k = keys_sorted.shape[0]
        for i in range(codes.shape[0]):
            c = codes[i]
            if empty_mode == 0 and c == 0:
                continue
            lo = 0
            hi = k
            while lo < hi:
                mid = (lo + hi) // 2
                if keys_sorted[mid] < c:
                    lo = mid + 1
                else:
                    hi = mid
            if lo < k and keys_sorted[lo] == c:
                continue
            total += 1
        return total

    @njit(cache=True)
    def _product_probs_nb(pmf, m):
        k = pmf.shape[0]
        total = 1
        for _ in range(m):
            total *= k
        out = np.empty(total, np.float64)
        # Multiply most-significant digit first: the same association order
        # as repeated outer products, so both twins agree bitwise.
        for i in range(total):
            rem = i
            div = total // k
            acc = pmf[rem // div]
            rem = rem % div
            while div > 1:
                div //= k
                acc = acc * pmf[rem // div]
                rem = rem % div
            out[i] = acc
        return out


def sample_codes(u_len, u_off, cum, base, pow_f, pow_i):
    if numba_enabled():
        return _sample_codes_nb(u_len, u_off, cum, base, pow_f, pow_i)
    return sample_codes_np(u_len, u_off, cum, base, pow_f, pow_i)


def count_misses(codes, keys_sorted, empty_mode):
    if numba_enabled():
        return _count_misses_nb(codes, keys_sorted, np.int64(empty_mode))
    return count_misses_np(codes, keys_sorted, empty_mode)


def product_probs(pmf, m):
    # The numba twin exists (and agrees bitwise) but loses to the vectorized
    # outer products by an order of magnitude, so dispatch ignores it here;
    # see benchmarks/bench_kernels.py.
    return product_probs_np(pmf, m)
