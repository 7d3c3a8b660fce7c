"""Hot array kernels, in numpy: the coded trial path's sampling
(sample_codes) and miss counting (count_misses).

Strings appear here only as int64 shortlex codes. Code layout for alphabet
size q: base[L] = number of strings shorter than L, code = base[L] + offset
with offset in [0, q^L). Callers guarantee all codes fit below 2^62.
"""

from __future__ import annotations

import numpy as np


def sample_codes(u_len, u_off, cum, base, pow_f, pow_i):
    """Decode uniform pairs into (codes, lengths).

    u_len picks the length by inverse CDF on cum (first index with
    cum > u); u_off picks the offset as floor(u * q^L), clamped into range.
    """
    lengths = np.searchsorted(cum, u_len, side="right").astype(np.int64)
    offs = (u_off * pow_f[lengths]).astype(np.int64)
    offs = np.minimum(offs, pow_i[lengths] - 1)
    return base[lengths] + offs, lengths


def count_misses(codes, keys_sorted, empty_mode):
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
