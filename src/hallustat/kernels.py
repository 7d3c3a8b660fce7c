"""Hot array kernel, in numpy: the coded trial path's sampling
(sample_codes).

Strings appear here only as int64 shortlex codes. Code layout for alphabet
size q: base[L] = number of strings shorter than L, code = base[L] + offset
with offset in [0, q^L). Callers guarantee all codes fit below 2^62.

The coded trials (evaluation._fast_trial) run as a batch and call
sample_codes once per chunk for the whole batch. Each trial keeps only its
draws of length <= n̄ at levels whose strings are not all seen yet, from its
lowest such level up, and leaves the batch once no draw can add to its row
of the seen-table; a row has count_upto(n̄) < 1.45*m entries for n̄ >= 1.
Each trial reads the uniforms from its own PCG64 stream by position, chunk
by chunk, and skips the blocks it does not use. No evaluation samples are
drawn: a trial's HP is a closed-form sum over its row's count per length.

sample_codes finds each draw's length by counting the table edges at or
below its u_len, starting from the batch's lowest open level: one pass
over the draws per open level, which on tables this short costs less than
a binary search per draw.
"""

from __future__ import annotations

import numpy as np


def sample_codes(u_len, u_off, cum, base, pow_f, pow_i, low=0):
    """Decode uniform pairs into (codes, lengths).

    u_len picks the length by inverse CDF on the nondecreasing table cum:
    the first index with cum > u, which is np.searchsorted(cum, u_len,
    side="right"). Every u_len must lie below cum[-1], and at or above
    cum[low - 1] when low > 0, so each length is low plus the count of the
    edges cum[low:-1] at or below it. A caller may pass a prefix
    cum[:top+1] when every u_len < cum[top]; the lengths, and so the codes,
    are the same as on the whole table. u_off picks the offset as
    floor(u * q^L), clamped into range.
    """
    lengths = np.full(len(u_len), low, dtype=np.int64)
    for edge in cum[low:-1].tolist():
        lengths += u_len >= edge
    offs = (u_off * pow_f[lengths]).astype(np.int64)
    offs = np.minimum(offs, pow_i[lengths] - 1)
    return base[lengths] + offs, lengths
