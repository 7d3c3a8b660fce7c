"""Independent random streams, one per unit of work under a master seed.

The stream of a branch (a tuple of ints >= 0) is the PCG64 Generator that
np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=branch))
returns, with an equal bit_generator state. derive_streams derives the
streams of many branches that differ in their last int in one pass. It
follows SeedSequence's documented algorithm in uint32 arithmetic: the
entropy words (the seed's, padded to the pool size when there is a spawn
key, then each branch int's) are hashed into a pool of four words, every
pool word is mixed into every other, and each further word is mixed into
every pool word; generate_state(4, uint64) then hashes the pool into the
eight words that seed PCG64 (O'Neill 2014). The words shared by a batch are
mixed once in Python ints, the varying ones for the whole batch in one numpy
pass. A stream's bit_generator.seed_seq holds only its four seed words: it
is not a numpy SeedSequence and cannot spawn.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import check_int

# SeedSequence's pool of four words and the constants of its hashmix, mix
# and generate_state.
_POOL = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hash_consts(h: int, count: int, mult: int) -> tuple[list[int], list[int], int]:
    """The (xor, multiplier) pairs of the next count hashes from the hash
    constant h, and the constant after them."""
    xors, mults = [], []
    for _ in range(count):
        xors.append(h)
        h = h * mult & _MASK32
        mults.append(h)
    return xors, mults, h


# generate_state(4, uint64) hashes 8 uint32 words, word 4 * j + i from pool
# word i, with the constants at [j, i].
_OUT_XOR, _OUT_MULT = (np.array(c, dtype=np.uint32).reshape(2, _POOL)
                       for c in _hash_consts(_INIT_B, 2 * _POOL, _MULT_B)[:2])


def _words(n: int) -> list[int]:
    """n >= 0 as SeedSequence reads an int: its 32-bit words, lowest first;
    0 is one word."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _hashmix(value: int, h: int) -> tuple[int, int]:
    """One word hashed from the hash constant h, and the next constant."""
    value ^= h
    h = h * _MULT_A & _MASK32
    value = value * h & _MASK32
    return value ^ value >> 16, h


def _mix(x: int, y: int) -> int:
    result = (_MIX_L * x - _MIX_R * y) & _MASK32
    return result ^ result >> 16


@functools.lru_cache(maxsize=8)
def _filled_pool(first: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """mix_entropy's first two loops over the first _POOL entropy words (0
    for a missing one): the pool and the next hash constant. Cached, so a
    sweep mixes its master seed once."""
    h, pool = _INIT_A, []
    for i in range(_POOL):
        value, h = _hashmix(first[i] if i < len(first) else 0, h)
        pool.append(value)
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                value, h = _hashmix(pool[src], h)
                pool[dst] = _mix(pool[dst], value)
    return tuple(pool), h


def _pcg64_seeds(entropy: list[int], words) -> np.ndarray:
    """The (N, 4) uint64 words generate_state(4, uint64) returns for the N
    entropy arrays entropy + words[:, j], words being (k, N) uint32 (one
    array when k = 0): the shared words are mixed in Python ints, the
    varying ones in one numpy pass over all N."""
    pool, h = _filled_pool(tuple(entropy[:_POOL]))
    pool = list(pool)
    for word in entropy[_POOL:]:  # mix_entropy's last loop
        for dst in range(_POOL):
            value, h = _hashmix(word, h)
            pool[dst] = _mix(pool[dst], value)
    pools = np.array([pool], dtype=np.uint32)
    for row in words:
        xors, mults, h = _hash_consts(h, _POOL, _MULT_A)
        hashed = row[:, None] ^ np.array(xors, dtype=np.uint32)
        hashed *= np.array(mults, dtype=np.uint32)
        hashed ^= hashed >> 16
        hashed *= _MIX_R
        pools = pools * _MIX_L - hashed
        pools ^= pools >> 16
    out = pools[:, None, :] ^ _OUT_XOR
    out *= _OUT_MULT
    out ^= out >> 16
    # generate_state reads its uint32 words as little-endian uint64 pairs.
    return (out.reshape(-1, 2 * _POOL).astype("<u4", copy=False).view("<u8")
            .astype(np.uint64, copy=False))


@functools.cache
def _pcg64_generator():
    """The function from 4 precomputed uint64 seed words to a Generator over
    PCG64. Built on first use, since numpy loads numpy.random only when it
    is first used and an import of this package should not load it."""
    from numpy.random.bit_generator import ISeedSequence

    class PCG64Seed(ISeedSequence):
        """A seed whose generate_state(4, uint64) returns the precomputed
        words: PCG64 asks its seed for nothing else."""

        __slots__ = ("_state",)

        def __init__(self, state):
            self._state = state

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != _POOL or np.dtype(dtype) != np.uint64:
                raise ValueError("a precomputed PCG64 seed holds only 4 uint64 words")
            return self._state

    Generator, PCG64 = np.random.Generator, np.random.PCG64
    return lambda state: Generator(PCG64(PCG64Seed(state)))


def derive_streams(master_seed: int, head: tuple[int, ...], indices) -> list:
    """For each int i of the sequence indices, the generator
    np.random.default_rng(np.random.SeedSequence(master_seed,
    spawn_key=head + (i,))) returns, with an equal bit_generator state.

    The words of the seed and the head are mixed once, then the words of
    all indices of one word count together. Every argument is checked
    before any stream is derived.
    """
    check_int(master_seed, "master seed", 0)
    for i, b in enumerate(head):
        if type(b) is not int or b < 0:  # a branch's name is built only when it is bad
            check_int(b, f"branch[{i}]", 0)
    by_width = {}
    for pos, i in enumerate(indices):
        if type(i) is not int or i < 0:
            check_int(i, f"branch[{len(head)}]", 0)
        by_width.setdefault(max(1, (i.bit_length() + 31) // 32), []).append(pos)
    # With a spawn key, SeedSequence pads the seed's words to the pool size.
    entropy = _words(master_seed)
    entropy += [0] * (_POOL - len(entropy))
    for b in head:
        entropy += _words(b)
    streams, generator = [None] * len(indices), _pcg64_generator()
    for width, positions in by_width.items():
        values = [indices[p] for p in positions]
        words = np.array([[v >> 32 * k & _MASK32 for v in values] for k in range(width)],
                         dtype=np.uint32)
        for p, state in zip(positions, _pcg64_seeds(entropy, words)):
            streams[p] = generator(state)
    return streams


def derive_stream(master_seed: int, *branch: int):
    """Independent generator for one unit of work under a master seed; the
    seed and every branch are ints >= 0.

    It is the generator np.random.default_rng(np.random.SeedSequence(
    master_seed, spawn_key=branch)) returns, with an equal bit_generator
    state, as derive_streams derives it; its bit_generator.seed_seq holds
    only the PCG64 seed words and cannot spawn.
    """
    if branch:
        return derive_streams(master_seed, branch[:-1], branch[-1:])[0]
    check_int(master_seed, "master seed", 0)
    state = _pcg64_seeds(_words(master_seed), np.empty((0, 1), dtype=np.uint32))[0]
    return _pcg64_generator()(state)
