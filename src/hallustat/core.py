"""Shortlex enumeration of strings over a finite alphabet.

Strings are ordered by length first, then lexicographically by symbol index;
rank 0 is the empty string. All counting uses exact integer arithmetic, so
ranks and counts stay correct at any length. This module owns the order:
ranking, unranking, and enumerating every string in turn (shortlex_symbols,
whose Strs shortlex_strings builds). count_upto, shortlex_string and the
string enumerators take their length or rank as an int >= 0 (check_int).

A string's one key outside Str is its shortlex rank. The bulk helpers at the
end rank many strings at once, and build the Strs of many ranks at once. They
work in numpy on int64 shortlex codes, the ranks of the strings whose level
q^n is below CODE_LIMIT = 2^62; a longer string's rank is an exact Python int.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError, check_int

# The int64 code space: a string whose level q^n reaches it is ranked in
# Python ints instead.
CODE_LIMIT = 2**62


@dataclass(frozen=True)
class Alphabet:
    """Finite symbol set of size >= 2; symbols are the indices 0..size-1.

    Optional labels give symbols a printable form but play no role in
    ordering or counting. The hash is computed once, at construction, as
    hash((size, labels)), the value a generated dataclass hash returns.
    """

    size: int
    labels: tuple[str, ...] | None = None
    _hash: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        check_int(self.size, "alphabet size", 2)
        if self.labels is not None:
            if not (isinstance(self.labels, tuple)
                    and all(isinstance(label, str) for label in self.labels)):
                raise DomainError(f"alphabet labels must be None or a tuple of str, "
                                  f"got {self.labels!r}")
            if len(self.labels) != self.size:
                raise DomainError("label count must equal alphabet size")
            if len(set(self.labels)) != self.size:
                raise DomainError("labels must be distinct")
        object.__setattr__(self, "_hash", hash((self.size, self.labels)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # Rebuild rather than restore the cached hash: str hashes differ
        # between processes.
        return (Alphabet, (self.size, self.labels))


@dataclass(frozen=True, slots=True)
class Str:
    """Immutable string: a tuple of symbol indices over a fixed alphabet.

    The hash is computed once, at construction. It equals the hash of the
    tuple (alphabet, symbols), the value a generated dataclass hash returns,
    so sets and dicts of strings iterate in the same order either way.
    """

    alphabet: Alphabet
    symbols: tuple[int, ...]
    _hash: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        q = self.alphabet.size
        for sym in self.symbols:
            if not 0 <= sym < q:
                raise DomainError(f"symbol {sym} outside alphabet of size {q}")
        object.__setattr__(self, "_hash", hash((self.alphabet, self.symbols)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # Rebuild rather than restore the cached hash: hashes of the alphabet
        # can differ between processes.
        return (Str, (self.alphabet, self.symbols))

    def __len__(self):
        return len(self.symbols)

    def text(self) -> str:
        labels = self.alphabet.labels
        if labels is None:
            return "".join(str(sym) for sym in self.symbols)
        return "".join(labels[sym] for sym in self.symbols)


def empty_string(alphabet: Alphabet) -> Str:
    return Str(alphabet, ())


def string_from_json(alphabet: Alphabet, value, name: str) -> Str:
    """A string field of a JSON document: a list of JSON integer symbol
    indices, else ConfigError naming the field's full path, `name`."""
    # type() rather than isinstance(): true and false are not symbols.
    if not isinstance(value, list) or any(type(x) is not int for x in value):
        raise ConfigError(f"{name} must be a list of integer symbols, got {value!r}")
    try:
        return Str(alphabet, tuple(value))
    except DomainError as exc:  # a symbol outside the alphabet
        raise ConfigError(f"bad string {name} {value!r}: {exc}") from exc


def count_upto(alphabet: Alphabet, n: int) -> int:
    """Number of strings of length <= n, an int >= 0: (q^(n+1) - 1) / (q - 1)."""
    check_int(n, "n", 0)
    q = alphabet.size
    return (q ** (n + 1) - 1) // (q - 1)


def shortlex_index(s: Str) -> int:
    """Rank of s in shortlex order, the empty string's being 0: s read in
    bijective base q, with digit sym + 1 for each symbol."""
    q = s.alphabet.size
    rank = 0
    for sym in s.symbols:
        rank = rank * q + sym + 1
    return rank


def shortlex_string(alphabet: Alphabet, rank: int) -> Str:
    """Inverse of shortlex_index: the string of a given rank, an int >= 0,
    its bijective base-q digits read off from the right."""
    check_int(rank, "rank", 0)
    q = alphabet.size
    syms = []
    while rank:
        rank, sym = divmod(rank - 1, q)
        syms.append(sym)
    return Str(alphabet, tuple(reversed(syms)))


def shortlex_symbols(q: int):
    """Symbol tuples of every string over q symbols, lazily, in shortlex order;
    itertools.product holds all q symbols, so it starts only at length 2."""
    longer = (itertools.product(range(q), repeat=n) for n in itertools.count(2))
    return itertools.chain([()], zip(range(q)), itertools.chain.from_iterable(longer))


def shortlex_strings(alphabet: Alphabet, start: int, stop: int):
    """The Strs of the shortlex ranks start..stop - 1, lazily and in order."""
    return (Str(alphabet, syms)
            for syms in itertools.islice(shortlex_symbols(alphabet.size), start, stop))


def strings_of_length(alphabet: Alphabet, n: int):
    """All strings of exactly length n, an int >= 0, in lexicographic order."""
    stop = count_upto(alphabet, n)
    return shortlex_strings(alphabet, stop - alphabet.size**n, stop)


def strings_upto(alphabet: Alphabet, n: int):
    """All strings of length <= n, an int >= 0, in shortlex order."""
    return shortlex_strings(alphabet, 0, count_upto(alphabet, n))


def code_levels(q: int, top: int):
    """(base, level) int64 arrays over the lengths n <= top whose level q^n
    is below 2^62: level[n] = q^n exactly and base[n] = the number of
    strings shorter than n, so base[n] + offset is the shortlex code of the
    string of length n at lexicographic offset `offset`."""
    levels = []
    p = 1
    while p < CODE_LIMIT and len(levels) <= top:
        levels.append(p)
        p *= q
    level = np.asarray(levels, dtype=np.int64)
    return np.cumsum(level) - level, level


def shortlex_codes(q: int, symbols, lengths: np.ndarray) -> list[int]:
    """The shortlex ranks, as Python ints, of the strings whose symbols, each
    in [0, q), follow one another in `symbols`, string i holding lengths[i]
    of them.

    Where string i's level q^n is below 2^62 its rank is its int64 code,
    computed in numpy by Horner's rule (one np.add.reduceat over each symbol
    times its place value q^k). A longer string's rank is read exactly, as
    shortlex_index reads it.
    """
    base, level = code_levels(q, int(lengths.max()))
    short = lengths < len(level)
    ends = np.cumsum(lengths)
    starts = ends - lengths
    offsets = np.zeros(len(lengths), dtype=np.int64)
    nonempty = np.flatnonzero(lengths)
    if len(level) > 1 and len(nonempty):  # q < 2^62, so every symbol fits an int64
        symbols = np.asarray(symbols, dtype=np.int64)
        # k, the number of symbols after each one in its string; place q^k
        after = np.repeat(ends - 1, lengths) - np.arange(len(symbols))
        place = np.where(np.repeat(short, lengths), level[np.minimum(after, len(level) - 1)], 0)
        offsets[nonempty] = np.add.reduceat(symbols * place, starts[nonempty])
    codes = np.zeros(len(lengths), dtype=np.int64)
    codes[short] = base[lengths[short]] + offsets[short]
    ranks = codes.tolist()
    for i in np.flatnonzero(~short).tolist():
        rank = 0
        for sym in symbols[starts[i]:ends[i]]:
            rank = rank * q + int(sym) + 1
        ranks[i] = rank
    return ranks


def strings_at(alphabet: Alphabet, base: np.ndarray, codes: np.ndarray) -> list[Str]:
    """The Strs of the increasing int64 shortlex codes `codes`, each at a
    level q^n below 2^62 that `base` (from code_levels) covers: one digit
    matrix in numpy, then one tolist() per run of equal lengths."""
    q = alphabet.size
    lengths = np.searchsorted(base, codes, side="right") - 1
    width = int(lengths[-1]) if len(codes) else 0
    if not width:  # no code or only the empty string's: q may be past int64
        return [Str(alphabet, ()) for _ in codes.tolist()]
    # digits[i, width - 1 - k] is digit k of the offset of codes[i], from the right
    digits = np.empty((len(codes), width), dtype=np.int64)
    np.floor_divide((codes - base[lengths])[:, None], q ** np.arange(width - 1, -1, -1), out=digits)
    digits %= q
    strings = []
    start = 0
    for n, end in enumerate(np.cumsum(np.bincount(lengths)).tolist()):
        if end > start:
            strings += [Str(alphabet, row)
                        for row in map(tuple, digits[start:end, width - n:].tolist())]
        start = end
    return strings

