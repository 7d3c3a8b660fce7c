"""Shortlex enumeration of strings over a finite alphabet.

Strings are ordered by length first, then lexicographically by symbol index;
rank 0 is the empty string. All counting uses exact integer arithmetic, so
ranks and counts stay correct at any length.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import DomainError


@dataclass(frozen=True)
class Alphabet:
    """Finite symbol set of size >= 2; symbols are the indices 0..size-1.

    Optional labels give symbols a printable form but play no role in
    ordering or counting.
    """

    size: int
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.size < 2:
            raise DomainError(f"alphabet size must be >= 2, got {self.size}")
        if self.labels is not None:
            if len(self.labels) != self.size:
                raise DomainError("label count must equal alphabet size")
            if len(set(self.labels)) != self.size:
                raise DomainError("labels must be distinct")


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

    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        """Key realizing shortlex order under tuple comparison."""
        return (len(self.symbols), self.symbols)


def empty_string(alphabet: Alphabet) -> Str:
    return Str(alphabet, ())


def count_upto(alphabet: Alphabet, n: int) -> int:
    """Number of strings of length <= n: (q^(n+1) - 1) / (q - 1), exactly."""
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    q = alphabet.size
    return (q ** (n + 1) - 1) // (q - 1)


def shortlex_index(s: Str) -> int:
    """Rank of s in shortlex order; the empty string has rank 0."""
    q = s.alphabet.size
    n = len(s.symbols)
    below = count_upto(s.alphabet, n - 1) if n > 0 else 0
    offset = 0
    for sym in s.symbols:
        offset = offset * q + sym
    return below + offset


def shortlex_string(alphabet: Alphabet, rank: int) -> Str:
    """Inverse of shortlex_index: the string of the given rank."""
    if rank < 0:
        raise DomainError(f"rank must be >= 0, got {rank}")
    q = alphabet.size
    # Find the length: smallest n with |Sigma^{<=n}| > rank.
    n = 0
    total = 1
    level = 1
    while total <= rank:
        n += 1
        level *= q
        total += level
    offset = rank - (total - level)
    syms = [0] * n
    for i in range(n - 1, -1, -1):
        offset, syms[i] = divmod(offset, q)
    return Str(alphabet, tuple(syms))


def strings_of_length(alphabet: Alphabet, n: int):
    """All strings of exactly length n, in lexicographic order."""
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    for syms in itertools.product(range(alphabet.size), repeat=n):
        yield Str(alphabet, syms)


def strings_upto(alphabet: Alphabet, n: int):
    """All strings of length <= n, in shortlex order."""
    for length in range(n + 1):
        yield from strings_of_length(alphabet, length)
