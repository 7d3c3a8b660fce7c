"""String distributions and length-CDF lower bounds.

Two distribution families over the strings of an alphabet:

  FiniteSupport   explicit atoms with exact rational masses (a uniform law
                  over a finite set is the case of equal masses, kept as
                  one mass)
  LengthFactored  a law on lengths (table plus optional geometric tail),
                  uniform over all strings of a given length

Both key a string by its shortlex rank: (number of strings shorter than n)
+ (lexicographic offset within length n). Where the level q^n is below 2^62
the rank is an int64 shortlex code; a longer string's rank is an exact
Python int. A FiniteSupport keeps one dict from atom rank to atom position
and builds its Str objects only at the API boundary (atoms, support(), the
strings sample_distinct returns). Both laws encode and decode codes in bulk
through core's helpers: Horner codes by np.add.reduceat, and the Strs of
many codes from one digit matrix in numpy.

CdfLowerBound is a nondecreasing lower bound on Pr(len(S) <= n). Every
length law here, bound or distribution, is a table followed by one tail rule:
a geometric defect with a given ratio, or exactly 1. The tail rule is what
makes both the "converges to 1" premise and tail domination checks decidable
rather than sampled.

Sampling consumes a fixed number of uniforms per draw: two for LengthFactored
(length, then offset within the level), one for FiniteSupport. Batch
draws consume whole uniform arrays in that order, so alternative samplers
sharing the uniform stream reproduce draws bit for bit. Both laws sample
through one index sampler, sample_distinct, which returns the distinct
strings drawn and, per draw, the index of its string; sample_batch is that
expansion. FiniteSupport dedupes atom indices; LengthFactored dedupes int
shortlex codes with numpy, and draws at levels of q^n >= 2^62 by their exact
rank, so it builds one Str per distinct string drawn.

Both invert a float cumulative table. LengthFactored bisects its lengths'
table with np.searchsorted. FiniteSupport looks each uniform up in an exact
guide table (Chen & Asau 1974) over 2^B >= len(atoms) equal buckets, then
bisects only within its bucket: the atom it returns is the one
np.searchsorted over the cumulative masses returns, draw for draw, in a few
steps instead of log2(len(atoms)). Its cumulative table is exactly 1.0 from
the last atom of positive mass on, so no zero-mass atom is ever drawn.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .core import (
    Alphabet,
    Str,
    code_levels,
    count_upto,
    shortlex_codes,
    shortlex_index,
    shortlex_string,
    strings_at,
)
from .errors import DomainError, check_int

_SUM_TOL = 1e-12
_MAX_TAIL_TABLE = 4_000_000


@dataclass(frozen=True)
class CdfLowerBound:
    """Known nondecreasing lower bound on the input-length CDF.

    table[n] is the bound at length n for n <= N = len(table) - 1. Beyond the
    table the defect 1 - value is (1 - table[N]) * tail_ratio^(n - N), or 0
    when tail_ratio is None; either way the bound converges to 1. Every
    length n is an int >= 0 (check_int).
    """

    table: tuple[float, ...]
    tail_ratio: float | None = None

    def __post_init__(self):
        if not self.table:
            raise DomainError("bound table must be non-empty")
        prev = 0.0
        for c in self.table:
            if not 0.0 <= c <= 1.0:
                raise DomainError(f"bound entry {c} outside [0,1]")
            if c < prev:
                raise DomainError("bound table must be non-decreasing")
            prev = c
        if self.tail_ratio is not None and not 0.0 < self.tail_ratio < 1.0:
            raise DomainError(f"tail ratio must lie in (0,1), got {self.tail_ratio}")

    def value(self, n: int) -> float:
        check_int(n, "n", 0)
        if n < len(self.table):
            return self.table[n]
        return 1.0 - self.defect(n)

    def defect(self, n: int) -> float:
        """1 - value(n), computed without cancellation in the tail."""
        check_int(n, "n", 0)
        last = len(self.table) - 1
        if n <= last:
            return 1.0 - self.table[n]
        if self.tail_ratio is None:
            return 0.0
        return (1.0 - self.table[last]) * self.tail_ratio ** (n - last)


class FiniteSupport:
    """Explicit atoms (string, mass) with exact rational masses summing to 1.

    The law keeps one dict, `_index`, from each atom's shortlex rank to its
    position, so its keys are the ranks in atom order, and the atom lengths
    in atom order (`_lengths`). An atom at a level of q^n below 2^62 has an
    int64 code for its rank; a longer atom is kept by its exact rank. pmf
    finds a string by one lookup of its rank. The Str atoms are built only
    at the API boundary: `atoms`, `support()` and the strings
    `sample_distinct` returns, all from one lazily decoded tuple.

    Masses are exact rationals. A uniform law (`_uniform`) stores its one
    mass and builds no Fraction and no float per atom; any other law keeps
    one Fraction per atom (`_masses`). `_groups` holds one (denominator,
    positions, integer numerators) triple per distinct denominator. `_mass`
    sums the masses of any set of atoms exactly from `_groups`, one Fraction
    addition per denominator; the sum-to-1 check, the length CDF and every
    exact HP go through it. The length CDF is a table: `_cdf[i]` is the mass
    of the atoms no longer than `_cdf_lengths[i - 1]`, the distinct lengths
    in increasing order (`_cdf[0]` is 0). A length n is an int >= 0 (check_int).
    """

    def __init__(self, atoms):
        atoms = tuple(atoms)
        if not atoms:
            raise DomainError("finite-support distribution needs at least one atom")
        alphabet = atoms[0][0].alphabet
        for s, _ in atoms:
            # identity first: comparing two equal Alphabets field by field is slow
            if s.alphabet is not alphabet and s.alphabet != alphabet:
                raise DomainError("atoms must share one alphabet")
        masses = [p if isinstance(p, Fraction) else Fraction(p) for _, p in atoms]
        self._build(alphabet, [sym for s, _ in atoms for sym in s.symbols],
                    np.fromiter((len(s.symbols) for s, _ in atoms), np.int64, len(atoms)),
                    masses, "atoms[{}]".format)
        self.__dict__["atoms"] = tuple(zip((s for s, _ in atoms), masses))

    @classmethod
    def _from_symbols(cls, alphabet: Alphabet, symbols, lengths: np.ndarray, mass, name):
        """The law whose atom i has the lengths[i] symbols that follow atom
        i - 1's in `symbols`, each in [0, q) (an int64 array when q < 2^62);
        `mass` is one Fraction for a uniform law, else one per atom.
        name(i) names atom i in error messages."""
        law = cls.__new__(cls)
        law._build(alphabet, symbols, lengths, mass, name)
        return law

    def _build(self, alphabet, symbols, lengths, mass, name):
        n = len(lengths)
        if not n:
            raise DomainError("finite-support distribution needs at least one atom")
        self.alphabet = alphabet
        self._lengths = lengths
        ranks = shortlex_codes(alphabet.size, symbols, lengths)
        self._index = dict(zip(ranks, range(n)))
        if len(self._index) < n:  # name the first atom i that repeats an earlier atom j
            first = {}
            i = next(i for i, rank in enumerate(ranks) if first.setdefault(rank, i) != i)
            j = first[ranks[i]]
            end = int(lengths[:i + 1].sum())
            syms = tuple(int(x) for x in symbols[end - int(lengths[i]):end])
            raise DomainError(f"duplicate atom {syms}: {name(i)} repeats {name(j)}")
        if isinstance(mass, Fraction):
            self._uniform, self._masses = mass, None
            masses = (mass,)
            groups = [(mass.denominator, np.arange(n),
                       np.full(n, mass.numerator, dtype=object))]
        else:
            self._uniform, self._masses = None, tuple(mass)
            masses = self._masses
            members = {}  # denominator -> (positions, numerators)
            for i, p in enumerate(masses):
                positions, numerators = members.setdefault(p.denominator, ([], []))
                positions.append(i)
                numerators.append(p.numerator)
            # object arrays: numerators are integers of any size
            groups = [(den, np.asarray(positions, dtype=np.int64),
                       np.asarray(numerators, dtype=object))
                      for den, (positions, numerators) in members.items()]
        for p in masses:
            if not 0 <= p.numerator <= p.denominator:  # denominators are positive
                raise DomainError(f"mass {p} outside [0,1]")
        self._groups = tuple(groups)
        cdf_lengths = sorted(set(lengths.tolist()))
        cdf = [Fraction(0)] + [self._mass(lengths <= n) for n in cdf_lengths]
        if cdf[-1] != 1:
            raise DomainError(f"masses must sum to exactly 1, got {cdf[-1]}")
        self._cdf_lengths = tuple(cdf_lengths)
        self._cdf = tuple(cdf)

    def _mass(self, mask: np.ndarray) -> Fraction:
        """The exact mass of the atoms where the boolean mask over atom
        positions is true."""
        total = Fraction(0)
        for den, positions, numerators in self._groups:
            total += Fraction(sum(numerators[mask[positions]].tolist()), den)
        return total

    def _find(self, s: Str) -> int | None:
        """The position of atom s, by its shortlex rank; None when s is not
        an atom."""
        if s.alphabet is not self.alphabet and s.alphabet != self.alphabet:
            return None
        return self._index.get(shortlex_index(s))

    def __eq__(self, other):
        if not isinstance(other, FiniteSupport):
            return NotImplemented
        return self.atoms == other.atoms

    def __hash__(self):
        return hash(self.atoms)

    @cached_property
    def atoms(self) -> tuple[tuple[Str, Fraction], ...]:
        """The (string, mass) pairs in atom order, built on first use: the
        int64 codes decoded in bulk, in increasing order, and each longer
        atom from its rank."""
        ranks = list(self._index)
        base, level = code_levels(self.alphabet.size, int(self._lengths.max()))
        short = self._lengths < len(level)
        positions = np.flatnonzero(short)
        codes = np.fromiter(itertools.compress(ranks, short.tolist()), np.int64, len(positions))
        order = np.argsort(codes)
        strings = [None] * len(ranks)
        for i, s in zip(positions[order].tolist(), strings_at(self.alphabet, base, codes[order])):
            strings[i] = s
        for i in np.flatnonzero(~short).tolist():
            strings[i] = shortlex_string(self.alphabet, ranks[i])
        masses = itertools.repeat(self._uniform) if self._masses is None else self._masses
        return tuple(zip(strings, masses))

    @property
    def is_support_infinite(self) -> bool:
        return False

    @property
    def max_length(self) -> int:
        return self._cdf_lengths[-1]

    @property
    def tail(self) -> tuple[int, None]:
        """(start, ratio) of the tail rule: the length CDF is exactly 1 from
        max_length on."""
        return self.max_length, None

    @cached_property
    def _sampling_cum(self):
        """Float cumulative masses in atom order, exactly 1.0 from the last
        atom of positive mass on: a uniform below 1 never reaches past that
        atom, so it never draws a zero-mass atom after it, however the float
        sums round."""
        last = len(self._lengths) - 1
        if self._masses is None:  # one positive mass: the floats of a cumsum of its copies
            cum = np.cumsum(np.full(last + 1, float(self._uniform)))
        else:
            cum = np.cumsum([float(p) for p in self._masses])
            while not self._masses[last]:
                last -= 1
        cum[last:] = 1.0
        return cum

    @cached_property
    def _guide_table(self):
        """(scale, start, steps) for _atom_indices: an exact guide table
        (Chen & Asau 1974) over 2^B >= len(atoms) equal buckets of [0, 1).
        start[b] is np.searchsorted(cum, b / 2^B, side="right"), so a uniform
        in bucket b draws an atom in [start[b], start[b + 1]]; steps is the
        number of bisection steps that settles the widest bucket,
        ceil(log2(widest + 1))."""
        buckets = 1 << (len(self._lengths) - 1).bit_length()
        edges = np.arange(buckets + 1) / buckets  # exact: buckets is a power of two
        start = np.searchsorted(self._sampling_cum, edges, side="right")
        return float(buckets), start, int(np.diff(start).max()).bit_length()

    def support(self):
        return iter(self.atoms)

    def pmf(self, s: Str) -> Fraction:
        i = self._find(s)
        if i is None:
            return Fraction(0)
        return self._uniform if self._masses is None else self._masses[i]

    def length_cdf(self, n: int) -> Fraction:
        check_int(n, "n", 0)
        return self._cdf[bisect.bisect_right(self._cdf_lengths, n)]

    def defect(self, n: int) -> Fraction:
        """1 - length_cdf(n), exactly: the mass of the atoms longer than n."""
        return 1 - self.length_cdf(n)

    def _atom_indices(self, u: np.ndarray) -> np.ndarray:
        """The atom index each uniform in [0, 1) draws, by inverse CDF: the
        one sampler behind sample_distinct and the atom trial.

        It equals np.searchsorted(cum, u, side="right") on the cumulative
        masses, draw for draw, at a cost per draw of at most _guide_table's
        steps, not log2(len(atoms)). The bucket int(u * 2^B) is exact, since
        scaling by a power of two never rounds, and bounds the answer by
        start[b] and start[b + 1]; bisection settles it within them.
        """
        scale, start, steps = self._guide_table
        cum = self._sampling_cum
        bucket = (u * scale).astype(np.intp)
        lo = start[bucket]
        if steps > 1:
            hi = start[1:][bucket]
            for _ in range(steps - 1):
                mid = (lo + hi) >> 1
                up = cum[mid] <= u
                lo = np.where(up, mid + 1, lo)
                hi = np.where(up, hi, mid)
        if steps:
            lo += cum[lo] <= u  # hi - lo <= 1 now, and lo < len(cum) since u < 1
        return lo

    def sample_distinct(self, rng, size: int) -> tuple[list[Str], np.ndarray]:
        """(strings, inverse): the distinct atoms among size draws, in atom
        order, and the index into strings of each draw. size is an int >= 0."""
        check_int(size, "size", 0)
        keys, inverse = np.unique(self._atom_indices(rng.random(size)), return_inverse=True)
        atoms = self.atoms
        return [atoms[i][0] for i in keys.tolist()], inverse

    def sample_batch(self, rng, size: int) -> list[Str]:
        return _expand(*self.sample_distinct(rng, size))


@dataclass(frozen=True)
class LengthFactored:
    """Length law (table + optional geometric tail), uniform within each length.

    length_probs[i] = Pr(len = i) for i < L; with tail_ratio r, the remaining
    mass 1 - sum(length_probs) is spread as Pr(len = L + j) proportional to
    r^j. The empty table with r = 1/2 gives Pr(len = i) = (1/2)^(i+1), whose
    tail Pr(len >= m) = (1/2)^m exactly. A length n is an int >= 0 (check_int).
    """

    alphabet: Alphabet
    length_probs: tuple[float, ...]
    tail_ratio: float | None = None

    def __post_init__(self):
        total = 0.0
        for p in self.length_probs:
            if not p >= 0.0:  # also rejects NaN
                raise DomainError(f"length probability {p} is not a nonnegative number")
            total += p
        if total > 1.0 + _SUM_TOL:
            raise DomainError(f"length probabilities sum to {total} > 1")
        if self.tail_ratio is None:
            if abs(total - 1.0) > _SUM_TOL:
                raise DomainError(
                    f"without a tail, length probabilities must sum to 1, got {total}"
                )
        else:
            if not 0.0 < self.tail_ratio < 1.0:
                raise DomainError(f"tail ratio must lie in (0,1), got {self.tail_ratio}")

    @cached_property
    def tail_mass(self) -> float:
        if self.tail_ratio is None:
            return 0.0
        return max(0.0, 1.0 - math.fsum(self.length_probs))

    @property
    def is_support_infinite(self) -> bool:
        return self.tail_mass > 0.0

    @property
    def tail(self) -> tuple[int, float | None]:
        """(start, ratio) of the tail rule: from length L = len(length_probs)
        on, the length CDF's defect decays by tail_ratio per length, or is 0
        (ratio None) when there is no tail mass."""
        return len(self.length_probs), self.tail_ratio if self.tail_mass > 0.0 else None

    def defect(self, n: int) -> float:
        """1 - length_cdf(n), computed without cancellation: the sum of the
        table entries past n plus the tail mass, and for n >= L
        tail_mass * tail_ratio^(n - L + 1)."""
        check_int(n, "n", 0)
        last = len(self.length_probs)
        if n < last:
            return math.fsum((*self.length_probs[n + 1:], self.tail_mass))
        if self.tail_ratio is None:
            return 0.0
        return self.tail_mass * self.tail_ratio ** (n - last + 1)

    @cached_property
    def _cdf_table(self):
        out = []
        acc = 0.0
        for p in self.length_probs:
            acc += p
            out.append(acc)
        return tuple(out)

    @cached_property
    def _sampling_cum(self):
        """Cumulative length table used by every sampler; last entry is 1.0.

        A geometric tail is extended until the float cumulative reaches 1.0,
        truncating total variation below 1e-15; pmf and length_cdf stay
        closed-form and untruncated.
        """
        cum = list(self._cdf_table)
        mass = self.tail_mass
        if self.tail_ratio is not None and mass > 0.0:
            r = self.tail_ratio
            j = 0
            while True:
                val = 1.0 - mass * r ** (j + 1)
                cum.append(val)
                if val >= 1.0:
                    break
                j += 1
                if j > _MAX_TAIL_TABLE:
                    raise DomainError("tail ratio too close to 1 to tabulate")
        if not cum:
            raise DomainError("empty length law")
        cum[-1] = 1.0
        return np.asarray(cum, dtype=np.float64)

    @property
    def max_sample_length(self) -> int:
        return len(self._sampling_cum) - 1

    @cached_property
    def _code_tables(self):
        """core.code_levels up to the longest length drawn: base[n] + offset
        is the shortlex code of a draw of length n."""
        return code_levels(self.alphabet.size, self.max_sample_length)

    def _length_prob(self, n: int) -> float:
        if n < len(self.length_probs):
            return self.length_probs[n]
        if self.tail_ratio is None:
            return 0.0
        r = self.tail_ratio
        return self.tail_mass * (1.0 - r) * r ** (n - len(self.length_probs))

    def pmf(self, s: Str) -> float:
        n = len(s)
        return self._length_prob(n) * float(self.alphabet.size) ** (-n)

    def length_cdf(self, n: int) -> float:
        check_int(n, "n", 0)
        table = self._cdf_table
        if n < len(table):
            return table[n]
        return 1.0 - self.defect(n)

    def sample_distinct(self, rng, size: int) -> tuple[list[Str], np.ndarray]:
        """(strings, inverse): the distinct strings among size draws and the
        index into strings of each draw. Strings below the 2^62 levels come
        first, in shortlex order; longer ones follow in order of first draw.
        size is an int >= 0."""
        check_int(size, "size", 0)
        u_len = rng.random(size)
        u_off = rng.random(size)
        lengths = np.searchsorted(self._sampling_cum, u_len, side="right")
        base, level = self._code_tables
        small = lengths < len(level)
        n = lengths[small]
        # floor(u * q^n) through the float q^n, clamped with the exact one
        offs = np.minimum((u_off[small] * level[n].astype(np.float64)).astype(np.int64),
                          level[n] - 1)
        keys, inverse_small = np.unique(base[n] + offs, return_inverse=True)
        strings = strings_at(self.alphabet, base, keys)
        inverse = np.empty(size, dtype=np.intp)
        inverse[small] = inverse_small
        large = np.flatnonzero(~small)
        first = {}  # rank -> index into strings
        inverse_large = []
        q = self.alphabet.size
        for length, u in zip(lengths[large].tolist(), u_off[large].tolist()):
            size_n = q**length  # exact, one draw at a time
            offset = min(int(Fraction(u) * size_n), size_n - 1)
            rank = count_upto(self.alphabet, length - 1) + offset
            if rank not in first:
                first[rank] = len(strings)
                strings.append(shortlex_string(self.alphabet, rank))
            inverse_large.append(first[rank])
        inverse[large] = inverse_large
        return strings, inverse

    def sample_batch(self, rng, size: int) -> list[Str]:
        return _expand(*self.sample_distinct(rng, size))


def _expand(strings: list[Str], inverse: np.ndarray) -> list[Str]:
    """The draws in order, strings[i] for each i in inverse; repeated draws
    of one string share its Str."""
    return np.fromiter(strings, dtype=object, count=len(strings))[inverse].tolist()


def dominates(dist: FiniteSupport | LengthFactored, bound: CdfLowerBound) -> bool:
    """True iff dist.length_cdf(n) >= bound.value(n) for every n.

    Checked pointwise through length max(len(bound.table) + 64, start + 1),
    where start is the length at which dist's tail rule begins, and
    analytically beyond, where both sides follow their tail rules.
    """
    start, ratio = dist.tail
    high = max(len(bound.table) + 63, start) + 1
    for n in range(high + 1):
        if dist.length_cdf(n) < bound.value(n):
            return False
    if ratio is None:
        return True  # dist's CDF is exactly 1 there, and the bound never exceeds 1
    if bound.tail_ratio is None or bound.table[-1] == 1.0:
        return False  # the bound is exactly 1 while dist keeps a positive defect
    n0 = high + 1
    if dist.defect(n0) > bound.defect(n0):
        return False
    # Equal boundary with a faster-or-equal decay stays dominated forever;
    # a strictly slower decay must eventually cross.
    return ratio <= bound.tail_ratio
