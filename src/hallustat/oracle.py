"""Acceptable-output maps and qualified training-data generation.

A ground truth assigns every string a non-empty set of acceptable outputs:
finite overrides patch individual strings, and a total default rule covers
everything else. The default rule is one of three kinds, Echo, Constant
and IndexShift; this module is the one place that tells them apart. A
training pair (s, y) is qualified when y is acceptable for s; generators
here produce qualified pairs by construction.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .core import Alphabet, Str, shortlex_index, shortlex_string
from .errors import DomainError, check_draw_count, check_int


@dataclass(frozen=True)
class Echo:
    """Acceptable set = {s}: the input itself."""


@dataclass(frozen=True)
class Constant:
    """Acceptable set = {output} for every string."""

    output: Str


@dataclass(frozen=True)
class IndexShift:
    """Acceptable set = {string whose shortlex rank is rank(s) + shift}; the
    shift is an int >= 0 (check_int)."""

    shift: int

    def __post_init__(self):
        check_int(self.shift, "shift", 0)


DefaultRule = Echo | Constant | IndexShift


@dataclass(frozen=True)
class GroundTruth:
    alphabet: Alphabet
    default_rule: DefaultRule
    overrides: tuple[tuple[Str, tuple[Str, ...]], ...] = ()

    def __post_init__(self):
        rule = self.default_rule
        if not isinstance(rule, (Echo, Constant, IndexShift)):
            raise DomainError(f"default rule must be Echo, Constant or IndexShift, got {rule!r}")
        if isinstance(rule, Constant) and not (
                isinstance(rule.output, Str) and rule.output.alphabet == self.alphabet):
            raise DomainError(f"constant output must be a Str over the ground truth's "
                              f"alphabet, got {rule.output!r}")
        norm = []
        seen = set()
        for s, acceptable in self.overrides:
            if s.alphabet != self.alphabet:
                raise DomainError("override keys must use the same alphabet")
            if s in seen:
                raise DomainError(f"duplicate override key {s.symbols}")
            seen.add(s)
            dedup = sorted(set(acceptable), key=shortlex_index)
            if not dedup:
                raise DomainError("acceptable sets must be non-empty")
            for y in dedup:
                if y.alphabet != self.alphabet:
                    raise DomainError("acceptable outputs must use the same alphabet")
            norm.append((s, tuple(dedup)))
        norm.sort(key=lambda pair: shortlex_index(pair[0]))
        object.__setattr__(self, "overrides", tuple(norm))

    @cached_property
    def _override_map(self):
        return {s: acc for s, acc in self.overrides}

    @cached_property
    def _empty_wrong_from(self) -> float:
        """The length from which the default rule rejects the empty output (rank
        0) on every string, below which on none; each rule treats lengths >= 1 alike."""
        return 0 if self.default_rank(0) else 1 if self.default_rank(1) else math.inf

    def acceptable(self, s: Str) -> tuple[Str, ...]:
        """The acceptable set of s, shortlex-sorted."""
        found = self._override_map.get(s)
        if found is not None:
            return found
        return (self._default_output(s),)

    def _default_output(self, s: Str) -> Str:
        rule = self.default_rule
        if isinstance(rule, Echo):
            return s
        if isinstance(rule, Constant):
            return rule.output
        return shortlex_string(self.alphabet, shortlex_index(s) + rule.shift)

    def default_rank(self, rank: int) -> int:
        """The rank of the default rule's output on the string of rank `rank`."""
        rule = self.default_rule
        if isinstance(rule, Constant):
            return shortlex_index(rule.output)
        return rank + rule.shift if isinstance(rule, IndexShift) else rank

    def canonical(self, s: Str) -> Str:
        """Shortlex-least acceptable output for s."""
        return self.acceptable(s)[0]

    def accepts(self, s: Str, y: Str) -> bool:
        found = self._override_map.get(s)
        if found is not None:
            return y in found
        return y == self._default_output(s)


class Labeler(enum.Enum):
    CANONICAL = "canonical"
    UNIFORM_ACCEPTABLE = "uniform_acceptable"


def check_labeler(labeler) -> None:
    """Raise DomainError, before any draw, unless labeler is a Labeler."""
    if not isinstance(labeler, Labeler):
        raise DomainError(f"labeler must be a Labeler, got {labeler!r}")


@dataclass(frozen=True)
class TrainingSequence:
    """Ordered (input, output) pairs; order matters to the memorizer.

    last_outputs() is exactly dict(pairs), read-only: each distinct input
    once, in the order of its first pair, mapped to the output of its last
    pair. generate_qualified fills it from the distinct pairs it draws, so
    no pair is hashed; for any other sequence it is built from the pairs on
    first use. Either way it is computed once per sequence.
    """

    pairs: tuple[tuple[Str, Str], ...]
    _last_outputs: dict | None = field(default=None, init=False, compare=False, repr=False)

    def __len__(self):
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def last_outputs(self) -> Mapping[Str, Str]:
        if self._last_outputs is None:
            object.__setattr__(self, "_last_outputs", dict(self.pairs))
        return MappingProxyType(self._last_outputs)


def generate_qualified(
    mu, gt: GroundTruth, m: int, labeler: Labeler, rng
) -> TrainingSequence:
    """m i.i.d. inputs from mu, each labeled with an acceptable output.

    Canonical labeling is deterministic given the inputs; the uniform labeler
    consumes one extra uniform array of length m after the input draws, and
    draw i takes output min(int(u_i * k), k - 1) of its k acceptable ones.
    The inputs come from mu.sample_distinct, and one pair tuple is built per
    distinct input and output it may take: draws of one input with one label
    share their pair. The sequence's last_outputs() comes from those pairs
    too: each input's first draw (np.minimum.at) orders the inputs, and its
    last draw (np.maximum.at) picks its output under the uniform labeler.
    """
    check_int(m, "m", 0)
    check_draw_count(m, "m")
    check_labeler(labeler)
    strings, inverse = mu.sample_distinct(rng, m)
    draws = np.arange(m)
    first_draw = np.full(len(strings), m)
    np.minimum.at(first_draw, inverse, draws)
    order = np.argsort(first_draw)  # the inputs in order of first draw
    if labeler is Labeler.CANONICAL:
        table = _objects([(s, gt.canonical(s)) for s in strings])
        pick, last_pick = inverse, order
    else:
        u = rng.random(m)
        acceptable = [gt.acceptable(s) for s in strings]
        # pair j of input i sits at first[i] + j in the flat pair table
        counts = np.fromiter(map(len, acceptable), dtype=np.int64, count=len(strings))
        first = np.cumsum(counts) - counts
        table = _objects([(s, y) for s, acc in zip(strings, acceptable) for y in acc])
        k = counts[inverse]
        pick = first[inverse] + np.minimum((u * k).astype(np.int64), k - 1)
        last_draw = np.zeros_like(first_draw)
        np.maximum.at(last_draw, inverse, draws)
        last_pick = pick[last_draw[order]]
    t = TrainingSequence(tuple(table[pick].tolist()))
    object.__setattr__(t, "_last_outputs", dict(table[last_pick].tolist()))
    return t


def _objects(items: list) -> np.ndarray:
    """A 1-d object array holding items themselves, tuples included."""
    return np.fromiter(items, dtype=object, count=len(items))


def is_qualified(t: TrainingSequence, gt: GroundTruth) -> bool:
    return all(gt.accepts(s, y) for s, y in t)
