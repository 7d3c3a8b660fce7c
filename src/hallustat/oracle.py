"""Acceptable-output maps and qualified training-data generation.

A ground truth assigns every string a non-empty set of acceptable outputs:
finite overrides patch individual strings, and a total default rule covers
everything else. A training pair (s, y) is qualified when y is acceptable
for s; generators here produce qualified pairs by construction.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

from .core import Alphabet, Str, shortlex_index, shortlex_string
from .errors import DomainError


@dataclass(frozen=True)
class Echo:
    """Acceptable set = {s}: the input itself."""


@dataclass(frozen=True)
class Constant:
    """Acceptable set = {output} for every string."""

    output: Str


@dataclass(frozen=True)
class IndexShift:
    """Acceptable set = {string whose shortlex rank is rank(s) + shift}."""

    shift: int

    def __post_init__(self):
        if self.shift < 0:
            raise DomainError(f"shift must be >= 0, got {self.shift}")


DefaultRule = Echo | Constant | IndexShift


@dataclass(frozen=True)
class GroundTruth:
    alphabet: Alphabet
    default_rule: DefaultRule
    overrides: tuple[tuple[Str, tuple[Str, ...]], ...] = ()

    def __post_init__(self):
        if isinstance(self.default_rule, Constant):
            if self.default_rule.output.alphabet != self.alphabet:
                raise DomainError("constant output must use the same alphabet")
        norm = []
        seen = set()
        for s, acceptable in self.overrides:
            if s.alphabet != self.alphabet:
                raise DomainError("override keys must use the same alphabet")
            if s in seen:
                raise DomainError(f"duplicate override key {s.symbols}")
            seen.add(s)
            dedup = sorted(set(acceptable), key=Str.sort_key)
            if not dedup:
                raise DomainError("acceptable sets must be non-empty")
            for y in dedup:
                if y.alphabet != self.alphabet:
                    raise DomainError("acceptable outputs must use the same alphabet")
            norm.append((s, tuple(dedup)))
        norm.sort(key=lambda pair: pair[0].sort_key())
        object.__setattr__(self, "overrides", tuple(norm))

    @cached_property
    def _override_map(self):
        return {s: acc for s, acc in self.overrides}

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


@dataclass(frozen=True)
class TrainingSequence:
    """Ordered (input, output) pairs; order matters to the memorizer."""

    pairs: tuple[tuple[Str, Str], ...]

    def __len__(self):
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)


def generate_qualified(
    mu, gt: GroundTruth, m: int, labeler: Labeler, rng
) -> TrainingSequence:
    """m i.i.d. inputs from mu, each labeled with an acceptable output.

    Canonical labeling is deterministic given the inputs; the uniform labeler
    consumes one extra uniform array of length m after the input draws.
    """
    if m < 0:
        raise DomainError(f"m must be >= 0, got {m}")
    inputs = mu.sample_batch(rng, m)
    if labeler is Labeler.CANONICAL:
        pairs = tuple((s, gt.canonical(s)) for s in inputs)
    elif labeler is Labeler.UNIFORM_ACCEPTABLE:
        u = rng.random(m)
        pairs = []
        for i, s in enumerate(inputs):
            acc = gt.acceptable(s)
            idx = min(int(u[i] * len(acc)), len(acc) - 1)
            pairs.append((s, acc[idx]))
        pairs = tuple(pairs)
    else:
        raise DomainError(f"unsupported labeler {labeler!r}")
    return TrainingSequence(pairs)


def is_qualified(t: TrainingSequence, gt: GroundTruth) -> bool:
    return all(gt.accepts(s, y) for s, y in t)
