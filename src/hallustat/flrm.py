"""Length-thresholded rote memorizer.

Training picks the largest length threshold the sample size can support,
memorizes every training pair at or below it (later pairs overwrite earlier
ones), and predicts by lookup with the empty string as the default output.
"""

from __future__ import annotations

import math
import types
from dataclasses import dataclass, field
from functools import cached_property

from .core import Alphabet, Str, count_upto, shortlex_index, shortlex_string, string_from_json
from .errors import ConfigError, DomainError, _int_text, check_int
from .measures import CdfLowerBound
from .oracle import TrainingSequence


def level_float(n: int, alphabet: Alphabet) -> float:
    """q^(n+1) as a float; +inf past the float range."""
    try:
        return float(alphabet.size ** (n + 1))
    except OverflowError:
        return math.inf


def sample_size_at(n: int, alphabet: Alphabet, bound: CdfLowerBound) -> float:
    """The sufficient sample size at length n, (x/d) * ln(x/(2d)) with x = q^(n+1)
    and d = 1 - bound(n); +inf where d = 0 or the value leaves the float range."""
    d = bound.defect(n)
    x = level_float(n, alphabet)
    return x / d * math.log(x / (2.0 * d)) if d > 0.0 else math.inf


def threshold_length(m: int, alphabet: Alphabet, bound: CdfLowerBound) -> int:
    """Largest n' >= 0 with m > sample_size_at(n'); -1 when no n' qualifies.

    m must fit a float: against a size past the float range, which reads
    +inf, a larger m would wrongly fail. The size is nondecreasing in n', so
    the qualifying set is a prefix and the scan can stop once q^(n'+1) alone
    reaches max(m, 6): from there x*ln(x/2) >= x >= m.
    """
    check_int(m, "m", 0)
    try:
        float(m)
    except OverflowError:
        raise DomainError(f"m must fit a float, got a {m.bit_length()}-bit number") from None
    stop = max(m, 6)
    best = -1
    n = 0
    level = alphabet.size
    while level <= stop:
        if m > sample_size_at(n, alphabet, bound):
            best = n
        n += 1
        level *= alphabet.size
    return best


@dataclass(frozen=True)
class MemorizerModel:
    """Finite lookup table from each memorized input's shortlex rank to its
    output's, read-only, ints >= 0 of any size (check_int); each key is below
    count_upto(threshold), the threshold an int >= -1. `predict` looks up the
    rank of a Str over the model's alphabet no longer than the threshold, and
    answers anything else with the empty string, built on first use as
    `default_output`."""

    alphabet: Alphabet
    table: dict[int, int] = field(default_factory=dict)
    threshold: int = -1

    def __post_init__(self):
        check_int(self.threshold, "threshold", -1)
        frozen = types.MappingProxyType(dict(self.table))
        for key, value in frozen.items():
            if type(key) is not int or type(value) is not int or key < 0 or value < 0:
                check_int(key, "table key rank", 0)
                check_int(value, "table output rank", 0)
        top = max(frozen, default=-1)
        if top >= 0 and (self.threshold < 0 or top >= count_upto(self.alphabet, self.threshold)):
            raise DomainError(f"table key rank {_int_text(top)} is past threshold {self.threshold}")
        object.__setattr__(self, "table", frozen)

    @cached_property
    def default_output(self) -> Str:
        return Str(self.alphabet, ())

    def predict(self, s: Str) -> Str:
        if type(s) is not Str or len(s.symbols) > self.threshold or s.alphabet != self.alphabet:
            return self.default_output
        y = self.table.get(shortlex_index(s))
        return self.default_output if y is None else shortlex_string(self.alphabet, y)

    __call__ = predict


def train(t: TrainingSequence, alphabet: Alphabet, bound: CdfLowerBound) -> MemorizerModel:
    """The memorizer of t: the rank of each input no longer than n̄ maps to
    that of its last output; every kept string must be over `alphabet`."""
    n_bar = threshold_length(len(t), alphabet, bound)
    # last_outputs() is dict(t.pairs): each input at its first place with
    # its last output, as a loop of overwrites would leave it, built once
    # per distinct input, not once per pair.
    kept = [(s, y) for s, y in t.last_outputs().items() if len(s.symbols) <= n_bar]
    if {x.alphabet for pair in kept for x in pair} - {alphabet}:
        raise DomainError("table entries must use the model's alphabet")
    return MemorizerModel(alphabet, {shortlex_index(s): shortlex_index(y) for s, y in kept}, n_bar)


@dataclass(frozen=True)
class FlrmTrainer:
    """Trainer closure over (alphabet, bound); callable on a TrainingSequence."""

    alphabet: Alphabet
    bound: CdfLowerBound

    def __call__(self, t: TrainingSequence) -> MemorizerModel:
        return train(t, self.alphabet, self.bound)


def model_to_json(model: MemorizerModel) -> dict:
    """The threshold, and the table as symbol lists in key rank order."""
    return {
        "threshold": model.threshold,
        "table": [{key: list(shortlex_string(model.alphabet, rank).symbols)
                   for key, rank in zip("sy", entry)} for entry in sorted(model.table.items())],
    }


def model_from_json(alphabet: Alphabet, doc: dict) -> MemorizerModel:
    """The model of a model_to_json document, its numbers taken as they are:
    MemorizerModel checks the threshold, and each table string is a string
    field (string_from_json, which names table[i].s or table[i].y), kept as
    its rank. A missing key is a ConfigError too."""
    try:
        threshold = doc["threshold"]
        table = {}
        for i, entry in enumerate(doc["table"]):
            s, y = (string_from_json(alphabet, entry[key], f"table[{i}].{key}") for key in "sy")
            table[shortlex_index(s)] = shortlex_index(y)
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"malformed model document: {exc}") from exc
    return MemorizerModel(alphabet, table, threshold)
