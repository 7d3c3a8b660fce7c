"""Length-thresholded rote memorizer.

Training picks the largest length threshold the sample size can support,
memorizes every training pair at or below it (later pairs overwrite earlier
ones), and predicts by lookup with the empty string as the default output.
"""

from __future__ import annotations

import math
import types
from dataclasses import dataclass, field

from .core import Alphabet, Str, empty_string, string_from_json
from .errors import ConfigError, DomainError, check_int
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
    """Finite lookup table capped at a length threshold; unknown inputs map
    to the empty string, built once per model as `default_output`.

    The threshold is an int >= -1 (check_int) and no table key is longer,
    so `predict` answers a longer Str with `default_output` without looking
    it up (or hashing it); any other argument is looked up in the table.
    """

    alphabet: Alphabet
    table: dict[Str, Str] = field(default_factory=dict)
    threshold: int = -1
    default_output: Str = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        check_int(self.threshold, "threshold", -1)
        alphabet = self.alphabet
        frozen = types.MappingProxyType(dict(self.table))
        for s, y in frozen.items():
            if len(s.symbols) > self.threshold:
                raise DomainError(
                    f"table key of length {len(s.symbols)} exceeds threshold {self.threshold}"
                )
            if not (s.alphabet is alphabet or s.alphabet == alphabet) or not (
                y.alphabet is alphabet or y.alphabet == alphabet
            ):
                raise DomainError("table entries must use the model's alphabet")
        object.__setattr__(self, "table", frozen)
        object.__setattr__(self, "default_output", empty_string(self.alphabet))

    def predict(self, s: Str) -> Str:
        if type(s) is Str and len(s.symbols) > self.threshold:
            return self.default_output
        return self.table.get(s, self.default_output)

    __call__ = predict


def train(t: TrainingSequence, alphabet: Alphabet, bound: CdfLowerBound) -> MemorizerModel:
    n_bar = threshold_length(len(t), alphabet, bound)
    # last_outputs() is dict(t.pairs): each input at its first place with
    # its last output, as a loop of overwrites would leave it, built once
    # per distinct input, not once per pair.
    table = {s: y for s, y in t.last_outputs().items() if len(s) <= n_bar}
    return MemorizerModel(alphabet, table, n_bar)


@dataclass(frozen=True)
class FlrmTrainer:
    """Trainer closure over (alphabet, bound); callable on a TrainingSequence."""

    alphabet: Alphabet
    bound: CdfLowerBound

    def __call__(self, t: TrainingSequence) -> MemorizerModel:
        return train(t, self.alphabet, self.bound)


def model_to_json(model: MemorizerModel) -> dict:
    entries = sorted(model.table.items(), key=lambda kv: kv[0].sort_key())
    return {
        "threshold": model.threshold,
        "table": [{"s": list(s.symbols), "y": list(y.symbols)} for s, y in entries],
    }


def model_from_json(alphabet: Alphabet, doc: dict) -> MemorizerModel:
    """The model of a model_to_json document, its numbers taken as they are:
    MemorizerModel checks the threshold, and each table string is a string
    field (string_from_json, which names table[i].s or table[i].y). A
    missing key is a ConfigError too."""
    try:
        threshold = doc["threshold"]
        table = {}
        for i, entry in enumerate(doc["table"]):
            s, y = (string_from_json(alphabet, entry[key], f"table[{i}].{key}") for key in "sy")
            table[s] = y
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"malformed model document: {exc}") from exc
    return MemorizerModel(alphabet, table, threshold)
