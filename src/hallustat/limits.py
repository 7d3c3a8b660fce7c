"""Finite-sample bounds and adversarial constructions.

Sufficiency: the sample size above which the threshold memorizer keeps the
hallucination probability below target levels. Necessity: the sample size
below which every learner can be forced to fail, via an exhaustive and
exact no-free-lunch enumeration over all labelings of a finite domain, a
hard uniform support dominating a given length-CDF bound, a discrete
reverse-Markov tail inequality, and a diagonal construction that differs
from every model in a finite list.

Everything necessity-side is exact rational arithmetic; only the
sufficiency formula (a logarithm) uses floats, with a 1e-9 guard before the
ceiling.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from .core import Alphabet, Str, count_upto, shortlex_index, shortlex_string
from .errors import DomainError, check_budget
from .flrm import MemorizerModel
from .measures import CdfLowerBound
from .oracle import TrainingSequence


@dataclass(frozen=True)
class SufficiencyBound:
    epsilon_h: float
    epsilon_t: float
    n_bar: int
    m_bar: int


def required_sample_size(
    epsilon_h: float, epsilon_t: float, alphabet: Alphabet, bound: CdfLowerBound
) -> SufficiencyBound:
    """Smallest length n with defect below min(eps)/2, and the sample size
    ceil((q^(n+1)/d) * ln(q^(n+1)/(2d))) that provably suffices there."""
    for name, eps in (("epsilon_h", epsilon_h), ("epsilon_t", epsilon_t)):
        if not 0.0 < eps <= 1.0:
            raise DomainError(f"{name} must lie in (0,1], got {eps}")
    target = min(epsilon_h, epsilon_t) / 2.0
    n_bar = 0
    while bound.defect(n_bar) >= target:
        n_bar += 1
        if n_bar > 10_000_000:
            raise DomainError("bound tail never crosses the required level")
    d = bound.defect(n_bar)
    if d <= 0.0:
        raise DomainError(
            "bound reaches 1 at the target length; the sample-size formula "
            "needs a positive tail defect"
        )
    try:
        x = float(alphabet.size ** (n_bar + 1))
    except OverflowError as exc:
        raise DomainError("alphabet level count overflows the formula") from exc
    m_bar = math.ceil(x / d * math.log(x / (2.0 * d)) + 1e-9)
    return SufficiencyBound(epsilon_h, epsilon_t, n_bar, int(m_bar))


@dataclass(frozen=True)
class NecessityBound:
    n_lower: int
    m_lower: int


def _necessity_argmin(alphabet: Alphabet, bound: CdfLowerBound) -> tuple[int, Fraction]:
    """argmin over n of |strings up to n| / bound(n), ties to smaller n.

    Zero bound values count as +infinity. The level count alone eventually
    exceeds the running minimum (the bound never exceeds 1), which ends the
    scan.
    """
    best_n = None
    best = None
    n = 0
    while True:
        cnt = count_upto(alphabet, n)
        if best is not None and cnt > best:
            break
        c = bound.value(n)
        if c > 0.0:
            val = Fraction(cnt) / Fraction(c)
            if best is None or val < best:
                best, best_n = val, n
        n += 1
        if n > 1_000_000:
            raise DomainError("bound is zero over the whole representable range")
    return best_n, best


def nfl_sizes(alphabet: Alphabet, bound: CdfLowerBound) -> NecessityBound:
    n_lower, objective = _necessity_argmin(alphabet, bound)
    return NecessityBound(n_lower=n_lower, m_lower=int(math.ceil(objective)))


def construct_hard_support(
    alphabet: Alphabet, bound: CdfLowerBound, max_size: int = 1_000_000
) -> list[Str]:
    """The uniform support realizing the necessity bound: full length-levels
    while they fit under the argmin objective, one partial level of
    shortlex-least strings, nothing beyond. Equivalently: the shortlex-first
    floor(objective) strings."""
    _, objective = _necessity_argmin(alphabet, bound)
    size = objective.numerator // objective.denominator
    check_budget(
        "hard support would hold {} strings (cap {})", (size, max_size),
        max_size, 0, lambda: size,
    )
    return [shortlex_string(alphabet, i) for i in range(size)]


def lambda_t(lambda_h) -> Fraction:
    """(1 - 2*lh) / (2 - 2*lh), exactly."""
    lh = Fraction(lambda_h)
    if not 0 < lh < 1:
        raise DomainError(f"lambda_h must lie in (0,1), got {lambda_h}")
    return (1 - 2 * lh) / (2 - 2 * lh)


def general_lambda_t(p: int, lambda_h) -> Fraction:
    """(mu - lh) / (1 - lh) with mu = (p-1)/(2p), exactly."""
    if p < 1:
        raise DomainError(f"p must be >= 1, got {p}")
    lh = Fraction(lambda_h)
    if not 0 < lh < 1:
        raise DomainError(f"lambda_h must lie in (0,1), got {lambda_h}")
    mu = Fraction(p - 1, 2 * p)
    return (mu - lh) / (1 - lh)


class MarkovCheck(NamedTuple):
    lhs: Fraction
    rhs: Fraction
    holds: bool


def markov_tail_check(z_pmf, c, a) -> MarkovCheck:
    """Exact check of Pr(Z > a) >= (E[Z] - a)/(c - a) for Z supported in [0, c]."""
    c = Fraction(c)
    a = Fraction(a)
    if c <= 0:
        raise DomainError(f"c must be positive, got {c}")
    if not 0 < a < c:
        raise DomainError(f"a must lie strictly between 0 and c, got {a}")
    total = Fraction(0)
    mean = Fraction(0)
    lhs = Fraction(0)
    for value, mass in z_pmf:
        v = Fraction(value)
        p = Fraction(mass)
        if not 0 <= v <= c:
            raise DomainError(f"value {v} outside [0, {c}]")
        if p < 0:
            raise DomainError(f"negative mass {p}")
        total += p
        mean += v * p
        if v > a:
            lhs += p
    if total != 1:
        raise DomainError(f"masses must sum to exactly 1, got {total}")
    rhs = (mean - a) / (c - a)
    return MarkovCheck(lhs=lhs, rhs=rhs, holds=lhs >= rhs)


@dataclass(frozen=True)
class NflInstance:
    """A finite domain/codomain pair with a training size and a black-box
    learner; the enumeration quantifies over every labeling f: domain -> codomain
    and every training input sequence."""

    domain: tuple[Str, ...]
    codomain: tuple[Str, ...]
    m: int
    learner: Callable[[TrainingSequence], Callable[[Str], Str]]

    def __post_init__(self):
        n = len(self.domain)
        if n < 1:
            raise DomainError("domain must be non-empty")
        if len(set(self.domain)) != n:
            raise DomainError("domain strings must be distinct")
        if len(self.codomain) < 1:
            raise DomainError("codomain must be non-empty")
        if len(set(self.codomain)) != len(self.codomain):
            raise DomainError("codomain strings must be distinct")
        if not 0 <= self.m <= n // 2:
            raise DomainError(
                f"m must satisfy 0 <= m <= floor(|domain|/2) = {n // 2}, got {self.m}"
            )


def check_nfl_budget(n: int, p: int, m: int, budget: int) -> None:
    """Bound the work of an NFL enumeration over n domain strings, p codomain
    strings and training size m by p^n * n^m * n elementary evaluations,
    of at least n*floor(log2 p) + (m+1)*floor(log2 n) bits."""
    check_budget(
        "enumeration needs {}^{} * {}^{} * {} elementary evaluations (budget {})",
        (p, n, n, m, n, budget),
        budget,
        n * (p.bit_length() - 1) + (m + 1) * (n.bit_length() - 1),
        lambda: p**n * n**m * n,
    )


@dataclass(frozen=True)
class TailCheck:
    lambda_h: Fraction
    probability: Fraction  # exact Pr over training sequences of HP >= lambda_h
    bound: Fraction
    holds: bool


@dataclass(frozen=True)
class NflReport:
    worst_f_index: int
    worst_expected_hp: Fraction
    bound_mu: Fraction
    tail_check: tuple[TailCheck, ...]
    verified: bool


def nfl_brute_force(
    inst: NflInstance, lambda_h_grid=(Fraction(1, 8), Fraction(1, 4)), budget: int = 10**8
) -> NflReport:
    """Exhaustive, exact verification that some labeling forces the learner's
    expected hallucination probability to at least (p-1)/(2p).

    Labelings are enumerated lexicographically by their output index tuple
    over the domain; training sequences by their domain index tuple. Learner
    outputs outside the codomain always count as wrong. Identical training
    sequences are trained once (the learner contract requires deterministic
    output), which is what keeps the enumeration cheap; per-labeling
    hallucination counts are integer numpy sums, assembled into Fractions at
    the end.
    """
    n = len(inst.domain)
    p = len(inst.codomain)
    check_nfl_budget(n, p, inst.m, budget)
    q_total = p**n
    # F[q, j] = codomain index assigned to domain[j] by labeling q.
    qs = np.arange(q_total, dtype=np.int64)
    f_matrix = np.empty((q_total, n), dtype=np.int64)
    for j in range(n):
        f_matrix[:, j] = (qs // p ** (n - 1 - j)) % p
    codomain_rank = {y: r for r, y in enumerate(inst.codomain)}
    sequences = list(itertools.product(range(n), repeat=inst.m))

    cache: dict = {}

    def outputs_for(seq, labels) -> np.ndarray:
        key = (seq, labels)
        found = cache.get(key)
        if found is None:
            t = TrainingSequence(
                tuple((inst.domain[x], inst.codomain[y]) for x, y in zip(seq, labels))
            )
            h = inst.learner(t)
            found = np.array(
                [codomain_rank.get(h(x), -1) for x in inst.domain], dtype=np.int64
            )
            cache[key] = found
        return found

    # A labeling's labels on a sequence's columns, read as one mixed-radix
    # integer (first column most significant): sorting these keys orders the
    # label rows lexicographically, as a row sort would.
    radix = p ** np.arange(inst.m - 1, -1, -1, dtype=np.int64)
    expected_counts = np.zeros(q_total, dtype=np.int64)
    for seq in sequences:
        cols = np.array(seq, dtype=np.int64)
        keys = f_matrix[:, cols] @ radix
        uniq, inverse = np.unique(keys, return_inverse=True)
        uniq_labels = (uniq[:, None] // radix) % p
        h_rows = np.empty((uniq.size, n), dtype=np.int64)
        for r, labels in enumerate(uniq_labels.tolist()):
            h_rows[r] = outputs_for(seq, tuple(labels))
        mismatches = np.count_nonzero(h_rows[inverse] != f_matrix, axis=1)
        expected_counts += mismatches

    d_total = len(sequences)
    worst_q = int(np.argmax(expected_counts))
    worst_expected = Fraction(int(expected_counts[worst_q]), d_total * n)
    bound_mu = Fraction(p - 1, 2 * p)

    # Exact tail of HP over training sequences, for the maximizing labeling.
    worst_row = f_matrix[worst_q]
    hp_counts = []
    for seq in sequences:
        labels = tuple(int(worst_row[x]) for x in seq)
        out = outputs_for(seq, labels)
        hp_counts.append(int(np.count_nonzero(out != worst_row)))
    checks = []
    for lh in lambda_h_grid:
        lh = Fraction(lh)
        hits = sum(1 for hp in hp_counts if Fraction(hp, n) >= lh)
        prob = Fraction(hits, d_total)
        bound_t = general_lambda_t(p, lh)
        checks.append(TailCheck(lambda_h=lh, probability=prob, bound=bound_t, holds=prob >= bound_t))

    verified = worst_expected >= bound_mu and all(ch.holds for ch in checks)
    return NflReport(
        worst_f_index=worst_q,
        worst_expected_hp=worst_expected,
        bound_mu=bound_mu,
        tail_check=tuple(checks),
        verified=verified,
    )


def memorize_constant_trainer(codomain):
    """Black-box learner: memorize the pairs, answer the first codomain
    element on anything unseen."""
    if not codomain:
        raise DomainError("codomain must be non-empty")
    fallback = codomain[0]

    def trainer(t: TrainingSequence):
        table = {s: y for s, y in t}

        def h(s: Str) -> Str:
            return table.get(s, fallback)

        return h

    return trainer


@dataclass(frozen=True)
class DiagonalConstruction:
    """For each window index i, psi[i-1] is the 1-based shortlex rank of an
    output differing from every listed model's answer on the i-th string."""

    models: tuple[Callable[[Str], Str], ...]
    alphabet: Alphabet
    horizon: int
    psi: tuple[int, ...]

    def input_string(self, i: int) -> Str:
        return shortlex_string(self.alphabet, i - 1)

    def f0_of(self, i: int) -> Str:
        if not 1 <= i <= self.horizon:
            raise DomainError(f"index {i} outside window 1..{self.horizon}")
        return shortlex_string(self.alphabet, self.psi[i - 1] - 1)

    def f0(self, s: Str) -> Str:
        return self.f0_of(shortlex_index(s) + 1)


def check_diagonal_budget(horizon: int, k_models: int, budget: int) -> None:
    """Bound the work of diagonalizing k_models models over `horizon` strings
    by horizon * k_models model queries."""
    check_budget(
        "diagonalizing {} models over {} strings needs {} * {} model queries (budget {})",
        (k_models, horizon, horizon, k_models, budget),
        budget, 0, lambda: horizon * k_models,
    )


def diagonalize(
    models, alphabet: Alphabet, horizon: int, budget: int = 10**8
) -> DiagonalConstruction:
    """Pick, for each of the first `horizon` strings, the shortlex-least
    string avoided by the first min(i, K) models' answers."""
    if horizon < 1:
        raise DomainError(f"horizon must be >= 1, got {horizon}")
    models = tuple(models)
    k_models = len(models)
    check_diagonal_budget(horizon, k_models, budget)
    psi = []
    for i in range(1, horizon + 1):
        s_i = shortlex_string(alphabet, i - 1)
        excluded = {models[j](s_i) for j in range(min(i, k_models))}
        k = 1
        while shortlex_string(alphabet, k - 1) in excluded:
            k += 1
        psi.append(k)
    return DiagonalConstruction(models=models, alphabet=alphabet, horizon=horizon, psi=tuple(psi))


def verify_diagonal(construction: DiagonalConstruction) -> bool:
    """Recheck both that every covered model differs from the diagonal map on
    every window string and that each psi value is the least candidate."""
    k_models = len(construction.models)
    for i in range(1, construction.horizon + 1):
        s_i = construction.input_string(i)
        target = construction.f0_of(i)
        answers = [
            construction.models[j](s_i) for j in range(min(i, k_models))
        ]
        if any(ans == target for ans in answers):
            return False
        for rank in range(1, construction.psi[i - 1]):
            candidate = shortlex_string(construction.alphabet, rank - 1)
            if candidate not in answers:
                return False
    return True


def random_table_models(
    alphabet: Alphabet, count: int, rng, table_size: int = 8, max_len: int = 6
) -> list[MemorizerModel]:
    """Random finite lookup models (empty-string default), for diagonal demos."""
    universe = count_upto(alphabet, max_len)
    size = min(table_size, universe)
    models = []
    for _ in range(count):
        keys = rng.choice(universe, size=size, replace=False)
        values = rng.integers(0, universe, size=size)
        table = {
            shortlex_string(alphabet, int(k)): shortlex_string(alphabet, int(v))
            for k, v in zip(keys, values)
        }
        models.append(MemorizerModel(alphabet, table, max_len))
    return models
