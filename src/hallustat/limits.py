"""Finite-sample bounds and adversarial constructions.

Sufficiency: the sample size above which the threshold memorizer keeps the
hallucination probability below target levels. Necessity: the sample size
below which every learner can be forced to fail, via an exhaustive and
exact no-free-lunch enumeration over all labelings of a finite domain, a
hard uniform support dominating a given length-CDF bound, a discrete
reverse-Markov tail inequality, and a diagonal construction that differs
from every model in a finite list.

Everything necessity-side is exact rational arithmetic; only the
sufficient sample size, flrm.sample_size_at (a logarithm), uses floats;
m̄ is the least integer above it plus a 1e-9 guard.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .core import Alphabet, Str, count_upto, shortlex_index, shortlex_string, shortlex_strings
from .errors import DomainError, _int_text, check_budget, check_int
from .flrm import MemorizerModel, level_float, sample_size_at
from .measures import CdfLowerBound
from .oracle import TrainingSequence

# Defaults of nfl_brute_force, diagonalize and random_table_models; the CLI reads them too.
NFL_LAMBDA_H_GRID = (Fraction(1, 8), Fraction(1, 4))
NFL_BUDGET = DIAGONAL_BUDGET = 10**8
MODEL_TABLE_SIZE, MODEL_MAX_LEN = 8, 6
# nfl_brute_force's batch cap: labelings x units x domain strings per batch.
NFL_BATCH_CELLS = 2**16
# The most strings (domain and codomain) and labelings an NFL enumeration holds
# (check_nfl_budget). tracemalloc reads nfl-verify's peak at about 380 to 430 B
# per string (n = 1, p = 2^14 to 2^18) and, at m = 0, 8n + 2w + w/8 + 8 B per
# labeling of n strings in int8 codes padded to w = 8 * ceil(n / 8) (n = 9 to
# 20: f_matrix, the int64 hist and one batch's mismatch bytes and word counts):
# about 466 MB at 1/(2^20 - 1)/0, and 230 MB at 20/2/0 (247 MB resident).
NFL_STRING_CAP = NFL_LABELING_CAP = 2**20
# The most bounded draws one rng.integers call of random_table_models holds,
# and the most table entries, count * max(min(table_size, U), 1), it draws.
# tracemalloc reads its peak at 95 B per entry in 200 tables of 10^4
# entries, 225 B in one table of 2^21 (273 B where choice would shuffle all
# U places) and 433 B in 2^21 tables of one entry, where each model's own
# objects dominate: 866 MiB at the cap (952 MB resident). A model of an empty
# table still takes about 209 B (2^15 of them), so it is charged one entry.
TABLE_DRAW_CHUNK, TABLE_ENTRY_CAP = 2**16, 2**21


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
    that provably suffices there: the least integer above
    sample_size_at(n) + 1e-9, so threshold_length at that size reaches n
    even where the float has an integer value (as every float from 2^52 on
    does) and the guard is lost in rounding."""
    for name, eps in (("epsilon_h", epsilon_h), ("epsilon_t", epsilon_t)):
        if not 0.0 < eps <= 1.0:
            raise DomainError(f"{name} must lie in (0,1], got {eps}")
    target = min(epsilon_h, epsilon_t) / 2.0
    if target == 0.0:
        raise DomainError(f"half of epsilon {min(epsilon_h, epsilon_t)!r} rounds to 0.0, "
                          "below every bound defect")
    n_bar = 0
    # Once q^(n+1) is past the float range, so is the size: the scan stops there.
    while bound.defect(n_bar) >= target and level_float(n_bar, alphabet) < math.inf:
        n_bar += 1
    m_bar = sample_size_at(n_bar, alphabet, bound)
    if m_bar == math.inf:
        why = ("needs a positive tail defect; the bound reaches 1 there"
               if bound.defect(n_bar) <= 0.0 else "is past the float range")
        raise DomainError(f"the sample-size formula at length {n_bar} {why}")
    return SufficiencyBound(epsilon_h, epsilon_t, n_bar, math.floor(m_bar + 1e-9) + 1)


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
    floor(objective) strings. max_size is an int >= 0 (check_int)."""
    _, objective = _necessity_argmin(alphabet, bound)
    size = objective.numerator // objective.denominator
    check_budget("hard support would hold {} strings (cap {})", (size, max_size), max_size, 0,
                 lambda: size, "max_size")
    return list(shortlex_strings(alphabet, 0, size))


def lambda_t(lambda_h) -> Fraction:
    """(1 - 2*lh) / (2 - 2*lh), exactly."""
    lh = Fraction(lambda_h)
    if not 0 < lh < 1:
        raise DomainError(f"lambda_h must lie in (0,1), got {lambda_h}")
    return (1 - 2 * lh) / (2 - 2 * lh)


def general_lambda_t(p: int, lambda_h) -> Fraction:
    """(mu - lh) / (1 - lh) with mu = (p-1)/(2p), exactly; p is an int >= 1
    (check_int)."""
    check_int(p, "p", 1)
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
    and every training input sequence. The learner works on indices: given a
    training sequence as (domain index, codomain index) pairs, it returns a row
    of n codomain indices in domain order, -1 outside the codomain; a Str
    learner is passed as learner_on_indices(domain, codomain, learner).

    order_invariant declares that the learner's hypothesis depends on a
    training sequence only through its length and its set of distinct pairs
    (true of the memorizers and of FLRM, whose threshold reads only the
    length). nfl_brute_force then trains once per support instead of once
    per sequence; the declaration is trusted, not checked. m is an int
    (check_int) with 0 <= m <= floor(|domain|/2).
    """

    domain: tuple[Str, ...]
    codomain: tuple[Str, ...]
    m: int
    learner: Callable[[tuple[tuple[int, int], ...]], Sequence[int]]
    order_invariant: bool = False

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
        check_int(self.m, "m", 0)
        if self.m > n // 2:
            raise DomainError(
                f"m must satisfy 0 <= m <= floor(|domain|/2) = {n // 2}, got {self.m}"
            )


def _surjections(m: int, k: int) -> int:
    """Length-m sequences over k items that use every item: k! * S(m, k),
    by inclusion-exclusion."""
    return sum((-1) ** j * math.comb(k, j) * (k - j) ** m for j in range(k + 1))


def _support_sizes(n: int, m: int) -> range:
    """Sizes of the distinct-item sets of the length-m sequences over n items."""
    return range(1, min(m, n) + 1) if m else range(1)


def nfl_work(n: int, p: int, m: int, order_invariant: bool = False) -> int:
    """Elementary evaluations of an NFL enumeration over n domain strings, p
    codomain strings and training size m: n * p^n per mismatch pass over all
    labelings, plus n per learner call.

    A support of size k carries C(n, k) sets and p^k restricted labelings. An
    order-invariant learner makes one pass per support and one call per
    restricted labeling; any other learner repeats both for each of the
    support's k! * S(m, k) arrangements.
    """
    passes = calls = 0
    sizes = _support_sizes(n, m)
    choose = math.comb(n, sizes.start)  # C(n, k), stepped along with k
    for k in sizes:
        units = choose if order_invariant else choose * _surjections(m, k)
        passes += units
        calls += units * p**k
        choose = choose * (n - k) // (k + 1)
    return n * p**n * passes + n * calls


def check_nfl_budget(n: int, p: int, m: int, budget: int, order_invariant: bool = False) -> None:
    """Bound the work of an NFL enumeration by nfl_work, then its memory:
    DomainError past NFL_STRING_CAP strings n + p or NFL_LABELING_CAP
    labelings p^n, before any of them is built.

    The work has at least floor(log2 n) + n*floor(log2 p) bits, plus
    m*floor(log2 n) for the n^m passes of a learner that is not
    order-invariant, or min(m, n//2) for the at least C(n, min(m, n//2))
    supports of one that is. n and p are ints >= 1, and m and budget ints
    >= 0 (check_int), the sizes checked before the budget.
    """
    check_int(n, "n", 1)
    check_int(p, "p", 1)
    check_int(m, "m", 0)
    low_bits = (n.bit_length() - 1) + n * (p.bit_length() - 1)
    low_bits += min(m, n // 2) if order_invariant else m * (n.bit_length() - 1)
    check_budget(
        "enumerating {}^{} labelings of {} strings at training size {} exceeds "
        "the budget of {} elementary evaluations",
        (p, n, n, m, budget),
        budget,
        low_bits,
        lambda: nfl_work(n, p, m, order_invariant),
    )
    if n + p > NFL_STRING_CAP:
        raise DomainError(f"{_int_text(n)} domain and {_int_text(p)} codomain strings are more "
                          f"than the {NFL_STRING_CAP} an NFL enumeration holds")
    # p^n is formed only once its bit-length bound is within the cap's.
    if n * (p.bit_length() - 1) >= NFL_LABELING_CAP.bit_length() or p**n > NFL_LABELING_CAP:
        raise DomainError(f"{_int_text(p)}^{_int_text(n)} labelings are more than the "
                          f"{NFL_LABELING_CAP} an NFL enumeration holds")


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


def _nfl_units(n: int, m: int, k: int, order_invariant: bool):
    """Lazily, each unit of support size k in enumeration order: (support,
    positions), where the training inputs are support[i] for i in positions.
    An order-invariant learner has one unit per support, the support in
    domain order padded to length m with its last element; any other learner
    one per arrangement of the support into a length-m sequence."""
    for support in itertools.combinations(range(n), k):
        if order_invariant:
            yield support, tuple(range(k)) + (k - 1,) * (m - k)
        else:
            for positions in itertools.product(range(k), repeat=m):
                if len(set(positions)) == k:
                    yield support, positions


def _score_batch(hist, f_matrix, outputs, supports, labels, p: int, weight: int) -> None:
    """Add weight to hist[q, c] once for each unit of a batch whose
    hypothesis trained on labeling q's pairs gets c of the n domain strings
    wrong (np.add.at, as the units of a batch repeat each q).

    f_matrix[q] is labeling q's row of n label codes, padded with zero codes
    to w columns, a multiple of 8. labels[j] holds domain[j]'s code under
    every labeling (None when every support is empty). supports[u] is unit
    u's support (k domain indices), and the int array outputs holds, unit
    after unit, its hypotheses' label codes on the domain: one row of n per
    restricted labeling, in lexicographic order. These rows are written into
    the padded layout too, so the padding always matches. Each (unit,
    labeling)'s hypothesis row is gathered by np.take, which copies rows far
    faster than fancy indexing, and its mismatch bytes, each 0 or 1, are
    counted by a popcount of each 8-byte word.
    """
    n = hist.shape[1] - 1
    w = f_matrix.shape[1]
    h_rows = np.zeros((len(outputs) // n, w), dtype=f_matrix.dtype)
    h_rows[:, :n] = outputs.reshape(-1, n)
    # rows[u, q] = u * p^k + f_q|S read as a mixed-radix integer (first column
    # most significant), the row of h_rows that unit u trained on f_q|S.
    rows = np.arange(len(supports), dtype=np.int64)[:, None]
    for column in supports.T:
        rows = rows * p + labels[column]
    # The bool mismatch array is a temporary, freed before wrong is built.
    words = np.bitwise_count((h_rows.take(rows, axis=0) != f_matrix).view(np.uint64))
    # Over a few words, a slice addition per word is far faster than np.sum
    # along an axis that narrow; over many (n > 64, so p = 1), np.sum is.
    if words.shape[2] > 8:
        wrong = words.sum(axis=2, dtype=np.int64)
    else:
        wrong = words[..., 0].astype(np.int64)
        for i in range(1, words.shape[2]):
            wrong += words[..., i]
    wrong += np.arange(0, hist.size, n + 1)
    np.add.at(hist.reshape(-1), wrong.ravel(), weight)


def nfl_brute_force(
    inst: NflInstance, lambda_h_grid=NFL_LAMBDA_H_GRID, budget: int = NFL_BUDGET
) -> NflReport:
    """Exhaustive, exact verification that some labeling forces the learner's
    expected hallucination probability to at least (p-1)/(2p).

    Labelings are enumerated lexicographically by their output index tuple
    over the domain. Training sequences are grouped by their support, the
    set S of domain indices they use (1 <= |S| <= m, or the one empty
    sequence when m = 0), and a labeling reaches the learner only through
    its restriction to S, as index pairs; it answers a row of n ints in
    -1..p-1 (NflInstance), or DomainError names it, and -1 is always wrong.
    An order-invariant learner is trained once per (S, f|S), on S in domain
    order padded to length m with its last element, and its mismatches
    weigh as many as the k! * S(m, k) sequences with support S (k = |S|).
    Any other learner is trained on every such sequence.

    A unit is a support with its training sequence: one per support for an
    order-invariant learner, one per arrangement otherwise. Within each
    support size, units come lazily in batches of as many as keep labelings
    x units x n within NFL_BATCH_CELLS = 2^16, and at least one (32 units at
    8/2/4, one at 12/2/6). A batch makes its learner calls in enumeration
    order, then scores every labeling against every unit in numpy passes on
    label codes -1..p-1 in the narrowest signed int type (int8 up to p = 128),
    each row padded to a whole number of 8-byte words (_score_batch).
    Per-labeling counts of sequences by number of mismatched domain strings
    are int64 sums; the expected HP and the exact tail probabilities of the
    worst labeling are assembled from them as Fractions. The budget is an
    int >= 0 (check_int) that bounds nfl_work (check_nfl_budget).
    """
    n = len(inst.domain)
    p = len(inst.codomain)
    m = inst.m
    check_nfl_budget(n, p, m, budget, inst.order_invariant)
    if n ** (m + 1) >= 2**63:
        raise DomainError(
            f"{n}^{m} training sequences times {n} domain strings overflow int64 counts"
        )
    q_total = p**n
    # labels[j, q] = codomain index assigned to domain[j] by labeling q (its
    # base-p digit j, the first most significant), as a label code of the
    # narrowest signed type holding -p, so -1..p-1 too; f_matrix holds the
    # same codes labeling by labeling, each row padded with zero codes to a
    # whole number of 8-byte words.
    code = np.min_scalar_type(-p)
    labels = np.empty((n, q_total), dtype=code)
    for j in range(n):
        labels[j].reshape(p**j, p, -1)[...] = np.arange(p, dtype=code)[:, None]
    f_matrix = np.zeros((q_total, -(-n // 8) * 8), dtype=code)
    f_matrix[:, :n] = labels.T
    if not m:
        labels = None  # the one unit's support is empty: no column is read
    learner = inst.learner
    name = getattr(learner, "__qualname__", None) or repr(learner)
    # pairs[i][j] is the one training pair (i, j): domain[i] labeled codomain[j].
    pairs = [tuple((x, y) for y in range(p)) for x in range(n)]
    identity = tuple(range(m))
    per_batch = max(1, NFL_BATCH_CELLS // (q_total * n))

    # hist[q, c] = number of training sequences on which the learner
    # trained on labeling q's pairs gets exactly c domain strings wrong.
    hist = np.zeros((q_total, n + 1), dtype=np.int64)
    for k in _support_sizes(n, m):
        weight = _surjections(m, k) if inst.order_invariant else 1
        units = _nfl_units(n, m, k, inst.order_invariant)
        while batch := list(itertools.islice(units, per_batch)):
            outputs = []
            for support, positions in batch:
                # The restricted labelings in lexicographic order, each as
                # the pair it gives each support element, arranged into the
                # unit's training sequence.
                chosen = itertools.product(*(pairs[x] for x in support))
                if positions == identity:
                    sequences = chosen
                elif inst.order_invariant:
                    sequences = (c + (c[-1],) * (m - k) for c in chosen)
                else:
                    sequences = (tuple(map(c.__getitem__, positions)) for c in chosen)
                for row in map(learner, sequences):
                    if callable(row) or len(row) != n:
                        raise DomainError(f"learner {name} gave {row!r:.60}, not a row of {n} "
                                          "codes; a Str learner goes through learner_on_indices")
                    outputs.extend(row)
            codes = np.array(outputs)
            ints = codes.dtype.kind in "iu" and codes.ndim == 1
            if not ints or not -1 <= codes.min() <= codes.max() < p:
                raise DomainError(f"learner {name} gave codes that are not ints in -1..{p - 1}")
            supports = np.array([s for s, _ in batch], dtype=np.intp)
            _score_batch(hist, f_matrix, codes, supports, labels, p, weight)

    d_total = n**m
    expected_counts = hist @ np.arange(n + 1, dtype=np.int64)
    worst_q = int(np.argmax(expected_counts))
    worst_expected = Fraction(int(expected_counts[worst_q]), d_total * n)
    bound_mu = Fraction(p - 1, 2 * p)

    # Exact tail of HP over training sequences, for the maximizing labeling.
    worst_hist = hist[worst_q].tolist()
    checks = []
    for lh in lambda_h_grid:
        lh = Fraction(lh)
        hits = sum(count for c, count in enumerate(worst_hist) if Fraction(c, n) >= lh)
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


def memorize_constant_trainer(n: int):
    """Index learner over n domain strings (see NflInstance): memorize the
    pairs, answer code 0, the first codomain string, on any unseen index."""
    check_int(n, "n", 1)

    def trainer(pairs):
        row = [0] * n
        for x, y in pairs:
            row[x] = y
        return row

    return trainer


def learner_on_indices(domain, codomain, learner):
    """Str learner over domain and codomain in NflInstance's index form: trained
    on the pairs' strings, each hypothesis asked once per domain string, in domain order."""
    rank = {y: r for r, y in enumerate(codomain)}.get

    def indexed(training):
        h = learner(TrainingSequence(tuple((domain[x], codomain[y]) for x, y in training)))
        return list(map(rank, map(h, domain), itertools.repeat(-1)))

    return indexed


@dataclass(frozen=True)
class DiagonalConstruction:
    """For each window index i, psi[i-1] is the 1-based shortlex rank of an
    output differing from every listed model's answer on the i-th string."""

    models: tuple[Callable[[Str], Str], ...]
    alphabet: Alphabet
    horizon: int
    psi: tuple[int, ...]

    def __post_init__(self):
        if len(self.psi) != self.horizon:
            raise DomainError(
                f"psi holds {len(self.psi)} ranks for a window of {self.horizon} strings"
            )
        if any(p < 1 for p in self.psi):
            raise DomainError("every psi value must be a 1-based rank, >= 1")

    def input_string(self, i: int) -> Str:
        return shortlex_string(self.alphabet, i - 1)

    def f0_of(self, i: int) -> Str:
        if not 1 <= i <= self.horizon:
            raise DomainError(f"index {i} outside window 1..{self.horizon}")
        return shortlex_string(self.alphabet, self.psi[i - 1] - 1)

    def f0(self, s: Str) -> Str:
        """The diagonal map on a window string over the construction's
        alphabet (the same object or an equal one)."""
        if s.alphabet is not self.alphabet and s.alphabet != self.alphabet:
            raise DomainError(f"f0 takes strings over {self.alphabet!r}, got one over "
                              f"{s.alphabet!r}")
        return self.f0_of(shortlex_index(s) + 1)


def check_diagonal_budget(horizon: int, k_models: int, budget: int) -> None:
    """Bound the work of diagonalizing K = k_models models over H = `horizon`
    strings by the queries verify_diagonal makes, sum_i min(i, K):
    K(K+1)/2 + (H - K)K for K < H, else H(H+1)/2. horizon is an int >= 1,
    and k_models and budget ints >= 0 (check_int), the sizes checked before
    the budget."""
    check_int(horizon, "horizon", 1)
    check_int(k_models, "k_models", 0)
    k = min(k_models, horizon)
    queries = k * (k + 1) // 2 + (horizon - k) * k
    check_budget(
        "diagonalizing {} models over {} strings needs {} model queries (budget {})",
        (k_models, horizon, queries, budget),
        budget, 0, lambda: queries,
    )


def diagonalize(
    models, alphabet: Alphabet, horizon: int, budget: int = DIAGONAL_BUDGET
) -> DiagonalConstruction:
    """Pick, for each of the first `horizon` strings, the shortlex-least
    string avoided by the first min(i, K) models' answers.

    The models must be MemorizerModels over `alphabet`. Such a model answers
    its table entry on a string in its table and the empty string (rank 0)
    on every other, so the answers' ranks on the window come from inverting
    the rank tables, with no query and no Str. The budget still bounds the
    sum_i min(i, K) queries that verify_diagonal makes. horizon is an int
    >= 1 and budget an int >= 0 (check_int).
    """
    check_int(horizon, "horizon", 1)
    models = tuple(models)
    k_models = len(models)
    check_diagonal_budget(horizon, k_models, budget)
    # Window rank r -> ranks of the table answers on s_r of the models
    # j <= r that cover s_r, one per model whose table holds s_r.
    table_answers: dict[int, list[int]] = {}
    for j, model in enumerate(models):
        if not isinstance(model, MemorizerModel):
            raise DomainError(
                f"diagonalize reads model tables; model {j} is a "
                f"{type(model).__name__}, not a MemorizerModel"
            )
        if model.alphabet != alphabet:
            raise DomainError(f"model {j} uses another alphabet than the window")
        for r, y in model.table.items():
            if j <= r < horizon:
                table_answers.setdefault(r, []).append(y)
    psi = []
    for r in range(horizon):
        hits = table_answers.get(r, ())
        excluded = set(hits)
        if min(r + 1, k_models) > len(hits):
            # A covered model leaves s_r to its default output, the empty
            # string (rank 0) for every MemorizerModel.
            excluded.add(0)
        k = 0
        while k in excluded:
            k += 1
        psi.append(k + 1)
    return DiagonalConstruction(models=models, alphabet=alphabet, horizon=horizon, psi=tuple(psi))


def _answer_rank(answer, alphabet: Alphabet, cap: int) -> int:
    """The shortlex rank of a model's answer, clipped to cap, or -1 when the
    answer is not a Str over `alphabet` (the same object or an equal one)."""
    if type(answer) is Str and (answer.alphabet is alphabet or answer.alphabet == alphabet):
        return min(shortlex_index(answer), cap)
    return -1


def _window_answers(model, alphabet: Alphabet, start: int, stop: int, cap: int,
                    window: list[Str]) -> np.ndarray:
    """The int64 answers of a black-box `model` on the window strings of
    shortlex ranks start..stop - 1, each as _answer_rank gives it: the model
    is asked once per string, through its type's __call__ bound to it, as
    model(s) resolves it. The window's Strs are built into `window` the
    first time they are needed. Table models never come here (verify_diagonal).
    """
    if not window:
        window.extend(shortlex_strings(alphabet, 0, stop))
    call = type(model).__call__.__get__(model)
    return np.fromiter((_answer_rank(call(s), alphabet, cap) for s in window[start:stop]),
                       dtype=np.int64, count=stop - start)


def verify_diagonal(construction: DiagonalConstruction) -> bool:
    """Recheck both that every covered model differs from the diagonal map on
    every window string and that each psi value is the least candidate.

    Model j (0-based) of the first min(K, H) answers on each window string
    of rank j..H-1, so the i-th string gets the answers of the first
    min(i, K) models, sum_i min(i, K) in all. The construction's own table
    inversion is never read, and a model past the horizon H is never
    touched. A MemorizerModel whose type's __call__ is
    MemorizerModel.__call__ (so also a subclass that overrides only predict)
    answers from its rank table, as model(s) would, with no query or Str:
    such models over the window's alphabet go into one scatter of their
    (key rank, output rank) entries with j <= key < H, and string r gets
    the empty default answer (rank 0) where fewer entries land on it than
    there are such models j <= r; over another alphabet, nothing counts.
    Any other model is a black box, asked each covered pair exactly once,
    model by model, through its type's __call__ bound to it, as model(s)
    resolves it (_window_answers). An answer counts only if it is a Str over
    the construction's alphabet (the same object or an equal one).

    Only candidates below max(psi) are compared, so each answer is kept as
    its shortlex rank clipped to max(psi), in one (H, max(psi) + 1) bool
    presence table. A psi_i above min(i, K) + 1 fails first, without a
    query: its psi_i - 1 candidates cannot all be among min(i, K) answers.
    So the table holds at most twice the queries the diagonalize budget
    charges, plus 2H. Any other failure is decided after all the answers:
    the i-th string passes iff the first candidate absent from its row is
    psi_i - 1.
    """
    alphabet = construction.alphabet
    horizon = construction.horizon
    psi = construction.psi
    k_models = len(construction.models)
    if any(p > min(i, k_models) + 1 for i, p in enumerate(psi, 1)):
        return False
    cap = max(psi)
    present = np.zeros((horizon, cap + 1), dtype=bool)
    window: list[Str] = []
    # Table entries (key rank, output rank clipped to cap in Python, as
    # ranks are ints of any size), and the index j of each table model.
    keys: list[int] = []
    outs: list[int] = []
    tables: list[int] = []
    for j, model in enumerate(construction.models[:horizon]):
        if isinstance(model, MemorizerModel) and type(model).__call__ is MemorizerModel.__call__:
            if model.alphabet == alphabet:
                tables.append(j)
                for r, y in model.table.items():
                    if j <= r < horizon:
                        keys.append(r)
                        outs.append(min(y, cap))
            continue
        answers = _window_answers(model, alphabet, j, horizon, cap, window)
        rows = np.flatnonzero(answers >= 0)
        present[rows + j, answers[rows]] = True
    present[keys, outs] = True
    # A table model j <= r with no entry on s_r answers its default "" there.
    covering = np.cumsum(np.bincount(tables, minlength=horizon))
    present[:, 0] |= np.bincount(keys, minlength=horizon) < covering
    present[:, cap] = False  # an answer clipped to max(psi) is no candidate
    return bool(np.all(present.argmin(axis=1) == np.asarray(psi) - 1))


def random_table_models(
    alphabet: Alphabet, count: int, rng, table_size=MODEL_TABLE_SIZE, max_len=MODEL_MAX_LEN
) -> list[MemorizerModel]:
    """Random finite lookup models (empty-string default), for diagonal demos.

    Each model draws min(table_size, U) distinct key ranks, then as many
    output ranks, among the U = count_upto(alphabet, max_len) strings of
    length at most max_len, and its table maps them in order; numpy draws
    them as int64, so U must stay below 2^63. No rank is decoded into a Str.
    count, table_size and max_len are ints >= 0 (check_int), rng a
    numpy.random.Generator, and count * max(min(table_size, U), 1) at most
    TABLE_ENTRY_CAP (an empty table still costs its model), or DomainError
    before any draw. The draws lie in [0, U) by construction, so the models
    are built without MemorizerModel's per-entry checks.

    The tables, and the words read from rng, are those of per-model calls
    rng.choice(U, size, replace=False), then rng.integers(0, U, size).
    """
    for name, value in (("count", count), ("table_size", table_size), ("max_len", max_len)):
        check_int(value, name, 0)
    # q^max_len has more than `low` bits. U is counted, and printed, only
    # while that leaves it a few thousand bits at most.
    low = max_len * (alphabet.size.bit_length() - 1)
    universe = count_upto(alphabet, max_len) if low <= 4096 else None
    if universe is None or universe >= 2**63:
        many = universe or f"more than 2^{_int_text(low)}"
        raise DomainError(
            f"max_len {_int_text(max_len)} gives {many} strings over an alphabet of "
            f"size {_int_text(alphabet.size)}; their ranks must stay below 2^63"
        )
    if not isinstance(rng, np.random.Generator):
        raise DomainError(f"rng must be a numpy.random.Generator, not {type(rng).__name__}")
    size = min(table_size, universe)
    if count * max(size, 1) > TABLE_ENTRY_CAP:
        entries = f"{_int_text(size)} entries" if size else "no entries (each charged as one)"
        raise DomainError(f"{_int_text(count)} tables of {entries} are more than the "
                          f"{TABLE_ENTRY_CAP} table entries random_table_models draws")
    # Each step of choice and integers is one bounded draw; list each bound
    # in stream order. choice takes Floyd's sample, then shuffles it, unless
    # size is past U // 50 with U > 10^4: then it shuffles the last size
    # places of range(U).
    tail = universe > 10_000 and size > universe // 50
    first = max(universe - size, 1)
    highs = np.concatenate((
        np.arange(universe, first, -1) if tail
        else np.concatenate((np.arange(universe - size, universe) + 1, np.arange(size, 1, -1))),
        np.full(size, universe)))
    total = count * len(highs)
    draws = itertools.chain.from_iterable(
        rng.integers(0, highs[np.arange(k, min(k + TABLE_DRAW_CHUNK, total)) % len(highs)]).tolist()
        for k in range(0, total, TABLE_DRAW_CHUNK))
    # Replay choice's picks on the draws. Each zip reads its range first, so
    # it takes no draw past the range.
    models = []
    for _ in range(count):
        if tail:
            perm = {}
            for i, j in zip(range(universe - 1, first - 1, -1), draws):
                perm[i], perm[j] = perm.get(j, j), perm.get(i, i)
            keys = [perm.get(i, i) for i in range(universe - size, universe)]
        else:
            keys = list(itertools.islice(draws, size))
            if len(set(keys)) < size:  # Floyd: at step j, a draw picked already gives j
                picked = {}
                for j, v in zip(range(universe - size, universe), keys):
                    picked[j if v in picked else v] = None
                keys = list(picked)
            for i, j in zip(range(size - 1, 0, -1), draws):
                keys[i], keys[j] = keys[j], keys[i]
        values = list(itertools.islice(draws, size))
        models.append(MemorizerModel._trusted(alphabet, dict(zip(keys, values)), max_len))
    return models
