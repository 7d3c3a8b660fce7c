"""Shared constructors and brute-force references for the tests."""

import bisect
import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from hallustat import evaluation
from hallustat.core import Str, shortlex_index, shortlex_string
from hallustat.errors import DomainError
from hallustat.evaluation import derive_stream
from hallustat.limits import NflReport, TailCheck, general_lambda_t
from hallustat.measures import FiniteSupport
from hallustat.oracle import Labeler, TrainingSequence


def assert_rejected_before_any_draw(call, monkeypatch, match=None):
    """call(rng) raises DomainError (matching `match`, if given), derives no
    stream and reads nothing of rng."""
    def refuse(*args, **kwargs):
        raise AssertionError("a stream was derived before the arguments were checked")

    rng = derive_stream(11, 0)
    with monkeypatch.context() as patch:
        patch.setattr(evaluation, "derive_stream", refuse)
        patch.setattr(evaluation, "derive_streams", refuse)
        with pytest.raises(DomainError, match=match):
            call(rng)
    assert rng.random() == derive_stream(11, 0).random()


def rank_table(table) -> dict[int, int]:
    """A Str -> Str lookup table as the key rank -> output rank map a
    MemorizerModel holds."""
    return {shortlex_index(s): shortlex_index(y) for s, y in table.items()}


def uniform_support(members) -> FiniteSupport:
    """The uniform law over distinct strings: every atom has mass 1/k."""
    members = tuple(members)
    return FiniteSupport(tuple((s, Fraction(1, len(members))) for s in members))


class StrKeyedLaw:
    """Reference for FiniteSupport: the atoms as Str keys of a dict, every
    mass a Fraction, and every query a loop over the atoms in Python."""

    def __init__(self, atoms):
        self.atoms = tuple(atoms)
        self.index = {}
        for i, (s, _) in enumerate(self.atoms):
            if s in self.index:
                raise DomainError(f"atoms[{i}] repeats atoms[{self.index[s]}]")
            self.index[s] = i

    def pmf(self, s):
        i = self.index.get(s)
        return Fraction(0) if i is None else self.atoms[i][1]

    def mass(self, mask):
        return sum((p for (_, p), keep in zip(self.atoms, mask) if keep), Fraction(0))

    def length_cdf(self, n):
        return sum((p for s, p in self.atoms if len(s) <= n), Fraction(0))

    def sample_distinct(self, rng, size):
        """The distinct atoms drawn, in atom order, and each draw's index
        into them: one bisection of the float cumulative masses per draw,
        which are exactly 1.0 from the last atom of positive mass on."""
        cum = np.cumsum([float(p) for _, p in self.atoms]).tolist()
        last = max(i for i, (_, p) in enumerate(self.atoms) if p)
        cum[last:] = [1.0] * (len(cum) - last)
        drawn = [bisect.bisect_right(cum, u) for u in rng.random(size).tolist()]
        keys = sorted(set(drawn))
        at = {k: j for j, k in enumerate(keys)}
        return [self.atoms[k][0] for k in keys], [at[i] for i in drawn]


def product_probs(pmf, m):
    """Probabilities of all len(pmf)^m symbol sequences, lexicographic order."""
    out = pmf.astype(np.float64).copy()
    for _ in range(m - 1):
        out = np.multiply.outer(out, pmf).ravel()
    return out


def sample_batch_per_draw(dist, rng, size):
    """Reference for sample_batch: the same uniform arrays, decoded one draw
    at a time in Python ints, one new Str per draw. A FiniteSupport reads one
    uniform per draw and bisects its cumulative masses; a LengthFactored
    reads the lengths' uniforms, then the offsets'."""
    if isinstance(dist, FiniteSupport):
        cum = dist._sampling_cum.tolist()
        last = len(dist.atoms) - 1
        return [Str(dist.alphabet, dist.atoms[min(bisect.bisect_right(cum, u), last)][0].symbols)
                for u in rng.random(size).tolist()]
    u_len = rng.random(size)
    u_off = rng.random(size)
    lengths = np.searchsorted(dist._sampling_cum, u_len, side="right")
    q = dist.alphabet.size
    out = []
    for i in range(size):
        n = int(lengths[i])
        level = q**n
        if level < 2**62:
            off = int(u_off[i] * float(level))
        else:
            off = int(Fraction(float(u_off[i])) * level)
        off = min(off, level - 1)
        syms = [0] * n
        for j in range(n - 1, -1, -1):
            off, syms[j] = divmod(off, q)
        out.append(Str(dist.alphabet, tuple(syms)))
    return out


def generate_qualified_per_draw(mu, gt, m, labeler, rng) -> TrainingSequence:
    """Reference for generate_qualified: the inputs from sample_batch_per_draw,
    each labeled on its own, with a new pair tuple per draw. The uniform
    labeler reads one more uniform per draw and takes output
    min(int(u * k), k - 1) of the k acceptable ones."""
    inputs = sample_batch_per_draw(mu, rng, m)
    if labeler is Labeler.CANONICAL:
        return TrainingSequence(tuple((x, gt.canonical(x)) for x in inputs))
    pairs = []
    for x, u in zip(inputs, rng.random(m).tolist()):
        acc = gt.acceptable(x)
        pairs.append((x, acc[min(int(u * len(acc)), len(acc) - 1)]))
    return TrainingSequence(tuple(pairs))


def memorize_constant_oracle(codomain):
    """The Str form of nfl_brute_force's memorize_constant_trainer: memorize
    the pairs, answer the first codomain string on anything unseen."""
    def trainer(t: TrainingSequence):
        table = dict(t.pairs)
        return lambda s: table.get(s, codomain[0])

    return trainer


def nfl_per_sequence(inst, lambda_h_grid=(Fraction(1, 8), Fraction(1, 4))) -> NflReport:
    """Reference for nfl_brute_force: every one of the n^m training sequences,
    trained once per distinct restricted labeling, whatever the instance
    declares about order invariance, each hypothesis read as its row of
    codomain indices."""
    n = len(inst.domain)
    p = len(inst.codomain)
    q_total = p**n
    qs = np.arange(q_total, dtype=np.int64)
    f_matrix = np.empty((q_total, n), dtype=np.int64)
    for j in range(n):
        f_matrix[:, j] = (qs // p ** (n - 1 - j)) % p
    sequences = list(itertools.product(range(n), repeat=inst.m))

    cache: dict = {}

    def outputs_for(seq, labels) -> np.ndarray:
        key = (seq, labels)
        found = cache.get(key)
        if found is None:
            found = np.array(inst.learner(tuple(zip(seq, labels))), dtype=np.int64)
            assert found.shape == (n,)
            cache[key] = found
        return found

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
        expected_counts += np.count_nonzero(h_rows[inverse] != f_matrix, axis=1)

    worst_q = int(np.argmax(expected_counts))
    worst_row = f_matrix[worst_q]
    hist = Counter()
    for seq in sequences:
        out = outputs_for(seq, tuple(int(worst_row[x]) for x in seq))
        hist[int(np.count_nonzero(out != worst_row))] += 1
    return nfl_report(worst_q, hist, n, p, lambda_h_grid)


def nfl_report(worst_f_index, hist, n, p, lambda_h_grid) -> NflReport:
    """The NflReport of a worst labeling on which hist[c] of the training
    sequences leave c of the n domain strings mismatched."""
    total = sum(hist.values())
    worst_expected = Fraction(sum(c * count for c, count in hist.items()), total * n)
    bound_mu = Fraction(p - 1, 2 * p)
    checks = []
    for lh in lambda_h_grid:
        lh = Fraction(lh)
        prob = Fraction(sum(count for c, count in hist.items() if Fraction(c, n) >= lh), total)
        bound_t = general_lambda_t(p, lh)
        checks.append(TailCheck(lambda_h=lh, probability=prob, bound=bound_t,
                                holds=prob >= bound_t))
    return NflReport(
        worst_f_index=worst_f_index,
        worst_expected_hp=worst_expected,
        bound_mu=bound_mu,
        tail_check=tuple(checks),
        verified=worst_expected >= bound_mu and all(ch.holds for ch in checks),
    )


def nfl_memorizer_report(n, codomain, m, k, fallback,
                         lambda_h_grid=(Fraction(1, 8), Fraction(1, 4))) -> NflReport:
    """Closed form of nfl_brute_force's report on n domain strings at
    training size m, for an order-invariant memorizer: a learner that answers
    each of k fixed domain strings with its label once it is drawn, and every
    other domain string with one fixed string, fallback. Both CLI learners
    are such memorizers: memorize_constant (k = n, fallback codomain[0]) and
    flrm (k = the domain strings no longer than n̄(m), fallback ε).

    A labeling errs on a sequence exactly on its domain strings whose label
    is not the fallback and that the sequence did not memorize. So the worst
    labelings are those that differ from the fallback everywhere, and the
    first of them in index order is all ones when the fallback is
    codomain[0] (index (p^n - 1)/(p - 1)) and all zeros otherwise, ties
    included (a fallback outside the codomain makes every labeling worst).
    For p = 1 with the fallback as the one codomain string, the one labeling
    never errs. On the worst labeling, C(k, j) * sum_i (-1)^i C(j, i)
    (n - k + j - i)^m of the n^m sequences memorize exactly j strings and
    leave n - j mismatches.
    """
    p = len(codomain)
    if fallback in codomain and p == 1:
        return nfl_report(0, {0: n**m}, n, p, lambda_h_grid)
    worst = (p**n - 1) // (p - 1) if codomain[0] == fallback else 0
    hist = {n - j: math.comb(k, j) * sum((-1) ** i * math.comb(j, i) * (n - k + j - i) ** m
                                         for i in range(j + 1))
            for j in range(k + 1)}
    return nfl_report(worst, hist, n, p, lambda_h_grid)


def diagonalize_by_queries(models, alphabet, horizon) -> tuple[int, ...]:
    """Reference for diagonalize's psi: ask each covered model for its answer
    on each window string, then take the shortlex-least unused output."""
    psi = []
    for i in range(1, horizon + 1):
        s_i = shortlex_string(alphabet, i - 1)
        excluded = {models[j](s_i) for j in range(min(i, len(models)))}
        k = 1
        while shortlex_string(alphabet, k - 1) in excluded:
            k += 1
        psi.append(k)
    return tuple(psi)


def verify_diagonal_by_pairs(construction) -> bool:
    """Reference for verify_diagonal: rebuild s_i, f0(s_i) and each candidate
    below psi_i as Str objects and compare them with each covered model's
    answer by Str equality, one pair at a time."""
    k_models = len(construction.models)
    for i in range(1, construction.horizon + 1):
        s_i = construction.input_string(i)
        target = construction.f0_of(i)
        answers = [construction.models[j](s_i) for j in range(min(i, k_models))]
        if any(ans == target for ans in answers):
            return False
        for rank in range(1, construction.psi[i - 1]):
            if shortlex_string(construction.alphabet, rank - 1) not in answers:
                return False
    return True
