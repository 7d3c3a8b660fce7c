"""Hallucination probability: exact computation, Monte Carlo estimation, and
the sweep, the one experiment driver.

Randomness contract: every trial draws from its own stream derived as
(master_seed, row, trial), so results are independent of execution order.
Each stream is still the PCG64 Generator of SeedSequence(master_seed,
spawn_key=(row, trial)), with an equal bit_generator state; sweep derives
the streams of a batch in one pass (streams.derive_streams). A stream's
bit_generator.seed_seq holds only its four PCG64 seed words: it is not a
numpy SeedSequence and cannot spawn.
A coded trial reads its stream by position, not in order, so it needs a
numpy Generator over PCG64, which derive_stream returns; it rejects any
other generator before it draws. Monte Carlo confidence intervals are
two-sided Hoeffding.

evaluate_hp is the one place that chooses how to evaluate. On an enumerable
finite support it sums the atoms exactly (exact_hp). For a memorizer on a
length-factored law it sums in closed form: the HP is
sum over n <= max(n̄, 0) of w_n * p(n) * q^-n, plus the mass of the longer
lengths when their empty default output is unacceptable, plus one term per
override longer than that, where w_n is the integer count of length-n
strings the memorizer answers wrongly. The default rule rejects the empty
output on every string of length >= gt._empty_wrong_from and on no shorter
one; each closed-form sum here reads that length. Every other predictor
gets a Monte Carlo estimate (mc_hp) at MC_FALLBACK: mc_hp draws through
mu.sample_distinct, counts each distinct draw with np.bincount, and
evaluates it once, weighted by that count.

_trial_path is the one place a trial's path is picked, from the instance,
never from the caller; run_trial runs one trial on it, and sweep asks it
once and runs each coded row as batches of trials. A threshold memorizer
(an FlrmTrainer on one alphabet with law and ground truth) runs the atom
trial on a finite support, on atom indices, and the coded trial on an
override-free length-factored law whose codes stay below 2^62, on int64
shortlex codes through the array kernels; both read the uniform stream
generate_qualified would consume. Every other instance runs on Str objects: generate_qualified,
which builds one Str per distinct draw and one pair tuple per distinct
(input, output) pair and repeats them by index, then the trainer (a
memorizer reads only the sequence's last_outputs(), one entry per distinct
input) and evaluate_hp, which sums the HP exactly on a finite support or for
a memorizer and gives any other model a Monte Carlo estimate at
MC_FALLBACK.

An atom trial draws the atom indices from the uniforms generate_qualified
would read, through the sampler FiniteSupport.sample_distinct uses, and marks
them in a seen-array. Every training pair is qualified, so the memorizer
errs exactly on the atoms whose acceptable set lacks the empty output and
that were not drawn at length <= n̄. The trial sums their masses with
FiniteSupport._mass, the exact sum exact_hp uses too: the rational exact_hp
returns for the trained model. It builds no Str, trains nothing, and leaves
the stream where generate_qualified leaves it.

A coded trial keeps a dense seen-table over all count_upto(n̄) strings of
length <= n̄ (the memorizer's threshold), and decodes only the draws that
can still change it. Coded trials at one m run as a batch (_fast_trial):
one row of the seen-table per trial, and one decode per chunk for all the
draws the batch keeps. A longer draw is never memorized. A draw below the
lowest level whose strings are not all seen lands on a seen string; a
level with no sampling mass counts as full, since no draw lands there. So
each chunk of training draws (512, then twice the last) decodes only the
draws from the trial's own lowest open level up to n̄, and the trial leaves
the batch once every level is full. It reads each block of uniforms at its
place in the PCG64 stream (one output is one double, and PCG64 jumps ahead
in O(log n) steps), so the training draws after the table fills and the
label draws are never drawn. Its HP comes from the seen-table's count per
length through the same closed-form sum as the object path's, so the two
paths agree bit for bit and neither draws evaluation samples. A trial in a
batch reads the blocks, decodes the draws and returns the HP it would
alone. run_trial leaves its stream where generate_qualified leaves it;
inside sweep, which drops each stream after its trial, a batched trial
leaves its stream after its last block.

sweep and train-eval bound their work before any draw (check_trial_budget):
trials times the sum of m + 1 over the m grid. Off the coded path, which
never holds its draws, an m whose draws no numpy array can hold is rejected
before any draw too (check_draw_count): by sweep for its whole grid, by
generate_qualified and by the atom trial. On the coded path, an m whose
seen-table has more than CODED_TABLE_CAP = 2^24 entries is rejected before
any stream is derived or read (_coded_width): by sweep for its whole grid
and by run_trial.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import kernels
from .core import CODE_LIMIT, count_upto, empty_string, shortlex_index
from .errors import DomainError, check_budget, check_draw_count, check_int
from .flrm import FlrmTrainer, MemorizerModel, threshold_length
from .measures import FiniteSupport, LengthFactored
from .oracle import GroundTruth, Labeler, check_labeler, generate_qualified
from .streams import derive_stream, derive_streams

_FIRST_CHUNK = 512  # training draws in the first chunk, the one decoded in full
# The most seen-table entries, and the most kept draws before a decode, that a
# batch of coded trials holds.
_BATCH_ENTRIES = 2**16
# The streams an object or atom row of sweep derives at a time: enough to
# spread one derivation's fixed cost, few enough that a row of many trials
# does not hold a generator (about 1 kB) per trial.
_STREAM_GROUP = 64
# The most seen-table entries one coded trial holds (_coded_width): a byte
# each, plus 8 for the int64 copy np.add.reduceat counts them in, 151 MB.
# The table has fewer than 1.45 m entries, so every m below 10^7 fits.
CODED_TABLE_CAP = 2**24
# The work sweep and train-eval allow unless told otherwise (check_trial_budget).
DEFAULT_BUDGET = 10**8
# (draws, confidence) of evaluate_hp's Monte Carlo estimate for a model it
# cannot sum exactly; a caller that wants another size calls mc_hp.
MC_FALLBACK = (10_000, 0.95)


def hoeffding_halfwidth(n_samples: int, confidence: float) -> float:
    check_int(n_samples, "n_samples", 1)
    if not 0.0 < confidence < 1.0:  # also rejects NaN
        raise DomainError(f"confidence must lie in (0,1), got {confidence}")
    return math.sqrt(math.log(2.0 / (1.0 - confidence)) / (2.0 * n_samples))


@dataclass(frozen=True)
class HallucinationReport:
    estimate: float
    method: str  # "exact" | "monte_carlo"
    exact_value: Fraction | None = None
    sample_count: int | None = None
    ci_halfwidth: float | None = None
    confidence: float | None = None


@dataclass(frozen=True)
class SweepRow:
    m: int
    trials: int
    mean_hp: float
    std_hp: float
    exceed_fraction: float
    ci_halfwidth: float
    seed: int


CSV_COLUMNS = ("m", "trials", "mean_hp", "std_hp", "exceed_fraction", "ci_halfwidth", "seed")


def exact_hp(predict, mu, gt: GroundTruth) -> HallucinationReport:
    """Exact hallucination probability by support enumeration."""
    if not isinstance(mu, FiniteSupport):
        raise DomainError(
            f"exact evaluation needs an enumerable finite support, not "
            f"{type(mu).__name__}; use mc_hp"
        )
    wrong = np.fromiter((not gt.accepts(s, predict(s)) for s, _ in mu.support()),
                        dtype=bool, count=len(mu.atoms))
    total = mu._mass(wrong)
    return HallucinationReport(estimate=float(total), method="exact", exact_value=total)


def mc_hp(predict, mu, gt: GroundTruth, n_samples: int, confidence: float, rng) -> HallucinationReport:
    """Monte Carlo estimate with a distribution-free Hoeffding half-width."""
    halfwidth = hoeffding_halfwidth(n_samples, confidence)
    strings, inverse = mu.sample_distinct(rng, n_samples)
    counts = np.bincount(inverse, minlength=len(strings)).tolist()
    wrong = sum(c for s, c in zip(strings, counts) if not gt.accepts(s, predict(s)))
    return HallucinationReport(
        estimate=wrong / n_samples,
        method="monte_carlo",
        sample_count=n_samples,
        ci_halfwidth=halfwidth,
        confidence=confidence,
    )


def evaluate_hp(predict, mu, gt: GroundTruth, rng) -> HallucinationReport:
    """Exact HP when mu has an enumerable finite support or predict is a
    MemorizerModel on a LengthFactored law, else a Monte Carlo estimate at
    MC_FALLBACK from rng; mc_hp takes a sample size of the caller's."""
    if isinstance(mu, FiniteSupport):
        return exact_hp(predict, mu, gt)
    if (isinstance(predict, MemorizerModel) and isinstance(mu, LengthFactored)
            and predict.alphabet == mu.alphabet == gt.alphabet):
        # The law's masses are floats: no exact fraction to report.
        return HallucinationReport(estimate=_memorizer_hp(predict, mu, gt), method="exact")
    return mc_hp(predict, mu, gt, *MC_FALLBACK, rng)


def _level_sum_hp(mu: LengthFactored, gt: GroundTruth, wrong, corrections=()) -> float:
    """A memorizer's HP from wrong[n], the integer count of strings of length
    n <= top = len(wrong) - 1 it answers wrongly.

    Every longer string gets the empty output, so the lengths past top add
    their whole mass when the default rule rejects it there; corrections are
    the signed masses of overrides longer than top. The coded and the object
    path both end here, so equal counts give bit-equal HPs.
    """
    q = mu.alphabet.size
    terms = [mu._length_prob(n) * (w / q**n) for n, w in enumerate(wrong) if w]
    if len(wrong) >= gt._empty_wrong_from:
        terms.append(mu.defect(len(wrong) - 1))
    terms.extend(corrections)
    return math.fsum(terms)


def _memorizer_hp(model: MemorizerModel, mu: LengthFactored, gt: GroundTruth) -> float:
    """Closed-form HP of a memorizer, counted from its rank table and the
    overrides: every other string gets the empty output under the default
    rule, wrong on all strings of a length or on none. An entry off the
    overrides is right iff its output rank is gt.default_rank's."""
    q = mu.alphabet.size
    top = max(model.threshold, 0)  # every table key ranks below count_upto(top)
    wrong = [q**n if n >= gt._empty_wrong_from else 0 for n in range(top + 1)]
    firsts = [count_upto(mu.alphabet, n) for n in range(top)]  # the ranks where lengths 1.. start
    overrides = {shortlex_index(s): s for s, _ in gt.overrides}
    for r in model.table.keys() - overrides.keys():
        n = bisect.bisect_right(firsts, r)
        wrong[n] += (model.table[r] != gt.default_rank(r)) - (n >= gt._empty_wrong_from)
    corrections = []
    for s in overrides.values():
        n = len(s)
        delta = (not gt.accepts(s, model(s))) - (n >= gt._empty_wrong_from)
        if n <= top:
            wrong[n] += delta
        elif delta:
            corrections.append(delta * mu.pmf(s))
    return _level_sum_hp(mu, gt, wrong, corrections)


def _coded_top(trainer: FlrmTrainer, mu: LengthFactored, m: int) -> tuple[int, int]:
    """(n̄, top) of a coded trial at m: the memorizer's threshold and the
    longest length its seen-table covers, top = min(max(n̄, 0), the
    longest length mu samples); the table has count_upto(top) entries."""
    n_bar = threshold_length(m, trainer.alphabet, trainer.bound)
    return n_bar, min(max(n_bar, 0), mu.max_sample_length)


def _fast_trial(trainer: FlrmTrainer, mu: LengthFactored, gt: GroundTruth, m: int,
                labeler: Labeler, rngs, *, end_read: bool = True) -> list[float]:
    """Exact HP of one coded trial per stream in rngs, all at m, on an
    instance _trial_path sends to the coded trial.

    The trials run as one batch: n̄ and the tables are computed once, and
    each chunk's kept draws of every open trial go through one
    kernels.sample_codes call (or one per _BATCH_ENTRIES kept draws), whose
    codes mark a (trials, count_upto(top)) seen-table with one scatter.
    The caller bounds that table, as sweep and run_trial do (_coded_width).
    Each trial reads its own blocks at the positions and sizes a lone trial
    reads, into one buffer reused across the trials, and keeps the draws
    from its own lowest open level up to top. Every stream is checked before any is read. With
    end_read (run_trial's case), each stream is then moved to where
    generate_qualified leaves it; a caller that drops the streams, as sweep
    does, passes end_read=False and leaves each after its last block.

    The seen-table row over lengths <= top <= max(n̄, 0) is bounded by the
    sample: n̄ >= 1 implies m > q^(n̄+1)*ln 2, so it holds at most
    count_upto(n̄) < q^(n̄+1) < 1.45*m entries; for n̄ <= 0 it holds one.
    """
    bit_gens = [getattr(rng, "bit_generator", None) for rng in rngs]
    for rng, bits in zip(rngs, bit_gens):
        if not isinstance(bits, np.random.PCG64):
            raise DomainError(
                f"a coded trial reads its stream by position and needs a numpy "
                f"Generator over PCG64, as derive_stream returns; got "
                f"{type(bits or rng).__name__}"
            )
    # Each stream is laid out as generate_qualified consumes it: training
    # lengths at [0, m), training offsets at [m, 2m), then m label draws
    # under the uniform labeler (singleton sets ignore them). Each block is
    # read at its position; PCG64 advances by any delta modulo 2^128, one
    # output per double.
    at = [0] * len(rngs)  # stream position of each rng's next output

    def read(t: int, position: int, out):
        bit_gens[t].advance((position - at[t]) % 2**128)  # steps back as well
        at[t] = position + len(out)
        rngs[t].random(out=out)

    n_bar, top = _coded_top(trainer, mu, m)
    cum = mu._sampling_cum
    cut = cum[top]  # a draw has length <= top iff its u_len < cut
    base, pow_i = mu._code_tables  # every level up to top, since q^top < 2^62
    tables = (cum[:top + 1], base, pow_i.astype(np.float64), pow_i)
    width = count_upto(trainer.alphabet, top)
    seen = np.zeros((len(rngs), width), dtype=bool)
    flat = seen.reshape(-1)  # a view: trial t's code c is entry t * width + c
    starts, levels = base[:top + 1], pow_i[:top + 1]
    # A draw has length >= n iff its u_len >= low_of[n] = cum[n - 1]. A
    # level with no sampling mass counts as full, since no draw lands there.
    low_of = np.concatenate(([0.0], cum[:top]))
    no_mass = cum[:top + 1] == low_of

    def mark(kept, low):
        """Decode the kept draws of (row offset, u_len, u_off), all of length
        >= low, and mark them."""
        offsets, u_len, u_off = zip(*kept)
        codes, _ = kernels.sample_codes(np.concatenate(u_len), np.concatenate(u_off),
                                        *tables, low)
        flat[codes + np.repeat(offsets, [len(u) for u in u_len])] = True

    start, chunk = 0, _FIRST_CHUNK
    # With n̄ < 0 nothing is memorized.
    while n_bar >= 0 and start < m:
        # No draw can add a string of length < lo to a trial's row: each such
        # level is full or has no sampling mass. A trial whose levels are all
        # full leaves the batch.
        open_at = ~no_mass & (np.add.reduceat(seen, starts, axis=1, dtype=np.int64) != levels)
        alive = np.flatnonzero(open_at.any(axis=1)).tolist()
        if not alive:
            break
        first_open = open_at.argmax(axis=1)
        lows = low_of[first_open].tolist()
        low = int(first_open[alive].min())  # every kept draw has length >= low
        size = min(chunk, m - start)  # a longer read would run into the offsets
        u_len, u_off = np.empty(size), np.empty(size)
        kept, pending = [], 0
        for t in alive:
            read(t, start, u_len)
            read(t, m + start, u_off)
            new = (lows[t] <= u_len) & (u_len < cut) if lows[t] else u_len < cut
            kept_len = u_len[new]
            kept.append((t * width, kept_len, u_off[new]))
            pending += len(kept_len)
            if pending >= _BATCH_ENTRIES:
                mark(kept, low)
                kept, pending = [], 0
        if kept:
            mark(kept, low)
        start += chunk
        chunk *= 2
    if end_read:
        end, empty = (3 * m if labeler is Labeler.UNIFORM_ACCEPTABLE else 2 * m), np.empty(0)
        for t in range(len(rngs)):
            read(t, end, empty)
    # Every memorized string is answered right. Lengths in (top, n̄] carry
    # no sampling mass and were never drawn. Trials with equal counts per
    # length share one sum.
    q = trainer.alphabet.size
    longer = (0,) * (max(n_bar, 0) - top)
    rows = [tuple(counts) for counts in
            np.add.reduceat(seen, starts, axis=1, dtype=np.int64).tolist()]
    hp_of = {}
    for seen_at in set(rows):
        wrong = [q**n - k if n >= gt._empty_wrong_from else 0
                 for n, k in enumerate(seen_at + longer)]
        hp_of[seen_at] = _level_sum_hp(mu, gt, wrong)
    return [hp_of[seen_at] for seen_at in rows]


def _coded_width(trainer: FlrmTrainer, mu: LengthFactored, m: int, name: str) -> int:
    """count_upto(top), the width of a coded trial's seen-table at m (named
    `name`); DomainError past CODED_TABLE_CAP, before any stream is read."""
    width = count_upto(trainer.alphabet, _coded_top(trainer, mu, m)[1])
    if width > CODED_TABLE_CAP:
        raise DomainError(f"{name} must give a coded trial a seen-table of at most "
                          f"{CODED_TABLE_CAP} entries, the most one holds; got {width}")
    return width


def _atom_trial(trainer: FlrmTrainer, mu: FiniteSupport, gt: GroundTruth, m: int,
                labeler: Labeler, rng) -> float:
    """Exact HP of one memorizer trial on a finite support, from the indices
    of the drawn atoms: float of the rational exact_hp returns for the
    trained model."""
    drawn = mu._atom_indices(rng.random(m))  # the uniforms sample_distinct reads
    if labeler is Labeler.UNIFORM_ACCEPTABLE:
        rng.random(m)  # the label draws: leave the stream where generate_qualified does
    lengths = mu._lengths
    wrong = lengths >= gt._empty_wrong_from
    empty = empty_string(gt.alphabet)
    for key, acceptable in gt.overrides:
        i = mu._find(key)
        if i is not None:
            wrong[i] = empty not in acceptable
    n_bar = threshold_length(m, trainer.alphabet, trainer.bound)
    seen = np.zeros(len(lengths), dtype=bool)
    seen[drawn] = True
    wrong &= ~(seen & (lengths <= n_bar))
    return float(mu._mass(wrong))


def _trial_path(trainer, mu, gt: GroundTruth) -> str:
    """The trial run_trial runs on an instance, "atom", "coded" or "object",
    decided from the instance alone."""
    if isinstance(trainer, FlrmTrainer) and trainer.alphabet == mu.alphabet == gt.alphabet:
        if isinstance(mu, FiniteSupport):
            return "atom"
        if (isinstance(mu, LengthFactored) and not gt.overrides
                and count_upto(mu.alphabet, mu.max_sample_length) < CODE_LIMIT):
            return "coded"
    return "object"


def run_trial(trainer, mu, gt: GroundTruth, m: int, labeler: Labeler, rng):
    """The HP of the model trained on one qualified draw of m pairs; the
    coded and the atom trial compute it without building the pairs. A
    coded trial runs as a batch of one.

    A model that evaluate_hp cannot sum exactly (from a trainer other than
    a threshold memorizer) gets a Monte Carlo estimate from rng at
    MC_FALLBACK. m must be an int >= 0 and labeler a Labeler. Off the
    coded path m must pass check_draw_count, and on it its seen-table must
    fit CODED_TABLE_CAP; all of it is checked before any draw.
    """
    check_int(m, "m", 0)
    check_labeler(labeler)
    path = _trial_path(trainer, mu, gt)
    if path == "atom":
        check_draw_count(m, "m")
        return _atom_trial(trainer, mu, gt, m, labeler, rng)
    if path == "coded":
        _coded_width(trainer, mu, m, "m")
        return _fast_trial(trainer, mu, gt, m, labeler, [rng])[0]
    model = trainer(generate_qualified(mu, gt, m, labeler, rng))
    return evaluate_hp(model, mu, gt, rng).estimate


def check_trial_budget(m_grid, trials: int, budget: int) -> None:
    """Raise BudgetExceeded, before any draw, when running `trials` trials
    at each m of m_grid costs more than budget: trials * sum(m + 1). A trial
    at m draws at most 3m uniforms; the + 1 charges the trial itself, so
    a grid of zeros is bounded too. budget is an int >= 0 (check_int)."""
    work = trials * sum(m + 1 for m in m_grid)
    check_budget(
        "running {} trials at each of {} sample sizes costs {} (trials times the "
        "sum of m + 1), over the budget of {}",
        (trials, len(m_grid), work, budget), budget, 0, lambda: work,
    )


def sweep(
    trainer,
    mu,
    gt: GroundTruth,
    m_grid,
    trials: int,
    labeler: Labeler,
    master_seed: int,
    *,
    epsilon_h: float = 0.2,
    budget: int = DEFAULT_BUDGET,
) -> list[SweepRow]:
    """One row of trial statistics per grid point; rows use disjoint streams.

    A row's exceed_fraction is the share of its trials whose HP reaches
    epsilon_h, and ci_halfwidth that fraction's normal-approximation 95%
    half-width. At one m this is the negligibility experiment: it checks the
    sufficiency statement Pr(HP >= epsilon_h) <= epsilon_t empirically for the
    configured labeler; it is an experiment, not a proof. Each trial's HP is
    run_trial's: exact for a threshold memorizer, so a row's spread is
    between training samples only. The whole sweep must fit the budget
    (check_trial_budget). Each m of m_grid, trials and budget must be an
    int, not a bool, and labeler a Labeler. Off the coded path each m must
    pass check_draw_count, and on it each m's seen-table must fit
    CODED_TABLE_CAP; all of it is checked before any stream is derived.

    Each row derives its streams in groups through derive_streams, one
    group at a time, and drops them after it. A coded row's group is a
    batch for _fast_trial of at most _BATCH_ENTRIES // count_upto(top)
    trials (at least one), so their end read is skipped. Every other row
    derives _STREAM_GROUP streams at a time and calls run_trial once per
    stream. Rows run one after another in the calling thread: under the
    interpreter lock a second thread gets no CPU time for them.
    """
    if not m_grid:
        raise DomainError("m grid must be non-empty")
    for i, m in enumerate(m_grid):
        check_int(m, f"m_grid[{i}]", 0)
    check_int(trials, "trials", 1)
    if not 0.0 < epsilon_h <= 1.0:  # also rejects NaN
        raise DomainError(f"epsilon_h must lie in (0,1], got {epsilon_h}")
    check_labeler(labeler)
    check_trial_budget(m_grid, trials, budget)
    path = _trial_path(trainer, mu, gt)
    if path == "coded":  # a coded trial never holds its m draws, only its seen-table
        widths = [_coded_width(trainer, mu, m, f"m_grid[{i}]") for i, m in enumerate(m_grid)]
    else:
        for i, m in enumerate(m_grid):
            check_draw_count(m, f"m_grid[{i}]")
    rows = []
    for row, m in enumerate(m_grid):
        batch = max(1, _BATCH_ENTRIES // widths[row]) if path == "coded" else _STREAM_GROUP
        hps = []
        for first in range(0, trials, batch):
            rngs = derive_streams(master_seed, (row,), range(first, min(first + batch, trials)))
            if path == "coded":
                hps += _fast_trial(trainer, mu, gt, m, labeler, rngs, end_read=False)
            else:
                hps += [run_trial(trainer, mu, gt, m, labeler, rng) for rng in rngs]
        hps = np.asarray(hps)
        fraction = int(np.count_nonzero(hps >= epsilon_h)) / trials
        rows.append(
            SweepRow(
                m=m,
                trials=trials,
                mean_hp=float(np.mean(hps)),
                std_hp=float(np.std(hps)),
                exceed_fraction=fraction,
                ci_halfwidth=1.96 * math.sqrt(fraction * (1.0 - fraction) / trials),
                seed=master_seed,
            )
        )
    return rows


def sweep_csv(rows, preamble=()) -> str:
    """Deterministic CSV: '#' metadata lines, header, one row per grid point."""
    lines = [f"# {line}" for line in preamble]
    lines.append(",".join(CSV_COLUMNS))
    for row in rows:
        lines.append(
            f"{row.m},{row.trials},{row.mean_hp!r},{row.std_hp!r},"
            f"{row.exceed_fraction!r},{row.ci_halfwidth!r},{row.seed}"
        )
    return "\n".join(lines) + "\n"


def unmemorized_mass_lower_bound(model, mu) -> float:
    """Mass of inputs longer than the model's threshold, past which no key is."""
    return 1.0 if model.threshold < 0 else float(mu.defect(model.threshold))
