"""Hallucination probability: exact computation, Monte Carlo estimation, and
the sweep, the one experiment driver.

Randomness contract: every trial draws from its own stream derived as
(master_seed, row, trial), so results are independent of execution order and
thread count. Monte Carlo confidence intervals are two-sided Hoeffding.

evaluate_hp is the one place that chooses exact evaluation (enumerable
finite supports) or Monte Carlo (everything else).

run_trial is the one place a trial picks its path, from the instance, never
from the caller. build_fast_plan returns a plan for the common experiment
shape (length-factored inputs, override-free ground truth, threshold
memorizer, codes below 2^62); such trials run on int64 shortlex codes
through the array kernels, consuming the same uniform stream as
generate_qualified + mc_hp would. Every other instance runs on Str objects:
generate_qualified, the trainer, evaluate_hp.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import kernels
from .core import count_upto
from .errors import DomainError
from .flrm import FlrmTrainer, threshold_length
from .measures import FiniteSupport, LengthFactored
from .oracle import Constant, Echo, GroundTruth, IndexShift, Labeler, generate_qualified

_FAST_CODE_LIMIT = 2**62


def derive_stream(master_seed: int, *branch: int):
    """Independent generator for one unit of work under a master seed."""
    if master_seed < 0:
        raise DomainError(f"master seed must be >= 0, got {master_seed}")
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=branch))


def hoeffding_halfwidth(n_samples: int, confidence: float) -> float:
    if n_samples < 1:
        raise DomainError(f"n_samples must be >= 1, got {n_samples}")
    if not 0.0 < confidence < 1.0:
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
    total = Fraction(0)
    for s, p in mu.support():
        if not gt.accepts(s, predict(s)):
            total += p
    return HallucinationReport(estimate=float(total), method="exact", exact_value=total)


def mc_hp(predict, mu, gt: GroundTruth, n_samples: int, confidence: float, rng) -> HallucinationReport:
    """Monte Carlo estimate with a distribution-free Hoeffding half-width."""
    halfwidth = hoeffding_halfwidth(n_samples, confidence)
    samples = mu.sample_batch(rng, n_samples)
    wrong = sum(1 for s in samples if not gt.accepts(s, predict(s)))
    return HallucinationReport(
        estimate=wrong / n_samples,
        method="monte_carlo",
        sample_count=n_samples,
        ci_halfwidth=halfwidth,
        confidence=confidence,
    )


def evaluate_hp(predict, mu, gt: GroundTruth, mc_samples: int, confidence: float,
                rng) -> HallucinationReport:
    """Exact HP when mu has an enumerable finite support, else Monte Carlo
    with mc_samples draws from rng."""
    if isinstance(mu, FiniteSupport):
        return exact_hp(predict, mu, gt)
    return mc_hp(predict, mu, gt, mc_samples, confidence, rng)


@dataclass(frozen=True)
class _FastPlan:
    trainer: FlrmTrainer
    cum: np.ndarray
    base: np.ndarray
    pow_f: np.ndarray
    pow_i: np.ndarray
    empty_mode: int  # 0: empty output acceptable only for code 0; 1: never; 2: always


def build_fast_plan(trainer, mu, gt: GroundTruth):
    """Kernel plan when the instance shape supports coded evaluation, else None."""
    if not isinstance(trainer, FlrmTrainer) or not isinstance(mu, LengthFactored):
        return None
    if mu.alphabet != trainer.alphabet or gt.alphabet != mu.alphabet:
        return None
    if gt.overrides:
        return None
    rule = gt.default_rule
    if isinstance(rule, Echo):
        mode = 0
    elif isinstance(rule, IndexShift):
        mode = 0 if rule.shift == 0 else 1
    elif isinstance(rule, Constant):
        mode = 2 if len(rule.output) == 0 else 1
    else:
        return None
    top = mu.max_sample_length
    if count_upto(mu.alphabet, top) >= _FAST_CODE_LIMIT:
        return None
    # q exceeds int64 only when top = 0, where no positive power is taken.
    pow_i = min(mu.alphabet.size, _FAST_CODE_LIMIT) ** np.arange(top + 1, dtype=np.int64)
    base = np.cumsum(pow_i) - pow_i
    return _FastPlan(trainer, mu._sampling_cum, base, pow_i.astype(np.float64), pow_i, mode)


def _fast_trial(plan: _FastPlan, m: int, labeler: Labeler, rng, mc_samples: int) -> float:
    # Stream consumption mirrors generate_qualified + mc_hp exactly.
    u1 = rng.random(m)
    u2 = rng.random(m)
    train_codes, train_lengths = kernels.sample_codes(
        u1, u2, plan.cum, plan.base, plan.pow_f, plan.pow_i
    )
    if labeler is Labeler.UNIFORM_ACCEPTABLE:
        rng.random(m)  # the general path's label draws; singleton sets ignore them
    n_bar = threshold_length(m, plan.trainer.alphabet, plan.trainer.bound)
    keys = np.unique(train_codes[train_lengths <= n_bar])
    u3 = rng.random(mc_samples)
    u4 = rng.random(mc_samples)
    eval_codes, _ = kernels.sample_codes(
        u3, u4, plan.cum, plan.base, plan.pow_f, plan.pow_i
    )
    wrong = kernels.count_misses(eval_codes, keys, plan.empty_mode)
    return wrong / mc_samples


def run_trial(
    trainer,
    mu,
    gt: GroundTruth,
    m: int,
    labeler: Labeler,
    rng,
    *,
    mc_samples: int = 10_000,
):
    """One qualified draw, one training run, one HP evaluation."""
    if m < 0:
        raise DomainError(f"m must be >= 0, got {m}")
    if mc_samples < 1:
        raise DomainError(f"mc_samples must be >= 1, got {mc_samples}")
    plan = build_fast_plan(trainer, mu, gt)
    if plan is not None:
        return _fast_trial(plan, m, labeler, rng, mc_samples)
    t = generate_qualified(mu, gt, m, labeler, rng)
    model = trainer(t)
    # Only the estimate is kept, so the interval's confidence level is moot.
    return evaluate_hp(model, mu, gt, mc_samples, 0.95, rng).estimate


def _trial_hps(
    trainer, mu, gt, m, labeler, trials, master_seed, row, mc_samples, threads,
) -> np.ndarray:
    def one(index: int) -> float:
        rng = derive_stream(master_seed, row, index)
        return run_trial(trainer, mu, gt, m, labeler, rng, mc_samples=mc_samples)

    # More workers than trials or cores only adds threads.
    workers = min(threads, trials, os.cpu_count() or 1)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            hps = list(pool.map(one, range(trials)))
    else:
        hps = [one(i) for i in range(trials)]
    return np.asarray(hps, dtype=np.float64)


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
    mc_samples: int = 10_000,
    threads: int = 1,
) -> list[SweepRow]:
    """One row of trial statistics per grid point; rows use disjoint streams.

    A row's exceed_fraction is the share of its trials whose HP reaches
    epsilon_h, and ci_halfwidth that fraction's normal-approximation 95%
    half-width. At one m this is the negligibility experiment: it checks the
    sufficiency statement Pr(HP >= epsilon_h) <= epsilon_t empirically for the
    configured labeler; it is an experiment, not a proof.
    """
    if not m_grid:
        raise DomainError("m grid must be non-empty")
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    if not 0.0 < epsilon_h <= 1.0:  # also rejects NaN
        raise DomainError(f"epsilon_h must lie in (0,1], got {epsilon_h}")
    rows = []
    for row, m in enumerate(m_grid):
        hps = _trial_hps(
            trainer, mu, gt, m, labeler, trials, master_seed, row, mc_samples, threads,
        )
        fraction = int(np.count_nonzero(hps >= epsilon_h)) / trials
        rows.append(
            SweepRow(
                m=int(m),
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
    """Mass of inputs longer than anything the model can have memorized."""
    cap = model.threshold
    for s in model.table:
        cap = max(cap, len(s))
    if cap < 0:
        return 1.0
    return float(1 - mu.length_cdf(cap))
