"""Workload definitions: configs generated from a seed, and the reference
values their artifacts are checked against.

Every op is one `hallustat` CLI call. A workload is a fixed list of ops; one
closed-loop round runs each op once, in order. The seed chooses the parts of
each config that do not change the amount of work (which strings carry an
override, which strings form the NFL domain, the symbol order of the
typical-set source, the CLI `--seed`), so figures from different seeds are
comparable while the outputs differ.

Sweep references are computed here from the paper's formulas, independently
of the library: the expected hallucination probability of the threshold
memorizer at sample size m, and the range [lo, hi] a single trial's HP can
take. They hold at every seed, for Monte Carlo and exact evaluation alike.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("sweep_coded", "sweep_object", "verify")

# Op groups; run.py turns the median time of each group into a metric.
MC_1T = "sweep_mc_s"
MC_2T = "sweep_mc_2t_s"
EXACT = "sweep_exact_s"
NFL = "nfl_s"
DIAG = "diag_s"
TYPICAL = "typical_s"

# Sizes. The shapes follow the roadmap's baseline table; trial counts and the
# diagonal horizon are scaled down so that a 30 s run holds 5 to 20 rounds
# (1 to 6 s each on a 2-vCPU Xeon host), enough for a steady median.
CODED_M_GRID = (100, 1_000, 10_000, 100_000)
CODED_TRIALS = 60
Q3_M_GRID = (100, 1_000, 10_000)
Q3_TRIALS = 2
OVERRIDE_M_GRID = (100, 1_000, 10_000)
OVERRIDE_TRIALS = 2
EXACT_M_GRID = (100, 1_000, 10_000)
EXACT_TRIALS = 6
EXACT_LEVELS = 9  # uniform over all binary strings of length <= 9: 1023 members
DIAG_MODELS = 200
DIAG_HORIZON = 600
TYPICAL_PMF = (0.9, 0.1)
TYPICAL_M = 23
TYPICAL_DELTA = 0.05
NFL_DOMAIN = 8
NFL_CODOMAIN = 2
NFL_M = 4
NFL_POOL_LEVELS = 4  # domain and codomain strings come from lengths <= 4

# Per-row probability of a false failure of the mean_hp check.
HP_ALPHA = 1e-6


@dataclass(frozen=True)
class HpReference:
    """Expected HP of one sweep row, the range one trial's HP lies in, the
    allowed distance of the row's mean_hp from `mean`, and the part of that
    distance due to Monte Carlo noise (0 for exact evaluation)."""

    mean: float
    lo: float
    hi: float
    tolerance: float
    noise: float


@dataclass
class Op:
    name: str
    group: str
    command: str
    config: dict
    threads: int = 1
    # Sweep ops: one reference per m_grid entry.
    hp_refs: tuple[HpReference, ...] = field(default_factory=tuple)

    def argv(self, config_path: str, out_path: str, seed: int) -> list[str]:
        return [
            self.command, "--config", config_path, "--seed", str(seed),
            "--out", out_path, "--threads", str(self.threads),
        ]


def _readme_config(alphabet_size: int, m_grid, trials: int) -> dict:
    """The README `sweep` config: length law Pr(len = L) = (1/2)^(L+1),
    uniform within each length, echo ground truth, CDF bound 1 - 2^-(n+1)."""
    return {
        "alphabet": {"size": alphabet_size},
        "cdf_bound": {"table": [0.5], "tail": {"kind": "geometric", "ratio": 0.5}},
        "mu": {"kind": "length_factored", "length_probs": [], "tail_ratio": 0.5},
        "ground_truth": {"default": {"kind": "echo"}},
        "epsilon_h": 0.1,
        "epsilon_t": 0.1,
        "m_grid": list(m_grid),
        "trials": trials,
    }


def _strings_upto(q: int, levels: int) -> list[list[int]]:
    out = []
    for length in range(levels + 1):
        out.extend(list(s) for s in itertools.product(range(q), repeat=length))
    return out


def threshold_length(m: int, q: int, defect) -> int:
    """Largest n >= 0 with m > (q^(n+1)/d) ln(q^(n+1)/(2d)), d = defect(n) > 0;
    -1 if none. Written from the formula, not from the library."""
    best = -1
    for n in range(64):
        d = defect(n)
        if d <= 0.0:
            continue
        x = float(q ** (n + 1))
        if m > x / d * math.log(x / (2.0 * d)):
            best = n
    return best


def _hp_reference(weights, m: int, n_bar: int, trials: int, mc_samples: int | None):
    """weights: (length, mass of one string, number of such strings) for every
    string whose acceptable set excludes the empty (default) output. A trial
    hallucinates on such a string iff it is unmemorized: longer than n_bar, or
    absent from all m training draws."""
    mean = lo = span = 0.0
    for length, mass, count in weights:
        if length > n_bar:
            mean += count * mass
            lo += count * mass
        else:
            mean += count * mass * (1.0 - mass) ** m
            span += count * mass
    # Trial HPs are independent and lie in [lo, lo + span] (Hoeffding); a
    # Monte Carlo estimate adds trials * mc_samples bounded draws (Azuma).
    alpha = HP_ALPHA / 2 if mc_samples else HP_ALPHA
    noise = 0.0
    if mc_samples:
        noise = math.sqrt(math.log(2.0 / alpha) / (2.0 * trials * mc_samples))
    tol = span * math.sqrt(math.log(2.0 / alpha) / (2.0 * trials)) + noise
    return HpReference(mean=mean, lo=lo, hi=lo + span, tolerance=tol, noise=noise)


def _length_factored_refs(cfg: dict) -> tuple[HpReference, ...]:
    q = cfg["alphabet"]["size"]
    ratio = cfg["mu"]["tail_ratio"]
    bound_ratio = cfg["cdf_bound"]["tail"]["ratio"]
    first_defect = 1.0 - cfg["cdf_bound"]["table"][0]
    overrides = {
        tuple(o["s"]): [tuple(y) for y in o["accept"]]
        for o in cfg["ground_truth"].get("overrides", [])
    }
    weights = []
    length = 0
    while True:
        p_len = (1.0 - ratio) * ratio**length
        if p_len < 1e-18:
            break
        mass = p_len / q**length
        here = [s for s in overrides if len(s) == length]
        plain = q**length - len(here)
        if length > 0:  # echo: the empty output is acceptable only for ""
            weights.append((length, mass, plain))
        weights.extend((length, mass, 1) for s in here if () not in overrides[s])
        length += 1
    refs = []
    for m in cfg["m_grid"]:
        n_bar = threshold_length(m, q, lambda n: first_defect * bound_ratio**n)
        refs.append(_hp_reference(weights, m, n_bar, cfg["trials"], cfg.get("mc_samples", 10_000)))
    return tuple(refs)


def _uniform_set_refs(cfg: dict) -> tuple[HpReference, ...]:
    members = cfg["mu"]["members"]
    mass = 1.0 / len(members)
    table = cfg["cdf_bound"]["table"]
    counts: dict[int, int] = {}
    for s in members:
        if s:  # echo: only "" accepts the empty output
            counts[len(s)] = counts.get(len(s), 0) + 1
    weights = [(length, mass, c) for length, c in sorted(counts.items())]

    def defect(n: int) -> float:
        return 1.0 - table[n] if n < len(table) else 0.0

    return tuple(
        _hp_reference(weights, m, threshold_length(m, cfg["alphabet"]["size"], defect),
                      cfg["trials"], None)
        for m in cfg["m_grid"]
    )


def _override_config(rng: random.Random) -> dict:
    cfg = _readme_config(2, OVERRIDE_M_GRID, OVERRIDE_TRIALS)
    pool = [s for s in _strings_upto(2, 3) if s]
    key = rng.choice(pool)
    accept = rng.sample([s for s in pool if s != key], rng.randint(1, 2))
    cfg["ground_truth"]["overrides"] = [{"s": key, "accept": accept}]
    return cfg


def _exact_config(rng: random.Random) -> dict:
    members = _strings_upto(2, EXACT_LEVELS)
    rng.shuffle(members)
    return {
        "alphabet": {"size": 2},
        "cdf_bound": {"table": [0.0] * EXACT_LEVELS + [1.0], "tail": {"kind": "one_at_n"}},
        "mu": {"kind": "uniform_set", "members": members},
        "ground_truth": {"default": {"kind": "echo"}},
        "m_grid": list(EXACT_M_GRID),
        "trials": EXACT_TRIALS,
    }


def _sweep_ops(label: str, cfg: dict, refs, thread_counts) -> list[Op]:
    groups = {1: MC_1T, 2: MC_2T}
    return [
        Op(f"{label}@{t}t", groups[t], "sweep", cfg, threads=t, hp_refs=refs)
        for t in thread_counts
    ]


def make_ops(workload: str, seed: int) -> list[Op]:
    """The ops of one round of `workload`, with configs drawn from `seed`."""
    rng = random.Random(seed)
    if workload == "sweep_coded":
        cfg = _readme_config(2, CODED_M_GRID, CODED_TRIALS)
        return _sweep_ops("readme", cfg, _length_factored_refs(cfg), (1, 2))
    if workload == "sweep_object":
        q3 = _readme_config(3, Q3_M_GRID, Q3_TRIALS)
        override = _override_config(rng)
        exact = _exact_config(rng)
        return (
            _sweep_ops("q3", q3, _length_factored_refs(q3), (1, 2))
            + _sweep_ops("override", override, _length_factored_refs(override), (1, 2))
            + [Op("exact@1t", EXACT, "sweep", exact, hp_refs=_uniform_set_refs(exact))]
        )
    if workload == "verify":
        pool = _strings_upto(2, NFL_POOL_LEVELS)
        nfl = {
            "alphabet": {"size": 2},
            "domain": rng.sample(pool, NFL_DOMAIN),
            "codomain": rng.sample(pool, NFL_CODOMAIN),
            "m": NFL_M,
            "learner": {"kind": "memorize_constant"},
        }
        diag = {"alphabet": {"size": 2}, "models": DIAG_MODELS, "horizon": DIAG_HORIZON}
        pmf = list(TYPICAL_PMF)
        rng.shuffle(pmf)
        typical = {"pmf": pmf, "m": TYPICAL_M, "delta": TYPICAL_DELTA}
        return [
            Op("nfl", NFL, "nfl-verify", nfl),
            Op("diag", DIAG, "diagonalize", diag),
            Op("typical", TYPICAL, "typical-set", typical),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
