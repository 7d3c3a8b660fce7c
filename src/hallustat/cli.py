"""Command-line front end.

Batch-oriented: every subcommand reads a JSON config, takes its randomness
from --seed, and writes a JSON or CSV artifact that embeds the tool
version, the seed, and the resolved config, so any output file can be
reproduced byte-for-byte from its own header.

Exit codes: 0 success/verified, 1 failed verification, 2 malformed config,
3 domain error, 4 domination check failure, 5 enumeration budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import __version__
from .core import Alphabet, Str, count_upto, shortlex_string
from .errors import ConfigError, DominationError, WorkbenchError
from .evaluation import derive_stream, evaluate_hp, sweep, sweep_csv
from .flrm import FlrmTrainer, model_to_json, train
from .limits import (
    NflInstance,
    check_diagonal_budget,
    check_nfl_budget,
    diagonalize,
    memorize_constant_trainer,
    nfl_brute_force,
    nfl_sizes,
    random_table_models,
    required_sample_size,
    verify_diagonal,
)
from .measures import (
    CdfLowerBound,
    FiniteSupport,
    GeometricTail,
    LengthFactored,
    ReachesOne,
    dominates,
)
from .oracle import Constant, Echo, GroundTruth, IndexShift, Labeler, generate_qualified
from .shannon import SourceModel, smallest_high_mass_set


# ---------------------------------------------------------------- config


def _require(doc: dict, key: str, name: str | None = None):
    """doc[key]; `name` is the field's full path for error messages."""
    name = name or key
    if not isinstance(doc, dict):
        raise ConfigError(f"config field {name!r} needs an enclosing object, got {doc!r}")
    if key not in doc:
        raise ConfigError(f"missing config field: {name!r}")
    return doc[key]


def _fraction(value) -> Fraction:
    try:
        if isinstance(value, dict):
            return Fraction(int(value["num"]), int(value["den"]))
        if isinstance(value, bool):
            raise TypeError("booleans are not numbers here")
        if isinstance(value, (int, str)):
            return Fraction(value)
        if isinstance(value, float):
            return Fraction(value)
    except (ValueError, ZeroDivisionError, KeyError, TypeError) as exc:
        raise ConfigError(f"bad rational {value!r}: {exc}") from exc
    raise ConfigError(f"bad rational {value!r}")


def _alphabet(doc: dict) -> Alphabet:
    spec = _require(doc, "alphabet")
    # A size below 2 is a domain error (exit 3), raised by Alphabet.
    size = _int_value(_require(spec, "size", "alphabet.size"), "alphabet.size")
    labels = spec.get("labels")
    if labels is not None and not (
        isinstance(labels, list) and all(isinstance(label, str) for label in labels)
    ):
        raise ConfigError(f"alphabet.labels must be a list of strings, got {labels!r}")
    return Alphabet(size, None if labels is None else tuple(labels))


def _string(alphabet: Alphabet, value) -> Str:
    try:
        return Str(alphabet, tuple(int(x) for x in value))
    except Exception as exc:  # a DomainError from Str, or what int() raises
        raise ConfigError(f"bad string {value!r}: {exc}") from exc


def _cdf_bound(doc: dict) -> CdfLowerBound:
    spec = _require(doc, "cdf_bound")
    table = tuple(_float_value(v, "cdf_bound.table entry") for v in _list_field(spec, "table"))
    tail_spec = _require(spec, "tail")
    kind = _require(tail_spec, "kind")
    if kind == "geometric":
        tail = GeometricTail(_float_value(_require(tail_spec, "ratio"), "cdf_bound.tail.ratio"))
    elif kind == "one_at_n":
        tail = ReachesOne()
    else:
        raise ConfigError(f"unknown tail kind {kind!r}")
    return CdfLowerBound(table, tail)


def _distribution(alphabet: Alphabet, doc: dict):
    spec = _require(doc, "mu")
    kind = _require(spec, "kind", "mu.kind")
    if kind == "finite":
        atoms = tuple(
            (_string(alphabet, _require(a, "s", f"mu.atoms[{i}].s")),
             _fraction(_require(a, "prob", f"mu.atoms[{i}].prob")))
            for i, a in enumerate(_list_field(spec, "atoms", "mu.atoms"))
        )
        return FiniteSupport(atoms)
    if kind == "uniform_set":
        members = [_string(alphabet, s)
                   for s in _list_field(spec, "members", "mu.members")]
        mass = Fraction(1, max(len(members), 1))  # no members: FiniteSupport rejects ()
        return FiniteSupport(tuple((s, mass) for s in members))
    if kind == "length_factored":
        probs = tuple(_float_value(v, "mu.length_probs entry")
                      for v in _list_field(spec, "length_probs", "mu.length_probs"))
        ratio = spec.get("tail_ratio")
        if ratio is not None:
            ratio = _float_value(ratio, "mu.tail_ratio")
        return LengthFactored(alphabet, probs, ratio)
    raise ConfigError(f"unknown distribution kind {kind!r}")


def _ground_truth(alphabet: Alphabet, doc: dict) -> GroundTruth:
    spec = _require(doc, "ground_truth")
    default = _require(spec, "default", "ground_truth.default")
    kind = _require(default, "kind", "ground_truth.default.kind")
    if kind == "echo":
        rule = Echo()
    elif kind == "constant":
        output = _require(default, "output", "ground_truth.default.output")
        rule = Constant(_string(alphabet, output))
    elif kind == "index_shift":
        shift = _require(default, "shift", "ground_truth.default.shift")
        rule = IndexShift(_int_value(shift, "ground_truth.default.shift", 0))
    else:
        raise ConfigError(f"unknown default rule kind {kind!r}")
    entries = _list_field(spec, "overrides", "ground_truth.overrides", default=[])
    overrides = tuple(
        (
            _string(alphabet, _require(entry, "s", f"ground_truth.overrides[{i}].s")),
            tuple(_string(alphabet, y)
                  for y in _list_field(entry, "accept", f"ground_truth.overrides[{i}].accept")),
        )
        for i, entry in enumerate(entries)
    )
    return GroundTruth(alphabet, rule, overrides)


def _labeler(doc: dict) -> Labeler:
    name = doc.get("labeler", "canonical")
    try:
        return Labeler(name)
    except ValueError as exc:
        raise ConfigError(f"unknown labeler {name!r}") from exc


def _int_value(value, key: str, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{key} must be >= {minimum}, got {value}")
    return value


def _int_field(doc: dict, key: str, minimum: int, default: int | None = None) -> int:
    """An integer field; required unless a default is given."""
    value = _require(doc, key) if default is None else doc.get(key, default)
    return _int_value(value, key, minimum)


def _float_value(value, key: str) -> float:
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise ConfigError(f"{key} must be a number, got {value!r}")


def _list_field(doc: dict, key: str, name: str | None = None, default=None) -> list:
    """A list field; required unless a default is given."""
    value = _require(doc, key, name) if default is None else doc.get(key, default)
    if not isinstance(value, list):
        raise ConfigError(f"{name or key} must be a list, got {value!r}")
    return value


def _budget(cfg: dict, args, default: int) -> int:
    """Enumeration budget: --budget, else the config's `budget`, else default."""
    if args.budget is not None:
        return _int_value(args.budget, "--budget", 0)
    return _int_field(cfg, "budget", 0, default)


# ---------------------------------------------------------------- output


def _frac_doc(fr: Fraction) -> dict:
    return {"num": fr.numerator, "den": fr.denominator}


def _meta(cfg: dict, seed: int) -> dict:
    return {
        "tool": {"name": "hallustat", "version": __version__},
        "seed": seed,
        "config": cfg,
    }


def _preamble(cfg: dict, seed: int) -> tuple[str, ...]:
    return (
        f"tool: hallustat {__version__}",
        f"seed: {seed}",
        f"config: {json.dumps(cfg, separators=(',', ':'), sort_keys=True)}",
    )


def _emit(text: str, out_path):
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_json(doc: dict, out_path):
    _emit(json.dumps(doc, indent=2) + "\n", out_path)


# ------------------------------------------------------------ subcommands


def cmd_bounds(cfg: dict, args) -> int:
    alphabet = _alphabet(cfg)
    bound = _cdf_bound(cfg)
    eps_h = _float_value(_require(cfg, "epsilon_h"), "epsilon_h")
    eps_t = _float_value(_require(cfg, "epsilon_t"), "epsilon_t")
    suff = required_sample_size(eps_h, eps_t, alphabet, bound)
    nec = nfl_sizes(alphabet, bound)
    doc = _meta(cfg, args.seed)
    doc["sufficiency"] = {
        "epsilon_h": suff.epsilon_h,
        "epsilon_t": suff.epsilon_t,
        "n_bar": suff.n_bar,
        "m_bar": suff.m_bar,
    }
    doc["necessity"] = {"n_lower": nec.n_lower, "m_lower": nec.m_lower}
    _emit_json(doc, args.out)
    return 0


def cmd_train_eval(cfg: dict, args) -> int:
    alphabet = _alphabet(cfg)
    bound = _cdf_bound(cfg)
    mu = _distribution(alphabet, cfg)
    gt = _ground_truth(alphabet, cfg)
    labeler = _labeler(cfg)
    m = _int_field(cfg, "m", 0)
    mc_samples = _int_field(cfg, "mc_samples", 1, 10_000)
    confidence = _float_value(cfg.get("confidence", 0.95), "confidence")
    rng = derive_stream(args.seed, 0)
    t = generate_qualified(mu, gt, m, labeler, rng)
    model = train(t, alphabet, bound)
    report = evaluate_hp(model, mu, gt, mc_samples, confidence, rng)
    doc = _meta(cfg, args.seed)
    doc["m"] = m
    doc["model"] = model_to_json(model)
    doc["report"] = {
        "estimate": report.estimate,
        "method": report.method,
        "exact": None if report.exact_value is None else _frac_doc(report.exact_value),
        "sample_count": report.sample_count,
        "ci_halfwidth": report.ci_halfwidth,
        "confidence": report.confidence,
    }
    _emit_json(doc, args.out)
    return 0


def cmd_sweep(cfg: dict, args) -> int:
    alphabet = _alphabet(cfg)
    bound = _cdf_bound(cfg)
    mu = _distribution(alphabet, cfg)
    gt = _ground_truth(alphabet, cfg)
    labeler = _labeler(cfg)
    m_grid = [_int_value(m, "m_grid entry", 0) for m in _list_field(cfg, "m_grid")]
    trials = _int_field(cfg, "trials", 1)
    eps_h = _float_value(cfg.get("epsilon_h", 0.2), "epsilon_h")
    mc_samples = _int_field(cfg, "mc_samples", 1, 10_000)
    horizon = len(bound.table) + 63
    if isinstance(mu, LengthFactored):
        horizon = max(horizon, len(mu.length_probs))
    if not dominates(mu, bound, horizon):
        raise DominationError("mu does not dominate CDF bound")
    trainer = FlrmTrainer(alphabet, bound)
    rows = sweep(
        trainer,
        mu,
        gt,
        m_grid,
        trials,
        labeler,
        args.seed,
        epsilon_h=eps_h,
        mc_samples=mc_samples,
        threads=args.threads,
    )
    _emit(sweep_csv(rows, _preamble(cfg, args.seed)), args.out)
    return 0


def _nfl_size(alphabet: Alphabet, cfg: dict, list_key: str, size_key: str) -> int:
    """Length of the explicit string list, else the validated size field."""
    if list_key in cfg:
        return len(_list_field(cfg, list_key))
    size = _int_field(cfg, size_key, 1)
    if size > count_upto(alphabet, 32):
        raise ConfigError(f"{size_key} {size} is too large to enumerate")
    return size


def _nfl_strings(alphabet: Alphabet, cfg: dict, list_key: str, size: int):
    if list_key in cfg:
        return tuple(_string(alphabet, v) for v in cfg[list_key])
    return tuple(shortlex_string(alphabet, i) for i in range(size))


def cmd_nfl(cfg: dict, args) -> int:
    alphabet = _alphabet(cfg)
    n = _nfl_size(alphabet, cfg, "domain", "domain_size")
    p = _nfl_size(alphabet, cfg, "codomain", "codomain_size")
    m = _int_field(cfg, "m", 0)
    budget = _budget(cfg, args, 10**8)
    # Checked before any string is built as well as inside nfl_brute_force.
    check_nfl_budget(n, p, m, budget)
    domain = _nfl_strings(alphabet, cfg, "domain", n)
    codomain = _nfl_strings(alphabet, cfg, "codomain", p)
    learner_spec = _require(cfg, "learner")
    kind = _require(learner_spec, "kind")
    if kind == "memorize_constant":
        learner = memorize_constant_trainer(codomain)
    elif kind == "flrm":
        learner = FlrmTrainer(alphabet, _cdf_bound(learner_spec))
    else:
        raise ConfigError(f"unknown learner kind {kind!r}")
    grid = tuple(_fraction(v) for v in _list_field(cfg, "lambda_h_grid", default=["1/8", "1/4"]))
    inst = NflInstance(domain=domain, codomain=codomain, m=m, learner=learner)
    report = nfl_brute_force(inst, grid, budget)
    doc = _meta(cfg, args.seed)
    doc["instance"] = {"domain_size": len(domain), "codomain_size": len(codomain), "m": m}
    doc["worst_f_index"] = report.worst_f_index
    doc["worst_expected_hp"] = _frac_doc(report.worst_expected_hp)
    doc["bound_mu"] = _frac_doc(report.bound_mu)
    doc["tail"] = [
        {
            "lambda_h": _frac_doc(ch.lambda_h),
            "probability": _frac_doc(ch.probability),
            "bound": _frac_doc(ch.bound),
            "holds": ch.holds,
        }
        for ch in report.tail_check
    ]
    doc["verified"] = report.verified
    _emit_json(doc, args.out)
    return 0 if report.verified else 1


def cmd_diag(cfg: dict, args) -> int:
    alphabet = _alphabet(cfg)
    count = _int_field(cfg, "models", 1)
    horizon = _int_field(cfg, "horizon", 1)
    table_size = _int_field(cfg, "table_size", 0, 8)
    max_len = _int_field(cfg, "max_len", 0, 6)
    budget = _budget(cfg, args, 10**8)
    # Checked before the models are built as well as inside diagonalize.
    check_diagonal_budget(horizon, count, budget)
    rng = derive_stream(args.seed)
    models = random_table_models(alphabet, count, rng, table_size=table_size, max_len=max_len)
    construction = diagonalize(models, alphabet, horizon, budget)
    ok = verify_diagonal(construction)
    lines = [f"# {line}" for line in _preamble(cfg, args.seed)]
    lines.append("i,psi_i,f0_of_s_i")
    for i in range(1, horizon + 1):
        psi_i = construction.psi[i - 1]
        lines.append(f"{i},{psi_i},{psi_i - 1}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if ok else 1


def cmd_typical(cfg: dict, args) -> int:
    pmf = tuple(_float_value(v, "pmf entry") for v in _list_field(cfg, "pmf"))
    m = _int_field(cfg, "m", 1)
    delta = _float_value(_require(cfg, "delta"), "delta")
    budget = _budget(cfg, args, 10**7)
    report = smallest_high_mass_set(SourceModel(pmf), m, delta, budget)
    lines = [f"# {line}" for line in _preamble(cfg, args.seed)]
    lines.append("m,delta,set_size,rate,mass,entropy_gap")
    lines.append(
        f"{report.m},{report.delta!r},{report.set_size},"
        f"{report.rate!r},{report.mass!r},{report.entropy_gap!r}"
    )
    _emit("\n".join(lines) + "\n", args.out)
    return 0


# ----------------------------------------------------------------- driver


_COMMANDS = {
    "bounds": cmd_bounds,
    "train-eval": cmd_train_eval,
    "sweep": cmd_sweep,
    "nfl-verify": cmd_nfl,
    "diagonalize": cmd_diag,
    "typical-set": cmd_typical,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hallustat",
        description="Finite-sample hallucination bounds: experiments and exact verifiers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--threads", type=int, default=1, help="worker cap (default 1)")
        p.add_argument("--budget", type=int, default=None, help="enumeration budget override")
    return parser


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except ValueError as exc:  # bad JSON, bad UTF-8, or an integer too long to parse
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    return doc


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.seed < 0 or args.seed >= 2**64:
            raise ConfigError(f"seed must be a 64-bit unsigned integer, got {args.seed}")
        if args.threads < 1:
            raise ConfigError(f"threads must be >= 1, got {args.threads}")
        cfg = _load_config(args.config)
        return _COMMANDS[args.command](cfg, args)
    except WorkbenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
