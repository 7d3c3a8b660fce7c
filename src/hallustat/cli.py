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
import functools
import itertools
import json
import math
import re
import sys
from fractions import Fraction

import numpy as np

from . import __version__
from .core import Alphabet, count_upto, shortlex_strings, string_from_json
from .errors import ConfigError, DomainError, DominationError, WorkbenchError
from .evaluation import (
    DEFAULT_BUDGET,
    check_trial_budget,
    derive_stream,
    evaluate_hp,
    sweep,
    sweep_csv,
)
from .flrm import FlrmTrainer, model_to_json, train
from .limits import (DIAGONAL_BUDGET, MODEL_MAX_LEN, MODEL_TABLE_SIZE, NFL_BUDGET,
                     NFL_LAMBDA_H_GRID, NflInstance, check_diagonal_budget, check_nfl_budget,
                     diagonalize, general_lambda_t, learner_on_indices,
                     memorize_constant_trainer, nfl_brute_force, nfl_sizes,
                     random_table_models, required_sample_size, verify_diagonal)
from .measures import CdfLowerBound, FiniteSupport, LengthFactored, dominates
from .oracle import Constant, Echo, GroundTruth, IndexShift, Labeler, generate_qualified
from .shannon import TYPICAL_BUDGET, SourceModel, smallest_high_mass_set


# ---------------------------------------------------------------- config


def _require(doc: dict, key: str, name: str | None = None):
    """doc[key]; `name` is the field's full path for error messages."""
    name = name or key
    if not isinstance(doc, dict):
        raise ConfigError(f"config field {name!r} needs an enclosing object, got {doc!r}")
    if key not in doc:
        raise ConfigError(f"missing config field: {name!r}")
    return doc[key]


# The most digits json reads in a config integer (Python's default
# int_max_str_digits); a rational read from a string gets the same limit.
_MAX_DIGITS = 4300
# Compiled on first use, by re's cache: most configs hold no rational text.
_DECIMAL = r"\s*[-+]?(?P<whole>[\d_]*)(?:\.(?P<frac>[\d_]*))?(?:[eE](?P<exp>[-+]?[\d_]+))?\s*"


def _check_digits(text: str, name: str):
    """Reject a decimal string whose numerator or denominator, as Fraction
    builds them before reducing, has more than _MAX_DIGITS digits: Fraction
    expands the exponent in full, which takes seconds at "1e-10000000" and
    gives rationals json cannot write. A "p/q" string needs no check, since
    int() limits both of its integers."""
    match = re.fullmatch(_DECIMAL, text)
    if match is None:
        return
    frac = (match["frac"] or "").replace("_", "")
    digits = len((match["whole"] + frac).replace("_", "").lstrip("0")) or 1
    shift = int(match["exp"] or 0) - len(frac)  # the value is int(whole + frac) * 10^shift
    if max(digits + shift, 1 - shift) > _MAX_DIGITS:
        raise ConfigError(f"bad rational {name} {text!r}: its numerator or denominator "
                          f"has more than {_MAX_DIGITS} digits")


def _fraction(value, name: str) -> Fraction:
    """A rational field: "p/q", {"num": p, "den": q} with JSON integers, an
    integer, or a finite float; as with a JSON integer, no numerator or
    denominator of more than _MAX_DIGITS digits."""
    try:
        if isinstance(value, str):
            _check_digits(value, name)
        if isinstance(value, dict):
            return Fraction(_int_value(_require(value, "num", f"{name}.num"), f"{name}.num"),
                            _int_value(_require(value, "den", f"{name}.den"), f"{name}.den"))
        if isinstance(value, (int, str, Fraction)) and not isinstance(value, bool):
            return Fraction(value)
        if isinstance(value, float) and math.isfinite(value):
            return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad rational {name} {value!r}: {exc}") from exc
    raise ConfigError(f"bad rational {name} {value!r}")


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


def _strings(alphabet: Alphabet, values: list, name):
    """Many string fields at once, as (symbols, lengths): the symbols of all
    of them one after another, in an int64 array unless one is past int64,
    and the length of each. The types are checked once over the flattened
    symbols and the ranges in numpy; only when a check fails does
    string_from_json find the first bad field, named by name(i), its full
    path."""
    if not set(map(type, values)) - {list}:
        flat = list(itertools.chain.from_iterable(values))
        if not set(map(type, flat)) - {int}:
            try:
                symbols = np.fromiter(flat, np.int64, len(flat))
            except OverflowError:  # a symbol past int64, valid only in as large an alphabet
                symbols = np.array(flat, dtype=object)
            if ((symbols >= 0) & (symbols < alphabet.size)).all():
                return symbols, np.fromiter(map(len, values), np.int64, len(values))
    for i, value in enumerate(values):
        string_from_json(alphabet, value, name(i))
    raise AssertionError("a string field failed a bulk check but passed string_from_json")


def _cdf_bound(doc: dict, name: str = "cdf_bound") -> CdfLowerBound:
    """The CDF bound at doc["cdf_bound"]; name is its full field path."""
    spec = _require(doc, "cdf_bound", name)
    table = tuple(_float_value(v, f"{name}.table[{i}]")
                  for i, v in enumerate(_list_field(spec, "table", f"{name}.table")))
    tail_spec = _require(spec, "tail", f"{name}.tail")
    kind = _require(tail_spec, "kind", f"{name}.tail.kind")
    if kind == "geometric":
        ratio = _float_value(_require(tail_spec, "ratio", f"{name}.tail.ratio"),
                             f"{name}.tail.ratio")
    elif kind == "one_at_n":
        ratio = None
    else:
        raise ConfigError(f"unknown tail kind {kind!r} in {name}.tail.kind")
    return CdfLowerBound(table, ratio)


def _distribution(alphabet: Alphabet, doc: dict):
    spec = _require(doc, "mu")
    kind = _require(spec, "kind", "mu.kind")
    # The atoms are parsed in bulk, straight to shortlex codes: no Str is built.
    if kind == "finite":
        atoms = _list_field(spec, "atoms", "mu.atoms")
        name = "mu.atoms[{}].s".format
        symbols, lengths = _strings(alphabet, [_require(a, "s", name(i))
                                               for i, a in enumerate(atoms)], name)
        masses = [_fraction(_require(a, "prob", f"mu.atoms[{i}].prob"), f"mu.atoms[{i}].prob")
                  for i, a in enumerate(atoms)]
        return FiniteSupport._from_symbols(alphabet, symbols, lengths, masses, name)
    if kind == "uniform_set":
        members = _list_field(spec, "members", "mu.members")
        name = "mu.members[{}]".format
        symbols, lengths = _strings(alphabet, members, name)
        mass = Fraction(1, max(len(members), 1))  # no members: FiniteSupport rejects them
        return FiniteSupport._from_symbols(alphabet, symbols, lengths, mass, name)
    if kind == "length_factored":
        probs = tuple(_float_value(v, f"mu.length_probs[{i}]")
                      for i, v in enumerate(_list_field(spec, "length_probs", "mu.length_probs")))
        ratio = spec.get("tail_ratio")
        if ratio is not None:
            ratio = _float_value(ratio, "mu.tail_ratio")
        return LengthFactored(alphabet, probs, ratio)
    raise ConfigError(f"unknown distribution kind {kind!r} in mu.kind")


def _ground_truth(alphabet: Alphabet, doc: dict) -> GroundTruth:
    spec = _require(doc, "ground_truth")
    default = _require(spec, "default", "ground_truth.default")
    kind = _require(default, "kind", "ground_truth.default.kind")
    if kind == "echo":
        rule = Echo()
    elif kind == "constant":
        output = _require(default, "output", "ground_truth.default.output")
        rule = Constant(string_from_json(alphabet, output, "ground_truth.default.output"))
    elif kind == "index_shift":
        shift = _require(default, "shift", "ground_truth.default.shift")
        rule = IndexShift(_int_value(shift, "ground_truth.default.shift", 0))
    else:
        raise ConfigError(f"unknown default rule kind {kind!r} in ground_truth.default.kind")
    entries = _list_field(spec, "overrides", "ground_truth.overrides", default=[])
    overrides = tuple(
        (
            string_from_json(alphabet, _require(entry, "s", f"ground_truth.overrides[{i}].s"),
                             f"ground_truth.overrides[{i}].s"),
            tuple(string_from_json(alphabet, y, f"ground_truth.overrides[{i}].accept[{j}]")
                  for j, y in enumerate(
                      _list_field(entry, "accept", f"ground_truth.overrides[{i}].accept"))),
        )
        for i, entry in enumerate(entries)
    )
    return GroundTruth(alphabet, rule, overrides)


def _reject_removed_fields(doc: dict):
    """Every model sweep and train-eval train has an exact HP, so they take
    no Monte Carlo settings; a config that still sets one fails loudly."""
    for key in ("mc_samples", "confidence"):
        if key in doc:
            raise ConfigError(f"config field {key!r} was removed: the memorizer's "
                              f"hallucination probability is computed exactly")


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
    """A JSON number (int or float, not a bool or a string) that fits a float."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise ConfigError(f"{key} must be a number that fits a float, got {value!r}")


def _list_field(doc: dict, key: str, name: str | None = None, default=None) -> list:
    """A list field; required unless a default is given."""
    value = _require(doc, key, name) if default is None else doc.get(key, default)
    if not isinstance(value, list):
        raise ConfigError(f"{name or key} must be a list, got {value!r}")
    return value


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
    _reject_removed_fields(cfg)
    alphabet = _alphabet(cfg)
    bound = _cdf_bound(cfg)
    mu = _distribution(alphabet, cfg)
    gt = _ground_truth(alphabet, cfg)
    labeler = _labeler(cfg)
    m = _int_field(cfg, "m", 0)
    budget = _int_field(cfg, "budget", 0, DEFAULT_BUDGET)
    check_trial_budget([m], 1, budget)
    rng = derive_stream(args.seed, 0)
    t = generate_qualified(mu, gt, m, labeler, rng)
    model = train(t, alphabet, bound)
    report = evaluate_hp(model, mu, gt, rng)
    doc = _meta(cfg, args.seed)
    doc["m"] = m
    doc["model"] = model_to_json(model)
    doc["report"] = {
        "estimate": report.estimate,
        "method": report.method,
        "exact": None if report.exact_value is None else _frac_doc(report.exact_value),
    }
    _emit_json(doc, args.out)
    return 0


def cmd_sweep(cfg: dict, args) -> int:
    _reject_removed_fields(cfg)
    alphabet = _alphabet(cfg)
    bound = _cdf_bound(cfg)
    mu = _distribution(alphabet, cfg)
    gt = _ground_truth(alphabet, cfg)
    labeler = _labeler(cfg)
    m_grid = [_int_value(m, f"m_grid[{i}]", 0) for i, m in enumerate(_list_field(cfg, "m_grid"))]
    trials = _int_field(cfg, "trials", 1)
    eps_h = _float_value(cfg.get("epsilon_h", 0.2), "epsilon_h")
    budget = _int_field(cfg, "budget", 0, DEFAULT_BUDGET)
    if not dominates(mu, bound):
        raise DominationError("mu does not dominate CDF bound")
    trainer = FlrmTrainer(alphabet, bound)
    rows = sweep(trainer, mu, gt, m_grid, trials, labeler, args.seed, epsilon_h=eps_h,
                 budget=budget)
    _emit(sweep_csv(rows, _preamble(cfg, args.seed)), args.out)
    return 0


def _nfl_size(alphabet: Alphabet, cfg: dict, list_key: str, size_key: str) -> int:
    """Length of the explicit string list, which must be non-empty (exit 3,
    naming the field), else the validated size field."""
    if list_key in cfg:
        size = len(_list_field(cfg, list_key))
        if size < 1:
            raise DomainError(f"{list_key} must be non-empty")
        return size
    size = _int_field(cfg, size_key, 1)
    if size > count_upto(alphabet, 32):
        raise ConfigError(f"{size_key} {size} is too large to enumerate")
    return size


def _nfl_strings(alphabet: Alphabet, cfg: dict, list_key: str, size: int):
    if list_key in cfg:
        return tuple(string_from_json(alphabet, v, f"{list_key}[{i}]")
                     for i, v in enumerate(cfg[list_key]))
    return tuple(shortlex_strings(alphabet, 0, size))


def cmd_nfl(cfg: dict, args) -> int:
    alphabet = _alphabet(cfg)
    n = _nfl_size(alphabet, cfg, "domain", "domain_size")
    p = _nfl_size(alphabet, cfg, "codomain", "codomain_size")
    m = _int_field(cfg, "m", 0)
    budget = _int_field(cfg, "budget", 0, NFL_BUDGET)
    # Checked before any string is built as well as inside nfl_brute_force.
    # Both learner kinds below see a training sequence only through its
    # length and its set of distinct pairs.
    check_nfl_budget(n, p, m, budget, order_invariant=True)
    domain = _nfl_strings(alphabet, cfg, "domain", n)
    codomain = _nfl_strings(alphabet, cfg, "codomain", p)
    learner_spec = _require(cfg, "learner")
    kind = _require(learner_spec, "kind", "learner.kind")
    if kind == "memorize_constant":
        learner = memorize_constant_trainer(n)
    elif kind == "flrm":
        flrm = FlrmTrainer(alphabet, _cdf_bound(learner_spec, "learner.cdf_bound"))
        learner = learner_on_indices(domain, codomain, flrm)
    else:
        raise ConfigError(f"unknown learner kind {kind!r} in learner.kind")
    grid = tuple(_fraction(v, f"lambda_h_grid[{i}]") for i, v in
                 enumerate(_list_field(cfg, "lambda_h_grid", default=list(NFL_LAMBDA_H_GRID))))
    # Each entry's tail bound is emitted as JSON integers; check it fits before
    # the enumeration rather than fail to write it after.
    for i, lh in enumerate(grid):
        bound = general_lambda_t(p, lh)
        if max(abs(bound.numerator), bound.denominator) >= 10**_MAX_DIGITS:
            raise ConfigError(f"bad rational lambda_h_grid[{i}]: its tail bound "
                              f"(mu - lambda_h)/(1 - lambda_h) has a numerator or "
                              f"denominator of more than {_MAX_DIGITS} digits")
    inst = NflInstance(domain=domain, codomain=codomain, m=m, learner=learner,
                       order_invariant=True)
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
    table_size = _int_field(cfg, "table_size", 0, MODEL_TABLE_SIZE)
    max_len = _int_field(cfg, "max_len", 0, MODEL_MAX_LEN)
    budget = _int_field(cfg, "budget", 0, DIAGONAL_BUDGET)
    # Checked before the models are built as well as inside diagonalize.
    check_diagonal_budget(horizon, count, budget)
    rng = derive_stream(args.seed)
    # Models past the horizon are never asked; the first min(K, H) are the
    # same prefix of the stream however many follow.
    models = random_table_models(alphabet, min(count, horizon), rng,
                                 table_size=table_size, max_len=max_len)
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
    pmf = tuple(_float_value(v, f"pmf[{i}]") for i, v in enumerate(_list_field(cfg, "pmf")))
    m = _int_field(cfg, "m", 1)
    delta = _float_value(_require(cfg, "delta"), "delta")
    budget = _int_field(cfg, "budget", 0, TYPICAL_BUDGET)
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


@functools.cache  # built on first use, once per process
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
        p.add_argument("--threads", type=int, default=1,
                       help="validated (>= 1) but unused: trials run in one thread")
    return parser


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except ValueError as exc:  # bad JSON, bad UTF-8, or an integer too long to parse
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    except RecursionError as exc:  # arrays or objects nested past the interpreter's stack
        raise ConfigError(f"config {path!r} is nested too deeply to read: {exc}") from exc
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
