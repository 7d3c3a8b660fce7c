"""hallustat benchmark: closed-loop CLI workloads, correctness-gated.

Run from the repository root:

    python3 perfbench/run.py --workload sweep_coded --seed 1 --seconds 30 --trace 0

Workloads (workloads.py; why each, in BENCHMARK.json): sweep_coded,
sweep_object, verify. Each op calls the CLI entry point `hallustat.cli.main`
in-process with a generated config and `--out` in a scratch directory; one
round runs every op of the workload once, and each op starts when the
previous one ends. Every artifact goes through the gate in gate.py; `failed`
counts the ops it rejects.

--trace 0 times untraced rounds and reports the end-to-end metrics:
  round_cpu_norm  median over rounds of the CPU time (all threads of this
                  process) the round's ops took, in calibration units:
                  each op's CPU time divided by the mean CPU time of the
                  Calibrator loop run just before and just after it
  peak_rss_mb     peak resident set of this process, which ran every op
  setup_s         median CPU time of fresh interpreters that import
                  hallustat and read the workload's configs
                  (setup_probe.py), spread over the run, converted to
                  seconds on a host where the calibration loop takes
                  REFERENCE_CALIBRATION_S of CPU time
CPU time rather than wall time, because on a shared 2-vCPU host another
tenant that holds one core for a while slows a --threads 2 op's wall time
by a fifth or more but not its CPU time, nor the single-threaded
calibration loop's. The host's speed changes within seconds, and a
calibration next to an op follows it. On the lines before the
result it prints, by name, the raw wall seconds (round_s; setup_wall_s;
each op group's median: sweep_mc_s, sweep_mc_2t_s, sweep_exact_s, nfl_s,
diag_s, typical_s), the groups' CPU time in calibration units (*_norm),
the set-up probes' median CPU time (setup_cpu_s), the calibration loop's
median CPU time (calibration_s) and fail_ratio.

--trace 1 alternates untraced rounds with rounds under spans.Tracer and
reports the per-layer metrics listed in BENCHMARK.json: median self time
(wall) per layer and work counts per round. It fails the run when the
counts do not repeat exactly from round to round, or when a count
predictions.json predicts to be zero is not. Spans and counts go to
.perfbench_out/. trace.overhead_ratio is the median CPU time of a traced
round over that of an untraced one.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. A record with the environment (CPU, nproc, Python, numpy, numba,
commit) and every sample goes to .perfbench_out/; compare.py compares sets
of such records.
"""

from __future__ import annotations

import os

# An op may use the CLI's own --threads 2 and no further threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, process_time  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
TMP_DIR = ROOT / ".perfbench_tmp"

MIN_ROUNDS = 3
SETUP_REPEATS = 9
# setup_s is in seconds on a host where one Calibrator loop takes this much
# CPU time (about its time on the 2-vCPU Xeon host the benchmark was tuned
# on), so that set-up time, like round_cpu_norm, does not move with the
# speed other tenants leave to this host's cores.
REFERENCE_CALIBRATION_S = 0.025


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def environment() -> dict:
    """What must match before two results may be compared; `commit` is
    recorded but exempt, since comparisons are across commits."""
    import importlib.util

    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        from hallustat import kernels

        have_numba = bool(getattr(kernels, "HAVE_NUMBA", False))
        numba_on = bool(getattr(kernels, "numba_enabled", lambda: False)())
    except ImportError:
        have_numba = importlib.util.find_spec("numba") is not None
        numba_on = False
    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        if done.returncode == 0:
            commit = done.stdout.strip()
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_present": have_numba,
        "numba_enabled": numba_on,
        "commit": commit,
    }


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def setup_probe(config_paths: list[Path]) -> tuple[float, float]:
    """Wall and CPU time of one fresh interpreter that imports hallustat and
    reads the configs (setup_probe.py)."""
    probe = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), *map(str, config_paths)]
    start, cpu = perf_counter(), _children_cpu()
    done = subprocess.run(probe, capture_output=True, text=True, timeout=120)
    elapsed, cpu = perf_counter() - start, _children_cpu() - cpu
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
    return elapsed, cpu


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def _add(a, b):
    return a + b


class Calibrator:
    """Takes the CPU time of fixed interpreter work that does not touch
    hallustat: counting tuple keys in a dict, plain function calls, and
    building small objects into a dict.

    Other tenants of a shared host slow the CPU time of every op, by taking
    shared caches, memory bandwidth and clock, by up to a half for seconds
    to minutes at a time. The pure-Python ops (nfl-verify, object-path
    sweeps) slowed by the same factor as this loop (correlation 0.95 over
    10 s spans on a 2-vCPU Xeon host), so CPU times are reported in its
    units. Numpy sorting, streaming sums and random lookups in a large dict
    slowed half as much or tracked the ops poorly, so the loop leaves them
    out; the numpy-bound ops varied too little over the same spans to tell
    any calibration apart.
    """

    def __call__(self) -> float:
        gc.disable()
        try:
            start = process_time()
            table: dict = {}
            for i in range(20_000):
                key = (i % 97, i % 13)
                table[key] = table.get(key, 0) + 1
            total = 0
            for i in range(40_000):
                total = _add(total, i)
            pairs = {}
            for i in range(20_000):
                pair = _Pair(i, i % 7)
                pairs[(pair.a, pair.b)] = pair
            return process_time() - start
        finally:
            gc.enable()


@dataclass
class Round:
    """Wall and CPU time of each op of one round, and the calibration loop's
    CPU time before the first op and after each op."""

    times: list[float]
    cpus: list[float]
    cals: list[float]

    @property
    def wall(self) -> float:
        return sum(self.times)

    @property
    def cpu(self) -> float:
        return sum(self.cpus)


def normalized(rounds: list[Round]) -> list[list[float]]:
    """Each op's CPU time in calibration units: the mean of the
    calibrations just before and just after the op."""
    return [
        [t / ((r.cals[i] + r.cals[i + 1]) / 2) for i, t in enumerate(r.cpus)]
        for r in rounds
    ]


def run_round(ops, files, seed, gate, main, calibrate, tracer=None) -> Round:
    """Run every op once, closed loop."""
    rnd = Round([], [], [calibrate()])
    for op, (config_path, out_path) in zip(ops, files):
        out_path.unlink(missing_ok=True)
        argv = op.argv(str(config_path), str(out_path), seed)
        gc.collect()  # no op pays for the garbage of the one before it
        start, cpu = perf_counter(), process_time()
        try:
            code = main(argv) if tracer is None else tracer.root("op", main, argv)
        except Exception:  # a traceback is an op failure, as exit 1 of the CLI
            traceback.print_exc()
            code = 1
        rnd.times.append(perf_counter() - start)
        rnd.cpus.append(process_time() - cpu)
        rnd.cals.append(calibrate())
        data = out_path.read_bytes() if out_path.exists() else b""
        gate.record(op, data, code)
    return rnd


def group_medians(ops, per_round: list[list[float]]) -> dict[str, float]:
    """Sum over each op group of the per-op median."""
    out: dict[str, float] = {}
    for i, op in enumerate(ops):
        out[op.group] = out.get(op.group, 0.0) + _median([r[i] for r in per_round])
    return out


def untraced(ops, files, seed, seconds, gate, main):
    """Timed rounds for `seconds`, with the set-up probes spread over them."""
    calibrate = Calibrator()
    run_round(ops, files, seed, gate, main, calibrate)  # warm-up: caches fill
    configs = [c for c, _ in files]
    rounds, setup = [], []
    start = perf_counter()
    while len(rounds) < MIN_ROUNDS or perf_counter() - start < seconds:
        if perf_counter() - start >= seconds * len(setup) / SETUP_REPEATS:
            setup.append(setup_probe(configs))
        rounds.append(run_round(ops, files, seed, gate, main, calibrate))
    while len(setup) < SETUP_REPEATS:
        setup.append(setup_probe(configs))
    return rounds, setup


def traced(ops, files, seed, seconds, gate, main):
    """Untraced and traced rounds, alternating, for `seconds`."""
    from spans import TIMED, Tracer, layer_counts, self_times

    calibrate = Calibrator()
    tracer = Tracer()
    run_round(ops, files, seed, gate, main, calibrate)  # warm-up
    plain, timed, per_round = [], [], []
    start = perf_counter()
    while len(timed) < 2 or perf_counter() - start < seconds:
        plain.append(run_round(ops, files, seed, gate, main, calibrate))
        tracer.install()
        try:
            timed.append(run_round(ops, files, seed, gate, main, calibrate, tracer))
        finally:
            tracer.uninstall()
        spans, counts, maxima = tracer.drain()
        selfs = self_times(spans)
        per_round.append({
            "spans": spans,
            "counts": dict(counts),
            "maxima": maxima,
            "layer_counts": layer_counts(spans, counts, maxima),
            "self_s": {metric: selfs.get(name, 0.0) for metric, name in TIMED.items()},
        })
    return tracer.missing, plain, timed, per_round


def layer_metrics(workload, ops, plain, timed, per_round) -> tuple[dict, list[str]]:
    """Per-layer metrics of a traced run, and every failed trace check."""
    from spans import TIMED

    problems = []
    metrics = {m: _median([r["self_s"][m] for r in per_round]) for m in TIMED}
    counts = per_round[0]["layer_counts"]
    if any(r["layer_counts"] != counts for r in per_round[1:]):
        problems.append("work counts differ between traced rounds")
    metrics.update(counts)
    groups = group_medians(ops, [r.times for r in plain])
    mc_2t = groups.get("sweep_mc_2t_s", 0.0)
    metrics["evaluation.pool_efficiency"] = (
        groups["sweep_mc_s"] / (2.0 * mc_2t) if mc_2t > 0 else 0.0
    )
    metrics["trace.overhead_ratio"] = (
        _median([r.cpu for r in timed]) / _median([r.cpu for r in plain])
    )
    predictions = json.loads((HERE / "predictions.json").read_text())
    for name in predictions["zero_counts"][workload]:
        if any({**r["layer_counts"], **r["self_s"]}[name] != 0 for r in per_round):
            problems.append(f"{name} predicted 0 on {workload}, traced nonzero")
    return metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="hallustat benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hallustat" / "__init__.py").is_file():
        return _fail(f"no hallustat sources under {SRC}; run from a repository checkout")
    if not 0 <= args.seed < 2**64:
        return _fail("--seed must be a 64-bit unsigned integer")
    sys.path.insert(0, str(SRC))

    from gate import Gate
    from workloads import WORKLOADS, make_ops

    if args.workload not in WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ops = make_ops(args.workload, args.seed)
    from hallustat.cli import main as cli_main

    gate = Gate(args.seed)
    extra: dict[str, tuple[float, str]] = {}
    problems: list[str] = []
    record: dict = {}
    work = TMP_DIR / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        files = []
        for i, op in enumerate(ops):
            config_path = work / f"{i}-{op.name}.json"
            config_path.write_text(json.dumps(op.config))
            files.append((config_path, work / f"{i}-{op.name}.out"))
        if args.trace:
            missing, rounds, timed, per_round = traced(
                ops, files, args.seed, args.seconds, gate, cli_main)
        else:
            rounds, setup = untraced(ops, files, args.seed, args.seconds, gate, cli_main)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            TMP_DIR.rmdir()
        except OSError:
            pass

    OUT_DIR.mkdir(exist_ok=True)
    if args.trace:
        if missing:
            print(f"warning: not traced (absent): {', '.join(missing)}", file=sys.stderr)
        metrics, problems = layer_metrics(args.workload, ops, rounds, timed, per_round)
        wanted = bench["per_layer"]
        record["trace_rounds"] = [
            {k: v for k, v in r.items() if k != "spans"} for r in per_round]
        (OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps({
            "span_fields": ["id", "parent", "name", "start", "end"],
            "rounds": [{"spans": r["spans"], "counts": r["counts"], "maxima": r["maxima"]}
                       for r in per_round],
        }))
    else:
        calibration = _median([c for r in rounds for c in r.cals])
        setup_cpu = _median([cpu for _, cpu in setup])
        norm = normalized(rounds)
        metrics = {
            "round_cpu_norm": _median([sum(r) for r in norm]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": setup_cpu * REFERENCE_CALIBRATION_S / calibration,
        }
        wanted = bench["end_to_end"]
        extra["round_s"] = (_median([r.wall for r in rounds]), "s")
        extra["setup_wall_s"] = (_median([wall for wall, _ in setup]), "s")
        extra["setup_cpu_s"] = (setup_cpu, "s")
        cpu = group_medians(ops, norm)
        for group, value in group_medians(ops, [r.times for r in rounds]).items():
            extra[group] = (value, "s")
            extra[group.removesuffix("_s") + "_norm"] = (cpu[group], "cal")
        extra["calibration_s"] = (calibration, "s")
        record["setup_wall_cpu_s"] = setup
    extra["fail_ratio"] = (gate.failed / gate.attempted, "ratio")
    record["op_times_s"] = {op.name: [r.times[i] for r in rounds] for i, op in enumerate(ops)}
    record["op_cpu_s"] = {op.name: [r.cpus[i] for r in rounds] for i, op in enumerate(ops)}
    record["calibration_s"] = [r.cals for r in rounds]

    env = environment()
    correct = gate.failed == 0 and not problems
    for message in gate.errors + problems:
        print(f"check failed: {message}", file=sys.stderr)
    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed} rounds {len(rounds)} "
          f"ops {gate.attempted} failed {gate.failed}")
    for name, (value, unit) in extra.items():
        print(f"metric {name} {value!r} {unit}")
    result_metrics = {}
    for spec in wanted:
        value = metrics[spec["name"]]
        print(f"metric {spec['name']} {value!r} {spec['unit']}")
        result_metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    record.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "correct": correct,
        "attempted": gate.attempted, "failed": gate.failed,
        "errors": gate.errors + problems,
        "metrics": {**result_metrics,
                    **{k: {"value": v, "unit": u} for k, (v, u) in extra.items()}},
    })
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps({"correct": correct, "attempted": gate.attempted,
                      "failed": gate.failed, "metrics": result_metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
