"""Tests of the benchmark's correctness gate and of run.py's refusal to run
outside a checkout. Run from the repository root:

    python3 -m pytest perfbench/test_gate.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from hallustat.cli import main as cli_main  # noqa: E402

import workloads as W  # noqa: E402
from gate import REFERENCE, Gate, check_content  # noqa: E402


def produce(op: W.Op, seed: int, tmp_path: Path) -> tuple[bytes, int]:
    config = tmp_path / f"{op.name}.json"
    out = tmp_path / f"{op.name}.out"
    config.write_text(json.dumps(op.config))
    code = cli_main(op.argv(str(config), str(out), seed))
    return out.read_bytes(), code


def small_sweep_op(threads: int = 1) -> W.Op:
    cfg = W._readme_config(2, (100, 1_000), 8)
    return W.Op(f"small@{threads}t", W.MC_1T, "sweep", cfg, threads=threads,
                hp_refs=W._length_factored_refs(cfg))


def replace_field(data: bytes, row_m: int, column: str, value: str) -> bytes:
    lines = data.decode().splitlines()
    header = next(line for line in lines if not line.startswith("#")).split(",")
    col = header.index(column)
    for i, line in enumerate(lines):
        parts = line.split(",")
        if not line.startswith("#") and parts[0] == str(row_m):
            parts[col] = value
            lines[i] = ",".join(parts)
    return ("\n".join(lines) + "\n").encode()


@pytest.fixture(scope="module")
def sweep_artifact(tmp_path_factory):
    op = small_sweep_op()
    data, code = produce(op, 5, tmp_path_factory.mktemp("sweep"))
    return op, data, code


def test_sweep_artifact_passes(sweep_artifact):
    op, data, code = sweep_artifact
    assert check_content(op, data, code, 5) == []


@pytest.mark.parametrize("tamper", [
    lambda d: replace_field(d, 1000, "mean_hp", "0.9"),
    lambda d: replace_field(d, 100, "m", "101"),
    lambda d: replace_field(d, 100, "seed", "6"),
    lambda d: d.rsplit(b"\n", 2)[0] + b"\n",  # last row dropped
    lambda d: d.replace(b'"trials":8', b'"trials":9'),  # embedded config edited
])
def test_tampered_sweep_artifact_is_counted_failed(sweep_artifact, tamper):
    op, data, code = sweep_artifact
    gate = Gate(5)
    assert not gate.record(op, tamper(data), code)
    assert (gate.attempted, gate.failed) == (1, 1)


def test_bytes_must_repeat_across_repeats_and_threads(sweep_artifact, tmp_path):
    op, data, code = sweep_artifact
    gate = Gate(5)
    assert gate.record(op, data, code)
    two, code_two = produce(small_sweep_op(threads=2), 5, tmp_path)
    assert gate.record(small_sweep_op(threads=2), two, code_two)
    # Still within the mean_hp tolerance, but not the same bytes.
    altered = replace_field(data, 100, "std_hp", "0.0")
    assert altered != data and check_content(op, altered, code, 5) == []
    assert not gate.record(op, altered, code)
    assert not gate.record(op, data, 1)
    assert (gate.attempted, gate.failed) == (4, 2)


def test_mean_hp_check_holds_at_other_seeds(tmp_path):
    op = small_sweep_op()
    for seed in (1, 2, 3):
        data, code = produce(op, seed, tmp_path)
        assert check_content(op, data, code, seed) == []


def test_exact_results_are_held_to_the_reference(tmp_path):
    nfl, diag, typical = W.make_ops("verify", REFERENCE["reference_seed"])
    seed = REFERENCE["reference_seed"]

    data, code = produce(typical, seed, tmp_path)
    assert check_content(typical, data, code, seed) == []
    size = str(REFERENCE["typical"]["set_size"]).encode()
    assert check_content(typical, data.replace(b"," + size + b",", b",26304,"), code, seed)

    doc = {"config": nfl.config, "verified": True,
           "worst_expected_hp": {"num": 2401, "den": 4096}}
    assert check_content(nfl, json.dumps(doc).encode(), 0, seed) == []
    doc["worst_expected_hp"]["num"] = 2400
    assert check_content(nfl, json.dumps(doc).encode(), 0, seed)
    assert check_content(nfl, b"{}", 0, seed)
    assert check_content(nfl, b"", 1, seed)


def test_diagonal_digest_applies_only_at_the_reference_seed(tmp_path):
    ref_seed = REFERENCE["reference_seed"]
    diag = W.make_ops("verify", ref_seed)[1]
    data, code = produce(diag, ref_seed, tmp_path)
    assert code == 0 and check_content(diag, data, code, ref_seed) == []
    # A consistent row (psi, psi - 1) that differs from the reference run.
    lines = data.decode().splitlines()
    index = next(i for i, line in enumerate(lines) if line.startswith("7,"))
    psi = int(lines[index].split(",")[1]) + 1
    lines[index] = f"7,{psi},{psi - 1}"
    edited = ("\n".join(lines) + "\n").encode()
    assert check_content(diag, edited, code, ref_seed)

    other = ref_seed + 1
    data, code = produce(diag, other, tmp_path)
    assert check_content(diag, data, code, other) == []
    assert check_content(diag, data.replace(b"\n7,", b"\n8,", 1), code, other)


def test_run_refuses_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""


def test_compare_refuses_records_from_different_environments(tmp_path):
    import compare

    env = {"cpu": "x", "nproc": 2, "python": "3.11.7", "numpy": "2.4.6",
           "numba_present": False, "numba_enabled": False, "commit": "a"}
    metrics = {"round_cpu_norm": {"value": 10.0}, "peak_rss_mb": {"value": 50.0},
               "setup_s": {"value": 0.2}}
    for side, commit in (("base", "a"), ("new", "b")):
        (tmp_path / side).mkdir()
        record = {"workload": "verify", "correct": True, "metrics": metrics,
                  "env": {**env, "commit": commit}}
        (tmp_path / side / "verify-seed1-trace0.json").write_text(json.dumps(record))
    assert compare.main([str(tmp_path / "base"), str(tmp_path / "new")]) == 0
    record["env"]["numpy"] = "2.5.0"
    (tmp_path / "new" / "verify-seed1-trace0.json").write_text(json.dumps(record))
    assert compare.main([str(tmp_path / "base"), str(tmp_path / "new")]) == 2
