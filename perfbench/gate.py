"""Correctness gate: decides whether one op's artifact is right.

An op fails when its exit code is not the expected one, when an exact result
differs from the stored reference, when a sweep row is missing, misplaced or
has a mean_hp outside the Hoeffding tolerance of its analytic reference, or
when the artifact bytes differ from the first artifact of the same op in the
run (repeats, and --threads 1 against --threads 2, must be byte-identical).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from workloads import DIAG, EXACT, MC_1T, MC_2T, NFL, TYPICAL, Op

REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())
# Every op of every workload is expected to succeed; nfl-verify exits 0 only
# when the instance verifies.
EXPECTED_EXIT = 0


def diag_rows_digest(text: str) -> str:
    """SHA-256 of the data lines of a diagonalize artifact (comments excluded,
    so a version bump in the preamble does not change it)."""
    rows = "\n".join(line for line in text.splitlines() if not line.startswith("#"))
    return hashlib.sha256(rows.encode()).hexdigest()


def _preamble_errors(text: str, op: Op, seed: int) -> list[str]:
    want_seed = f"# seed: {seed}"
    want_cfg = "# config: " + json.dumps(op.config, separators=(",", ":"), sort_keys=True)
    lines = text.splitlines()
    errors = []
    if want_seed not in lines:
        errors.append("preamble lacks the seed line")
    if want_cfg not in lines:
        errors.append("preamble does not embed the config")
    return errors


def _csv_table(text: str) -> list[dict]:
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    if not lines:
        return []
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _sweep_errors(text: str, op: Op, seed: int) -> list[str]:
    errors = _preamble_errors(text, op, seed)
    rows = _csv_table(text)
    grid = op.config["m_grid"]
    if len(rows) != len(grid):
        return errors + [f"{len(rows)} rows for an m grid of {len(grid)}"]
    for row, m, ref in zip(rows, grid, op.hp_refs):
        try:
            got_m = int(row["m"])
            trials = int(row["trials"])
            mean = float(row["mean_hp"])
            row_seed = int(row["seed"])
        except (KeyError, ValueError) as exc:
            errors.append(f"malformed row {row}: {exc}")
            continue
        if got_m != m:
            errors.append(f"m column {got_m}, expected {m}")
        if trials != op.config["trials"] or row_seed != seed:
            errors.append(f"row m={m}: trials/seed columns {trials}/{row_seed}")
        if not abs(mean - ref.mean) <= ref.tolerance:
            errors.append(
                f"row m={m}: mean_hp {mean!r} outside {ref.mean:.6f} +- {ref.tolerance:.6f}"
            )
        if not ref.lo - ref.noise - 1e-12 <= mean <= ref.hi + ref.noise + 1e-12:
            errors.append(f"row m={m}: mean_hp {mean!r} outside [{ref.lo:.6f}, {ref.hi:.6f}]")
    return errors


def _nfl_errors(text: str, op: Op) -> list[str]:
    ref = REFERENCE["nfl"]
    try:
        doc = json.loads(text)
        got = (doc["verified"], [doc["worst_expected_hp"]["num"], doc["worst_expected_hp"]["den"]])
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable nfl artifact: {exc}"]
    want = (ref["verified"], ref["worst_expected_hp"])
    if got != want:
        return [f"nfl (verified, worst_expected_hp) = {got}, expected {want}"]
    if doc.get("config") != op.config:
        return ["nfl artifact does not embed the config"]
    return []


def _diag_errors(text: str, op: Op, seed: int) -> list[str]:
    errors = _preamble_errors(text, op, seed)
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    horizon = op.config["horizon"]
    if len(lines) != horizon + 1:
        return errors + [f"{len(lines) - 1} diagonal rows, expected {horizon}"]
    for i, line in enumerate(lines[1:], start=1):
        parts = line.split(",")
        if len(parts) != 3 or not all(p.isdigit() for p in parts):
            return errors + [f"malformed diagonal row {line!r}"]
        index, psi, f0 = map(int, parts)
        if index != i or psi < 1 or f0 != psi - 1:
            return errors + [f"inconsistent diagonal row {line!r}"]
    if seed == REFERENCE["reference_seed"] and diag_rows_digest(text) != REFERENCE["diag_rows_sha256"]:
        errors.append("diagonal rows differ from the reference digest")
    return errors


def _typical_errors(text: str, op: Op, seed: int) -> list[str]:
    errors = _preamble_errors(text, op, seed)
    rows = _csv_table(text)
    if len(rows) != 1:
        return errors + [f"{len(rows)} typical-set rows, expected 1"]
    try:
        got = (int(rows[0]["m"]), int(rows[0]["set_size"]))
    except (KeyError, ValueError) as exc:
        return errors + [f"malformed typical-set row: {exc}"]
    want = (op.config["m"], REFERENCE["typical"]["set_size"])
    if got != want:
        errors.append(f"typical-set (m, set_size) = {got}, expected {want}")
    return errors


def check_content(op: Op, data: bytes, exit_code: int, seed: int) -> list[str]:
    """Every reason the artifact of one op is wrong; empty when it is right."""
    if exit_code != EXPECTED_EXIT:
        return [f"exit code {exit_code}, expected {EXPECTED_EXIT}"]
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return ["artifact is not UTF-8"]
    if op.group in (MC_1T, MC_2T, EXACT):
        return _sweep_errors(text, op, seed)
    if op.group == NFL:
        return _nfl_errors(text, op)
    if op.group == DIAG:
        return _diag_errors(text, op, seed)
    if op.group == TYPICAL:
        return _typical_errors(text, op, seed)
    raise ValueError(f"no check for op group {op.group!r}")


class Gate:
    """Checks each artifact once in full, then holds every later artifact of
    the same config to the same bytes. Counts attempted and failed ops."""

    def __init__(self, seed: int):
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self._first: dict[str, bytes] = {}

    def record(self, op: Op, data: bytes, exit_code: int) -> bool:
        self.attempted += 1
        key = json.dumps([op.command, op.config], sort_keys=True)
        first = self._first.get(key)
        if first is None:
            errors = check_content(op, data, exit_code, self.seed)
            if not errors:
                self._first[key] = data
        elif exit_code != EXPECTED_EXIT:
            errors = [f"exit code {exit_code}, expected {EXPECTED_EXIT}"]
        elif data != first:
            errors = ["artifact bytes differ from the first artifact of this config"]
        else:
            errors = []
        if errors:
            self.failed += 1
            self.errors.extend(f"{op.name}: {e}" for e in errors)
        return not errors
