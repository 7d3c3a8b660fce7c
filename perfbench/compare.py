"""Compare two sets of benchmark records, e.g. a parent commit and a change.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the `<workload>-seed<n>-trace0.json` records that
run.py writes to .perfbench_out/. For every workload and metric this prints
the median and quartile spread of each side and the change of the median
against the metric's bound in BENCHMARK.json. It refuses (exit 2) when the
records' environments differ in anything but the commit, since figures from
different machines or package versions do not compare.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: str) -> list[dict]:
    return [json.loads(p.read_text()) for p in sorted(Path(directory).glob("*-trace0.json"))]


def spread(values: list[float]) -> tuple[float, float]:
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    if not base or not new:
        print("error: no *-trace0.json records in one of the directories", file=sys.stderr)
        return 2
    envs = {json.dumps({k: v for k, v in r["env"].items() if k != "commit"}, sort_keys=True)
            for r in base + new}
    if len(envs) > 1:
        print("error: records come from different environments:", file=sys.stderr)
        for env in sorted(envs):
            print(f"  {env}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = {m["name"]: m for m in bench["end_to_end"]}
    print(f"{'workload':<14}{'metric':<16}{'base':>12}{'iqr':>7}{'new':>12}{'iqr':>7}"
          f"{'change':>9}{'bound':>7}")
    worse = 0
    for workload in sorted({r["workload"] for r in base + new}):
        for name, spec in specs.items():
            sides = [[r["metrics"][name]["value"] for r in records
                      if r["workload"] == workload and r["correct"]] for records in (base, new)]
            if not all(sides):
                continue
            (b_med, b_iqr), (n_med, n_iqr) = spread(sides[0]), spread(sides[1])
            change = (n_med - b_med) / b_med
            if spec["better"] == "higher":
                change = -change
            flag = " WORSE" if change > spec["bound"] else ""
            worse += bool(flag)
            print(f"{workload:<14}{name:<16}{b_med:>12.6g}{b_iqr:>7.1%}{n_med:>12.6g}"
                  f"{n_iqr:>7.1%}{change:>+9.1%}{spec['bound']:>7.0%}{flag}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
