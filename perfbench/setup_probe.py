"""Set-up probe, run in a fresh interpreter by run.py, which times it.

Does what a `hallustat` invocation does before its first op can start:
import the package and its CLI entry point, then read the workload's
configs. Usage: python3 setup_probe.py SRC_DIR CONFIG...
"""

import json
import sys

sys.path.insert(0, sys.argv[1])

import hallustat.cli  # noqa: E402,F401  (the import is what is measured)

for path in sys.argv[2:]:
    with open(path, encoding="utf-8") as fh:
        json.load(fh)
