"""Set-up cost seen by a fresh interpreter: import relayasym, parse configs.

Usage: python3 bench/setup_probe.py <src dir> <config.json>...
Prints {"import_s": ..., "parse_s": ...} as one JSON line.
"""

import json
import sys
from time import perf_counter

t0 = perf_counter()
sys.path.insert(0, sys.argv[1])
from relayasym import cli  # noqa: E402

t1 = perf_counter()
for path in sys.argv[2:]:
    with open(path, encoding="utf-8") as fh:
        cli.parse_config(fh.read())
t2 = perf_counter()
print(json.dumps({"import_s": t1 - t0, "parse_s": t2 - t1}))
