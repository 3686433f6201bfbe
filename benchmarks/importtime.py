#!/usr/bin/env python
"""Report the import chain of the optimizer's, the CLI's and the wire
format's cold start.

For each entry module, a fresh interpreter runs ``python -X importtime
-c "import <module>"``; the report gives the modules loaded (all and
``repro``'s own) and the 15 entries with the largest cumulative import
time.  It is a report, not a gate: times depend on the host and the
file cache, and only the counts repeat exactly.  The pinned part of the
contract is ``tests/test_import_chain.py``.

Run:  PYTHONPATH=src python benchmarks/importtime.py  (or ``make importtime``)
"""

from __future__ import annotations

import subprocess
import sys

#: ``repro.serialize`` decodes and encodes every request a shard serves.
MODULES = ("repro.optimizer.api", "repro.cli", "repro.serialize")

#: Entries listed per module, largest cumulative time first.
TOP = 15

_COUNT = (
    "import sys, {module}; "
    "print(len(sys.modules), sum(m.split('.')[0] == 'repro' for m in sys.modules))"
)


def report(module):
    out = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", _COUNT.format(module=module)],
        capture_output=True,
        text=True,
        check=True,
    )
    total, own = out.stdout.split()
    entries = []
    for line in out.stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        entries.append((int(cumulative), name.rstrip()))
    entries.sort(key=lambda entry: -entry[0])
    print(f"import {module}: {total} modules, {own} from repro")
    print(f"{'cumulative us':>14}  module")
    for cumulative, name in entries[:TOP]:
        print(f"{cumulative:>14}  {name}")
    print()


def main():
    for module in MODULES:
        report(module)
    return 0


if __name__ == "__main__":
    sys.exit(main())
