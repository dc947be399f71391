#!/usr/bin/env python3
"""Digest the outputs of the benchmark's seeded query batches.

    python3 tests/pin_queries.py | diff - tests/golden/queries.sha256

For each seed 0..2 this builds the 2,000-query batch of the queries
workload (perfbench/workloads.py, imported as it is), replays it in order
through ``abelfm.cli.main`` with its configs in a temporary directory, and
prints one sha256 over every query's argv, exit code, stdout and stderr.
The temporary directory's path is replaced by a fixed placeholder first,
so the digests depend only on the program.  pytest does not collect this
file; CI diffs its output against the pinned digests.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

from abelfm import cli  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEEDS = range(3)
PLACEHOLDER = "<tmp>"


def digest(seed: int) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        wl = WORKLOADS["queries"](seed, Path(tmp), smoke=False)
        wl.prepare()
        h = hashlib.sha256()
        for op in wl.batch:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(op.argv)
            record = [op.argv, code, out.getvalue(), err.getvalue()]
            h.update(json.dumps(record).replace(tmp, PLACEHOLDER).encode("utf-8") + b"\n")
    return h.hexdigest()


def main() -> int:
    for seed in SEEDS:
        print(f"queries seed {seed}: {digest(seed)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
