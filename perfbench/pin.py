#!/usr/bin/env python3
"""Pin the output digests of the two walls workloads at seeds 0..9.

    python3 perfbench/pin.py > perfbench/pinned.json

Each output is first checked by the benchmark's own checks: the Fraction
wall oracle, the recheck verdict, and at seed 0 the golden CSV.  Run it
only on a commit whose outputs are known to be right; a pinned digest turns
any later change of output bytes into a failed job.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import abelfm.cli as cli  # noqa: E402
from run import OUT, call  # noqa: E402
from workloads import WORKLOADS, sha256  # noqa: E402

SEEDS = range(10)


def main() -> int:
    pins = {}
    out_dir = OUT / f"pin-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        for name in ("walls_dense", "walls_recheck"):
            pins[name] = {}
            for seed in SEEDS:
                wl = WORKLOADS[name](seed, out_dir, smoke=False)
                wl.prepare()
                wl.pinned = lambda: None  # judge the output on its own merits
                wl.oracle_sample = (10**9, 2000)  # every emitted cell and neighbour
                op = next(wl.ops())
                res = call(cli.main, op.argv)
                res.data = Path(wl.out_path).read_bytes()
                verdict = wl.check(op, res)
                problems = wl.final_check([(op, res)])
                if not verdict.ok or problems:
                    print(f"{name} seed {seed}: {verdict.detail} {problems}", file=sys.stderr)
                    return 1
                pins[name][str(seed)] = sha256(res.data)
                print(f"{name} seed {seed}: {pins[name][str(seed)]}", file=sys.stderr)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    print(json.dumps(pins, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
