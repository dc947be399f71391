#!/usr/bin/env python3
"""abelfm benchmark: drives ``abelfm.cli.main`` from outside, checks every
output, and prints the metrics as one JSON object on the last line.

    python3 perfbench/run.py --workload walls_recheck --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 5       # every workload, both modes
    python3 perfbench/run.py --workload queries --seconds 1 --smoke

Run it from a checkout that has ``src/abelfm``; it builds nothing.  One
process, one client in a closed loop, no threads.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` spends a third of the time on untraced
reference jobs, then traces the rest and reports the per-layer metrics.
Spans of a traced run go to ``.perfbench_out/spans-<workload>-<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

from tracer import Tracer  # noqa: E402
from workloads import KNOWN_DEFECTS, WORKLOADS, Result, sha256  # noqa: E402

SETUP_REPEATS = 11

# On a shared 2-vCPU virtual machine the interpreter's speed drifts by up to
# a fifth within a minute.  A fixed calibration tick runs between jobs for a
# tenth of the busy time, and every reported time is scaled to the speed at
# which one tick takes TICK_REF_S.  There, over ten 25 s runs per workload,
# this cut the spread (IQR / median) of the job time from 7-16% for the raw
# median to 3-8% for the calibrated mean.
TICK_REF_S = 0.015
CALIBRATION_SHARE = 0.1

# fresh interpreter through "import abelfm" and loading the workload input
SETUP_PROBE = r"""
import sys
sys.path.insert(0, sys.argv[1])
import abelfm, abelfm.cli
from abelfm import config
if len(sys.argv) > 3:
    cfg = config.load_config(sys.argv[3])
    ctx = config.context_from(cfg)
    (config.scan_from if sys.argv[2] == "scan" else config.charge_from)(cfg, ctx)
"""


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def median(xs):
    return statistics.median(xs) if xs else 0.0


def p99(xs):
    if len(xs) < 2:
        return xs[0] if xs else 0.0
    return statistics.quantiles(xs, n=100, method="inclusive")[98]


def calibration_tick():
    """Fixed work of the kind the program does (Fraction and big-integer
    arithmetic in the interpreter) and nothing from the program itself."""
    s = Fraction(0)
    for i in range(1, 1500):
        s += Fraction(i % 7 + 1, i % 11 + 1) * Fraction(3, i % 5 + 2)
    x = 1
    for _ in range(20000):
        x = (x * 1103515245 + 12345) % 2305843009213693951
    return s, x


class Clock:
    """Calibration ticks interleaved with the measured work."""

    def __init__(self, share: float = CALIBRATION_SHARE):
        self.share = share
        self.ticks: list[float] = []
        self.total = 0.0

    def keep_up(self, busy: float) -> None:
        while self.total < self.share * busy or not self.ticks:
            t0 = perf_counter()
            calibration_tick()
            self.ticks.append(perf_counter() - t0)
            self.total += self.ticks[-1]

    def factor(self) -> float:
        """Multiply a measured time by this to get reference-speed seconds."""
        return TICK_REF_S * len(self.ticks) / self.total


def measure_setup(wl) -> tuple[float, float]:
    """Set-up time: the median as measured, and the mean at reference speed.
    Each probe is short, so ticks take a larger share here."""
    args = [sys.executable, "-c", SETUP_PROBE, str(SRC)]
    if wl.config_path and wl.setup_parse:
        args += [wl.setup_parse, wl.config_path]
    times = []
    clock = Clock(share=0.3)
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        proc = subprocess.run(args, capture_output=True, text=True, timeout=120)
        times.append(perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
        clock.keep_up(sum(times))
    return median(times), statistics.fmean(times) * clock.factor()


def call(main, argv) -> Result:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        t0 = perf_counter()
        try:
            code = main(argv)
            dt = perf_counter() - t0
        except Exception:  # escaped the CLI: the interpreter would print it and exit 1
            dt = perf_counter() - t0
            code = 1
            traceback.print_exc()
    return Result(code, out.getvalue(), err.getvalue(), dt)


def run_phase(wl, main, seconds: float, clock: Clock, tracer: Tracer | None = None) -> list:
    results = []
    busy = 0.0
    ops = wl.ops()
    out_path = Path(wl.out_path) if getattr(wl, "out_path", None) else None
    start = perf_counter()
    while len(results) < wl.min_ops or perf_counter() - start < seconds:
        op = next(ops)
        if out_path is not None and out_path.exists():
            out_path.unlink()
        if wl.collect_between_jobs:
            gc.collect()  # every job starts from the same collector state
        if tracer is None:
            res = call(main, op.argv)
        else:
            tracer.job += 1
            with tracer.span("bench.job"):
                res = call(main, op.argv)
        if out_path is not None and out_path.exists():
            res.data = out_path.read_bytes()
        results.append((op, res))
        busy += res.seconds
        clock.keep_up(busy)
    return results


def judge(wl, results: list) -> tuple[int, int, Counter, list]:
    """An operation is one distinct input (``op.key``); its repeats, traced
    or not, are timing samples and must emit the same bytes.  So a run of any
    length judges the same operations.  Returns (attempted, failed, known
    defects seen, unexpected problems)."""
    first, failed, known, unexpected = {}, set(), Counter(), []
    for op, res in results:
        emitted = (res.code, res.out, res.data)
        if op.key not in first:
            first[op.key] = emitted
        elif emitted != first[op.key]:
            failed.add(op.key)
            unexpected.append(f"{op.argv}: repeats of the same input emit different output")
        v = wl.check(op, res)
        if v.ok or op.key in failed:
            continue
        failed.add(op.key)
        if v.defect:
            known[v.defect] += 1
        else:
            unexpected.append(f"{op.argv}: {v.detail}")
    problems = wl.final_check(results)
    if problems:
        failed = set(first)  # identical jobs share the output the problem is in
        unexpected += problems
    return len(first), len(failed), known, unexpected


def per_input(results: list) -> list[float]:
    """Each distinct input's median time over its repeats.  A tail taken
    over these is the program's (its slow inputs), not the machine's (a
    repeat that happened to be preempted)."""
    times = {}
    for op, res in results:
        times.setdefault(op.key, []).append(res.seconds)
    return [median(ts) for ts in times.values()]


def e2e_metrics(wl, results, setup_s: float, factor: float) -> dict:
    """Times at reference speed (see Clock); memory as measured."""
    times = [res.seconds for _, res in results]
    work = sum(wl.work(op, res) for op, res in results)
    return {
        "setup_s": (setup_s, "s"),
        "job_mean_s": (statistics.fmean(times) * factor, "s"),
        "job_p99_s": (p99(per_input(results)) * factor, "s"),
        "work_per_s": (work / (sum(times) * factor), "1/s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def layer_metrics(t: Tracer, jobs: int, overhead: float, factor: float) -> dict:
    """Per job (emitters: per call); times at reference speed."""
    def ratio(a, b):
        return a / b if b else 0.0

    c, calls, self_s, incl = t.counts, t.calls, t.self_s, t.incl_s
    lat_calls, lat_self = t.layer_self("lattice")
    lit_calls, lit_self = t.layer_self("literals")
    config_parse = sum(v for n, v in incl.items() if n.startswith("config.") and n != "config.load_config")
    m = {
        "scan.scan_walls.self_s": (self_s["scan.scan_walls"] / jobs, "s"),
        "scan.grid_points": (c["scan.grid_points"] / jobs, "count"),
        "scan.cell_yield": (ratio(c["scan.cells"], c["scan.cell_slots"]), "ratio"),
        "scan.recheck_walls.self_s": (self_s["scan.recheck_walls"] / jobs, "s"),
        "scan.recheck.charge_calls_per_cell": (
            ratio(c["scan.recheck.charge_calls"], c["scan.recheck.cells"]), "count"),
        "stability.charge.calls": (calls["stability.charge"] / jobs, "count"),
        "stability.charge_at.calls": (calls["stability.charge_at"] / jobs, "count"),
        "stability.charge_at.self_s": (self_s["stability.charge_at"] / jobs, "s"),
        "stability.charge_at.us_per_call": (
            1e6 * ratio(self_s["stability.charge_at"], calls["stability.charge_at"]), "us"),
        "surd.q3_mul.calls": (c["surd.q3_mul"] / jobs, "count"),
        "surd.q3_mul.rational_share": (ratio(c["surd.q3_mul.rational"], c["surd.q3_mul"]), "ratio"),
        "surd.complex_mul.calls": (c["surd.complex_mul"] / jobs, "count"),
        "induced.verify_induced_law.self_s": (self_s["induced.verify_induced_law"] / jobs, "s"),
        "induced.phase_shift_check.self_s": (self_s["induced.phase_shift_check"] / jobs, "s"),
        "induced.exact_verdict_share": (
            ratio(c["induced.exact_verdicts"], c["induced.verdicts"]), "ratio"),
        "transform.apply.calls": (calls["transform.apply"] / jobs, "count"),
        "transform.apply.self_s": (self_s["transform.apply"] / jobs, "s"),
        "lattice.calls": (lat_calls / jobs, "count"),
        "lattice.self_s": (lat_self / jobs, "s"),
        "verify.checks": (sum(calls[f"verify.{s}"] for s in ("lattice", "transform", "law", "bg")) / jobs, "count"),
        "cli.main.self_s": (self_s["cli.main"] / jobs, "s"),
        "config.load_s": (incl["config.load_config"] / jobs, "s"),
        "config.parse_s": (config_parse / jobs, "s"),
        "config.errors": (t.errors["config"] / jobs, "count"),
        "literals.parse.calls": (lit_calls / jobs, "count"),
        "literals.parse.self_s": (lit_self / jobs, "s"),
    }
    for suite in ("lattice", "transform", "law", "bg"):
        m[f"verify.{suite}_s"] = (incl[f"verify.{suite}"] / jobs, "s")
    for fmt in ("csv", "json"):  # no workload writes SVG
        m[f"scan.emit_{fmt}_s"] = (ratio(incl[f"scan.emit_{fmt}"], calls[f"scan.emit_{fmt}"]), "s")
    fmts = ("csv", "json", "svg")
    m["scan.emit_bytes"] = (ratio(sum(c[f"scan.emit_{f}.bytes"] for f in fmts),
                                  sum(calls[f"scan.emit_{f}"] for f in fmts)), "bytes")
    m["trace.overhead_ratio"] = (overhead, "ratio")
    return {k: (v * factor if u in ("s", "us") else v, u) for k, (v, u) in m.items()}


def run_one(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    if not (SRC / "abelfm" / "__init__.py").is_file():
        raise BenchError(f"no abelfm sources under {SRC}")
    out_dir = OUT / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    try:
        wl = WORKLOADS[name](seed, out_dir, smoke)
        wl.prepare()
        setup = None if trace else measure_setup(wl)
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        try:
            import abelfm.cli as cli
        except ImportError as exc:
            raise BenchError(f"cannot import abelfm: {exc}") from None

        def main(argv):
            return cli.main(argv)  # looked up per call, so the tracer's binding is used

        lines = []
        clock = Clock()
        if not trace:
            results = run_phase(wl, main, seconds, clock)
            metrics = e2e_metrics(wl, results, setup[1], clock.factor())
            lines.append(f"set-up median as measured {setup[0]:.6f} s over {SETUP_REPEATS} interpreters")
        else:
            t0 = perf_counter()
            ref_clock = Clock()
            reference = run_phase(wl, main, seconds / 3, ref_clock)
            tracer = Tracer().install()
            try:
                traced = run_phase(wl, main, max(0.0, seconds - (perf_counter() - t0)), clock, tracer)
            finally:
                tracer.uninstall()
            overhead = (statistics.fmean([r.seconds for _, r in traced]) * clock.factor()) / (
                statistics.fmean([r.seconds for _, r in reference]) * ref_clock.factor())
            metrics = layer_metrics(tracer, len(traced), overhead, clock.factor())
            tracer.write_spans(OUT / f"spans-{name}-{seed}.jsonl")
            results = reference + traced  # judge() compares each traced job with its reference
            lines.append(f"spans kept {len(tracer.spans)}, dropped {tracer.spans_dropped}; "
                         f"binding sites {sum(tracer.wrapped.values())}")

        attempted, failed, known, unexpected = judge(wl, results)
        times = [res.seconds for _, res in results]
        lines.append(f"workload {name} seed {seed} trace {int(trace)}: {attempted} distinct operations "
                     f"timed {len(results)} times ({wl.unit} per op as the work unit), {failed} failed")
        if not trace and len(times) > 1:
            q = statistics.quantiles(times, n=4)
            lines.append(f"job time as measured (s): quartiles {q[0]:.6f} {q[1]:.6f} {q[2]:.6f}, "
                         f"p99 {p99(times):.6f}")
        lines.append(f"reference-speed factor {clock.factor():.4f} from {len(clock.ticks)} calibration ticks")
        for key, n in sorted(known.items()):
            lines.append(f"known defect {key}: {n} ({KNOWN_DEFECTS[key]})")
        lines += [f"UNEXPECTED: {u}" for u in unexpected[:20]]
        if failed:
            lines.append(f"fail_ratio {failed / attempted:.6f} = {failed}/{attempted}")
        digests = sorted({sha256(r.data) for _, r in results if r.data})
        if digests:
            lines.append(f"output sha256 {' '.join(digests)}")
        return {
            "lines": lines,
            "result": {
                "correct": not unexpected,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            },
        }
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def environment() -> dict:
    sha = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            sha = ref_file.read_text().strip() if ref_file.is_file() else "unknown"
        else:
            sha = ref
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "git_sha": sha,
        "loadavg": list(os.getloadavg()),
    }


def run_all(args) -> int:
    """Every workload in a fresh interpreter, untraced then traced."""
    summary = {"environment": environment(), "seed": args.seed, "seconds": args.seconds, "workloads": {}}
    ok = True
    for name in WORKLOADS:
        entry = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.smoke:
                cmd.append("--smoke")
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            out = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not out:
                print(f"{name} trace {trace}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 2
            res = json.loads(out[-1])
            ok = ok and res["correct"]
            print("\n".join(out[:-1]))
            for k, v in res["metrics"].items():
                print(f"  {name:<14} {k:<38} {v['value']:>16.6g} {v['unit']}")
            res["log"] = out[:-1]
            entry["e2e" if trace == 0 else "layers"] = res
        summary["workloads"][name] = entry
    summary["correct"] = ok
    print(json.dumps(summary, sort_keys=True))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="small inputs for a quick end-to-end pass")
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        report = run_one(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print("\n".join(report["lines"]))
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
