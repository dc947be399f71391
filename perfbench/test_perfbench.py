"""The benchmark's own tests.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from oracle import WallOracle  # noqa: E402
from workloads import EXAMPLE_SCAN, WORKLOADS, Queries, WallsRecheck  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_names(kind: str) -> set[str]:
    return {m["name"] for m in BENCH[kind]}


def test_tracer_finds_every_binding_site():
    # scan.recheck_walls calls charge through the name scan imported; a
    # tracer that wrapped only stability.charge would count 0 here
    report = run.run_one("walls_recheck", 0, 0.1, trace=True, smoke=False)
    res = report["result"]
    assert res["correct"], report["lines"]
    metrics = {k: v["value"] for k, v in res["metrics"].items()}
    assert metrics["scan.recheck.charge_calls_per_cell"] == 8
    assert metrics["stability.charge.calls"] == 2768  # 346 cells x 8
    assert metrics["stability.charge_at.calls"] == 2768
    assert set(metrics) == metric_names("per_layer")


def test_tracer_restores_every_binding():
    import abelfm.cli
    import abelfm.scan
    import abelfm.stability
    import abelfm.surd
    from tracer import Tracer

    before = (abelfm.scan.charge, abelfm.stability.charge, abelfm.cli.main,
              abelfm.surd.Q3.__mul__, dict(abelfm.scan._EMITTERS))
    t = Tracer().install()
    assert abelfm.scan.charge is not before[0] and abelfm.scan.charge is abelfm.stability.charge
    assert abelfm.scan._EMITTERS["csv"] is not before[4]["csv"]
    t.uninstall()
    after = (abelfm.scan.charge, abelfm.stability.charge, abelfm.cli.main,
             abelfm.surd.Q3.__mul__, dict(abelfm.scan._EMITTERS))
    assert after == before


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke(name):
    for trace in (False, True):
        report = run.run_one(name, 3, 0.1, trace=trace, smoke=True)
        res = report["result"]
        assert res["correct"], report["lines"]
        assert res["attempted"] >= 1
        kind = "per_layer" if trace else "end_to_end"
        assert set(res["metrics"]) == metric_names(kind)
        units = {m["name"]: m["unit"] for m in BENCH[kind]}
        assert all(v["unit"] == units[k] for k, v in res["metrics"].items())
        if not trace:
            assert all(v["value"] > 0 for v in res["metrics"].values())


def test_seed0_recheck_input_is_the_example_scan():
    path = ROOT / "tests" / "data" / "example_scan.json"
    if not path.is_file():
        pytest.skip("example scan not in this checkout")
    assert json.loads(path.read_text()) == EXAMPLE_SCAN
    assert WallsRecheck(0, ROOT, False).scan_config() == EXAMPLE_SCAN


def golden_cells():
    rows = (ROOT / "tests" / "golden" / "walls.csv").read_text().splitlines()[1:]
    return [(int(w), Fraction(b), Fraction(t)) for w, b, t in (r.split(",") for r in rows)]


def example_oracle():
    s = EXAMPLE_SCAN["scan"]
    return WallOracle(
        [Fraction(x) for x in s["v"].split(",")],
        [[Fraction(x) for x in w.split(",")] for w in s["walls"]],
        s["k"], s["b_range"], s["t_range"], s["resolution"],
    )


def test_wall_oracle_accepts_golden_and_finds_a_missing_cell():
    cells = golden_cells()
    assert example_oracle().check(cells, [], random.Random(0), 10**6, 500) == []
    problems = example_oracle().check(cells[:100] + cells[101:], [], random.Random(0), 10**6, 0)
    assert any("not emitted" in p for p in problems)
    shifted = [(w, b + Fraction(80, 199), t) for w, b, t in cells[:5]]  # 20 columns off the wall
    problems = example_oracle().check(cells + shifted, [], random.Random(0), 10**6, 0)
    assert any("no sign change" in p for p in problems)


def test_query_batch_is_seeded_and_mixes_every_kind(tmp_out):
    def batch(seed):
        q = Queries(seed, tmp_out, False)
        q.prepare()
        return q.batch

    a, b = batch(5), batch(5)
    assert len(a) == Queries.BATCH == len({o.key for o in a})
    assert [o.argv for o in a] == [o.argv for o in b]
    kinds = {o.meta.get("kind", o.meta["verb"]) for o in a}
    assert {"transform", "charge", "zeta", "params", "zero_denominator", "float_leaf",
            "bool_leaf", "wrong_class_length", "empty_string"} <= kinds
    assert 0.03 < sum(o.meta["verb"] == "malformed" for o in a) / len(a) < 0.07
    # literals that start with "-" are passed as --class=<lit>, never as a separate word
    assert all(not arg.startswith("-") or arg.startswith("--") for o in a for arg in o.argv)


def test_query_checks_accept_right_and_reject_wrong(tmp_out):
    import abelfm.cli as cli

    q = Queries(1, tmp_out, False)
    q.prepare()
    ops = q.ops()
    seen = set()
    for op in (next(ops) for _ in range(400)):
        if op.meta["verb"] not in ("transform", "zeta") or op.meta["verb"] in seen:
            continue
        res = run.call(cli.main, op.argv)
        assert q.check(op, res).ok, (op.argv, res.out)
        lines = res.out.splitlines()
        if op.meta["verb"] == "transform":
            lines[2] += ",1"  # a round trip with one coefficient too many
        else:
            lines = [("real: no" if x.startswith("real: yes") else "real: yes, sign +1")
                     if x.startswith("real:") else x for x in lines]
        res.out = "\n".join(lines) + "\n"
        assert not q.check(op, res).ok
        seen.add(op.meta["verb"])
    assert seen == {"transform", "zeta"}


def test_attempted_and_failed_do_not_depend_on_run_length():
    # one pass over the batch or about two: the same seed gives the same counts,
    # and the known defects still show in them
    counts = set()
    for seconds in (0.1, 10):
        report = run.run_one("queries", 0, seconds, trace=False, smoke=False)
        res = report["result"]
        assert res["correct"], report["lines"]
        counts.add((res["attempted"], res["failed"]))
    assert len(counts) == 1
    attempted, failed = counts.pop()
    assert attempted == Queries.BATCH and failed > 0


def test_refuses_to_run_without_the_program(tmp_out):
    bare = tmp_out / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "queries", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.fixture
def tmp_out():
    path = run.OUT / f"test-{random.randrange(10**9)}"
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)
