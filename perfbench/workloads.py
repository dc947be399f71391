"""The four workloads: seeded inputs, the CLI calls that make one job, and
the checks on every output.

Each workload yields operations (an argv for ``abelfm.cli.main`` plus what
the check needs to know) and judges each result.  A run replays a fixed,
seeded set of distinct operations; each one counts once in ``attempted``,
however often it is timed.  A failed operation is either one of the known
defects listed in ``KNOWN_DEFECTS`` or unexpected; only an unexpected one
makes a run incorrect.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial
from pathlib import Path

from oracle import WallOracle, parse_class

F = Fraction
HERE = Path(__file__).resolve().parent

# Failures the program shows at the commit that defined this benchmark.
# They are counted in "failed" but do not make a run incorrect.
KNOWN_DEFECTS = {
    "zero-denominator": 'a literal "1/00" escapes as ZeroDivisionError (exit 1, traceback)',
    "float-t-accepted": "a JSON float or bool for charge.t is accepted with exit 0",
    "params-float-tolerance": "params at g >= 4 uses the 1e-12 float fallback and "
    "reports a true identity as violated (exit 1)",
}

# tests/data/example_scan.json, the walls_recheck input at seed 0
EXAMPLE_SCAN = {
    "context": {"g": 2, "n": 2, "label": "X"},
    "charge": {"k": 2, "b": "0", "t": "1"},
    "scan": {
        "k": 2,
        "v": "1,0,0",
        "walls": ["0,0,1/2", "1,1,1/2"],
        "b_range": ["-2", "2"],
        "t_range": ["1/100", "2"],
        "resolution": [200, 200],
    },
}
GOLDEN_CSV = HERE.parent / "tests" / "golden" / "walls.csv"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_pins() -> dict:
    with open(HERE / "pinned.json", encoding="utf-8") as fh:
        return json.load(fh)


@dataclass
class Op:
    argv: list
    key: object  # operations with equal keys must give equal output
    meta: dict = field(default_factory=dict)


@dataclass
class Result:
    code: int
    out: str
    err: str
    seconds: float
    data: bytes = b""  # the emitted file, for walls jobs


@dataclass
class Verdict:
    ok: bool
    defect: str | None = None  # key of KNOWN_DEFECTS when a known failure
    detail: str = ""


OK = Verdict(True)


def write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj, indent=1) + "\n", encoding="utf-8")
    return str(path)


def rat(rng: random.Random, lo: int, hi: int, den: int) -> Fraction:
    return F(rng.randint(lo, hi), rng.randint(1, den))


def pos(rng: random.Random, hi: int, den: int) -> Fraction:
    return F(rng.randint(1, hi), rng.randint(1, den))


def cls_text(coeffs) -> str:
    return ",".join(str(F(c)) for c in coeffs)


class Workload:
    name = ""
    unit = ""  # the work item counted by work_per_s
    setup_parse = None  # what the set-up probe parses after loading the config
    collect_between_jobs = True  # jobs long enough that a full collection between them is cheap
    min_ops = 1  # a run times at least this many operations, whatever its length

    def __init__(self, seed: int, out_dir: Path, smoke: bool):
        self.seed = seed
        self.out_dir = out_dir
        self.smoke = smoke
        self.rng = random.Random(f"{self.name}:{seed}")
        self.config_path: str | None = None

    def prepare(self) -> None:
        """Generate the inputs from the seed and write them under out_dir."""

    def ops(self):
        raise NotImplementedError

    def check(self, op: Op, res: Result) -> Verdict:
        raise NotImplementedError

    def work(self, op: Op, res: Result) -> int:
        return 1

    def final_check(self, results: list) -> list[str]:
        """Checks on the whole run; results are (op, result) pairs."""
        return []


# ------------------------------------------------------------------ walls --


class _Walls(Workload):
    unit = "points"
    setup_parse = "scan"
    fmt = ""
    extra: tuple = ()
    oracle_sample = (100, 100)  # emitted cells and their neighbours; random cells

    def scan_config(self) -> dict:
        raise NotImplementedError

    def prepare(self) -> None:
        self.cfg = self.scan_config()
        self.config_path = write_json(self.out_dir / "scan.json", self.cfg)
        self.out_path = str(self.out_dir / f"cells.{self.fmt}")
        s = self.cfg["scan"]
        self.oracle = WallOracle(
            parse_class(s["v"]),
            [parse_class(w) for w in s["walls"]],
            s["k"],
            [F(x) for x in s["b_range"]],
            [F(x) for x in s["t_range"]],
            s["resolution"],
        )
        nb, nt = s["resolution"]
        self.points = nb * nt

    def ops(self):
        argv = ["walls", "--config", self.config_path, "--format", self.fmt,
                "--out", self.out_path, *self.extra]
        while True:
            yield Op(list(argv), key=0)

    def work(self, op: Op, res: Result) -> int:
        return self.points

    def pinned(self) -> str | None:
        if self.smoke:
            return None
        return load_pins().get(self.name, {}).get(str(self.seed))

    def check(self, op: Op, res: Result) -> Verdict:
        if res.code != 0:
            return Verdict(False, detail=f"exit {res.code}: {res.err.strip()[-300:]}")
        want = self.pinned()
        if want is not None and sha256(res.data) != want:
            return Verdict(False, detail="output differs from the pinned digest")
        return OK

    def cells(self, data: bytes):
        raise NotImplementedError

    def final_check(self, results: list) -> list[str]:
        problems = []
        digests = {sha256(res.data) for _, res in results}
        if len(digests) > 1:
            problems.append(f"{len(digests)} different outputs from identical jobs")
        ok = [res for _, res in results if res.code == 0]
        if not ok:
            return problems + ["no job succeeded"]
        cells, trivial = self.cells(ok[0].data)
        problems += self.oracle.check(
            cells, trivial, random.Random(f"oracle:{self.seed}"), *self.oracle_sample
        )
        return problems


class WallsDense(_Walls):
    """g = 3, k = 3, 500 x 500, four wall classes, one a rational multiple
    of the probe v, JSON output, no recheck."""

    name = "walls_dense"
    fmt = "json"

    def scan_config(self) -> dict:
        rng = self.rng

        def coeff():
            # never zero: a zero coefficient skips products in the grid loop,
            # which would make the cost of a job depend on the seed
            return F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 4)))

        v = [F(1)] + [coeff() for _ in range(3)]
        walls = []
        while len(walls) < 3:
            w = [coeff() for _ in range(4)]
            if not WallOracle(v, [w], 3, (-1, 1), (1, 2), (2, 2)).trivial(0):
                walls.append(w)
        walls.insert(rng.randrange(4), [pos(rng, 3, 2) * c for c in v])
        res = 60 if self.smoke else 500
        return {
            "context": {"g": 3, "n": "6", "label": "X"},
            "scan": {
                "k": 3,
                "v": cls_text(v),
                "walls": [cls_text(w) for w in walls],
                "b_range": ["-2", "2"],
                "t_range": ["1/20", "2"],
                "resolution": [res, res],
            },
        }

    def cells(self, data: bytes):
        rec = json.loads(data)
        cells = [(c["w"], F(c["b"]), F(c["t"])) for c in rec["cells"]]
        return cells, rec["trivial_walls"]


class WallsRecheck(_Walls):
    """g = 2, k = 2, 200 x 200, two walls, CSV output, with --recheck.  At
    seed 0 the input is the shipped example scan."""

    name = "walls_recheck"
    unit = "cells"
    fmt = "csv"
    extra = ("--recheck",)

    def scan_config(self) -> dict:
        if self.seed == 0:
            return json.loads(json.dumps(EXAMPLE_SCAN))
        # With v = 1,0,0 the wall of w = (c0, c1, c2) is the circle through
        # the origin centred at c2/c1 on the b axis.  Radii summing to 23/20
        # keep the cell count near the 346 of the example; odd numerators over
        # 40 and c0 = 0, 1 as in the example keep the cost of a cell the same.
        rng = self.rng
        p = rng.randrange(15, 32, 2)
        walls = [
            cls_text([c0, 1, radius * rng.choice([1, -1])])
            for c0, radius in ((0, F(p, 40)), (1, F(46 - p, 40)))
        ]
        cfg = json.loads(json.dumps(EXAMPLE_SCAN))
        cfg["scan"]["walls"] = walls
        return cfg

    def work(self, op: Op, res: Result) -> int:
        return max(1, res.data.count(b"\n") - 1)  # cells: CSV rows minus the header

    def check(self, op: Op, res: Result) -> Verdict:
        base = super().check(op, res)
        if not base.ok:
            return base
        if "recheck: all" not in res.err:
            return Verdict(False, detail=f"recheck did not confirm: {res.err.strip()[-200:]}")
        if self.seed == 0 and GOLDEN_CSV.is_file() and res.data != GOLDEN_CSV.read_bytes():
            return Verdict(False, detail="output differs from tests/golden/walls.csv")
        return OK

    def pinned(self) -> str | None:
        return load_pins().get(self.name, {}).get(str(self.seed))

    def cells(self, data: bytes):
        rows = data.decode("utf-8").splitlines()[1:]
        cells = []
        for row in rows:
            w, b, t = row.split(",")
            cells.append((int(w), F(b), F(t)))
        s = self.cfg["scan"]
        trivial = [i for i in range(len(s["walls"])) if self.oracle.trivial(i)]
        return cells, trivial  # CSV carries no trivial flags: take the oracle's


# ----------------------------------------------------------------- verify --


class VerifyAll(Workload):
    """verify --suite all; its internal seeds are fixed, so the seed changes nothing."""

    name = "verify_all"
    unit = "checks"

    def ops(self):
        while True:
            yield Op(["verify", "--suite", "all"], key=0)

    def work(self, op: Op, res: Result) -> int:
        return max(1, sum(1 for line in res.out.splitlines() if line[:5] in ("PASS ", "FAIL ", "NOTE ")))

    def check(self, op: Op, res: Result) -> Verdict:
        lines = res.out.splitlines()
        if res.code != 0 or not lines or not lines[-1].startswith("ok:"):
            return Verdict(False, detail=f"exit {res.code}, last line {lines[-1:]}")
        if any(line.startswith("FAIL") for line in lines):
            return Verdict(False, detail="a FAIL line")
        return OK


# ---------------------------------------------------------------- queries --

MALFORMED = ("zero_denominator", "float_leaf", "bool_leaf", "wrong_class_length", "empty_string")


class Queries(Workload):
    """A seeded stream of small transform / charge / zeta / params calls,
    g in 1..5, rational or sqrt3 t, about 5% malformed."""

    name = "queries"
    unit = "queries"
    setup_parse = "charge"
    collect_between_jobs = False
    POOL = 6  # configs per (kind, g)
    BATCH = 2000  # distinct queries per seed, replayed in order; about 7 s of work

    def prepare(self) -> None:
        rng = self.rng
        self.transform_cfgs = {}
        self.charge_cfgs = {}
        for g in range(1, 6):
            self.transform_cfgs[g] = [
                self._write(f"transform-{g}-{i}", self._transform_block(rng, g)) for i in range(self.POOL)
            ]
            self.charge_cfgs[g] = [
                self._write(f"charge-{g}-{i}", self._charge_blocks(rng, g)) for i in range(self.POOL)
            ]
        self.config_path = self.charge_cfgs[2][0][0]
        stream = self.stream()
        self.batch = [next(stream) for _ in range(40 if self.smoke else self.BATCH)]
        self.min_ops = len(self.batch)  # every run judges the whole batch

    def _write(self, stem: str, cfg: dict) -> tuple[str, dict]:
        return write_json(self.out_dir / f"{stem}.json", cfg), cfg

    @staticmethod
    def _transform_block(rng, g: int) -> dict:
        r = rng.randint(1, 3)
        n_x = pos(rng, 6, 3)
        n_y = F(factorial(g)) ** 2 / (r * r * n_x)
        return {
            "transform": {"g": g, "nX": str(n_x), "nY": str(n_y), "r": r,
                          "dX": str(rat(rng, -3, 3, 4)), "dY": str(rat(rng, -3, 3, 4)),
                          "labelX": "X", "labelY": "Y"}
        }

    @staticmethod
    def _charge_blocks(rng, g: int) -> dict:
        if rng.random() < 0.5:
            t = str(pos(rng, 5, 3))
        else:  # t = a + s*sqrt3 > 0
            s = pos(rng, 3, 4)
            a = rat(rng, 0, 2, 3)
            t = f"{s}*sqrt3" if a == 0 else f"{a}+{s}*sqrt3"
        return {
            "context": {"g": g, "n": str(factorial(g) * rng.randint(1, 3)), "label": "X"},
            "charge": {"k": rng.randint(1, g), "b": str(rat(rng, -3, 3, 4)), "t": t},
        }

    @staticmethod
    def _cls(rng, g: int) -> list[Fraction]:
        return [rat(rng, -4, 4, 6) for _ in range(g + 1)]

    def ops(self):
        while True:
            yield from self.batch

    def stream(self):
        rng = random.Random(f"{self.name}:{self.seed}:ops")
        index = 0
        while True:
            x = rng.random()
            if x < 0.05:
                op = self._malformed(rng, index)
            elif x < 0.35:
                g = rng.randint(1, 5)
                path, _ = rng.choice(self.transform_cfgs[g])
                src = self._cls(rng, g)
                op = Op(["transform", f"--config={path}", f"--class={cls_text(src)}"], None,
                        {"verb": "transform", "g": g, "src": src})
            elif x < 0.65:
                g = rng.randint(1, 5)
                path, cfg = rng.choice(self.charge_cfgs[g])
                argv = ["charge", f"--config={path}", f"--class={cls_text(self._cls(rng, g))}"]
                k = cfg["charge"]["k"]
                if rng.random() < 0.3:
                    k = rng.randint(1, g)
                    argv += ["--k", str(k)]
                op = Op(argv, None, {"verb": "charge", "g": g, "k": k})
            elif x < 0.85:
                g = rng.randint(1, 5)
                path, _ = rng.choice(self.transform_cfgs[g])
                angle = F(rng.randint(1, 2 * g - 1), g) if rng.random() < 0.4 else rat(rng, -6, 6, 12)
                op = Op(["zeta", f"--config={path}", f"--u={pos(rng, 4, 3)}@{angle}"], None,
                        {"verb": "zeta", "g": g, "angle": angle})
            else:
                g = rng.randint(2, 5)
                path, _ = rng.choice(self.transform_cfgs[g])
                op = Op(["params", f"--config={path}", "--k", str(rng.randint(1, g - 1)),
                         f"--lambda={pos(rng, 4, 3)}"], None, {"verb": "params", "g": g})
            op.key = index
            index += 1
            yield op

    def _malformed(self, rng, index: int) -> Op:
        kind = rng.choice(MALFORMED)
        g = rng.randint(1, 5)
        meta = {"verb": "malformed", "kind": kind, "g": g}
        if kind in ("float_leaf", "bool_leaf"):
            _, base = rng.choice(self.charge_cfgs[g])
            cfg = json.loads(json.dumps(base))
            leaf = rng.choice(("context.n", "charge.b", "charge.t"))
            block, key = leaf.split(".")
            cfg[block][key] = rng.choice((0.1, 1.5)) if kind == "float_leaf" else True
            meta["leaf"] = leaf
            path = write_json(self.out_dir / f"malformed-{index}.json", cfg)
            return Op(["charge", f"--config={path}", f"--class={cls_text(self._cls(rng, g))}"], None, meta)
        verb = rng.choice(("transform", "charge"))
        table = self.transform_cfgs if verb == "transform" else self.charge_cfgs
        path, _ = rng.choice(table[g])
        coeffs = [str(c) for c in self._cls(rng, g)]
        if kind == "zero_denominator":
            coeffs[rng.randrange(g + 1)] = "1/00"
            lit = ",".join(coeffs)
        elif kind == "wrong_class_length":
            lit = ",".join(coeffs[:-1] if rng.random() < 0.5 else coeffs + ["1"])
        else:
            lit = ""
        return Op([verb, f"--config={path}", f"--class={lit}"], None, meta)

    # checks ---------------------------------------------------------------

    def check(self, op: Op, res: Result) -> Verdict:
        m = op.meta
        verb = m["verb"]
        if verb == "malformed":
            return self._check_malformed(m, res)
        if res.code != 0:
            if verb == "params" and m["g"] >= 4 and res.code == 1 and "FAIL: charge transport" in res.err:
                return Verdict(False, "params-float-tolerance")
            return Verdict(False, detail=f"{verb} exit {res.code}: {res.err.strip()[-200:]}")
        lines = res.out.splitlines()
        try:
            if verb == "transform":
                return self._check_transform(m, lines)
            if verb == "zeta":
                return self._check_zeta(m, lines)
            if verb == "charge":
                want = f"k = {m['k']}, "
                ok = lines[0].startswith(want) and lines[1].startswith("Z = ") and lines[3].startswith("phase = ")
                return OK if ok else Verdict(False, detail=f"charge output {lines[:4]}")
        except (IndexError, ValueError, ZeroDivisionError) as exc:
            return Verdict(False, detail=f"{verb} output unreadable ({exc}): {lines[:4]}")
        return OK  # params: exit 0 is the check, the law is a theorem

    @staticmethod
    def _check_transform(m, lines) -> Verdict:
        src = m["src"]
        shown = parse_class(lines[0].split("=", 1)[1])
        back_label, back = lines[2].split("=", 1)
        sign = (-1) ** m["g"]
        if shown != src or parse_class(back) != [sign * c for c in src]:
            return Verdict(False, detail=f"round trip {lines[2]} is not (-1)^g * {lines[0]}")
        if f"(shift {m['g']})" not in back_label:
            return Verdict(False, detail=f"round trip shift: {lines[2]}")
        return OK

    @staticmethod
    def _check_zeta(m, lines) -> Verdict:
        g_angle = m["g"] * m["angle"]
        real = [line for line in lines if line.startswith("real:")]
        if g_angle.denominator == 1:
            want = f"real: yes, sign {(-1) ** (g_angle.numerator % 2):+d}"
        else:
            want = "real: no"
        if real != [want]:
            return Verdict(False, detail=f"zeta at g*angle = {g_angle}: {real}, want {want!r}")
        return OK

    @staticmethod
    def _check_malformed(m, res: Result) -> Verdict:
        err_lines = res.err.splitlines()
        if res.code == 2 and len(err_lines) == 1 and "Traceback" not in res.err:
            return OK
        kind = m["kind"]
        if kind == "zero_denominator" and res.code == 1 and "ZeroDivisionError" in res.err:
            return Verdict(False, "zero-denominator")
        if kind in ("float_leaf", "bool_leaf") and m.get("leaf") == "charge.t" and res.code == 0:
            return Verdict(False, "float-t-accepted")
        return Verdict(False, detail=f"malformed {kind}: exit {res.code}, stderr {err_lines[:3]}")


WORKLOADS = {w.name: w for w in (WallsDense, WallsRecheck, VerifyAll, Queries)}
