"""Acceptance gate for the shipped guarantees.

Nine criteria, one test each, every comparison exact (Fraction or Q(sqrt3)
arithmetic, no tolerances).  Each test records a single
``[criterion N] PASS/FAIL`` line that the terminal summary prints after
the run, so the verdicts show up even under plain ``pytest -v``.  Timed
criteria fail when they blow their wall-clock budget.
"""

import functools
import random
import time
from fractions import Fraction
from math import factorial
from pathlib import Path

from conftest import GATE_LINES

from abelfm.config import context_from, load_config, scan_from
from abelfm.induced import conjecture_params, phase_shift_check, verify_induced_law
from abelfm.lattice import (
    AbelianContext,
    CohClass,
    divided_power_basis,
    skyscraper,
    structure_sheaf,
)
from abelfm.scan import recheck_walls, render, scan_walls
from abelfm.stability import ChargeSpec, bg_check, charge, phase
from abelfm.surd import PolarScalar, Q3, SurdComplex
from abelfm.transform import (
    FMTransformSpec,
    InvalidSpecError,
    adjoint_pairing_check,
    apply,
    quasi_inverse,
)

F = Fraction

GOLDEN = Path(__file__).parent / "golden"
DATA = Path(__file__).parent / "data"


def criterion(num: int, desc: str, budget: float | None = None):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                GATE_LINES[num] = f"[criterion {num}] FAIL: {desc}"
                raise
            dt = time.perf_counter() - t0
            if budget is not None and dt >= budget:
                GATE_LINES[num] = (
                    f"[criterion {num}] FAIL: {desc} ({dt:.2f}s, budget {budget:g}s)"
                )
                raise AssertionError(f"criterion {num} exceeded {budget:g}s: {dt:.2f}s")
            timing = f" ({dt:.2f}s < {budget:g}s)" if budget is not None else ""
            GATE_LINES[num] = f"[criterion {num}] PASS: {desc}{timing}"

        return wrapper

    return deco


def rand_rat(rng) -> Fraction:
    return F(rng.randint(-24, 24), rng.randint(1, 8))


def rand_pos(rng) -> Fraction:
    return F(rng.randint(1, 12), rng.randint(1, 12))


def rand_spec(rng, g: int) -> FMTransformSpec:
    r = rng.randint(1, 4)
    n_x = rand_pos(rng)
    n_y = F(factorial(g)) ** 2 / (r * r * n_x)
    return FMTransformSpec(
        src=AbelianContext(g, n_x, "X"),
        dst=AbelianContext(g, n_y, "Y"),
        r=r,
        d_x=rand_rat(rng),
        d_y=rand_rat(rng),
    )


def rand_class(rng, ctx: AbelianContext) -> CohClass:
    return CohClass(ctx, tuple(rand_rat(rng) for _ in range(ctx.g + 1)))


def poincare(g: int) -> FMTransformSpec:
    n = F(factorial(g))
    return FMTransformSpec(
        src=AbelianContext(g, n, "X"),
        dst=AbelianContext(g, n, "Y"),
        r=1,
        d_x=F(0),
        d_y=F(0),
    )


@criterion(1, "rank-one basis images match the signed closed form, exact", budget=1.0)
def test_criterion_1_rank_one_basis_images():
    for g in (1, 2, 3, 4):
        gfact = F(factorial(g))
        for n_x in (F(1), gfact, gfact**2, F(3, 2)):
            spec = FMTransformSpec(
                src=AbelianContext(g, n_x, "X"),
                dst=AbelianContext(g, gfact**2 / n_x, "Y"),
                r=1,
                d_x=F(0),
                d_y=F(0),
            )
            for i, e in enumerate(divided_power_basis(spec.src)):
                want = [F(0)] * (g + 1)
                want[g - i] = (-1) ** (g - i) * (n_x / gfact) / F(factorial(g - i))
                assert apply(spec, e) == CohClass(spec.dst, tuple(want))


@criterion(2, "double transform is the parity sign times identity, exact", budget=5.0)
def test_criterion_2_composition_sign():
    rng = random.Random(20260819)
    for g in range(1, 6):
        sign = (-1) ** g
        for _ in range(20):
            spec = rand_spec(rng, g)
            rev, shift = quasi_inverse(spec)
            assert shift == g
            for e in divided_power_basis(spec.src):
                assert apply(rev, apply(spec, e)) == e.scale(sign)


@criterion(3, "reciprocity gate accepts equality and rejects everything else, 100 cases")
def test_criterion_3_reciprocity_enforcement():
    rng = random.Random(31415)
    accepted = rejected = 0
    for case in range(100):
        g = rng.randint(1, 5)
        r = rng.randint(1, 4)
        n_x = rand_pos(rng)
        n_y = F(factorial(g)) ** 2 / (r * r * n_x)
        if case % 2 == 0:
            spec = FMTransformSpec(
                src=AbelianContext(g, n_x, "X"),
                dst=AbelianContext(g, n_y, "Y"),
                r=r,
                d_x=rand_rat(rng),
                d_y=rand_rat(rng),
            )
            assert (spec.src.n / factorial(g)) * (spec.dst.n / factorial(g)) == F(1, r * r)
            accepted += 1
        else:
            off = rng.choice([F(2), F(3), F(1, 2), F(5, 7), F(99, 100)])
            try:
                FMTransformSpec(
                    src=AbelianContext(g, n_x, "X"),
                    dst=AbelianContext(g, n_y * off, "Y"),
                    r=r,
                    d_x=rand_rat(rng),
                    d_y=rand_rat(rng),
                )
            except InvalidSpecError:
                rejected += 1
            else:
                raise AssertionError(f"off-reciprocity spec accepted (case {case})")
    assert accepted == 50 and rejected == 50


def law_specs(g: int) -> list[FMTransformSpec]:
    def mk(r, n_x, n_y, d_x, d_y):
        return FMTransformSpec(
            src=AbelianContext(g, F(n_x), "X"),
            dst=AbelianContext(g, F(n_y), "Y"),
            r=r,
            d_x=F(d_x),
            d_y=F(d_y),
        )

    if g == 2:
        picks = [
            mk(2, 1, 1, F(1, 2), F(-1, 3)),
            mk(2, 2, F(1, 2), -1, F(2, 3)),
            mk(2, F(1, 2), 2, 3, F(1, 5)),
            mk(3, 1, F(4, 9), F(1, 3), -2),
            mk(4, F(1, 2), F(1, 2), F(-2, 7), 3),
        ]
    else:
        picks = [
            mk(2, 3, 3, F(1, 2), F(-1, 3)),
            mk(2, 1, 9, -1, F(2, 3)),
            mk(3, 2, 2, F(1, 3), -2),
            mk(3, 4, 1, 5, F(1, 7)),
            mk(6, 1, 1, F(-2, 7), 3),
        ]
    return [poincare(g), *picks]


@criterion(4, "induced charge law holds exactly on the divided-power basis", budget=5.0)
def test_criterion_4_induced_law_identity():
    lams = (F(1, 2), F(1), F(2), F(7, 3))
    for g in (2, 3):
        for spec in law_specs(g):
            basis = divided_power_basis(spec.src)
            for k in range(1, g):
                for lam in lams:
                    u = PolarScalar(lam, F(k, g))
                    verdicts = verify_induced_law(spec, u, basis)
                    assert len(verdicts) == g + 1
                    for v in verdicts:
                        assert v.exact, f"g={g} k={k} lam={lam}: float fallback used"
                        assert v.equal, f"g={g} k={k} lam={lam} {v.label}: law failed"


@criterion(5, "matched polarization pairs and unit heart shift, coefficient-exact")
def test_criterion_5_matched_polarization_pairs():
    lams = (F(1, 2), F(2), F(7, 3))

    spec3 = law_specs(3)[1]  # r=2, d_x=1/2, d_y=-1/3
    for lam in lams:
        src, dst = conjecture_params(spec3, 1, lam)
        assert src.as_surd() == SurdComplex(Q3(-spec3.d_x + lam / 2), Q3(0, lam / 2))
        assert dst.as_surd() == SurdComplex(Q3(spec3.d_y - 1 / (2 * lam)), Q3(0, 1 / (2 * lam)))
        shift = phase_shift_check(spec3, PolarScalar(lam, F(1, 3)), skyscraper(spec3.src))
        assert shift.holds and shift.exact and shift.expected_shift == 1

    spec2 = law_specs(2)[1]  # r=2, d_x=1/2, d_y=-1/3
    for lam in lams:
        src, dst = conjecture_params(spec2, 1, lam)
        assert src.as_surd() == SurdComplex(Q3(-spec2.d_x), Q3(lam))
        assert dst.as_surd() == SurdComplex(Q3(spec2.d_y), Q3(1 / lam))
        shift = phase_shift_check(spec2, PolarScalar(lam, F(1, 2)), skyscraper(spec2.src))
        assert shift.holds and shift.exact and shift.expected_shift == 1


@criterion(6, "transform is a pairing isometry on 100 random pairs per g in 1..3")
def test_criterion_6_adjoint_isometry():
    rng = random.Random(6022)
    for g in (1, 2, 3):
        for _ in range(100):
            spec = rand_spec(rng, g)
            u = rand_class(rng, spec.dst)
            v = rand_class(rng, spec.src)
            assert adjoint_pairing_check(spec, u, v)


@criterion(7, "point class: full-level charge -1 with phase 1, kernel below, exact")
def test_criterion_7_point_charge_grid():
    for g in (2, 3):
        ctx = AbelianContext(g, F(3, 2), "X")
        pt = skyscraper(ctx)
        bs = [F(-2) + F(4, 9) * i for i in range(10)]
        ts = [F(1, 10) + F(19, 90) * j for j in range(10)]
        for b in bs:
            for t in ts:
                full = ChargeSpec(ctx, g, b, t)
                z = charge(full, pt)
                assert z.re == -1 and z.im == 0
                assert phase(full, pt) == 1.0
                for k in range(1, g):
                    below = ChargeSpec(ctx, k, b, t)
                    zk = charge(below, pt)
                    assert zk.re == 0 and zk.im == 0
                    assert phase(below, pt) is None


@criterion(8, "degree-three bound: trivially true case and monotone growth in t, exact")
def test_criterion_8_bg_bound():
    ctx = AbelianContext(3, F(6), "X")
    o = structure_sheaf(ctx)
    for t in (F(1), F(1, 7), F(5), Q3(0, 1)):
        verdict = bg_check(ctx, F(0), t, o)
        assert verdict.inequality_holds
        assert verdict.lhs == 0 and verdict.rhs == 0

    rng = random.Random(8088)
    checked = 0
    for _ in range(50):
        b = rand_rat(rng)
        c0 = rand_rat(rng)
        # choose c1 so the twisted degree-one coefficient is >= 0
        c1 = b * c0 + abs(rand_rat(rng))
        e = CohClass(ctx, (c0, c1, rand_rat(rng), rand_rat(rng)))
        t1 = rand_pos(rng)
        t2 = t1 + rand_pos(rng)
        t3 = t2 + rand_pos(rng)
        v1, v2, v3 = (bg_check(ctx, b, t, e) for t in (t1, t2, t3))
        if v1.inequality_holds:
            assert v2.inequality_holds and v3.inequality_holds
            checked += 1
        if v2.inequality_holds:
            assert v3.inequality_holds
    assert checked > 10  # the monotone implication actually fired


@criterion(9, "shipped scan reproduces the golden files byte for byte", budget=10.0)
def test_criterion_9_scan_golden_files():
    cfg = load_config(DATA / "example_scan.json")
    ctx = context_from(cfg)
    ds = scan_walls(scan_from(cfg, ctx))
    for fmt in ("csv", "json", "svg"):
        got = render(ds, fmt).encode("utf-8")
        want = (GOLDEN / f"walls.{fmt}").read_bytes()
        assert got == want, f"{fmt} output drifted from the golden file"
    assert recheck_walls(ds)
