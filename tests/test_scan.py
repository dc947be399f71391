"""Wall scanner: exact sign-change detection, flags, emission formats."""

import itertools
import json
import random
import re
import time
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from math import factorial, lcm
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import abelfm.scan
from abelfm.config import context_from, load_config, scan_from
from abelfm.lattice import (
    AbelianContext,
    CohClass,
    ContextMismatchError,
    line_bundle,
    skyscraper,
    structure_sheaf,
)
from abelfm.scan import (
    RecheckFailure,
    ScanRequest,
    WallCell,
    WallDataset,
    _crosses,
    _horner,
    _sign,
    emit,
    emit_csv,
    emit_json,
    emit_svg,
    first_bad_cell,
    recheck_walls,
    render,
    scan_walls,
)
from abelfm.stability import ChargeSpec, _charge_ints, charge
from abelfm.transform import FMTransformSpec, apply

F = Fraction


def ctx2():
    return AbelianContext(2, F(2), "X")


def small_request(walls, v=None, res=(9, 9)):
    ctx = ctx2()
    return ScanRequest(
        ctx=ctx,
        k=2,
        v=v if v is not None else structure_sheaf(ctx),
        walls=tuple(walls),
        b_range=(F(-2), F(2)),
        t_range=(F(1, 100), F(2)),
        resolution=res,
    )


def test_request_validation():
    ctx = ctx2()
    o = structure_sheaf(ctx)
    with pytest.raises(ValueError):
        small_request([o], res=(1, 9))
    with pytest.raises(ValueError):
        ScanRequest(ctx, 2, o, (o,), (F(2), F(-2)), (F(1), F(2)), (9, 9))
    with pytest.raises(ValueError):
        ScanRequest(ctx, 2, o, (o,), (F(-2), F(2)), (F(0), F(2)), (9, 9))
    with pytest.raises(ValueError):
        ScanRequest(ctx, 3, o, (o,), (F(-2), F(2)), (F(1), F(2)), (9, 9))
    with pytest.raises(ValueError):
        ScanRequest(ctx, 2, o, tuple(), (F(-2), F(2)), (F(1), F(2)), (9, 9))
    # the level rule is ChargeSpec's: bools and non-int numbers are refused
    # at construction, not accepted as level 1 or failing inside the scan
    for k in (True, 1.5, F(2)):
        with pytest.raises(ValueError, match="level k must be an integer"):
            ScanRequest(ctx, k, o, (o,), (F(-2), F(2)), (F(1), F(2)), (9, 9))
    alien = structure_sheaf(AbelianContext(2, F(7)))
    with pytest.raises(ContextMismatchError, match="^probe class: context mismatch"):
        ScanRequest(ctx, 2, alien, (o,), (F(-2), F(2)), (F(1), F(2)), (9, 9))
    with pytest.raises(ContextMismatchError, match="^wall class 1: context mismatch"):
        ScanRequest(ctx, 2, o, (o, alien), (F(-2), F(2)), (F(1), F(2)), (9, 9))


def test_skyscraper_wall_is_b_zero_line():
    # wall polynomial 2bt vanishes on the b = 0 grid column, so the cells
    # on both sides of it are emitted: 2 columns x 8 t-intervals
    ctx = ctx2()
    ds = scan_walls(small_request([skyscraper(ctx)]))
    assert not ds.v_degenerate
    assert ds.trivial_walls == ()
    assert len(ds.cells) == 16
    assert all(c.w_index == 0 for c in ds.cells)
    assert {c.b for c in ds.cells} == {F(-1, 2), F(0)}


def test_wall_cells_scale_invariant():
    ctx = ctx2()
    base = scan_walls(small_request([skyscraper(ctx)]))
    doubled = scan_walls(small_request([skyscraper(ctx).scale(2)]))
    assert base.cells == doubled.cells


def test_self_wall_is_trivial():
    ctx = ctx2()
    o = structure_sheaf(ctx)
    ds = scan_walls(small_request([o], v=o))
    assert ds.trivial_walls == (0,)
    assert ds.cells == ()


def test_degenerate_probe_flagged():
    ctx = ctx2()
    zero = CohClass.zero(ctx)
    ds = scan_walls(small_request([skyscraper(ctx)], v=zero))
    assert ds.v_degenerate
    assert ds.cells == ()  # wall polynomial vanishes identically too
    assert ds.trivial_walls == (0,)


def test_probe_with_vanishing_real_part_is_not_degenerate():
    # at g = k = 4 a 2x2 grid puts 4 linear conditions on the 5
    # coefficients of Re Z(v); this v solves them, but Im Z(v) does not vanish
    ctx = AbelianContext(4, F(24))
    v = CohClass(ctx, (12, 6, 5, 2, 2))
    req = ScanRequest(ctx, 4, v, (structure_sheaf(ctx),), (F(0), F(1)), (F(1), F(2)), (2, 2))
    for b in req.b_range:
        for t in req.t_range:
            z = charge(ChargeSpec(ctx, 4, b, t), v)
            assert z.re == 0 and z.im != 0
    assert not scan_walls(req).v_degenerate


def test_semicircle_wall_cells_verified():
    # v = O, w = e^l at k = 2: wall is -2t(t^2 + b^2 - b), the circle
    # through (0,0) and (1,0); every emitted cell must straddle it
    ctx = ctx2()
    req = small_request([line_bundle(ctx, F(1))], res=(41, 41))
    ds = scan_walls(req)
    assert len(ds.cells) > 10
    db = (req.b_range[1] - req.b_range[0]) / 40
    dt = (req.t_range[1] - req.t_range[0]) / 40
    for cell in ds.cells:
        corners = [
            cell.t**2 + cell.b**2 - cell.b,
            cell.t**2 + (cell.b + db) ** 2 - (cell.b + db),
            (cell.t + dt) ** 2 + cell.b**2 - cell.b,
            (cell.t + dt) ** 2 + (cell.b + db) ** 2 - (cell.b + db),
        ]
        signs = {(c > 0) - (c < 0) for c in corners}
        has_pos, has_neg, has_zero = 1 in signs, -1 in signs, 0 in signs
        assert (has_pos and has_neg) or (has_zero and (has_pos or has_neg))


def _level_two_coeffs(e):
    """(a, b, c) of P(beta) = c0 beta^2/g! - c1 beta/(g-1)! + c2/(g-2)!, so that
    the level-2 charge is a constant times (-beta)^(g-2) P(beta)."""
    g, c = e.ctx.g, e.c
    return c[0] / factorial(g), -c[1] / factorial(g - 1), c[2] / factorial(g - 2)


def _level_two_circle(v, w):
    """(A, B, C) with sign W = sign(A (b^2 + t^2) + B b + C) at level 2."""
    av, bv, cv = _level_two_coeffs(v)
    aw, bw, cw = _level_two_coeffs(w)
    return av * bw - aw * bv, 2 * (av * cw - aw * cv), bv * cw - bw * cv


def _random_classes(rng, ctx, count):
    return [CohClass(ctx, [F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(ctx.g + 1)])
            for _ in range(count)]


def _scaled_classes(rng, ctx, count):
    """Random classes with c_i = r_i (g - i)! for i <= 2, r_i small and
    nonzero: P(beta) = r_0 beta^2 - r_1 beta + r_2 at every g, so level-2
    circles cross a small window however large g is."""
    g = ctx.g
    return [CohClass(ctx, [F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 2)) * factorial(g - i)
                           for i in range(3)]
                     + [F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(g - 2)])
            for _ in range(count)]


@pytest.mark.parametrize("g", [*range(2, 7), 30, 100])
def test_level_two_walls_are_semicircles_at_every_g(g):
    # W = |beta|^(2(g-2)) Im(P_v conj P_w) up to a positive factor, and
    # Im(P_v conj P_w) = t (A (b^2 + t^2) + B b + C); t > 0 on the grid, so
    # every wall is a semicircle centred on the b axis or a vertical line
    rng = random.Random(f"semicircles:{g}")
    ctx = AbelianContext(g, F(factorial(g)))
    # small random classes put every centre far outside the window at large g
    v, *walls = (_random_classes if g <= 6 else _scaled_classes)(rng, ctx, 5)
    nb, nt = 13, 11
    req = ScanRequest(ctx, 2, v, tuple(walls), (F(-2), F(2)), (F(1, 10), F(2)), (nb, nt))
    bs = [F(-2) + F(4, nb - 1) * i for i in range(nb)]
    ts = [F(1, 10) + F(19, 10 * (nt - 1)) * j for j in range(nt)]
    want = set()
    for wi, w in enumerate(walls):
        A, B, C = _level_two_circle(v, w)
        circle = {(x, y): A * (bs[x] ** 2 + ts[y] ** 2) + B * bs[x] + C
                  for x in range(nb) for y in range(nt)}
        sign = {xy: (val > 0) - (val < 0) for xy, val in circle.items()}
        for x in range(nb - 1):
            for y in range(nt - 1):
                quad = {sign[x, y], sign[x + 1, y], sign[x, y + 1], sign[x + 1, y + 1]}
                if len(quad) > 1:
                    want.add((wi, bs[x], ts[y]))
    ds = scan_walls(req)
    assert {(c.w_index, c.b, c.t) for c in ds.cells} == want
    assert len({wi for wi, _, _ in want}) >= 2  # the comparison is not vacuous


@pytest.mark.parametrize("g", [2, 3])
def test_level_two_walls_through_grid_points_match_dense_reference(g):
    # against v = O_X every level-2 wall is a circle through b = 0, and with
    # c_i in {-1, 0, 1/2, 1} many pass exactly through points of this
    # quarter-step grid: a column's root lands on a grid square, and its zero
    # sign decides the cells
    ctx = AbelianContext(g, F(1))
    v = structure_sheaf(ctx)
    bs = [F(-2) + F(i, 4) for i in range(17)]
    ts = [F(1, 4) + F(j, 4) for j in range(8)]
    through = 0
    for c in itertools.product([F(-1), F(0), F(1, 2), F(1)], repeat=3):
        w = CohClass(ctx, [*c] + [F(0)] * (g - 2))
        req = ScanRequest(ctx, 2, v, (w,), (F(-2), F(2)), (F(1, 4), F(2)), (17, 8))
        ds = scan_walls(req)
        assert (ds.cells, ds.trivial_walls, ds.v_degenerate) == _dense_reference(req)
        A, B, C = _level_two_circle(v, w)
        through += A != 0 and any(A * (b * b + t * t) + B * b + C == 0 for b in bs for t in ts)
    assert through >= 16  # circles through grid points: 36 at g = 2, 28 at g = 3


@pytest.mark.parametrize("g", range(1, 7))
def test_level_one_scans_emit_no_cells(g):
    # Z_1 is (-beta)^(g-1) times a linear P(beta), so W = t * const: one sign on t > 0
    rng = random.Random(f"level-one:{g}")
    ctx = AbelianContext(g, F(factorial(g)))
    v, *walls = _random_classes(rng, ctx, 5)
    ds = scan_walls(ScanRequest(ctx, 1, v, tuple(walls), (F(-3), F(3)), (F(1, 50), F(3)), (15, 15)))
    assert ds.cells == ()
    assert len(ds.trivial_walls) < len(walls)  # some wall is a genuine W != 0


def test_cell_order_is_wall_then_b_then_t():
    ctx = ctx2()
    ds = scan_walls(small_request([line_bundle(ctx, F(1)), skyscraper(ctx)], res=(17, 17)))
    keys = [(c.w_index, c.b, c.t) for c in ds.cells]
    assert keys == sorted(keys)
    assert {c.w_index for c in ds.cells} == {0, 1}


def test_recheck_passes_and_catches_corruption():
    ctx = ctx2()
    ds = scan_walls(small_request([skyscraper(ctx)], res=(17, 17)))
    assert recheck_walls(ds)

    def with_extra(cell):
        return type(ds)(
            request=ds.request,
            cells=ds.cells + (cell,),
            trivial_walls=ds.trivial_walls,
            v_degenerate=ds.v_degenerate,
        )

    assert first_bad_cell(ds) is None
    # a grid cell far from the wall: all four corners share one sign
    far = WallCell(0, F(3, 2), F(201, 200))
    assert not recheck_walls(with_extra(far))
    bad = first_bad_cell(with_extra(far))
    assert bad.cell == far and len(set(bad.corners)) == 1 and bad.corners[0] != 0
    # a cell whose corner is not even a grid point
    off = WallCell(0, F(3, 2), F(1, 2))
    assert not recheck_walls(with_extra(off))
    assert first_bad_cell(with_extra(off)) == RecheckFailure(off, None)


def _dyadic_dataset():
    """A level-2 scan of two walls, the last of them b = 0, whose grid
    steps, 1/4 in b and 1/8 in t, are dyadic, so a float can equal a grid
    point exactly; and its last wall's cell at b = 0, t = 1/2."""
    ctx = ctx2()
    req = ScanRequest(ctx, 2, structure_sheaf(ctx), (line_bundle(ctx, F(1)), skyscraper(ctx)),
                      (F(-2), F(2)), (F(1, 4), F(2)), (17, 15))
    ds = scan_walls(req)
    return ds, next(c for c in ds.cells if (c.w_index, c.b, c.t) == (1, 0, F(1, 2)))


def test_a_dataset_takes_an_int_coordinate():
    ds, real = _dyadic_dataset()
    ok = replace(ds, cells=ds.cells + (replace(real, b=0),))
    assert first_bad_cell(ok) is None and emit_csv(ok).endswith("\n1,0/1,1/2\n")


_BAD_FIELDS = [
    # -1 must not name the last wall through Python's negative index, and
    # len(walls) must not raise IndexError in a reader
    ("w_index", -1, ValueError, "has wall index -1, but the request has 2 walls"),
    ("w_index", 2, ValueError, "has wall index 2, but the request has 2 walls"),
    # False == 0 and True == 1 name walls by value, and JSON cannot read them
    ("w_index", False, ValueError, "has wall index False, but the request has 2 walls"),
    ("w_index", True, ValueError, "has wall index True, but the request has 2 walls"),
    # 0.0 == 0 and 0.5 == F(1, 2), with equal hashes, and True == 1: a
    # lookup by value would read each as the grid point it equals, and an
    # emitter would print a float's binary expansion or a bool as 1/1
    ("b", 0.0, TypeError, "got 0.0"),
    ("t", 0.5, TypeError, "got 0.5"),
    ("b", False, TypeError, "got False"),
    ("t", True, TypeError, "got True"),
    ("b", -2 / 199, TypeError, "got -0.01005"),
    ("trivial_walls", (True,), ValueError, "trivial walls (True,) must be ints in range(0, 2)"),
    ("trivial_walls", (-1,), ValueError, "trivial walls (-1,)"),
    ("trivial_walls", (0, 2), ValueError, "trivial walls (0, 2)"),
    ("trivial_walls", (0.0,), ValueError, "trivial walls (0.0,)"),
    ("v_degenerate", 1, TypeError, "v_degenerate must be a bool, got 1"),
    ("v_degenerate", None, TypeError, "v_degenerate must be a bool, got None"),
]


@pytest.mark.parametrize("build", ["constructor", "replace"])
@pytest.mark.parametrize("field,value,error,text", _BAD_FIELDS,
                         ids=[f"{field}={value!r}" for field, value, *_ in _BAD_FIELDS])
def test_a_dataset_refuses_a_bad_field_when_built(build, field, value, error, text):
    ds, real = _dyadic_dataset()
    if field in ("w_index", "b", "t"):
        cell = replace(real, **{field: value})
        changes = {"cells": ds.cells + (cell,)}
        if field == "w_index":
            text = f"cell at b = 0, t = 1/2 {text}"
        else:  # every coordinate but -2/199 equals a grid point
            assert (value in _grid_axes(ds.request)[field == "t"]) == (value != -2 / 199)
    else:
        changes = {field: value}
    with pytest.raises(error, match=re.escape(text)):
        if build == "replace":
            replace(ds, **changes)
        else:
            WallDataset(**{**vars(ds), **changes})


def test_recheck_cost_does_not_grow_with_the_grid():
    # 3 cells of a 10^4 x 10^4 grid: a recheck that builds a value or an
    # index entry per grid point would take megabytes, not kilobytes
    ctx = ctx2()
    req = ScanRequest(ctx, 2, structure_sheaf(ctx), (skyscraper(ctx),),
                      (F(-2), F(2)), (F(1, 100), F(2)), (10**4, 10**4))
    full = scan_walls(req)
    ds = replace(full, cells=full.cells[::len(full.cells) // 3][:3])
    assert len(ds.cells) == 3
    tracemalloc.start()
    try:
        ok = recheck_walls(ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok
    assert peak < 64 * 2**10


@st.composite
def axis_cases(draw):
    """(first point, step, count, scale multiplier, value) of one grid axis;
    the value is a grid point, a point past either end, a point between
    two, or any rational.  The multiplier stands for the other axis, whose
    denominators can make the grid's scale a multiple of this axis's."""
    lo = F(draw(st.integers(-30, 30)), draw(st.integers(1, 12)))
    step = F(draw(st.integers(1, 30)), draw(st.integers(1, 12)))
    count = draw(st.integers(1, 12))
    i = draw(st.integers(-2, count + 1))
    off = draw(st.sampled_from([F(0), F(0), F(1, 2), F(1, 3), F(3, 4)]))
    v = draw(st.one_of(st.just(lo + (i + off) * step),
                       st.builds(F, st.integers(-400, 400), st.integers(1, 36))))
    return lo, step, count, draw(st.integers(1, 6)), v


@given(axis_cases())
@example((F(-5, 2), F(1, 3), 7, 1, F(-5, 2)))  # the first point
@example((F(-5, 2), F(1, 3), 7, 1, F(-1, 2)))  # the last point
@example((F(-5, 2), F(1, 3), 7, 1, F(-17, 6)))  # one step below the first
@example((F(-5, 2), F(1, 3), 7, 1, F(-1, 6)))  # one step past the last
@example((F(0), F(1), 4, 2, F(3, 2)))  # between two points, on the scale
@example((F(0), F(1), 4, 1, F(5, 2)))  # a denominator that does not divide the scale
@example((F(-7, 3), F(1, 2), 9, 3, F(-5, 6)))  # a negative start, scale 18
def test_axis_index_matches_a_plain_lookup(case):
    lo, step, count, m, v = case
    scale = lcm(lo.denominator, step.denominator) * m
    points = [lo + i * step for i in range(count)]
    want = points.index(v) if v in points else None
    # through the module, so that a mutant bound there is the one called
    assert abelfm.scan._axis_index(v, scale, int(lo * scale), int(step * scale), count) == want


def _example_dataset():
    cfg = load_config(Path(__file__).parent / "data" / "example_scan.json")
    return scan_walls(scan_from(cfg, context_from(cfg)))


def _grid_axes(req):
    """The grid's b and t values, computed here rather than by the scanner."""
    nb, nt = req.resolution
    (b0, b1), (t0, t1) = req.b_range, req.t_range
    return ([b0 + i * (b1 - b0) / (nb - 1) for i in range(nb)],
            [t0 + j * (t1 - t0) / (nt - 1) for j in range(nt)])


def _first_bad_cell_reference(ds):
    """The recheck one cell at a time, sharing nothing between cells: two
    public charge calls at each of the four corners."""
    req = ds.request
    bs, ts = _grid_axes(req)

    def sign(w, b, t):
        spec = ChargeSpec(req.ctx, req.k, b, t)
        zw, zv = charge(spec, w), charge(spec, req.v)
        return (zw.re * zv.im - zv.re * zw.im).sign()

    for cell in ds.cells:
        if cell.b not in bs[:-1] or cell.t not in ts[:-1]:
            return RecheckFailure(cell, None)
        x, y = bs.index(cell.b), ts.index(cell.t)
        w = req.walls[cell.w_index]
        quad = (sign(w, bs[x], ts[y]), sign(w, bs[x + 1], ts[y]),
                sign(w, bs[x], ts[y + 1]), sign(w, bs[x + 1], ts[y + 1]))
        if len(set(quad)) == 1:
            return RecheckFailure(cell, quad)
    return None


def _seeded_dataset(g, k):
    """The shipped example at g = k = 2; otherwise a seeded scan of three
    random walls at level k, on a grid whose b and t values have unequal
    denominators, so that each corner's beta has its own."""
    if (g, k) == (2, 2):
        return _example_dataset()
    rng = random.Random(f"recheck:{g}:{k}")
    ctx = AbelianContext(g, F(5, 2))
    v, *walls = _random_classes(rng, ctx, 4)
    req = ScanRequest(ctx, k, v, tuple(walls), (F(-5, 2), F(7, 3)), (F(1, 7), F(3)), (23, 19))
    return scan_walls(req)


def _corrupted_examples(ds):
    """(dataset, first inserted cell, whether it is a grid cell) for seeded
    corruptions of ds: a grid cell it does not emit (all four corner signs
    equal), an off-grid cell, a cell in the last grid column or row, and
    two non-emitted cells at once."""
    req = ds.request
    nb, nt = req.resolution
    bs, ts = _grid_axes(req)
    emitted = set(ds.cells)
    rng = random.Random("recheck-parity")

    def quiet_cell():
        while True:
            cell = WallCell(rng.randrange(len(req.walls)), bs[rng.randrange(nb - 1)],
                            ts[rng.randrange(nt - 1)])
            if cell not in emitted:
                return cell

    def off_grid():
        x, y = rng.randrange(nb - 1), rng.randrange(nt - 1)
        return WallCell(rng.randrange(len(req.walls)), (bs[x] + bs[x + 1]) / 2, ts[y])

    def last_row_or_column():
        if rng.random() < 0.5:
            return WallCell(rng.randrange(len(req.walls)), bs[-1], ts[rng.randrange(nt)])
        return WallCell(rng.randrange(len(req.walls)), bs[rng.randrange(nb)], ts[-1])

    def inserted(extra, on_grid):
        cells = list(ds.cells)
        at = sorted(rng.randrange(len(cells) + 1) for _ in extra)
        for shift, (i, cell) in enumerate(zip(at, extra)):
            cells.insert(i + shift, cell)
        return replace(ds, cells=tuple(cells)), extra[0], on_grid

    for _ in range(6):
        yield inserted([quiet_cell()], True)
        yield inserted([off_grid()], False)
        yield inserted([last_row_or_column()], False)
        yield inserted([quiet_cell(), quiet_cell()], True)


@pytest.mark.parametrize("g,k", [(2, 2), (3, 1), (3, 2), (3, 3), (4, 2), (4, 3), (4, 4)])
def test_recheck_matches_the_per_cell_reference(g, k):
    ds = _seeded_dataset(g, k)
    assert (len(ds.cells) > 0) == (k > 1)  # level-1 scans emit no cells
    # through the module, so that a mutant bound there is the walk under test
    assert abelfm.scan.first_bad_cell(ds) is None and _first_bad_cell_reference(ds) is None
    for bad, first, on_grid in _corrupted_examples(ds):
        got = abelfm.scan.first_bad_cell(bad)
        assert got == _first_bad_cell_reference(bad)
        assert got.cell == first
        if on_grid:
            assert len(set(got.corners)) == 1 and got.corners[0] != 0
        else:
            assert got.corners is None


def test_recheck_charges_each_corner_once(monkeypatch):
    # one probe charge per distinct corner, one wall charge per distinct
    # (wall, corner), each through the rotated integer core; the per-cell
    # reference makes 8 public charge calls a cell, 2,768 here
    ds = _example_dataset()
    req = ds.request
    bs, ts = _grid_axes(req)
    corners = {(c.w_index, bs[bs.index(c.b) + i], ts[ts.index(c.t) + j])
               for c in ds.cells for i in (0, 1) for j in (0, 1)}
    assert len(ds.cells) == 346
    assert len({(b, t) for _, b, t in corners}) == 668 and len(corners) == 696
    calls = {"probe": 0, "wall": 0}
    probe = _charge_ints(req.ctx, req.v, req.k)
    assert all(_charge_ints(req.ctx, w, req.k) != probe for w in req.walls)
    core = abelfm.scan._horner_core

    def counting(nums, den, beta, turns):
        calls["probe" if (nums, den) == probe else "wall"] += 1
        return core(nums, den, beta, turns)

    monkeypatch.setattr(abelfm.scan, "_horner_core", counting)
    assert recheck_walls(ds)
    assert calls == {"probe": 668, "wall": 696}


def test_cell_pass_tests_one_row_per_breakpoint(monkeypatch):
    # the predicate runs once per distinct breakpoint of each pair of
    # neighbouring columns, counted here from the level-2 circles; a pass
    # over every grid point makes 2 * 199 * 199 = 79,202 calls
    cfg = load_config(Path(__file__).parent / "data" / "example_scan.json")
    req = scan_from(cfg, context_from(cfg))
    bs, ts = _grid_axes(req)
    want = 0
    for w in req.walls:
        A, B, C = _level_two_circle(req.v, w)
        breaks = []
        for b in bs:
            col = [(val > 0) - (val < 0) for val in (A * (b * b + t * t) + B * b + C for t in ts)]
            breaks.append({y for y in range(1, len(ts)) if col[y] != col[y - 1]})
        want += sum(len(b0 | b1) for b0, b1 in zip(breaks, breaks[1:]))
    calls = 0
    predicate = abelfm.scan._crosses

    def counting(quad):
        nonlocal calls
        calls += 1
        return predicate(quad)

    monkeypatch.setattr(abelfm.scan, "_crosses", counting)
    assert len(scan_walls(req).cells) == 346
    assert calls == want == 87


def test_zero_probe_is_degenerate_without_evaluating_the_grid(monkeypatch):
    # a probe whose charge polynomial is zero vanishes at every grid point:
    # its coefficients decide that, and no grid point is evaluated for it
    ctx = ctx2()
    zero = CohClass.zero(ctx)
    walls = (skyscraper(ctx), line_bundle(ctx, F(1)))
    calls = 0
    horner = abelfm.scan._horner

    def counting(p, s):
        nonlocal calls
        calls += 1
        return horner(p, s)

    monkeypatch.setattr(abelfm.scan, "_horner", counting)
    for k in (1, 2):
        for res in ((2, 2), (5, 7), (9, 9)):
            req = ScanRequest(ctx, k, zero, walls, (F(-2), F(2)), (F(1, 10), F(2)), res)
            ds = scan_walls(req)
            assert (ds.cells, ds.trivial_walls, ds.v_degenerate) == _dense_reference(req)
            assert ds.v_degenerate and ds.trivial_walls == (0, 1)
    assert calls == 0
    # at the cap of both axes a pass over every point takes tens of seconds
    n = 10**4
    req = ScanRequest(ctx, 2, zero, walls, (F(-2), F(2)), (F(1, 10), F(2)), (n, n))
    start = time.perf_counter()
    ds = scan_walls(req)
    assert time.perf_counter() - start < 1.0
    assert ds.v_degenerate and ds.cells == () and ds.trivial_walls == (0, 1)


@pytest.mark.parametrize("res", [(2, 2), (5, 7), (9, 9)])
def test_walls_of_degree_at_most_one_take_no_horner_pass(monkeypatch, res):
    # at k = 3 Q has three coefficients, but its s^2 one, p2_w*p3_v -
    # p2_v*p3_w, does not depend on b and vanishes when the wall's (c0, c1)
    # is proportional to the probe's; all of Q vanishes for a multiple of the
    # probe, for a zero wall and against a zero probe.  Each such column is
    # read off its one root: _horner runs only to find the probe's first
    # nonzero grid point
    ctx = AbelianContext(3, F(1))
    v = CohClass(ctx, (F(6), F(3), F(1), F(-2)))
    slope = CohClass(ctx, (F(2), F(1), F(5), F(-1)))
    walls = (v.scale(F(-3, 2)), slope, CohClass.zero(ctx))
    calls = 0
    horner = abelfm.scan._horner

    def counting(p, s):
        nonlocal calls
        calls += 1
        return horner(p, s)

    monkeypatch.setattr(abelfm.scan, "_horner", counting)
    for probe, most, trivial in ((v, 2, (0, 2)), (CohClass.zero(ctx), 0, (0, 1, 2))):
        calls = 0
        req = ScanRequest(ctx, 3, probe, walls, (F(-2), F(2)), (F(1, 4), F(2)), res)
        ds = scan_walls(req)
        assert calls <= most and ds.trivial_walls == trivial
        assert (ds.cells, ds.trivial_walls, ds.v_degenerate) == _dense_reference(req)


def test_level_two_scan_at_the_resolution_cap():
    # g = 100, k = 2, four walls whose circles cross the window, on 10^4 x
    # 10^4 points, the cap of both axes: every emitted cell straddles its
    # circle, and seeded column pairs are complete.  It stays short because
    # each column pair costs O(runs + cells), not O(nt).
    rng = random.Random("resolution-cap:1")
    ctx = AbelianContext(100, F(factorial(100)))
    v, *walls = _scaled_classes(rng, ctx, 5)
    n = 10**4
    req = ScanRequest(ctx, 2, v, tuple(walls), (F(-2), F(2)), (F(1, 10), F(2)), (n, n))
    ds = scan_walls(req)
    # integer grid coordinates: b = bi / L and t = ti / L, and integer circles
    (b0, b1), (t0, t1) = req.b_range, req.t_range
    db, dt = (b1 - b0) / (n - 1), (t1 - t0) / (n - 1)
    L = lcm(*(x.denominator for x in (b0, db, t0, dt)))
    bi = [int(b0 * L) + x * int(db * L) for x in range(n)]
    ti2 = [(int(t0 * L) + y * int(dt * L)) ** 2 for y in range(n)]
    circles = []
    for w in walls:
        A, B, C = _level_two_circle(v, w)
        d = lcm(A.denominator, B.denominator, C.denominator)
        circles.append((int(A * d), int(B * d) * L, int(C * d) * L * L))

    def sign(wi, x, y):
        a, b, c = circles[wi]
        val = a * (bi[x] * bi[x] + ti2[y]) + b * bi[x] + c
        return (val > 0) - (val < 0)

    x_of = {b0 + x * db: x for x in range(n)}
    y_of = {t0 + y * dt: y for y in range(n)}
    emitted = {(c.w_index, x_of[c.b], y_of[c.t]) for c in ds.cells}
    assert len(emitted) == len(ds.cells) > 10**4
    assert {wi for wi, _, _ in emitted} == set(range(len(walls)))
    for wi, x, y in emitted:
        assert len({sign(wi, x + i, y + j) for i in (0, 1) for j in (0, 1)}) > 1
    xs = rng.sample(range(n - 1), 3) + [x for _, x, _ in rng.sample(sorted(emitted), 3)]
    for x in xs:
        for wi in range(len(walls)):
            col0 = [sign(wi, x, y) for y in range(n)]
            col1 = [sign(wi, x + 1, y) for y in range(n)]
            want = {y for y in range(n - 1) if len({col0[y], col1[y], col0[y + 1], col1[y + 1]}) > 1}
            assert {y for w, x1, y in emitted if (w, x1) == (wi, x)} == want


def test_csv_shape():
    ctx = ctx2()
    ds = scan_walls(small_request([skyscraper(ctx)]))
    text = emit_csv(ds)
    lines = text.splitlines()
    assert lines[0] == "w,b,t"
    assert lines[1] == "0,-1/2,1/100"
    assert len(lines) == 1 + len(ds.cells)
    assert text.endswith("\n")


def test_csv_always_fractional_encoding():
    # integer-valued coordinates keep the p/q form in emitted files
    ctx = ctx2()
    req = ScanRequest(
        ctx=ctx,
        k=2,
        v=structure_sheaf(ctx),
        walls=(skyscraper(ctx),),
        b_range=(F(0), F(2)),
        t_range=(F(1), F(3)),
        resolution=(3, 3),
    )
    # wall 2bt vanishes on the b = 0 column and is positive to the right
    ds = scan_walls(req)
    assert emit_csv(ds).splitlines()[1] == "0,0/1,1/1"
    # a cell given as ints, as a dataset may hold one, writes the same row
    assert emit_csv(replace(ds, cells=(WallCell(0, 0, 1),))) == "w,b,t\n0,0/1,1/1\n"


def test_json_fields():
    ctx = ctx2()
    ds = scan_walls(small_request([skyscraper(ctx)]))
    rec = json.loads(emit_json(ds))
    assert rec["g"] == 2 and rec["k"] == 2
    assert rec["n"] == "2/1"
    assert rec["resolution"] == [9, 9]
    assert rec["trivial_walls"] == [] and rec["v_degenerate"] is False
    assert rec["cells"][0] == {"w": 0, "b": "-1/2", "t": "1/100"}
    assert len(rec["cells"]) == len(ds.cells)


def _json_reference(ds):
    """The full record, one dict per cell, through json.dumps."""
    req = ds.request
    record = {
        "k": req.k,
        "g": req.ctx.g,
        "n": f"{req.ctx.n.numerator}/{req.ctx.n.denominator}",
        "b_range": [f"{x.numerator}/{x.denominator}" for x in req.b_range],
        "t_range": [f"{x.numerator}/{x.denominator}" for x in req.t_range],
        "resolution": list(req.resolution),
        "v_degenerate": ds.v_degenerate,
        "trivial_walls": list(ds.trivial_walls),
        "cells": [{"w": c.w_index, "b": f"{c.b.numerator}/{c.b.denominator}",
                   "t": f"{c.t.numerator}/{c.t.denominator}"} for c in ds.cells],
    }
    return json.dumps(record, sort_keys=True, indent=2) + "\n"


def _synthetic_dataset(count, trivial=(), v_degenerate=False):
    """count cells over three walls with negative, integer and fractional
    coordinates, on a request whose ranges are negative and integral too."""
    ctx = AbelianContext(3, F(-7, 2) ** 2)
    o = structure_sheaf(ctx)
    req = ScanRequest(ctx, 3, o, (o, skyscraper(ctx), line_bundle(ctx, F(-1))),
                      (F(-5), F(3, 7)), (F(1, 20), F(2)), (1000, 1000))
    cells = tuple(WallCell(i % 3, F(i - 1000, 7 + i % 5), F(1 + i, 1 + i % 3)) for i in range(count))
    return WallDataset(req, cells, tuple(trivial), v_degenerate)


@pytest.mark.parametrize("count", [0, 1, 2, 2000])
@pytest.mark.parametrize("trivial,v_degenerate", [((), False), ((0,), False), ((0, 2), True)])
def test_json_is_the_full_record_through_json_dumps(count, trivial, v_degenerate):
    ds = _synthetic_dataset(count, trivial, v_degenerate)
    assert emit_json(ds) == _json_reference(ds)


def test_json_emitter_memory_is_about_its_output():
    # one dict per cell through the indenting encoder peaks at about 1.9 MiB here
    ds = _synthetic_dataset(2000)
    tracemalloc.start()
    try:
        text = emit_json(ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) > 120_000
    assert peak < 2**20


def test_svg_structure():
    ctx = ctx2()
    ds = scan_walls(small_request([skyscraper(ctx), line_bundle(ctx, F(1))], res=(17, 17)))
    svg = emit_svg(ds)
    assert svg.startswith("<svg ")
    assert svg.rstrip().endswith("</svg>")
    assert 'data-wall="0"' in svg and 'data-wall="1"' in svg
    assert "#1f77b4" in svg and "#d62728" in svg
    assert ">b</text>" in svg and ">t</text>" in svg


def test_emission_deterministic_and_file_roundtrip(tmp_path):
    ctx = ctx2()
    ds = scan_walls(small_request([skyscraper(ctx)]))
    for fmt in ("csv", "json", "svg"):
        assert render(ds, fmt) == render(ds, fmt)
        out = tmp_path / f"walls.{fmt}"
        emit(ds, fmt, out)
        assert out.read_text(encoding="utf-8") == render(ds, fmt)
    with pytest.raises(ValueError):
        render(ds, "png")


def test_emit_empty_dataset_csv_header_only():
    ctx = ctx2()
    o = structure_sheaf(ctx)
    ds = scan_walls(small_request([o], v=o))  # self-wall only: no cells
    assert emit_csv(ds) == "w,b,t\n"


def _plain(req, cls, b, t):
    """n * sum_{i <= k} c_i (-(b + it))^(g-i) / (g-i)! as (re, im), in
    plain Fractions."""
    g, k, n = req.ctx.g, req.k, req.ctx.n
    re = im = F(0)
    for i in range(k + 1):
        pr, pi_ = F(1), F(0)
        for _ in range(g - i):
            pr, pi_ = -(pr * b - pi_ * t), -(pr * t + pi_ * b)
        re += n * cls.c[i] * pr / factorial(g - i)
        im += n * cls.c[i] * pi_ / factorial(g - i)
    return re, im


def _dense_reference(req):
    """Plain-Fraction dense scan written independently of the library: store
    the sign of W at every grid point, then test every cell with the
    two-clause sign-change predicate."""
    nb, nt = req.resolution
    (b0, b1), (t0, t1) = req.b_range, req.t_range
    bs = [b0 + (b1 - b0) * i / (nb - 1) for i in range(nb)]
    ts = [t0 + (t1 - t0) * j / (nt - 1) for j in range(nt)]
    vz = [[_plain(req, req.v, b, t) for t in ts] for b in bs]
    v_degenerate = all(z == (0, 0) for col in vz for z in col)
    cells, trivial = [], []
    for wi, w in enumerate(req.walls):
        signs = []
        for x, b in enumerate(bs):
            col = []
            for y, t in enumerate(ts):
                (wr, wim), (vr, vim) = _plain(req, w, b, t), vz[x][y]
                val = wr * vim - vr * wim
                col.append((val > 0) - (val < 0))
            signs.append(col)
        if all(sg == 0 for col in signs for sg in col):
            trivial.append(wi)
        for x in range(nb - 1):
            for y in range(nt - 1):
                quad = {signs[x][y], signs[x + 1][y], signs[x][y + 1], signs[x + 1][y + 1]}
                has_pos, has_neg, has_zero = 1 in quad, -1 in quad, 0 in quad
                if (has_pos and has_neg) or (has_zero and (has_pos or has_neg)):
                    cells.append(WallCell(wi, bs[x], ts[y]))
    return tuple(cells), tuple(trivial), v_degenerate


coeff = st.sampled_from([F(0), F(0), F(0), F(1), F(-1), F(2), F(-3), F(1, 2), F(-1, 2), F(5, 3)])


@st.composite
def scan_requests(draw):
    g = draw(st.integers(1, 6))
    ctx = AbelianContext(g, draw(st.sampled_from([F(1), F(2), F(6), F(3, 2)])))
    k = draw(st.integers(1, g))
    cls = st.lists(coeff, min_size=g + 1, max_size=g + 1).map(lambda c: CohClass(ctx, tuple(c)))
    v = draw(cls)
    lam = draw(st.sampled_from([F(1), F(-2), F(3, 4)]))
    walls = draw(st.lists(cls, max_size=2)) + [v.scale(lam), CohClass.zero(ctx)]
    nb, nt = draw(st.integers(2, 12)), draw(st.integers(2, 12))
    # lattice-aligned grids, often through b = 0, so that W has exact zeros
    # on grid points and the zero-corner half of the predicate is exercised
    db, dt = (draw(st.sampled_from([F(1, 4), F(1, 3), F(1, 2), F(1), F(3, 2)])) for _ in "bt")
    b0 = draw(st.integers(-nb, 1)) * db
    t0 = draw(st.integers(1, 4)) * dt
    return ScanRequest(
        ctx=ctx,
        k=k,
        v=v,
        walls=tuple(draw(st.permutations(walls))),
        b_range=(b0, b0 + (nb - 1) * db),
        t_range=(t0, t0 + (nt - 1) * dt),
        resolution=(nb, nt),
    )


@settings(max_examples=150, deadline=None)
@given(scan_requests())
def test_scan_matches_dense_reference(req):
    # completeness as well as soundness: no cell missing, none extra
    ds = scan_walls(req)
    assert (ds.cells, ds.trivial_walls, ds.v_degenerate) == _dense_reference(req)


@st.composite
def linear_columns(draw):
    """(q, ss): a Q of degree at most 1 and increasing grid squares, with
    Q's root anywhere, on a grid square, next to one, below or above them."""
    ss = sorted({t * t for t in draw(st.lists(st.integers(1, 10**4), min_size=1, max_size=12))})
    big = st.integers(-10**60, 10**60)
    q1 = draw(st.sampled_from([0, 1, -1, 2, -3]) | big)
    where = draw(st.sampled_from(["anywhere", "on", "below", "above"]))
    if where == "anywhere":
        q0 = draw(st.just(0) | big)
    else:
        if where == "on":
            root = draw(st.sampled_from(ss))
        elif where == "below":
            root = ss[0] - draw(st.integers(1, 10**6))
        else:
            root = ss[-1] + draw(st.integers(1, 10**6))
        # an offset moves the root just off the square when |q1| > 1
        q0 = -q1 * root + draw(st.sampled_from([0, 0, 1, -1]))
    return ([q0, q1] if q1 or draw(st.booleans()) else [q0]), ss


@settings(max_examples=400, deadline=None)
@given(linear_columns())
@example(([-8, 2], [1, 4, 9]))  # root 4, on a square
@example(([-7, 2], [1, 4, 9]))  # root 7/2: its ceiling 4 is a square, yet no 0
@example(([-6, 2], [1, 4, 9]))  # root 3, between squares
@example(([8, -2], [1, 4, 9]))  # q1 < 0
@example(([0, 0], [1, 4, 9]))  # Q = 0
def test_linear_signs_match_horner(case):
    q, ss = case
    runs = abelfm.scan._runs(q, ss)  # through the module, so tests/test_mutants.py can fault it
    assert len(runs) <= 3
    assert _expand(runs, len(ss)) == [_sign(_horner(q, s)) for s in ss]


def _expand(runs, nt):
    """The nt signs that a column's (start row, sign) runs stand for, after
    checking that the runs are well formed: the first starts at row 0, the
    starts increase within the column, and neighbouring signs differ."""
    starts = [y for y, _ in runs]
    assert starts[0] == 0 and starts == sorted(set(starts)) and starts[-1] < nt
    assert all(a[1] != b[1] for a, b in zip(runs, runs[1:]))
    return [sg for (y, sg), (end, _) in zip(runs, runs[1:] + [(nt, None)]) for _ in range(y, end)]


@st.composite
def run_pairs(draw):
    """(nt, runs0, runs1): two neighbouring columns of nt >= 2 rows, each a
    list of runs with breakpoints anywhere in 1..nt-1."""
    nt = draw(st.integers(2, 40))

    def column():
        starts = [0, *sorted(draw(st.sets(st.integers(1, nt - 1), max_size=min(nt - 1, 6))))]
        signs = [draw(st.sampled_from([-1, 0, 1]))]
        for _ in starts[1:]:
            signs.append(draw(st.sampled_from([sg for sg in (-1, 0, 1) if sg != signs[-1]])))
        return list(zip(starts, signs))

    return nt, column(), column()


@settings(max_examples=400, deadline=None)
@given(run_pairs())
@example((5, [(0, -1), (1, 1)], [(0, -1)]))  # a breakpoint at row 1
@example((5, [(0, 1)], [(0, 1), (4, -1)]))  # a breakpoint at row nt - 1
@example((7, [(0, -1), (3, 0), (4, 1)], [(0, -1), (3, 1)]))  # a one-row zero run
@example((4, [(0, 1)], [(0, -1)]))  # two constant columns of opposite sign
@example((6, [(0, -1), (2, 0), (3, 1)], [(0, -1), (2, 0), (3, 1)]))  # identical columns
@example((2, [(0, 0), (1, 1)], [(0, 1)]))  # nt = 2
def test_cell_rows_match_the_dense_cell_loop(case):
    # the merge of two columns' runs against the predicate at every row
    nt, runs0, runs1 = case
    col0, col1 = _expand(runs0, nt), _expand(runs1, nt)
    dense = [y for y in range(nt - 1) if _crosses((col0[y], col1[y], col0[y + 1], col1[y + 1]))]
    assert abelfm.scan._cell_rows(runs0, runs1, nt) == dense


@pytest.mark.parametrize("g,k", [(8, 2), (8, 5), (10, 3), (10, 9), (12, 4), (12, 7)])
def test_scan_below_the_top_level_matches_dense_reference(g, k):
    # the scanner drops the factor z^(g-k) of every level-k charge; the
    # reference evaluates the full degree-g charge
    rng = random.Random(f"level-strip:{g}:{k}")
    ctx = AbelianContext(g, F(factorial(g), 3))
    v, *walls = _random_classes(rng, ctx, 4)
    walls.append(v.scale(F(-3, 2)))
    req = ScanRequest(ctx, k, v, tuple(walls), (F(-8), F(8)), (F(1, 4), F(8)), (8, 9))
    ds = scan_walls(req)
    assert (ds.cells, ds.trivial_walls, ds.v_degenerate) == _dense_reference(req)
    assert ds.cells and ds.trivial_walls == (3,)


@pytest.mark.parametrize("r1,r2", [
    (F(1), F(4)),  # both roots on grid squares, at t = 1 and t = 2
    (F(9, 16), F(49, 16)),  # on grid squares again, at t = 3/4 and t = 7/4
    (F(1), F(1)),  # a double root (D = 0) on a grid square
    (F(2), F(2)),  # a double root between grid squares
    (F(1, 16), F(9)),  # one root below the grid's squares, one above
    (F(1, 16), F(1, 9)),  # both below
    (F(9), F(16)),  # both above
])
def test_level_three_quadratics_on_grid_squares_match_dense_reference(r1, r2):
    # at g = k = 3, v = (6, 0, r1, 0) and w = (0, -2, 0, -r2) give, on the
    # b = 0 column, W = c * t * (t^2 - r1) * (t^2 - r2): Q is a quadratic in
    # s = t^2 whose roots sit on, between, below or above the grid squares
    ctx = AbelianContext(3, F(1))
    v = CohClass(ctx, (F(6), F(0), r1, F(0)))
    w = CohClass(ctx, (F(0), F(-2), F(0), -r2))
    req = ScanRequest(ctx, 3, v, (w, skyscraper(ctx)), (F(-2), F(2)), (F(1, 2), F(5, 2)), (9, 9))
    ds = scan_walls(req)
    assert (ds.cells, ds.trivial_walls, ds.v_degenerate) == _dense_reference(req)
    ts = [F(1, 2) + F(j, 4) for j in range(9)]
    ws = []
    for t in ts:
        (wr, wim), (vr, vim) = _plain(req, w, F(0), t), _plain(req, v, F(0), t)
        ws.append(wr * vim - vr * wim)
    quad = [t * (t * t - r1) * (t * t - r2) for t in ts]
    assert [x == 0 for x in ws] == [q == 0 for q in quad]
    assert len({x / q for x, q in zip(ws, quad) if q}) == 1  # one constant c
    assert sum(q == 0 for q in quad) == len({r1, r2} & {t * t for t in ts})


def test_scan_memory_does_not_grow_with_the_grid():
    # 90000 grid points: storing a value per point would take megabytes.
    # g = 1 keeps the run short under tracemalloc's per-allocation cost.
    ctx = AbelianContext(1, F(1))
    o = structure_sheaf(ctx)
    req = ScanRequest(ctx, 1, o, (o,), (F(-2), F(2)), (F(1, 100), F(2)), (300, 300))
    tracemalloc.start()
    try:
        ds = scan_walls(req)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ds.trivial_walls == (0,)
    assert peak < 2**20


# ------------------------------------------------- wall transport oracle --
#
# The induced law Z_X(e)(-d_x + u) = zeta(u) * Z_Y(Phi e)(d_y - 1/u) at level
# g makes W_X(v, w) at beta = b + it a positive multiple, |zeta|^2, of
# W_Y(Phi v, Phi w) at beta' = d_y - 1/(beta + d_x), which has rational parts
# and t' > 0.  So a level-g scan on X can be checked on Y, through another
# context, other classes and other charge parameters.


def _transported_sign(spec, v_img, w_img, b, t):
    """Sign of W_Y(Phi v, Phi w) at d_y - 1/(b + it + d_x), from the public
    charge on the target."""
    x = b + spec.d_x
    m = x * x + t * t
    at = ChargeSpec(spec.dst, spec.g, spec.d_y - x / m, t / m)
    zv, zw = charge(at, v_img), charge(at, w_img)
    return (zw.re * zv.im - zv.re * zw.im).sign()


@st.composite
def transport_cases(draw):
    g = draw(st.integers(1, 4))
    r = draw(st.integers(1, 4))
    n_x = draw(st.sampled_from([F(1), F(2), F(3, 2), F(6), F(5, 4)]))
    d_x, d_y = (draw(st.sampled_from([F(0), F(1), F(-1, 2), F(2, 3), F(-3, 4)])) for _ in "xy")
    spec = FMTransformSpec(
        src=AbelianContext(g, n_x, "X"),
        dst=AbelianContext(g, F(factorial(g)) ** 2 / (r * r * n_x), "Y"),
        r=r,
        d_x=d_x,
        d_y=d_y,
    )
    cls = st.lists(coeff, min_size=g + 1, max_size=g + 1).map(lambda c: CohClass(spec.src, tuple(c)))
    v = draw(cls)
    walls = draw(st.lists(cls, min_size=1, max_size=2))
    nb, nt = draw(st.integers(2, 12)), draw(st.integers(2, 12))
    db, dt = (draw(st.sampled_from([F(1, 4), F(1, 3), F(1, 2), F(1)])) for _ in "bt")
    b0 = draw(st.integers(-nb, 1)) * db
    t0 = draw(st.integers(1, 4)) * dt
    req = ScanRequest(
        ctx=spec.src,
        k=g,
        v=v,
        walls=tuple(walls),
        b_range=(b0, b0 + (nb - 1) * db),
        t_range=(t0, t0 + (nt - 1) * dt),
        resolution=(nb, nt),
    )
    return spec, req, draw(st.integers(0, 2**32))


@settings(max_examples=150, deadline=None)
@given(transport_cases())
def test_wall_transport_oracle(case):
    spec, req, seed = case
    ds = scan_walls(req)
    nb, nt = req.resolution
    (b0, b1), (t0, t1) = req.b_range, req.t_range
    db, dt = (b1 - b0) / (nb - 1), (t1 - t0) / (nt - 1)
    v_img = apply(spec, req.v)
    emitted = {(c.w_index, c.b, c.t) for c in ds.cells}
    rng = random.Random(seed)
    for wi, w in enumerate(req.walls):
        w_img = apply(spec, w)
        every = [(b0 + x * db, t0 + y * dt) for x in range(nb - 1) for y in range(nt - 1)]
        on = [bt for bt in every if (wi, *bt) in emitted]
        off = [bt for bt in every if (wi, *bt) not in emitted]
        for b, t in on + rng.sample(off, min(len(off), 12)):
            quad = tuple(
                _transported_sign(spec, v_img, w_img, b + i * db, t + j * dt)
                for i, j in ((0, 0), (1, 0), (0, 1), (1, 1))
            )
            assert _crosses(quad) == ((b, t) in on), (wi, b, t, quad)
