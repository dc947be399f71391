"""Exact wall scanning over a rational (b, t) grid, with deterministic
CSV, JSON and SVG emission.

For a fixed level k, the wall between a probe class v and a wall class w is
the locus where their level-k charges align over the reals:

    W(b, t) = Re Z(w) * Im Z(v) - Re Z(v) * Im Z(w) = 0.

The simultaneous quarter-turn in both charges cancels inside W, so the
scanner works with plain truncated integrals: the integer numerators of
stability's one charge polynomial, rescaled to the grid and divided by
their gcd.  At level k that integral is z^(g-k) * P(z) with P of degree k,
z = b + i*t; the dropped factor scales W by |z|^(2(g-k)) > 0, so the
scanner keeps only the k + 1 coefficients of P, and its cost follows k,
not g.  The independent re-check, first_bad_cell, goes through the
rotated charge instead, which also exercises that cancellation.

The scanner makes one pass over the b columns of the grid, with every
coordinate cleared to an integer by one common scale, the lcm of the
denominators of the first point and the step on each axis (_grid).  The
grid's integer b and T values are arithmetic progressions; a Fraction is
made only for the b of a column and the t of a row that emit a cell.  Per
column it expands each class's P at b + i*T in T by repeated synthetic
division, P(b + i*T) = R(T^2) + i*T*I(T^2), and forms
Q = R_w * I_v - R_v * I_w, so that W = T * Q(T^2).  T > 0 on the grid, so
sign W = sign Q(T^2), taken on the precomputed squares of the grid's t
values.  Q has degree at most k - 1; its vanishing top coefficients are
dropped before its signs are taken.  A wall's column is held as a short
list of (start row, sign) runs.  A Q of degree at most 1 changes sign at
most once down a column, so its runs (-, at most one 0, +) are read off
its one root, ceil(-q0/q1), by one bisection of the squares.  That is
every column at k <= 2, where every wall is a semicircle centred on the b
axis or a vertical line, and at any k a wall proportional to the probe
(Q = 0) or, at k = 3, one whose c0 and c1 are proportional to the
probe's.  At degree >= 2 one integer Horner pass runs per wall and grid
point.  That is about walls * k^2 big-integer operations per column, plus
one bisection per wall of degree <= 1 or walls * k per grid point
otherwise.  The scanner keeps the runs of the current and the previous
column per wall, and emits each cell between them whose four corner signs
are not all equal (two corners of strict opposite sign, or a zero corner
next to a nonzero one).  The cell pass merges the two columns'
breakpoints: between two of them both columns are constant, so every row
is a cell when their signs differ and none is otherwise, and only the row
below each breakpoint is tested.  Per column pair that is
O(runs + cells), not O(nt).  Memory is O(walls * runs + cells) plus the nt
squares, independent of the number of b columns.  A wall class
proportional to the probe gives Q = 0; it is flagged trivial (it has no
nonzero run) and contributes no cells.  A probe whose charge vanishes at
every grid point flags the dataset as degenerate.  A zero P_v is flagged
from its coefficients, with no evaluation; otherwise R_v and I_v are
evaluated down the columns only until the first point where one of them is
nonzero.

first_bad_cell walks the emitted cells in order, stops at the first that
fails (recheck_walls is its "is None"), and computes each charge it needs
once per call: one probe charge per distinct cell corner, one wall charge
per distinct (wall, corner).  That is at most 8 core evaluations per cell
and at most walls + 1 per grid point; about 4 per cell along a wall curve,
where neighbouring cells share corners.
A WallDataset checks its cells' wall indices and exact coordinates when it
is built, so the recheck and the emitters read them as given.  The recheck
maps a cell's b and t to indices on the scanner's integer axes by integer
arithmetic (_axis_index), so its cost is O(cells + distinct corners).
Each class's integer numerators (stability._charge_ints) are built once
per call, and each corner's beta = b + i*t once, as the integer tuple
(b start + x * b step, 0, t start + y * t step, 0, scale).  Both charges
come from stability._horner_core, the rotated integer core that the
public charge wraps, and the sign of W is one integer cross-sign
(surd._cross_sign_ints) of the two tuples it returns; no Q3, SurdComplex
or Fraction is built.  Its charges are not the scanner's rescaled
polynomials, though both read the same stability._charge_ints numerators.
It shares _grid (the integer axes) and _crosses (the cell predicate) with
the scanner, so a fault in either is invisible to it; the scan tests
against their own dense reference catch one.

Emission is byte-deterministic: fixed orderings, exact "p/q" encodings in
CSV and JSON, fixed float formatting in SVG.  The JSON text is the
dataset's record as json.dumps(..., sort_keys=True, indent=2) writes it;
emit_json writes each cell with one f-string rather than building a dict
per cell, so its peak memory is about its output plus one string per cell.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import gcd, lcm

from .lattice import AbelianContext, CohClass, _require_match
from .literals import format_rational_frac
from .stability import _charge_ints, _check_level, _horner_core
from .stability import charge  # noqa: F401  (scan.charge: perfbench's tracer rebinds it here)
from .surd import _cross_sign_ints, as_fraction


@dataclass(frozen=True)
class ScanRequest:
    """Probe class v, wall classes, level k, rational grid geometry.

    resolution counts grid points per axis (>= 2 each); cells are the
    (nb-1) * (nt-1) little rectangles between adjacent points.  The whole
    t range must be strictly positive."""

    ctx: AbelianContext
    k: int
    v: CohClass
    walls: tuple[CohClass, ...]
    b_range: tuple[Fraction, Fraction]
    t_range: tuple[Fraction, Fraction]
    resolution: tuple[int, int]

    def __post_init__(self):
        _check_level(self.k, self.ctx.g)
        b0, b1 = (as_fraction(x) for x in self.b_range)
        t0, t1 = (as_fraction(x) for x in self.t_range)
        if not b0 < b1:
            raise ValueError(f"empty b range [{b0}, {b1}]")
        if not t0 < t1:
            raise ValueError(f"empty t range [{t0}, {t1}]")
        if t0 <= 0:
            raise ValueError(f"t range must be strictly positive, starts at {t0}")
        object.__setattr__(self, "b_range", (b0, b1))
        object.__setattr__(self, "t_range", (t0, t1))
        nb, nt = self.resolution
        if not (isinstance(nb, int) and isinstance(nt, int)) or nb < 2 or nt < 2:
            raise ValueError(f"resolution must be >= 2 points per axis, got {self.resolution}")
        _require_match(self.v.ctx, self.ctx, "probe class")
        walls = tuple(self.walls)
        for i, w in enumerate(walls):
            _require_match(w.ctx, self.ctx, f"wall class {i}")
        if not walls:
            raise ValueError("need at least one wall class")
        object.__setattr__(self, "walls", walls)


@dataclass(frozen=True, slots=True)
class WallCell:
    """Lower-left corner of a grid cell containing a sign change."""

    w_index: int
    b: Fraction
    t: Fraction


@dataclass(frozen=True)
class WallDataset:
    """A scan's cells, ordered by wall index, then b, then t.  It checks its
    fields when built, so its readers do not: each cell's w_index and each
    trivial wall is a plain int, not a bool, naming a wall (ValueError), each
    b and t an int or Fraction (TypeError), and v_degenerate a bool."""

    request: ScanRequest
    cells: tuple[WallCell, ...]
    trivial_walls: tuple[int, ...]
    v_degenerate: bool

    def __post_init__(self):
        walls = range(len(self.request.walls))
        for cell in self.cells:
            if type(cell.w_index) is not int or cell.w_index not in walls:
                raise ValueError(f"cell at b = {cell.b}, t = {cell.t} has wall index "
                                 f"{cell.w_index!r}, but the request has {len(walls)} walls")
            as_fraction(cell.b), as_fraction(cell.t)
        if any(type(wi) is not int or wi not in walls for wi in self.trivial_walls):
            raise ValueError(f"trivial walls {self.trivial_walls!r} must be ints in {walls}")
        if type(self.v_degenerate) is not bool:
            raise TypeError(f"v_degenerate must be a bool, got {self.v_degenerate!r}")


def _grid(req: ScanRequest) -> tuple[int, int, int, int, int]:
    """The grid as integer axes (scale, b start, b step, t start, t step):
    grid point (x, y) is b = (b start + x * b step) / scale,
    t = (t start + y * t step) / scale, and both steps are positive.

    The first point and the step (a difference of two grid points) on each
    axis have denominators that divide the lcm over all grid points, and
    every grid point is an integer combination of them, so scale is that
    lcm."""
    nb, nt = req.resolution
    (b0, b1), (t0, t1) = req.b_range, req.t_range
    db, dt = (b1 - b0) / (nb - 1), (t1 - t0) / (nt - 1)
    scale = lcm(b0.denominator, db.denominator, t0.denominator, dt.denominator)
    return scale, int(b0 * scale), int(db * scale), int(t0 * scale), int(dt * scale)


def _axis_index(v, scale: int, start: int, step: int, count: int) -> int | None:
    """The i in range(count) with v == (start + i * step) / scale, for an
    int or Fraction v and a step > 0; None when v is no such point.

    v = p/q in lowest terms equals some N/scale exactly when q divides
    scale, and then N = p * (scale // q)."""
    q = v.denominator
    if scale % q:
        return None
    i, r = divmod(v.numerator * (scale // q) - start, step)
    return i if not r and 0 <= i < count else None


def _int_charge_coeffs(cls: CohClass, k: int, scale: int) -> list[int]:
    """Integer coefficients p_0..p_k, constant first, of the P with
    (scale*z)^(g-k) * P(scale*z) a fixed positive multiple of the plain
    truncated integral at z = b + i*t, with no common factor.  The
    per-class positive factor is irrelevant to signs."""
    g = cls.ctx.g
    nums = _charge_ints(cls.ctx, cls, k)[0]  # zero below degree g - k
    # scale^(g-m) re-homogenizes after substituting z -> z/scale
    coeffs = [nums[m] * scale ** (g - m) for m in range(g - k, g + 1)]
    d = gcd(*coeffs) or 1  # a zero class has only zero coefficients
    return [x // d for x in coeffs]


def _column_parts(p: list[int], zb: int) -> tuple[list[int], list[int]]:
    """(R, I) with P(zb + i*T) = R(T^2) + i*T*I(T^2), constant terms first.

    Repeated synthetic division leaves the Taylor coefficients a_j of P at
    zb; (i*T)^j is (-1)^h T^(2h) for j = 2h and (-1)^h i T^(2h+1) for
    j = 2h + 1."""
    a = list(p)
    for j in range(len(a) - 1):
        for m in range(len(a) - 2, j - 1, -1):
            a[m] += zb * a[m + 1]
    signed = [-x if j % 4 > 1 else x for j, x in enumerate(a)]
    return signed[::2], signed[1::2]


def _mul(p: list[int], q: list[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


def _horner(p: list[int], s: int) -> int:
    acc = 0
    for c in reversed(p):
        acc = acc * s + c
    return acc


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


def _runs(q: list[int], ss: list[int]) -> list[tuple[int, int]]:
    """The signs of Q on the increasing squares ss as runs (start row,
    sign): the first starts at row 0, and neighbouring runs differ in sign.

    Vanishing top coefficients are dropped first, so the path follows Q's
    true degree.  A Q of degree at most 1 is read off its one root:
    normalised to q1 > 0, its signs run -, then at most one 0, then +.  A Q
    of higher degree is evaluated at every square."""
    while len(q) > 2 and not q[-1]:
        q = q[:-1]
    if len(q) > 2:
        runs: list[tuple[int, int]] = []
        for y, s in enumerate(ss):
            sg = _sign(_horner(q, s))
            if not runs or runs[-1][1] != sg:
                runs.append((y, sg))
        return runs
    q0, q1 = (*q, 0)[:2]
    if q1 == 0:
        return [(0, _sign(q0))]
    d = _sign(q1)
    q0, q1 = d * q0, d * q1
    c = -(q0 // q1)  # the least integer s with q0 + q1*s >= 0
    i = bisect_left(ss, c)
    j = i + (i < len(ss) and ss[i] == c and q0 % q1 == 0)
    starts = (0, i, j, len(ss))
    return [(starts[r], sg) for r, sg in enumerate((-d, 0, d)) if starts[r] < starts[r + 1]]


def _crosses(quad) -> bool:
    """The cell predicate: the four corner signs are not all equal."""
    s = quad[0]
    return quad[1] != s or quad[2] != s or quad[3] != s


def _cell_rows(col0: list[tuple[int, int]], col1: list[tuple[int, int]], nt: int) -> list[int]:
    """The rows y < nt - 1 whose cell between two neighbouring columns of
    runs crosses, in increasing order.

    Between two breakpoints of either column both are constant, so every
    row there is a cell when their signs differ and none is otherwise; only
    the row below each breakpoint needs the predicate."""
    rows: list[int] = []
    i = j = lo = 0
    a, b = col0[0][1], col1[0][1]
    while True:
        ea = col0[i + 1][0] if i + 1 < len(col0) else nt
        eb = col1[j + 1][0] if j + 1 < len(col1) else nt
        hi = min(ea, eb)
        if a != b:
            rows.extend(range(lo, hi - 1))
        if hi == nt:
            return rows
        if ea == hi:
            i += 1
        if eb == hi:
            j += 1
        a1, b1 = col0[i][1], col1[j][1]
        if _crosses((a, b, a1, b1)):
            rows.append(hi - 1)
        lo, a, b = hi, a1, b1


def scan_walls(req: ScanRequest) -> WallDataset:
    """Evaluate the sign of every wall polynomial exactly on the grid, one b
    column at a time, and collect the sign-change cells, ordered by wall
    index, then b, then t."""
    nb, nt = req.resolution
    # W depends on t through T^2 alone once its positive factor T is dropped
    scale, bi0, dbi, ti0, dti = _grid(req)
    ss = [(ti0 + y * dti) ** 2 for y in range(nt)]
    row_t = cache(lambda y: Fraction(ti0 + y * dti, scale))  # made once per emitting row

    pv, *pws = (_int_charge_coeffs(cls, req.k, scale) for cls in (req.v, *req.walls))
    nw = len(pws)
    found: list[list[WallCell]] = [[] for _ in range(nw)]
    nonzero = [False] * nw
    # a zero P_v vanishes everywhere; otherwise look for a point where it does not
    v_degenerate = True
    pending = any(pv)
    prev = None
    for x in range(nb):
        zb = bi0 + x * dbi
        rv, iv = _column_parts(pv, zb)
        if pending:
            v_degenerate = pending = not any(_horner(rv, s) or _horner(iv, s) for s in ss)
        col = []
        for pw in pws:
            rw, iw = _column_parts(pw, zb)
            col.append(_runs([a - c for a, c in zip(_mul(rw, iv), _mul(rv, iw))], ss))
        nonzero = [seen or any(sg for _, sg in runs) for seen, runs in zip(nonzero, col)]
        if prev is not None:
            b = None  # the column's b as a Fraction, made once it emits a cell
            for wi in range(nw):
                rows = _cell_rows(prev[wi], col[wi], nt)
                if rows:
                    if b is None:
                        b = Fraction(zb - dbi, scale)
                    found[wi].extend(WallCell(wi, b, row_t(y)) for y in rows)
        prev = col

    trivial = tuple(wi for wi in range(nw) if not nonzero[wi])
    cells = tuple(cell for out in found for cell in out)
    return WallDataset(req, cells, trivial, v_degenerate)


@dataclass(frozen=True)
class RecheckFailure:
    """The cell at which first_bad_cell stopped, with the signs of W at its
    corners (b, t), (b', t), (b, t'), (b', t'); corners is None only when
    the cell is off the grid: its lower-left corner is not a grid point
    with a cell above and to its right."""

    cell: WallCell
    corners: tuple[int, int, int, int] | None


def first_bad_cell(ds: WallDataset) -> RecheckFailure | None:
    """Independent soundness pass: the first emitted cell, in cell order,
    whose four corner values, recomputed through the exact rotated charge
    (stability._horner_core, the integer core of the public charge), fail
    the sign-change predicate; None when every cell passes.  The walk stops
    there, so a failure costs the charges up to that cell, once.  Each
    charge is computed once per call (the module docstring counts them) and
    each corner is found on the integer grid by arithmetic: O(cells +
    distinct corners), whatever the resolution.  A cell fails only off the
    grid or with four equal corner signs; the dataset checked its wall
    index and coordinate types when it was built."""
    req = ds.request
    nb, nt = req.resolution
    scale, bi0, dbi, ti0, dti = _grid(req)
    # ScanRequest has checked k and t > 0, and its classes carry no shift,
    # so the rotated core that charge wraps runs directly on integer tuples,
    # each class's numerators built once; the caches live for this call.
    ctx, k = req.ctx, req.k
    turns = ctx.g - k + 2  # -(i^(g-k)), as in charge_at
    v_ints = _charge_ints(ctx, req.v, k)
    w_ints = [_charge_ints(ctx, w, k) for w in req.walls]

    @cache
    def probe_at(x: int, y: int) -> tuple[tuple, tuple]:
        beta = (bi0 + x * dbi, 0, ti0 + y * dti, 0, scale)  # b + i*t over scale > 0
        return beta, _horner_core(*v_ints, beta, turns)

    @cache
    def wall_sign(wi: int, x: int, y: int) -> int:
        beta, zv = probe_at(x, y)
        return _cross_sign_ints(_horner_core(*w_ints[wi], beta, turns), zv)

    for cell in ds.cells:
        # a lower-left corner has a grid point above and to its right
        x = _axis_index(cell.b, scale, bi0, dbi, nb - 1)
        y = _axis_index(cell.t, scale, ti0, dti, nt - 1)
        if x is None or y is None:
            return RecheckFailure(cell, None)
        wi = cell.w_index
        quad = (wall_sign(wi, x, y), wall_sign(wi, x + 1, y),
                wall_sign(wi, x, y + 1), wall_sign(wi, x + 1, y + 1))
        if not _crosses(quad):
            return RecheckFailure(cell, quad)
    return None


def recheck_walls(ds: WallDataset) -> bool:
    """True when first_bad_cell(ds) finds no bad cell."""
    return first_bad_cell(ds) is None


def emit_csv(ds: WallDataset) -> str:
    lines = ["w,b,t"]
    for cell in ds.cells:
        lines.append(
            f"{cell.w_index},{format_rational_frac(cell.b)},{format_rational_frac(cell.t)}"
        )
    return "\n".join(lines) + "\n"


def emit_json(ds: WallDataset) -> str:
    """The record json.dumps(..., sort_keys=True, indent=2) writes, with
    each cell written by one f-string: the values are "p/q" strings and ints,
    which JSON encodes as themselves, and no dict per cell is built."""
    req = ds.request
    head = json.dumps(
        {
            "k": req.k,
            "g": req.ctx.g,
            "n": format_rational_frac(req.ctx.n),
            "b_range": [format_rational_frac(x) for x in req.b_range],
            "t_range": [format_rational_frac(x) for x in req.t_range],
            "resolution": list(req.resolution),
            "v_degenerate": ds.v_degenerate,
            "trivial_walls": list(ds.trivial_walls),
            "cells": [],
        },
        sort_keys=True,
        indent=2,
    )
    if not ds.cells:
        return head + "\n"
    before, after = head.split('"cells": []')
    cells = ",\n".join(
        f'    {{\n      "b": "{format_rational_frac(c.b)}",\n'
        f'      "t": "{format_rational_frac(c.t)}",\n      "w": {c.w_index}\n    }}'
        for c in ds.cells
    )
    return "".join((before, '"cells": [\n', cells, "\n  ]", after, "\n"))


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_W, _H = 640.0, 480.0
_ML, _MR, _MT, _MB = 64.0, 24.0, 24.0, 48.0


def _f(x: float) -> str:
    return f"{x:.3f}"


def emit_svg(ds: WallDataset) -> str:
    req = ds.request
    nb, nt = req.resolution
    b0, b1 = req.b_range
    t0, t1 = req.t_range
    plot_w, plot_h = _W - _ML - _MR, _H - _MT - _MB
    # every cell spans one grid step; only exact relative positions meet floats
    cell_w, cell_h = plot_w / (nb - 1), plot_h / (nt - 1)

    def px(b: Fraction) -> float:
        return _ML + float((b - b0) / (b1 - b0)) * plot_w

    def py(t: Fraction) -> float:
        return _H - _MB - float((t - t0) / (t1 - t0)) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(_W)}" height="{int(_H)}" '
        f'viewBox="0 0 {int(_W)} {int(_H)}">',
        f'<rect x="0" y="0" width="{int(_W)}" height="{int(_H)}" fill="white"/>',
        f'<rect x="{_f(_ML)}" y="{_f(_MT)}" width="{_f(_W - _ML - _MR)}" '
        f'height="{_f(_H - _MT - _MB)}" fill="none" stroke="#444444" stroke-width="1"/>',
    ]
    if b0 < 0 < b1:
        x0 = px(Fraction(0))
        out.append(
            f'<line x1="{_f(x0)}" y1="{_f(_MT)}" x2="{_f(x0)}" y2="{_f(_H - _MB)}" '
            'stroke="#bbbbbb" stroke-width="0.5"/>'
        )
    out.append(
        f'<text x="{_f((_ML + _W - _MR) / 2)}" y="{_f(_H - 12.0)}" '
        'font-family="monospace" font-size="14" text-anchor="middle">b</text>'
    )
    out.append(
        '<text x="16" y="{0}" font-family="monospace" font-size="14" '
        'text-anchor="middle">t</text>'.format(_f((_MT + _H - _MB) / 2))
    )
    for lab, xpos in ((req.b_range[0], _ML), (req.b_range[1], _W - _MR)):
        out.append(
            f'<text x="{_f(xpos)}" y="{_f(_H - _MB + 16.0)}" font-family="monospace" '
            f'font-size="11" text-anchor="middle">{lab}</text>'
        )
    for lab, ypos in ((req.t_range[0], _H - _MB), (req.t_range[1], _MT)):
        out.append(
            f'<text x="{_f(_ML - 6.0)}" y="{_f(ypos + 4.0)}" font-family="monospace" '
            f'font-size="11" text-anchor="end">{lab}</text>'
        )
    by_wall: list[list[WallCell]] = [[] for _ in req.walls]
    for cell in ds.cells:  # the dataset has checked every wall index
        by_wall[cell.w_index].append(cell)
    for wi, cells in enumerate(by_wall):
        color = _PALETTE[wi % len(_PALETTE)]
        out.append(f'<g data-wall="{wi}" fill="{color}" fill-opacity="0.75">')
        for cell in cells:
            out.append(
                f'<rect x="{_f(px(cell.b))}" y="{_f(py(cell.t) - cell_h)}" '
                f'width="{_f(cell_w)}" height="{_f(cell_h)}"/>'
            )
        out.append("</g>")
        out.append(
            f'<text x="{_f(_W - _MR - 8.0)}" y="{_f(_MT + 16.0 + 14.0 * wi)}" '
            f'font-family="monospace" font-size="12" text-anchor="end" '
            f'fill="{color}">w{wi}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


_EMITTERS = {"csv": emit_csv, "json": emit_json, "svg": emit_svg}

FORMATS = tuple(sorted(_EMITTERS))


def render(ds: WallDataset, fmt: str) -> str:
    try:
        emitter = _EMITTERS[fmt]
    except KeyError:
        raise ValueError(f"unknown format {fmt!r}, want one of {FORMATS}") from None
    return emitter(ds)


def emit(ds: WallDataset, fmt: str, path) -> None:
    """Render and write; identical datasets yield byte-identical files."""
    text = render(ds, fmt)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
