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
not g.  The independent re-check in recheck_walls goes through the public
rotated charge instead, which also exercises that cancellation.

The scanner makes one pass over the b columns of the grid, with every
coordinate cleared to an integer by one common scale.  Per column it
expands each class's P at b + i*T in T by repeated synthetic division,
P(b + i*T) = R(T^2) + i*T*I(T^2), and forms Q = R_w * I_v - R_v * I_w, so
that W = T * Q(T^2).  T > 0 on the grid, so sign W = sign Q(T^2), taken
on the precomputed squares of the grid's t values.  Q has degree at most
k - 1.  At k <= 2 it changes sign at most once down a column, so its signs
are read off its one root, ceil(-q0/q1), by one bisection of the squares;
every level-2 wall is a semicircle centred on the b axis or a vertical
line.  At k >= 3 one integer Horner pass runs per wall and grid point.
That is about walls * k^2 big-integer operations per column, plus one
bisection per wall at k <= 2 or walls * k per grid point at k >= 3.  The
scanner keeps only the current and the previous column of signs per wall,
and emits each cell between them whose four corner signs are not all equal
(two corners of strict opposite sign, or a zero corner next to a nonzero
one); that cell pass visits every grid point of every wall.  Memory is
O(walls * nt + cells), independent of the number of b columns.  A wall
class proportional to the probe gives Q = 0; it is flagged trivial and
contributes no cells.  A probe whose charge vanishes at every grid point
flags the dataset as degenerate; R_v and I_v are evaluated down the
columns only until the first point where one of them is nonzero.

recheck_walls walks the emitted cells in order and computes each charge it
needs once per call: one probe charge per distinct cell corner, and one
wall charge per distinct (wall, corner).  That is at most 8 public charge
calls per cell and at most walls + 1 per grid point; along a wall curve,
where neighbouring cells share corners, it is about 4 per cell.

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
from math import gcd, lcm

from .lattice import AbelianContext, CohClass, _require_match
from .literals import format_rational_frac
from .stability import ChargeSpec, _charge_ints, _check_level, charge
from .surd import SurdComplex, as_fraction


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
    request: ScanRequest
    cells: tuple[WallCell, ...]
    trivial_walls: tuple[int, ...]
    v_degenerate: bool


def _grid(lo: Fraction, hi: Fraction, count: int) -> list[Fraction]:
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


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


def _linear_signs(q: list[int], ss: list[int]) -> list[int]:
    """[_sign(_horner(q, s)) for s in ss] for a Q of degree at most 1, read
    off its one root: ss increases, so the signs run -, then at most one 0,
    then + once Q is normalised to q1 > 0."""
    q0, q1 = (*q, 0)[:2]
    if q1 == 0:
        return [_sign(q0)] * len(ss)
    d = _sign(q1)
    q0, q1 = d * q0, d * q1
    c = -(q0 // q1)  # the least integer s with q0 + q1*s >= 0
    i = bisect_left(ss, c)
    j = i + (i < len(ss) and ss[i] == c and q0 % q1 == 0)
    return [-d] * i + [0] * (j - i) + [d] * (len(ss) - j)


def _crosses(quad) -> bool:
    """The cell predicate: the four corner signs are not all equal."""
    s = quad[0]
    return quad[1] != s or quad[2] != s or quad[3] != s


def scan_walls(req: ScanRequest) -> WallDataset:
    """Evaluate the sign of every wall polynomial exactly on the grid, one b
    column at a time, and collect the sign-change cells, ordered by wall
    index, then b, then t."""
    nb, nt = req.resolution
    bs = _grid(req.b_range[0], req.b_range[1], nb)
    ts = _grid(req.t_range[0], req.t_range[1], nt)

    # clear all grid denominators with one integer scale; W depends on t
    # through T^2 alone once its positive factor T is dropped
    scale = lcm(*(x.denominator for x in (*bs, *ts)))
    bi = [int(b * scale) for b in bs]
    ss = [int(t * scale) ** 2 for t in ts]

    pv, *pws = (_int_charge_coeffs(cls, req.k, scale) for cls in (req.v, *req.walls))
    nw = len(pws)
    found: list[list[WallCell]] = [[] for _ in range(nw)]
    nonzero = [False] * nw
    v_degenerate = True
    prev = None
    for x in range(nb):
        rv, iv = _column_parts(pv, bi[x])
        if v_degenerate:
            v_degenerate = not any(_horner(rv, s) or _horner(iv, s) for s in ss)
        col = []
        for pw in pws:
            rw, iw = _column_parts(pw, bi[x])
            q = [a - c for a, c in zip(_mul(rw, iv), _mul(rv, iw))]
            if len(q) <= 2:  # every level k <= 2
                col.append(_linear_signs(q, ss))
            else:
                col.append([_sign(_horner(q, s)) for s in ss])
        nonzero = [seen or any(signs) for seen, signs in zip(nonzero, col)]
        if prev is not None:
            b = bs[x - 1]
            for wi in range(nw):
                col0, col1, out = prev[wi], col[wi], found[wi]
                for y in range(nt - 1):
                    if _crosses((col0[y], col1[y], col0[y + 1], col1[y + 1])):
                        out.append(WallCell(wi, b, ts[y]))
        prev = col

    trivial = tuple(wi for wi in range(nw) if not nonzero[wi])
    cells = tuple(cell for out in found for cell in out)
    return WallDataset(req, cells, trivial, v_degenerate)


@dataclass(frozen=True)
class RecheckFailure:
    """An emitted cell that failed the recheck, with the signs of W at its
    corners (b, t), (b', t), (b, t'), (b', t'); corners is None when the
    cell's lower-left corner is not a grid point with a cell above and to
    its right."""

    cell: WallCell
    corners: tuple[int, int, int, int] | None


def _first_bad_cell(ds: WallDataset) -> RecheckFailure | None:
    req = ds.request
    nb, nt = req.resolution
    bs = _grid(req.b_range[0], req.b_range[1], nb)
    ts = _grid(req.t_range[0], req.t_range[1], nt)
    b_index = {b: i for i, b in enumerate(bs)}
    t_index = {t: j for j, t in enumerate(ts)}
    # filled lazily in cell order, so a bad dataset stops at the same cell;
    # grid point -> (spec, probe charge), and (wall, point) -> sign of W
    probe: dict[tuple[int, int], tuple[ChargeSpec, SurdComplex]] = {}
    signs: dict[tuple[int, int, int], int] = {}

    def wall_sign(wi: int, x: int, y: int) -> int:
        key = (wi, x, y)
        s = signs.get(key)
        if s is None:
            at = probe.get((x, y))
            if at is None:
                spec = ChargeSpec(req.ctx, req.k, bs[x], ts[y])
                at = probe[x, y] = (spec, charge(spec, req.v))
            spec, zv = at
            zw = charge(spec, req.walls[wi])
            s = signs[key] = (zw.re * zv.im - zv.re * zw.im).sign()
        return s

    for cell in ds.cells:
        x = b_index.get(cell.b)
        y = t_index.get(cell.t)
        if x is None or y is None or x + 1 >= nb or y + 1 >= nt:
            return RecheckFailure(cell, None)
        wi = cell.w_index
        quad = (
            wall_sign(wi, x, y),
            wall_sign(wi, x + 1, y),
            wall_sign(wi, x, y + 1),
            wall_sign(wi, x + 1, y + 1),
        )
        if not _crosses(quad):
            return RecheckFailure(cell, quad)
    return None


def recheck_walls(ds: WallDataset) -> bool:
    """Independent soundness pass: recompute the four corner values of every
    emitted cell through the public exact charge (rotation included) and
    confirm the sign-change predicate.  Returns True when every cell passes.

    Each charge is computed once per call: one probe charge per distinct
    corner plus one wall charge per distinct (wall, corner), at most 8 per
    cell and at most walls + 1 per grid point."""
    return _first_bad_cell(ds) is None


def first_bad_cell(ds: WallDataset) -> RecheckFailure | None:
    """The first emitted cell that recheck_walls rejects, None when every
    cell passes."""
    return _first_bad_cell(ds)


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
    for cell in ds.cells:
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
