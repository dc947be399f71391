"""Checks the benchmark computes itself, with plain ``Fraction`` arithmetic
and none of the program's code.

The wall oracle re-evaluates the wall polynomial

    W(b, t) = Re Z(w) * Im Z(v) - Re Z(v) * Im Z(w)

straight from the definition of the level-k charge, sum over i <= k of
c_i * (-beta)^(g-i) / (g-i)! at beta = b + i*t.  The common factors
-n * i^(g-k) of both charges cancel inside W (they multiply it by n^2 > 0),
so they are left out.  Sampling emitted *and* non-emitted cells gives a
completeness check as well as a soundness one.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import factorial


def grid(lo: Fraction, hi: Fraction, count: int) -> list[Fraction]:
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def plain_charge(coeffs, k: int, b: Fraction, t: Fraction) -> tuple[Fraction, Fraction]:
    g = len(coeffs) - 1
    re, im = Fraction(0), Fraction(0)
    pr, pi = Fraction(1), Fraction(0)  # (-beta)^0
    powers = [(pr, pi)]
    for _ in range(g):
        pr, pi = -pr * b + pi * t, -pr * t - pi * b
        powers.append((pr, pi))
    for i in range(k + 1):
        pr, pi = powers[g - i]
        f = Fraction(coeffs[i]) / factorial(g - i)
        re += f * pr
        im += f * pi
    return re, im


def wall_sign(v, w, k: int, b: Fraction, t: Fraction) -> int:
    vr, vi = plain_charge(v, k, b, t)
    wr, wi = plain_charge(w, k, b, t)
    val = wr * vi - vr * wi
    return (val > 0) - (val < 0)


def flagged(quad) -> bool:
    pos, neg, zero = 1 in quad, -1 in quad, 0 in quad
    return (pos and neg) or (zero and (pos or neg))


class WallOracle:
    """Decides, for one scan request, whether a cell must be emitted."""

    def __init__(self, v, walls, k, b_range, t_range, resolution):
        self.v = [Fraction(x) for x in v]
        self.walls = [[Fraction(x) for x in w] for w in walls]
        self.k = k
        self.nb, self.nt = resolution
        self.bs = grid(Fraction(b_range[0]), Fraction(b_range[1]), self.nb)
        self.ts = grid(Fraction(t_range[0]), Fraction(t_range[1]), self.nt)
        self._sign: dict = {}

    def sign(self, wi: int, x: int, y: int) -> int:
        key = (wi, x, y)
        s = self._sign.get(key)
        if s is None:
            s = wall_sign(self.v, self.walls[wi], self.k, self.bs[x], self.ts[y])
            self._sign[key] = s
        return s

    def cell_flagged(self, wi: int, x: int, y: int) -> bool:
        quad = (
            self.sign(wi, x, y),
            self.sign(wi, x + 1, y),
            self.sign(wi, x, y + 1),
            self.sign(wi, x + 1, y + 1),
        )
        return flagged(quad)

    def trivial(self, wi: int) -> bool:
        """W vanishes identically: its charge is a real multiple of v's at
        every point, which holds exactly when w is a rational multiple of v
        on the coefficients that the level keeps."""
        v, w = self.v[: self.k + 1], self.walls[wi][: self.k + 1]
        pivot = next((i for i, c in enumerate(v) if c), None)
        if pivot is None:
            return True
        q = w[pivot] / v[pivot]
        return all(wc == q * vc for wc, vc in zip(w, v))

    def index(self, b: Fraction, t: Fraction) -> tuple[int, int] | None:
        x = (b - self.bs[0]) / (self.bs[1] - self.bs[0])
        y = (t - self.ts[0]) / (self.ts[1] - self.ts[0])
        if x.denominator != 1 or y.denominator != 1:
            return None
        x, y = int(x), int(y)
        if not (0 <= x < self.nb - 1 and 0 <= y < self.nt - 1):
            return None
        return x, y

    def check(self, cells, trivial_walls, rng: random.Random, sample: int, n_random: int) -> list[str]:
        """cells: iterable of (w, b, t) Fractions.  Checks trivial flags,
        then `sample` emitted cells, `sample` non-emitted neighbours of
        emitted cells and `n_random` random cells that were not emitted."""
        problems = []
        want_trivial = [wi for wi in range(len(self.walls)) if self.trivial(wi)]
        if list(trivial_walls) != want_trivial:
            problems.append(f"trivial walls {list(trivial_walls)}, expected {want_trivial}")
        emitted = set()
        for wi, b, t in cells:
            idx = self.index(b, t)
            if idx is None or not 0 <= wi < len(self.walls):
                problems.append(f"cell ({wi}, {b}, {t}) is not a grid cell")
                continue
            emitted.add((wi, *idx))
        if any(c[0] in want_trivial for c in emitted):
            problems.append("cells emitted for a trivial wall")
        ordered = sorted(emitted)
        for wi, x, y in rng.sample(ordered, min(sample, len(ordered))):
            if not self.cell_flagged(wi, x, y):
                problems.append(f"emitted cell w={wi} x={x} y={y} has no sign change")
        near = sorted(
            {
                (wi, x + dx, y + dy)
                for wi, x, y in ordered
                for dx in (-1, 0, 1)
                for dy in (-1, 0, 1)
                if 0 <= x + dx < self.nb - 1 and 0 <= y + dy < self.nt - 1
            }
            - emitted
        )
        picks = rng.sample(near, min(sample, len(near)))
        live = [wi for wi in range(len(self.walls)) if wi not in want_trivial]
        for _ in range(n_random if live else 0):
            cell = (rng.choice(live), rng.randrange(self.nb - 1), rng.randrange(self.nt - 1))
            if cell not in emitted:
                picks.append(cell)
        for wi, x, y in picks:
            if self.cell_flagged(wi, x, y):
                problems.append(f"cell w={wi} x={x} y={y} has a sign change but was not emitted")
        return problems


def parse_class(text: str) -> list[Fraction]:
    return [Fraction(p) for p in text.strip().split(",")]
