"""Cohomological action of Fourier-Mukai transforms whose kernel is a rank-r
semihomogeneous universal bundle between a pair of g-dimensional polarized
abelian varieties.

A transform is described by the two contexts, the kernel rank r, and the
fiberwise slopes d_X, d_Y of the kernel restricted to the two factor
directions.  Such a kernel exists only when the polarizations satisfy the
degree reciprocity (n_X / g!) * (n_Y / g!) = 1 / r^2, and the constructor
enforces that identity exactly, by integer cross-multiplication: with
n_X = a/b and n_Y = c/d it holds exactly when a * c * r^2 = b * d * (g!)^2.
The two sides are built as Fractions only to word a rejection.

On the rank-one lattice the action is an antidiagonal matrix in the
factorial-rescaled coordinates taken with twist -d_X on the source, followed
by a twist d_Y on the target (`antidiag_matrix` between `lattice.v_vector`
and `lattice.from_v_vector`).  `apply` computes the same map in one fused
pass on the lattice's integer kernel, e -> e^{d_Y l} * R(e^{d_X l} * e),
where R is the scaled reversal R(c)_i = (g!/r)(-1)^i (g-i)!/(i! n_Y) c_{g-i}:
integer numerators over one common denominator throughout, read from the
class and handed back to it with one gcd.  Everything in that pass that
depends only on the spec (the numerators of both exponentials, the
reversal weights and the denominator factor) is its integer kernel, built
on a spec's first use and kept on it, so a class costs two `_conv` calls
and one elementwise product.  The composite of a transform
with its reverse acts as (-1)^g times the identity, which pins down all
sign and shift conventions used here; the quasi-inverse therefore carries
an explicit homological shift by g.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import factorial
from typing import NamedTuple

from .lattice import (
    AbelianContext,
    CohClass,
    _conv,
    _exp_ints,
    _require_match,
    exp_div,
    mukai_pairing,
    twist,
)
from .surd import as_fraction


class InvalidSpecError(ValueError):
    """Transform data violating a structural invariant."""


@dataclass(frozen=True)
class FMTransformSpec:
    """Transform from src to dst with kernel rank r and kernel slopes
    d_x (along the source) and d_y (along the target)."""

    src: AbelianContext
    dst: AbelianContext
    r: int
    d_x: Fraction = Fraction(0)
    d_y: Fraction = Fraction(0)

    def __post_init__(self):
        if not isinstance(self.r, int) or isinstance(self.r, bool) or self.r < 1:
            raise InvalidSpecError(f"kernel rank must be a positive integer, got {self.r!r}")
        if self.src.g != self.dst.g:
            raise InvalidSpecError(
                f"dimension mismatch: src g={self.src.g}, dst g={self.dst.g}"
            )
        object.__setattr__(self, "d_x", as_fraction(self.d_x))
        object.__setattr__(self, "d_y", as_fraction(self.d_y))
        nx, ny, fg = self.src.n, self.dst.n, factorial(self.src.g)
        if nx.numerator * ny.numerator * self.r**2 != nx.denominator * ny.denominator * fg * fg:
            lhs = (nx / fg) * (ny / fg)
            raise InvalidSpecError(
                "degree reciprocity violated: (n_X/g!)(n_Y/g!) = "
                f"{lhs} but 1/r^2 = {Fraction(1, self.r ** 2)}"
            )

    @property
    def g(self) -> int:
        return self.src.g

    @cached_property
    def _kernel(self) -> tuple[list[int], list[int], list[int], int]:
        """The integers `apply` needs besides the class, built once per
        spec: the numerators of e^{d_x l} and of e^{d_y l}, the reversal
        weights (-1)^i (g!/i!) (g-i)! b with n_Y = a/b, and the factor
        dy r a dx of the image's denominator, dx and dy being those of the
        two exponentials."""
        g = self.g
        nx, dx = _exp_ints(self.d_x, g)
        ny, dy = _exp_ints(self.d_y, g)
        a, b = self.dst.n.numerator, self.dst.n.denominator
        fg = factorial(g)
        weights = []
        for i in range(g + 1):
            w = fg // factorial(i) * factorial(g - i) * b
            weights.append(-w if i & 1 else w)
        return nx, ny, weights, dy * self.r * a * dx


class QuasiInverse(NamedTuple):
    spec: FMTransformSpec
    shift: int


def antidiag_matrix(spec: FMTransformSpec) -> tuple[tuple[Fraction, ...], ...]:
    """Matrix of the transform in rescaled coordinates: the only nonzero
    entries are M[i][g-i] = (g! / (r * n_X)) * (-1)^i."""
    g = spec.g
    pref = Fraction(factorial(g)) / (spec.r * spec.src.n)
    rows = []
    for i in range(g + 1):
        row = [Fraction(0)] * (g + 1)
        row[g - i] = pref * (-1) ** i
        rows.append(tuple(row))
    return tuple(rows)


def apply(spec: FMTransformSpec, e: CohClass) -> CohClass:
    """Image of a source class under the transform.

    The pipeline "coordinates with twist -d_x, the antidiagonal matrix,
    coordinates with twist d_y on the target" in one integer pass: multiply
    by e^{d_x l}, apply the scaled reversal R, multiply by e^{d_y l}.  With
    n_Y = a/b, R takes numerators t over a denominator D to numerators
    (-1)^i (g!/i!) (g-i)! b t_{g-i} over r a D.  Every factor that does
    not depend on e comes from the spec's integer kernel, built on its
    first use."""
    _require_match(e.ctx, spec.src, "apply")
    nx, ny, weights, den = spec._kernel
    t = _conv(nx, e._nums)
    rev = [w * x for w, x in zip(weights, reversed(t))]
    return CohClass._new(spec.dst, _conv(ny, rev), den * e._den)


def quasi_inverse(spec: FMTransformSpec) -> QuasiInverse:
    """Reverse transform plus the homological shift g that makes the
    composite the identity.  Numerically, apply(reverse, apply(spec, e))
    equals (-1)^g * e, and the shift accounts for that sign."""
    rev = FMTransformSpec(
        src=spec.dst,
        dst=spec.src,
        r=spec.r,
        d_x=-spec.d_y,
        d_y=-spec.d_x,
    )
    return QuasiInverse(rev, spec.g)


def adjoint_pairing_check(spec: FMTransformSpec, u: CohClass, v: CohClass) -> bool:
    """Exact isometry test: the pairing of the adjoint image of u with v on
    the source equals the pairing of u with the image of v on the target.

    The adjoint is the reverse transform with its shift, so its numerical
    action is (-1)^g times the plain reverse pipeline."""
    rev, shift = quasi_inverse(spec)
    left = mukai_pairing(apply(rev, u).scale((-1) ** shift), v)
    right = mukai_pairing(u, apply(spec, v))
    return left == right


@dataclass(frozen=True)
class GammaAction:
    """Scalars by which the doubled functor acts, plus the context of the
    double-dual target: forward scale r, adjoint-composite scale r^3, and
    the polarization degree n_dual = r^2 * n_X."""

    degree: int
    forward_scale: int
    composite_scale: int
    dual_ctx: AbelianContext


def gamma_action(spec: FMTransformSpec, i: int) -> GammaAction:
    """Scaling data of the doubled functor in cohomological degree i."""
    if not isinstance(i, int) or isinstance(i, bool) or not 0 <= i <= spec.g:
        raise ValueError(f"degree must lie in 0..{spec.g}, got {i!r}")
    dual_label = (spec.dst.label or "Y") + "^"
    dual_ctx = AbelianContext(spec.g, spec.r**2 * spec.src.n, dual_label)
    return GammaAction(
        degree=i,
        forward_scale=spec.r,
        composite_scale=spec.r**3,
        dual_ctx=dual_ctx,
    )


def polarization_image_check(spec: FMTransformSpec, m) -> bool:
    """Send e^{m*l_X} (m > 0) through the normalized pipeline of exp_image,
    which tensors by the dual kernel fiber classes on both sides: multiply
    by e^{-d_x*l}, transform, multiply by e^{-d_y*l}.  The rank scalars of
    the fibers are dropped; they do not affect signs.  Returns True when
    the image has negative degree-one coefficient, so that minus the image
    polarization is ample on the target."""
    m = as_fraction(m)
    if m <= 0:
        raise ValueError(f"polarization scale must be positive, got {m}")
    return exp_image(spec, m).c[1] < 0


def exp_image(spec: FMTransformSpec, m) -> CohClass:
    """The normalized image e^{-d_y*l} * Phi(e^{-d_x*l} * e^{m*l}); for every
    nonzero rational m this equals (r * n_X * m^g / g!) * e^{-l/m}."""
    m = as_fraction(m)
    if m == 0:
        raise ValueError("exp_image needs a nonzero scale")
    return twist(apply(spec, twist(exp_div(m, spec.src), spec.d_x)), spec.d_y)
