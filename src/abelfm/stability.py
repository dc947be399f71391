"""Truncated central charges and very weak stability data on the rank-one
lattice.

For a class e with coefficients c_i, a level k in 1..g, and a complexified
polarization parameter beta = b + i*t (t > 0), the level-k charge is

    Z = -(i^(g-k)) * n * sum_{i <= k} c_i * (-beta)^(g-i) / (g-i)!

that is, minus the i^(g-k) quarter-turn of the integral of e^{-beta*l}
against the truncation of e to degrees at most k.  At k = g this is the
untruncated charge of the full class.  The sum is written once, in
_charge_ints, as integer numerators N_m of its coefficients in beta over one
denominator.  It is the only charge polynomial in the package: the wall
scanner and the induced charge law read it too, the latter after moving
beta by a B-field twist of the class (lattice.twist).  charge_at evaluates
it with one integer kernel: beta's two Q(sqrt 3) parts are cleared to one
denominator D, a homogenised Horner pass runs on integer 4-tuples (Re and Im
in Z[sqrt 3]), the -i^(g-k) turn permutes and negates the tuple, and the two
Q3 parts of the result are built once, at the end.

The level rule (k an integer in 1..g) is written once, in _check_level,
which ChargeSpec and scan.ScanRequest both call; bg_check validates its
(b, t) by building a ChargeSpec.  Slopes are -Re/Im with Im = 0 read as
slope +infinity (returned as None); _slope_of computes them for slope and
hn_polygon alike, and slope_cmp orders them.
Phases are arg(Z)/pi in (0, 1] plus any explicit homological shift carried
by the class.  phase() is a display value: _display_phase scales both
exact parts of the charge into float range, rounds each once from its exact
integers (float of a Q3), and takes one atan2, so charges of any size, and
parts that nearly cancel, have one.
phase_cmp decides a comparison against a rational bound with one exact
sign test in Q(sqrt 3) against each multiple of 1/12 it needs: the bound
itself when 12 times it is an integer, else the two twelfths around it.
Display values are compared only when the phase lies strictly inside that
twelfth-gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from math import atan2, factorial, floor, lcm, pi
from typing import Sequence

from .lattice import AbelianContext, CohClass, ShiftedClass, _require_match, twist
from .surd import Q3, SurdComplex, as_fraction, as_q3, direction_pi


class HeartValueError(ValueError):
    """A charge value incompatible with a heart: open lower half-plane or
    the positive real axis."""


@dataclass(frozen=True)
class ChargeSpec:
    """Level k charge at B = b*l, omega = t*l with exact t > 0; t may be
    rational or carry a sqrt(3) part."""

    ctx: AbelianContext
    k: int
    b: Fraction = Fraction(0)
    t: Q3 = Q3(1)

    def __post_init__(self):
        _check_level(self.k, self.ctx.g)
        object.__setattr__(self, "b", as_fraction(self.b))
        object.__setattr__(self, "t", as_q3(self.t))
        if self.t.sign() <= 0:
            raise ValueError(f"omega scale t must be positive, got {self.t}")


def _check_level(k, g: int) -> None:
    """The level rule: k is an integer, not a bool, in 1..g."""
    if not isinstance(k, int) or isinstance(k, bool):
        raise ValueError(f"level k must be an integer, got {k!r}")
    if not 1 <= k <= g:
        raise ValueError(f"level k must lie in 1..{g}, got {k}")


def _split(e) -> tuple[CohClass, int]:
    if isinstance(e, ShiftedClass):
        return e.cls, e.shift
    if isinstance(e, CohClass):
        return e, 0
    raise TypeError(f"expected CohClass or ShiftedClass, got {e!r}")


def _charge_ints(ctx: AbelianContext, e: CohClass, k: int) -> tuple[list[int], int]:
    """Coefficients a_0..a_g, constant term first, of the plain truncated
    integral n * sum_{i <= k} c_i * (-beta)^(g-i) / (g-i)! as a polynomial
    in beta (a_m = n * c_(g-m) * (-1)^m / m! when g - m <= k, else 0), as
    integer numerators N_m over one denominator den = n_den * c_den * g!.
    With C_i / c_den the stored coefficients of e,
    N_m = (-1)^m * n_num * C_(g-m) * g!/m!."""
    _require_match(e.ctx, ctx, "charge")
    g, n = ctx.g, ctx.n
    cs, c_den = e._nums, e._den
    nums = [0] * (g + 1)
    f = n.numerator  # n_num * g!/m!, built downwards from m = g
    for m in range(g, max(g - k, 0) - 1, -1):
        nums[m] = -f * cs[g - m] if m % 2 else f * cs[g - m]
        f *= m
    return nums, n.denominator * c_den * factorial(g)


def _horner_ints(nums: Sequence[int], den: int, beta: SurdComplex, turns: int) -> SurdComplex:
    """i^turns * sum_m (nums[m]/den) * beta^m for integers nums and den > 0.

    With beta = (X + i*Y)/D, X and Y in Z[sqrt 3] over the common
    denominator D of its parts, the homogenised Horner step
    acc <- acc * (X + i*Y) + nums[m] * D^(deg - m) ends at D^deg times the
    sum.  acc is an integer 4-tuple (Re and Im in Z[sqrt 3]); the quarter
    turns permute and negate it, and the two Q3 parts are built last."""
    a1, b1, d1 = beta.re._abd
    a2, b2, d2 = beta.im._abd
    d = d1 if d1 == d2 else lcm(d1, d2)
    xa, xb = a1 * (d // d1), b1 * (d // d1)
    ya, yb = a2 * (d // d2), b2 * (d // d2)
    ra, rb, ia, ib = nums[-1], 0, 0, 0
    dp = 1  # D^(deg - m)
    for m in range(len(nums) - 2, -1, -1):
        dp *= d
        ra, rb, ia, ib = (
            ra * xa + 3 * rb * xb - ia * ya - 3 * ib * yb + nums[m] * dp,
            ra * xb + rb * xa - ia * yb - ib * ya,
            ra * ya + 3 * rb * yb + ia * xa + 3 * ib * xb,
            ra * yb + rb * ya + ia * xb + ib * xa,
        )
    turns %= 4
    if turns & 2:
        ra, rb, ia, ib = -ra, -rb, -ia, -ib
    if turns & 1:
        ra, rb, ia, ib = -ia, -ib, ra, rb
    q = den * dp
    return SurdComplex._new(Q3._new(ra, rb, q), Q3._new(ia, ib, q))


def charge_at(ctx: AbelianContext, beta: SurdComplex, e: CohClass, k: int) -> SurdComplex:
    """Exact level-k charge of e at the complexified parameter beta*l."""
    # -(i^(g-k)) is i^(g-k+2): two more quarter turns
    return _horner_ints(*_charge_ints(ctx, e, k), beta, ctx.g - k + 2)


def charge(spec: ChargeSpec, e) -> SurdComplex:
    """Exact charge of a class, with the (-1)^shift sign of any explicit
    homological shift folded in."""
    cls, shift = _split(e)
    z = charge_at(spec.ctx, SurdComplex._new(as_q3(spec.b), spec.t), cls, spec.k)
    return -z if shift % 2 else z


def slope(spec: ChargeSpec, e) -> Q3 | None:
    """-Re/Im of the charge; None encodes slope +infinity (Im = 0)."""
    return _slope_of(charge(spec, e))


def _slope_of(z: SurdComplex) -> Q3 | None:
    return None if z.im.sign() == 0 else -z.re / z.im


def slope_cmp(a: Q3 | None, b: Q3 | None) -> int:
    """Compare two slopes, None being +infinity."""
    if a is None and b is None:
        return 0
    if a is None:
        return 1
    if b is None:
        return -1
    return (a - b).sign()


def _check_heart_value(z: SurdComplex) -> None:
    imsg = z.im.sign()
    if imsg < 0 or (imsg == 0 and z.re.sign() > 0):
        raise HeartValueError(
            f"charge {z} lies outside the closed upper half-plane union R<=0"
        )


def phase(spec: ChargeSpec, e) -> float | None:
    """arg(Z)/pi + shift as a float display value, from parts rounded once
    from their exact integers, None when Z = 0 (kernel class).  Raises HeartValueError for values in
    the open lower half-plane or on the positive real axis."""
    cls, shift = _split(e)
    z = charge(spec, cls)
    if z.is_zero:
        return None
    _check_heart_value(z)
    return _display_phase(z) + shift  # base phase in (0, 1] for heart values


def _display_phase(z: SurdComplex) -> float:
    """arg(z)/pi for z != 0 as a float.  Both exact parts are first scaled
    by one power of two, read off their integer bit lengths, into float
    range; atan2 does not change under a common positive scale."""
    e = max(
        max(a.bit_length(), b.bit_length()) - d.bit_length()
        for a, b, d in (z.re._abd, z.im._abd)
        if a or b
    )
    s = Fraction(1, 1 << e) if e >= 0 else 1 << -e
    return atan2(float(z.im * s), float(z.re * s)) / pi


def phase_cmp(spec: ChargeSpec, e, bound: Fraction) -> int:
    """Sign of (phase(e) - bound).  Decided exactly against the bound when
    its denominator, after removing the integer shift, divides 12, and
    otherwise against the two multiples of 1/12 around it; display values
    are compared only when the phase lies strictly between those two.
    Raises on undefined phase."""
    cls, shift = _split(e)
    z = charge(spec, cls)
    if z.is_zero:
        raise HeartValueError("phase undefined: charge vanishes (kernel class)")
    _check_heart_value(z)
    y = as_fraction(bound) - shift  # compare base phase in (0, 1] against y
    if y <= 0:
        return 1
    if y > 1:
        return -1
    lo = Fraction(floor(12 * y), 12)
    if lo == y:
        return _side(z, y)
    # the twelfths on either side of y decide unless the phase lies between
    if lo and _side(z, lo) <= 0:
        return -1
    if _side(z, lo + Fraction(1, 12)) >= 0:
        return 1
    # documented float fallback inside a twelfth-gap around the bound
    diff = _display_phase(z) - float(y)
    return 0 if diff == 0 else (1 if diff > 0 else -1)


def _side(z: SurdComplex, y: Fraction) -> int:
    """Sign of (arg(z)/pi - y) for arg(z)/pi and y in (0, 1], 12y integral:
    the sign of sin(arg(z) - y*pi), i.e. of Im(z * conj(d)) for the
    direction d of angle y*pi."""
    d = direction_pi(y)
    return (z.im * d.re - z.re * d.im).sign()


def in_slice(spec: ChargeSpec, e, window: tuple[Fraction, Fraction]) -> bool:
    """Membership of the phase in the half-open window (a, b], including any
    explicit shift carried by the class."""
    a, b = window
    return phase_cmp(spec, e, as_fraction(a)) > 0 and phase_cmp(spec, e, as_fraction(b)) <= 0


@dataclass(frozen=True)
class HeartLevel:
    """One level of the conjectural tower: the level-k charge, a description
    of the heart it is paired with, and the tilting window producing the
    next heart."""

    k: int
    charge: ChargeSpec
    heart: str
    window: tuple[Fraction, Fraction]

    @property
    def is_top(self) -> bool:
        return self.k == self.charge.ctx.g


def heart_tower(ctx: AbelianContext, b, t) -> list[HeartLevel]:
    """Descriptors for levels k = 1..g: level 1 pairs with coherent sheaves,
    each later heart is the tilt of the previous one across phases in
    (1/2, 3/2].  Only descriptors are produced; no filtration existence
    claim is made."""
    window = (Fraction(1, 2), Fraction(3, 2))
    levels = []
    for k in range(1, ctx.g + 1):
        desc = "Coh" if k == 1 else f"tilt of level {k - 1} heart across (1/2, 3/2]"
        levels.append(HeartLevel(k, ChargeSpec(ctx, k, b, t), desc, window))
    return levels


@dataclass(frozen=True)
class HNPolygon:
    """Polygon of a factor sequence: partial sums of (Im Z, -Re Z) from the
    origin.  The x coordinates never decrease.  The polygon is valid when
    its geometric edges, with collinear steps merged, have strictly
    decreasing slopes, equivalently when the factor slopes never increase.
    sorted_order lists the factor indices in non-increasing slope order."""

    vertices: tuple[tuple[Q3, Q3], ...]
    slopes: tuple[Q3 | None, ...]
    valid: bool
    sorted_order: tuple[int, ...]


def hn_polygon(factors: Sequence, spec: ChargeSpec) -> HNPolygon:
    """Polygon of an ordered factor list, plus the sorted-by-slope order for
    plumbing an unordered multiset.  Factors whose charge lies in the open
    lower half-plane or on the positive real axis are rejected."""
    zs = []
    for idx, f in enumerate(factors):
        z = charge(spec, f)
        try:
            _check_heart_value(z)
        except HeartValueError as exc:
            raise HeartValueError(f"factor {idx}: {exc}") from None
        zs.append(z)
    x = Q3(0)
    y = Q3(0)
    vertices = [(x, y)]
    slopes: list[Q3 | None] = []
    for z in zs:
        x = x + z.im
        y = y - z.re
        vertices.append((x, y))
        slopes.append(_slope_of(z))
    valid = all(
        slope_cmp(slopes[i], slopes[i + 1]) >= 0 for i in range(len(slopes) - 1)
    )
    by_slope = cmp_to_key(lambda i, j: slope_cmp(slopes[j], slopes[i]))
    order = sorted(range(len(slopes)), key=by_slope)
    return HNPolygon(tuple(vertices), tuple(slopes), valid, tuple(order))


@dataclass(frozen=True)
class BGVerdict:
    """Outcome of the threefold degree-three bound.

    precondition_zero_slope records whether the level-2 charge has zero real
    part without vanishing outright, the situation the bound is aimed at;
    kernel classes report False.  inequality_holds compares the integrated
    degree-three twisted coefficient against (t^2/18) times the degree-one
    one.  Both sides are reported."""

    precondition_zero_slope: bool
    inequality_holds: bool
    lhs: Q3
    rhs: Q3
    charge2: SurdComplex


def bg_check(ctx: AbelianContext, b, t, e: CohClass) -> BGVerdict:
    """Exact degree-three bound ch_3^B * n <= (t^2/18) * ch_1^B * n on a
    threefold (g = 3).  Larger t never falsifies a true verdict when the
    twisted degree-one coefficient is nonnegative."""
    if ctx.g != 3:
        raise ValueError(f"bg_check needs g = 3, got g = {ctx.g}")
    _require_match(e.ctx, ctx, "bg_check")
    spec = ChargeSpec(ctx, 2, b, t)  # validates b and t
    b, t = spec.b, spec.t
    tw = twist(e, b)
    z2 = charge_at(ctx, SurdComplex(Q3(b), t), e, 2)
    precondition = z2.re.sign() == 0 and not z2.is_zero
    lhs = Q3(tw.c[3] * ctx.n)
    rhs = (t * t) * Fraction(tw.c[1] * ctx.n, 18)
    return BGVerdict(
        precondition_zero_slope=precondition,
        inequality_holds=(rhs - lhs).sign() >= 0,
        lhs=lhs,
        rhs=rhs,
        charge2=z2,
    )
