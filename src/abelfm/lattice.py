"""Exact arithmetic on the rank-one numerical cohomology lattice of a
polarized abelian variety.

A context fixes the dimension g and the top self-intersection number
n = l^g > 0 of a fixed ample generator l.  A class is the coefficient
vector (c_0, ..., c_g) of sum_i c_i l^i, every entry an exact rational.
The product truncates above degree g, integration reads off the top
coefficient times n, and the remaining operations implement the usual
numerical calculus of Chern characters inside this lattice: divided-power
exponentials, B-field twists, the degree-alternating dual, the pairing
<a, b> = -integral(dual(a) * b), and the factorial-rescaled coordinates
used by the transform module.  A ShiftedClass carries a class with an
explicit homological shift, which flattens to the sign (-1)^shift.

A class stores integer numerators C_0..C_g over one denominator D, with
D > 0 and gcd(C_0, ..., C_g, D) = 1.  That form is unique, so equality
compares integers, and every internal result is brought to it by one gcd
in `CohClass._new`.  The coefficients c_i = C_i / D are built as Fractions
only when `c` is read.  Products run on one private integer kernel, shared
with the transform and stability modules: `_exp_ints` writes a
divided-power exponential as numerators over one denominator, and `_conv`
is the truncated product of two numerator lists.

All types are immutable and all operations are pure functions.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from math import factorial, gcd, lcm

from .surd import as_fraction


class ContextMismatchError(ValueError):
    """Operands live on contexts that differ in (g, n)."""


@dataclass(frozen=True)
class AbelianContext:
    """Dimension g >= 1, top intersection number n = l^g > 0, and a label.

    Labels are purely cosmetic; operations only require (g, n) to agree.
    """

    g: int
    n: Fraction
    label: str = ""

    def __post_init__(self):
        if not isinstance(self.g, int) or isinstance(self.g, bool) or self.g < 1:
            raise ValueError(f"dimension g must be an integer >= 1, got {self.g!r}")
        object.__setattr__(self, "n", as_fraction(self.n))
        if self.n <= 0:
            raise ValueError(f"top intersection n must be positive, got {self.n}")

    def matches(self, other: "AbelianContext") -> bool:
        return self.g == other.g and self.n == other.n

    @property
    def chi(self) -> Fraction:
        """Holomorphic Euler number n / g! of the ample generator."""
        return self.n / factorial(self.g)


def chi_advisory(ctx: AbelianContext) -> str | None:
    """Non-fatal sanity flag: the Euler number n / g! of an honest ample
    class is an integer.  Fractional n is still accepted everywhere (scaled
    and dual contexts produce it legitimately), so this only returns a
    warning line, never raises."""
    if ctx.chi.denominator == 1:
        return None
    who = f" on {ctx.label}" if ctx.label else ""
    return f"advisory: chi = n/g! = {ctx.chi}{who} is not an integer"


def _require_match(a: AbelianContext, b: AbelianContext, op: str) -> None:
    if a is not b and not a.matches(b):
        raise ContextMismatchError(
            f"{op}: context mismatch, (g={a.g}, n={a.n}) vs (g={b.g}, n={b.n})"
        )


class CohClass:
    """Coefficients (c_0, ..., c_g) of a class sum_i c_i l^i, stored as
    integer numerators (C_0, ..., C_g) over one denominator D > 0 with
    gcd(C_0, ..., C_g, D) = 1."""

    __slots__ = ("ctx", "_nums", "_den")

    def __new__(cls, ctx: AbelianContext, c):
        coeffs = [as_fraction(x) for x in c]
        if len(coeffs) != ctx.g + 1:
            raise ValueError(f"class needs {ctx.g + 1} coefficients, got {len(coeffs)}")
        return CohClass._new(ctx, *_ints(coeffs))

    @staticmethod
    def _new(ctx: AbelianContext, nums, den: int) -> "CohClass":
        """The class with coefficients nums[i] / den for integers nums and
        den != 0, brought to canonical form by one gcd; the sign of a
        negative den moves to the numerators."""
        g = gcd(*nums, den)
        if den < 0:
            g = -g
        if g != 1:
            nums, den = tuple([x // g for x in nums]), den // g
        e = _object_new(CohClass)
        _set_ctx(e, ctx)
        _set_nums(e, tuple(nums))
        _set_den(e, den)
        return e

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (CohClass, (self.ctx, self.c))

    @property
    def c(self) -> tuple[Fraction, ...]:
        den = self._den
        return tuple(Fraction(x, den) for x in self._nums)

    @classmethod
    def zero(cls, ctx: AbelianContext) -> "CohClass":
        return CohClass._new(ctx, (0,) * (ctx.g + 1), 1)

    @property
    def is_zero(self) -> bool:
        return not any(self._nums)

    def scale(self, q) -> "CohClass":
        q = as_fraction(q)
        p = q.numerator
        return CohClass._new(self.ctx, [p * x for x in self._nums], self._den * q.denominator)

    def _sum(self, other, sign: int, op: str):
        """self + sign*other for sign 1 or -1, over d1 when the denominators
        agree and over d1*d2 otherwise."""
        if not isinstance(other, CohClass):
            return NotImplemented
        _require_match(self.ctx, other.ctx, op)
        d1, d2 = self._den, other._den
        m1, m2 = (1, sign) if d1 == d2 else (d2, sign * d1)
        nums = [a * m1 + b * m2 for a, b in zip(self._nums, other._nums)]
        return CohClass._new(self.ctx, nums, d1 * m1)

    def __add__(self, other: "CohClass") -> "CohClass":
        return self._sum(other, 1, "add")

    def __sub__(self, other: "CohClass") -> "CohClass":
        return self._sum(other, -1, "sub")

    def __neg__(self) -> "CohClass":
        return CohClass._new(self.ctx, self._nums, -self._den)

    def __mul__(self, other):
        if isinstance(other, CohClass):
            return mul(self, other)
        try:
            return self.scale(other)
        except TypeError:
            return NotImplemented

    def __rmul__(self, other):
        try:
            return self.scale(other)
        except TypeError:
            return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, CohClass):
            return NotImplemented
        return (
            self._den == other._den
            and self._nums == other._nums
            and (self.ctx is other.ctx or self.ctx == other.ctx)
        )

    def __hash__(self):
        return hash((self.ctx, self._nums, self._den))

    def __repr__(self):
        return f"CohClass(ctx={self.ctx!r}, c={self.c!r})"

    def __str__(self):
        return ",".join(str(x) for x in self.c)


_object_new = object.__new__
_set_ctx = CohClass.__dict__["ctx"].__set__
_set_nums = CohClass.__dict__["_nums"].__set__
_set_den = CohClass.__dict__["_den"].__set__


@dataclass(frozen=True)
class ShiftedClass:
    """A lattice class together with an explicit homological shift.

    The shift is bookkeeping for phases; flatten() folds it into the class
    as the cohomological sign (-1)^shift, since ch(E[n]) = (-1)^n ch(E)."""

    cls: CohClass
    shift: int = 0

    def __post_init__(self):
        if not isinstance(self.shift, int) or isinstance(self.shift, bool):
            raise ValueError(f"shift must be an integer, got {self.shift!r}")

    def flatten(self) -> CohClass:
        return self.cls.scale((-1) ** self.shift)

    def shifted(self, k: int) -> "ShiftedClass":
        return ShiftedClass(self.cls, self.shift + k)


@dataclass(frozen=True)
class VVector:
    """Factorial-rescaled twisted coordinates v_i = i! * n * c_i^B of a class,
    taken with respect to the B-field B = b*l."""

    ctx: AbelianContext
    b: Fraction
    v: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "b", as_fraction(self.b))
        entries = tuple(as_fraction(x) for x in self.v)
        if len(entries) != self.ctx.g + 1:
            raise ValueError(
                f"v-vector needs {self.ctx.g + 1} entries, got {len(entries)}"
            )
        object.__setattr__(self, "v", entries)


def _ints(xs) -> tuple[list[int], int]:
    """Integer numerators of the reduced rationals xs over their least
    common denominator; no prime divides every numerator and that
    denominator, so the pair is already canonical."""
    den = lcm(*(x.denominator for x in xs))
    return [x.numerator * (den // x.denominator) for x in xs], den


def _exp_ints(d: Fraction, g: int) -> tuple[list[int], int]:
    """Numerators of e^{d*l} = sum d^i/i! l^i over the denominator q^g g!,
    where d = p/q; the i-th numerator is p^i q^(g-i) g!/i!."""
    p, q = d.numerator, d.denominator
    den = q**g * factorial(g)
    out = [den]
    for i in range(1, g + 1):
        out.append(out[-1] * p // (q * i))  # exact: q and i divide it
    return out, den


def _conv(a: list[int], b: list[int]) -> list[int]:
    """Product of two numerator lists of equal length g + 1, truncated above
    degree g."""
    g = len(a) - 1
    out = [0] * (g + 1)
    for i, ai in enumerate(a):
        if ai:
            for j in range(g + 1 - i):
                out[i + j] += ai * b[j]
    return out


def mul(a: CohClass, b: CohClass) -> CohClass:
    """Cup product, truncated above degree g."""
    _require_match(a.ctx, b.ctx, "mul")
    return CohClass._new(a.ctx, _conv(a._nums, b._nums), a._den * b._den)


def integrate(a: CohClass) -> Fraction:
    """Integral over the variety: top coefficient times n."""
    n = a.ctx.n
    return Fraction(a._nums[-1] * n.numerator, a._den * n.denominator)


def exp_div(b, ctx: AbelianContext) -> CohClass:
    """Divided-power exponential e^{b*l} = sum b^i/i! * l^i, truncated."""
    return CohClass._new(ctx, *_exp_ints(as_fraction(b), ctx.g))


def twist(a: CohClass, b) -> CohClass:
    """B-field twist ch^B = e^{-b*l} * a for B = b*l."""
    ne, de = _exp_ints(-as_fraction(b), a.ctx.g)
    return CohClass._new(a.ctx, _conv(ne, a._nums), de * a._den)


def mukai_dual(a: CohClass) -> CohClass:
    """Degree-alternating dual: c_i goes to (-1)^i c_i."""
    return CohClass._new(a.ctx, [-x if i & 1 else x for i, x in enumerate(a._nums)], a._den)


def mukai_pairing(a: CohClass, b: CohClass) -> Fraction:
    """<a, b> = -integral(dual(a) * b).  Bilinear; on this even lattice it is
    (-1)^g-symmetric, which the verification report measures rather than
    asserts."""
    _require_match(a.ctx, b.ctx, "mukai_pairing")
    return -integrate(mul(mukai_dual(a), b))


def v_vector(a: CohClass, b) -> VVector:
    """Coordinates v_i = i! * n * c_i^B of a after twisting by B = b*l."""
    tw = twist(a, b)
    n = a.ctx.n
    return VVector(
        a.ctx,
        as_fraction(b),
        tuple(factorial(i) * n * tw.c[i] for i in range(a.ctx.g + 1)),
    )


def from_v_vector(vv: VVector) -> CohClass:
    """Inverse of v_vector: rescale back and remove the recorded twist."""
    n = vv.ctx.n
    twisted = CohClass(
        vv.ctx,
        tuple(vv.v[i] / (factorial(i) * n) for i in range(vv.ctx.g + 1)),
    )
    return twist(twisted, -vv.b)


def structure_sheaf(ctx: AbelianContext) -> CohClass:
    """Chern character (1, 0, ..., 0)."""
    return CohClass(ctx, (Fraction(1),) + (Fraction(0),) * ctx.g)


def skyscraper(ctx: AbelianContext) -> CohClass:
    """Point class: integrates to 1, so the top coefficient is 1/n."""
    return CohClass(ctx, (Fraction(0),) * ctx.g + (1 / ctx.n,))


def line_bundle(ctx: AbelianContext, d) -> CohClass:
    """Chern character e^{d*l} of a line bundle of slope d."""
    return exp_div(d, ctx)


def semihomogeneous(ctx: AbelianContext, r: int, d) -> CohClass:
    """Chern character r * e^{d*l} of a slope-d semihomogeneous bundle of
    rank r; the slope d = c_1/r may be any rational."""
    if not isinstance(r, int) or isinstance(r, bool) or r <= 0:
        raise ValueError(f"rank must be a positive integer, got {r!r}")
    return exp_div(d, ctx).scale(r)


def divided_power_basis(ctx: AbelianContext) -> list[CohClass]:
    """The classes l^i / i!, i = 0..g; a convenient exact basis."""
    out = []
    for i in range(ctx.g + 1):
        c = [Fraction(0)] * (ctx.g + 1)
        c[i] = Fraction(1, factorial(i))
        out.append(CohClass(ctx, tuple(c)))
    return out
