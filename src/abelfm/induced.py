"""How a transform carries central charges from one side to the other.

Evaluating the full (level g) charge of a source class at the complexified
polarization -d_x*l + u*l, with u a nonzero polar scalar, equals zeta times
the full charge of the transformed class at d_y*l - l/u on the target,
where zeta = r * n_X * u^g / g!.  The scalar zeta is kept in exact polar
form, so its reality is decidable: it is real precisely when g times the
angle of u is an integer multiple of pi, and for angles k*pi/g (k = 1..g-1)
it is real with sign (-1)^k.

Both sides of the identity are polynomials in u over Q (zeta's u^g clears
the powers of 1/u), so it is decided exactly, for every angle and every g,
by comparing coefficients.  Each side is built on integers with the B-field
twist ch^B = e^{-B}*ch: the charge of a class at h + u is the charge of its
twist by h at u.  So the source side is the charge polynomial of the class
twisted by -d_x, and the target side that of its image twisted by d_y.
Each is a list of integer numerators over one denominator, and the two
sides are compared by cross-multiplying.  The identity does not depend on
u, so transport_law decides it once per transform and class; a verdict at
u only picks the values shown.  They are shown over Q(sqrt 3) when the
angle of u lies in the pi/6 family (every k*pi/g with g in {1, 2, 3, 6}),
and as coefficient lists in u otherwise.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd
from typing import Sequence

from .lattice import AbelianContext, CohClass, twist
from .stability import _charge_ints, _horner_ints
from .surd import PolarScalar, SurdComplex, as_fraction
from .transform import FMTransformSpec, apply


def _require_upper_half_plane(u: PolarScalar) -> None:
    """Reject u unless its angle lies strictly between 0 and pi."""
    if not 0 < u.angle < 1:
        raise ValueError(f"u must lie in the open upper half-plane, got angle {u.angle}*pi")


@dataclass(frozen=True)
class ComplexAmpleClass:
    """The complexified polarization (base + u) * l: an exact rational base
    plus a polar scalar u in the open upper half-plane."""

    ctx: AbelianContext
    base: Fraction
    u: PolarScalar

    def __post_init__(self):
        object.__setattr__(self, "base", as_fraction(self.base))
        _require_upper_half_plane(self.u)

    def as_surd(self) -> SurdComplex | None:
        """Rectangular form over Q(sqrt 3), or None when the angle of u lies
        outside the pi/6 family."""
        rect = self.u.to_exact()
        return None if rect is None else rect + self.base

    def __str__(self):
        rect = self.as_surd()
        if rect is None:
            return f"({self.base}) + ({self.u})"
        return str(rect)


@dataclass(frozen=True)
class InducedChargeLaw:
    """The matched pair of charge parameters for one transform and one polar
    scalar u: source side b_X + i*t_X = -d_x + u, target side
    b_Y + i*t_Y = d_y - 1/u, and the exact polar factor zeta relating the
    two full charges."""

    spec: FMTransformSpec
    u: PolarScalar
    zeta: PolarScalar
    omega_src: ComplexAmpleClass
    omega_dst: ComplexAmpleClass


def zeta(spec: FMTransformSpec, u: PolarScalar) -> PolarScalar:
    """The exact polar factor r * n_X * u^g / g!, built on integers: with
    n_X = a/b and |u| = p/q its modulus is the one Fraction
    r * a * p^g / (b * q^g * g!), and its angle is g times the angle of u,
    which PolarScalar normalizes into (-1, 1]."""
    g = spec.g
    n, m = spec.src.n, u.modulus
    modulus = Fraction(
        spec.r * n.numerator * m.numerator**g, n.denominator * m.denominator**g * factorial(g)
    )
    return PolarScalar(modulus, u.angle * g)


def induced_law(spec: FMTransformSpec, u: PolarScalar) -> InducedChargeLaw:
    """Charge parameters on both sides for the scalar u, which must lie in
    the open upper half-plane (angle strictly between 0 and pi)."""
    omega_src = ComplexAmpleClass(spec.src, -spec.d_x, u)
    # -1/u has modulus 1/|u| and angle pi minus the angle of u
    omega_dst = ComplexAmpleClass(spec.dst, spec.d_y, PolarScalar(1 / u.modulus, 1 - u.angle))
    return InducedChargeLaw(spec, u, zeta(spec, u), omega_src, omega_dst)


def real_zeta_angles(g: int) -> list[Fraction]:
    """Angles of u, in multiples of pi, for which zeta is real and u is not:
    k/g for k = 1..g-1."""
    if not isinstance(g, int) or isinstance(g, bool) or g < 1:
        raise ValueError(f"dimension must be an integer >= 1, got {g!r}")
    return [Fraction(k, g) for k in range(1, g)]


def conjecture_params(
    spec: FMTransformSpec, k: int, lam
) -> tuple[ComplexAmpleClass, ComplexAmpleClass]:
    """The matched polarization pair at angle k*pi/g and modulus lam > 0:

        source: (-d_x + lam*cos(k*pi/g)) * l + i * lam*sin(k*pi/g) * l
        target: (d_y - cos(k*pi/g)/lam) * l + i * sin(k*pi/g)/lam * l

    Rectangular over Q(sqrt 3) whenever k*pi/g lies in the pi/6 family.
    Applying this to the quasi-inverse with k -> g-k and lam -> 1/lam
    exchanges the two sides exactly."""
    g = spec.g
    if g < 2:  # no angle k*pi/g with 1 <= k <= g-1
        raise ValueError(f"matched parameters need g >= 2, got g = {g}")
    if not isinstance(k, int) or isinstance(k, bool) or not 1 <= k <= g - 1:
        raise ValueError(f"angle index k must lie in 1..{g - 1}, got {k!r}")
    lam = as_fraction(lam)
    if lam <= 0:
        raise ValueError(f"modulus lam must be positive, got {lam}")
    law = induced_law(spec, PolarScalar(lam, Fraction(k, g)))
    return law.omega_src, law.omega_dst


def _law_ints(spec: FMTransformSpec, e: CohClass) -> tuple[list[int], int, list[int], int]:
    """Both sides of the transport identity as integer numerators over one
    denominator each: (lhs numerators, lhs denominator, rhs numerators,
    rhs denominator), coefficients in u with the constant term first.  The
    source side is minus the plain integral of e twisted by -d_x.  With q
    the plain integral of the image twisted by d_y, the target side is
    zeta(u) * -q(-1/u) = -c * sum_j q_j (-1)^j u^(g-j), where
    zeta(u) = c * u^g and c = r * n_X / g! = cn / cd on integers."""
    g = spec.g
    ln, ld = _charge_ints(spec.src, twist(e, -spec.d_x), g)
    qn, qd = _charge_ints(spec.dst, twist(apply(spec, e), spec.d_y), g)
    n = spec.src.n
    cn, cd = spec.r * n.numerator, n.denominator * factorial(g)
    # coefficient i of the target side is c * (-1)^(j+1) * q_j with j = g - i
    rn = [cn * qn[g - i] if (g - i) & 1 else -cn * qn[g - i] for i in range(g + 1)]
    return [-x for x in ln], ld, rn, qd * cd


@dataclass(frozen=True)
class LawVerdict:
    """One checked instance of the charge transport identity.  lhs and rhs
    are the two sides at u, or their coefficient lists in u (constant term
    first) when u has no rectangular form over Q(sqrt 3).  equal compares
    coefficients, so every verdict is exact."""

    label: str
    lhs: SurdComplex | tuple[Fraction, ...]
    rhs: SurdComplex | tuple[Fraction, ...]
    equal: bool
    exact = True

    def to_record(self) -> dict:
        def fmt(v):
            if isinstance(v, SurdComplex):
                return {"re": str(v.re), "im": str(v.im)}
            return {"u_coeffs": [str(c) for c in v]}

        return {
            "label": self.label,
            "lhs": fmt(self.lhs),
            "rhs": fmt(self.rhs),
            "equal": self.equal,
            "exact": self.exact,
        }


def _shown(nums: Sequence[int], den: int, rect: SurdComplex | None):
    """One side at u: sum_i nums[i]/den * u^i over Q(sqrt 3) when u has the
    rectangular form rect, else its coefficient list in u."""
    if rect is None:
        return tuple(Fraction(x, den) for x in nums)
    return _horner_ints(nums, den, rect, 0)


@dataclass(frozen=True)
class TransportLaw:
    """Both sides of the transport identity for one transform and one
    class, as _law_ints builds them: integer numerators in u (constant term
    first) over one positive denominator each.  The identity is u-free, so
    equal is decided once, by cross-multiplying the coefficients; verdict(u)
    only picks the values shown at u."""

    lhs_nums: tuple[int, ...]
    lhs_den: int
    rhs_nums: tuple[int, ...]
    rhs_den: int
    equal: bool

    def verdict(self, u: PolarScalar, label: str) -> LawVerdict:
        """The LawVerdict at u, which must lie in the open upper half-plane:
        both sides at u over Q(sqrt 3), or their coefficient lists in u when
        the angle of u lies outside the pi/6 family."""
        _require_upper_half_plane(u)
        rect = u.to_exact()
        return LawVerdict(
            label,
            _shown(self.lhs_nums, self.lhs_den, rect),
            _shown(self.rhs_nums, self.rhs_den, rect),
            self.equal,
        )


def transport_law(spec: FMTransformSpec, e: CohClass) -> TransportLaw:
    """The transport identity of e under spec, decided once for every u."""
    ln, ld, rn, rd = _law_ints(spec, e)
    return TransportLaw(tuple(ln), ld, tuple(rn), rd, all(x * rd == y * ld for x, y in zip(ln, rn)))


def verify_induced_law(
    spec: FMTransformSpec, u: PolarScalar, basis: Sequence[CohClass]
) -> list[LawVerdict]:
    """Check, class by class, that the source charge at -d_x + u equals zeta
    times the target charge of the image at d_y - 1/u, as polynomials in u.
    Each class's identity is decided once by its transport_law; u only
    picks the values that each verdict shows."""
    _require_upper_half_plane(u)
    return [transport_law(spec, e).verdict(u, f"e{idx}") for idx, e in enumerate(basis)]


def _show(v) -> str:
    if isinstance(v, SurdComplex):
        return str(v)
    return "[" + ", ".join(str(c) for c in v) + "]"


def render_verdicts(verdicts: Sequence[LawVerdict]) -> str:
    """Human-readable table plus one JSON line per verdict."""
    lines = [f"{'label':<8} {'equal':<6} {'exact':<6} lhs | rhs"]
    for v in verdicts:
        lines.append(
            f"{v.label:<8} {str(v.equal):<6} {str(v.exact):<6} {_show(v.lhs)} | {_show(v.rhs)}"
        )
    lines.append("")
    for v in verdicts:
        lines.append(json.dumps(v.to_record(), sort_keys=True))
    return "\n".join(lines)


@dataclass(frozen=True)
class PhaseShiftVerdict:
    """Whether arg Z_target(image) = arg Z_source(class) - arg zeta held
    (mod 2*pi), along with the heart shift that arg zeta predicts: the
    nearest integer to g*angle(u), e.g. 1 at the angles k*pi/g with k = 1
    used by the matched polarization pairs."""

    holds: bool
    expected_shift: int
    zeta: PolarScalar
    exact = True


def _divmod_monic(p: Sequence, d: Sequence[int]) -> tuple[list, list]:
    """Quotient and remainder of p by the monic d, constant terms first."""
    p = list(p)
    k = len(d) - 1
    q = [0] * max(len(p) - k, 0)
    for i in range(len(q) - 1, -1, -1):
        q[i] = c = p[i + k]
        if c:
            for j, dj in enumerate(d):
                p[i + j] -= c * dj
    return q, p[:k]


@lru_cache(maxsize=None)
def _cyclotomic(n: int) -> tuple[int, ...]:
    """The n-th cyclotomic polynomial: x^n - 1 divided by the cyclotomic
    polynomials of the proper divisors of n."""
    p = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            p = _divmod_monic(p, _cyclotomic(d))[0]
    return tuple(p)


def _vanishes_at(coeffs: Sequence, u: PolarScalar) -> bool:
    """Whether sum_m coeffs[m] * u^m = 0 for rational coeffs.  With
    u = lam * w, lam = p/s and w a primitive N-th root of unity, that holds
    exactly when Phi_N, the minimal polynomial of w over Q, divides
    sum_m coeffs[m] * p^m * s^(deg - m) * x^m, which has integer
    coefficients when coeffs are integers."""
    p, s = u.modulus.numerator, u.modulus.denominator
    deg = len(coeffs) - 1
    r = [c * p**m * s ** (deg - m) for m, c in enumerate(coeffs)]
    a = u.angle  # w = exp(i*pi*a)
    n = 2 * a.denominator // gcd(a.numerator, 2)
    if n > 2 * len(r) ** 2:  # deg Phi_n = phi(n) >= sqrt(n/2) > deg r
        return not any(r)
    return not any(_divmod_monic(r, _cyclotomic(n))[1])


def phase_shift_check(spec: FMTransformSpec, u: PolarScalar, e: CohClass) -> PhaseShiftVerdict:
    """Exact test of the phase transport relation for a single class with
    nonvanishing source charge.  It holds when the transport identity holds
    as polynomials in u: then Z_source = zeta * Z_target at u, and both are
    nonzero."""
    _require_upper_half_plane(u)
    law = transport_law(spec, e)
    if _vanishes_at(law.lhs_nums, u):
        raise ValueError("phase shift undefined: source charge vanishes")
    expected = int(round(u.angle * spec.g))  # arg(zeta)/pi before normalization
    return PhaseShiftVerdict(law.equal, expected, zeta(spec, u))
