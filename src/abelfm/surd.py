"""Exact scalars for the charge calculus: the real quadratic field Q(sqrt 3),
its complexification, and polar scalars whose angle is a rational multiple
of pi.

Numbers of the form r + s*sqrt(3) with rational r, s are closed under the
four field operations and admit exact sign decisions, so every comparison
made with them is certain, not a float guess.  They contain the cosine
and sine of every multiple of pi/6, which covers the angles k*pi/g for g
in {1, 2, 3, 6}, and a positive multiple of the unit vector at every
multiple of pi/12.  A polar scalar at any other angle stays in polar
form: it has no rectangular form here, and nothing rounds it to one.

Everything in this module is immutable and hashable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

_SQRT3 = math.sqrt(3.0)


def as_fraction(x) -> Fraction:
    """Coerce an int or Fraction to Fraction, rejecting floats and bools."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {x!r}")


@dataclass(frozen=True)
class Q3:
    """The value r + s*sqrt(3) with exact rational r and s."""

    r: Fraction = Fraction(0)
    s: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "r", as_fraction(self.r))
        object.__setattr__(self, "s", as_fraction(self.s))

    @property
    def is_rational(self) -> bool:
        return self.s == 0

    def sign(self) -> int:
        r, s = self.r, self.s
        if s == 0:
            return 0 if r == 0 else (1 if r > 0 else -1)
        if r == 0:
            return 1 if s > 0 else -1
        if (r > 0) == (s > 0):
            return 1 if r > 0 else -1
        # opposite signs: |r| vs |s|*sqrt(3); sqrt(3) irrational so no ties
        if r * r > 3 * s * s:
            return 1 if r > 0 else -1
        return 1 if s > 0 else -1

    @staticmethod
    def _coerce(other) -> "Q3 | None":
        if isinstance(other, Q3):
            return other
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return Q3(Fraction(other))
        return None

    def __add__(self, other):
        o = Q3._coerce(other)
        if o is None:
            return NotImplemented
        return Q3(self.r + o.r, self.s + o.s)

    __radd__ = __add__

    def __sub__(self, other):
        o = Q3._coerce(other)
        if o is None:
            return NotImplemented
        return Q3(self.r - o.r, self.s - o.s)

    def __rsub__(self, other):
        o = Q3._coerce(other)
        if o is None:
            return NotImplemented
        return Q3(o.r - self.r, o.s - self.s)

    def __mul__(self, other):
        o = Q3._coerce(other)
        if o is None:
            return NotImplemented
        return Q3(self.r * o.r + 3 * self.s * o.s, self.r * o.s + self.s * o.r)

    __rmul__ = __mul__

    def _inverse(self) -> "Q3":
        norm = self.r * self.r - 3 * self.s * self.s
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt 3)")
        return Q3(self.r / norm, -self.s / norm)

    def __truediv__(self, other):
        o = Q3._coerce(other)
        if o is None:
            return NotImplemented
        return self * o._inverse()

    def __rtruediv__(self, other):
        o = Q3._coerce(other)
        if o is None:
            return NotImplemented
        return o * self._inverse()

    def __neg__(self):
        return Q3(-self.r, -self.s)

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        out = Q3(1)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        o = Q3._coerce(other)
        if o is None:
            return NotImplemented
        return self.r == o.r and self.s == o.s

    def __hash__(self):
        # rational values must hash like their Fraction counterparts
        return hash(self.r) if self.s == 0 else hash((self.r, self.s))

    def _cmp(self, other) -> int | None:
        if isinstance(other, float):
            if math.isinf(other):
                return -1 if other > 0 else 1
            if math.isnan(other):
                return None
            other = Fraction(other)  # floats are exact binary rationals
        o = Q3._coerce(other)
        if o is None:
            return None
        return (self - o).sign()

    def __lt__(self, other):
        c = self._cmp(other)
        if c is None:
            return NotImplemented
        return c < 0

    def __le__(self, other):
        c = self._cmp(other)
        if c is None:
            return NotImplemented
        return c <= 0

    def __gt__(self, other):
        c = self._cmp(other)
        if c is None:
            return NotImplemented
        return c > 0

    def __ge__(self, other):
        c = self._cmp(other)
        if c is None:
            return NotImplemented
        return c >= 0

    def __bool__(self):
        return self.sign() != 0

    def __float__(self):
        return float(self.r) + float(self.s) * _SQRT3

    def __str__(self):
        if self.s == 0:
            return str(self.r)
        if self.r == 0:
            return f"{self.s}*sqrt3"
        sep = "+" if self.s > 0 else "-"
        return f"{self.r}{sep}{abs(self.s)}*sqrt3"


def _q3(x) -> Q3:
    v = Q3._coerce(x)
    if v is None:
        raise TypeError(f"expected Q3 or exact rational, got {x!r}")
    return v


@dataclass(frozen=True)
class SurdComplex:
    """Complex number with real and imaginary parts in Q(sqrt 3)."""

    re: Q3 = Q3()
    im: Q3 = Q3()

    def __post_init__(self):
        object.__setattr__(self, "re", _q3(self.re))
        object.__setattr__(self, "im", _q3(self.im))

    @property
    def is_zero(self) -> bool:
        return self.re.sign() == 0 and self.im.sign() == 0

    def conj(self) -> "SurdComplex":
        return SurdComplex(self.re, -self.im)

    def times_i(self) -> "SurdComplex":
        return SurdComplex(-self.im, self.re)

    def norm2(self) -> Q3:
        return self.re * self.re + self.im * self.im

    @staticmethod
    def _coerce(other) -> "SurdComplex | None":
        if isinstance(other, SurdComplex):
            return other
        if isinstance(other, (Q3, int, Fraction)) and not isinstance(other, bool):
            return SurdComplex(_q3(other), Q3())
        return None

    def __add__(self, other):
        o = SurdComplex._coerce(other)
        if o is None:
            return NotImplemented
        return SurdComplex(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = SurdComplex._coerce(other)
        if o is None:
            return NotImplemented
        return SurdComplex(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = SurdComplex._coerce(other)
        if o is None:
            return NotImplemented
        return SurdComplex(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = SurdComplex._coerce(other)
        if o is None:
            return NotImplemented
        return SurdComplex(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = SurdComplex._coerce(other)
        if o is None:
            return NotImplemented
        n2 = o.norm2()
        if n2.sign() == 0:
            raise ZeroDivisionError("complex division by zero")
        num = self * o.conj()
        return SurdComplex(num.re / n2, num.im / n2)

    def __rtruediv__(self, other):
        o = SurdComplex._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return SurdComplex(-self.re, -self.im)

    def __eq__(self, other):
        o = SurdComplex._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __str__(self):
        sep = "+" if self.im.sign() >= 0 else "-"
        return f"({self.re}) {sep} ({abs(self.im)})*i"


def normalize_angle(a: Fraction) -> Fraction:
    """Reduce an angle, given in multiples of pi, into (-1, 1]."""
    a = as_fraction(a) % 2
    return a - 2 if a > 1 else a


# cos and sin of f*pi for |f| with denominator dividing 6, f normalized
_HALF = Fraction(1, 2)
_COS_PI = {
    Fraction(0): Q3(1),
    Fraction(1, 6): Q3(0, _HALF),
    Fraction(1, 3): Q3(_HALF),
    Fraction(1, 2): Q3(0),
    Fraction(2, 3): Q3(-_HALF),
    Fraction(5, 6): Q3(0, -_HALF),
    Fraction(1): Q3(-1),
}
_SIN_PI = {
    Fraction(0): Q3(0),
    Fraction(1, 6): Q3(_HALF),
    Fraction(1, 3): Q3(0, _HALF),
    Fraction(1, 2): Q3(1),
    Fraction(2, 3): Q3(0, _HALF),
    Fraction(5, 6): Q3(_HALF),
    Fraction(1): Q3(0),
}


def cos_pi(f: Fraction) -> Q3 | None:
    """Exact cos(f*pi) when available in Q(sqrt 3), else None."""
    return _COS_PI.get(abs(normalize_angle(f)))


def sin_pi(f: Fraction) -> Q3 | None:
    f = normalize_angle(f)
    v = _SIN_PI.get(abs(f))
    if v is None:
        return None
    return -v if f < 0 else v


def direction_pi(f: Fraction) -> SurdComplex | None:
    """A positive multiple of exp(i*f*pi) when 12f is an integer, else None.
    Odd multiples of pi/12 come from the pi/6-family angle f - 1/4: turning
    c + i*s by pi/4 and scaling by sqrt(2) gives (c - s) + i*(c + s)."""
    f = as_fraction(f)
    if (12 * f).denominator != 1:
        return None
    if (6 * f).denominator == 1:
        return SurdComplex(cos_pi(f), sin_pi(f))
    c, s = cos_pi(f - Fraction(1, 4)), sin_pi(f - Fraction(1, 4))
    return SurdComplex(c - s, c + s)


@dataclass(frozen=True)
class PolarScalar:
    """The nonzero complex scalar modulus * exp(i * angle * pi).

    The modulus is an exact positive rational and the angle is stored as the
    reduced fraction alpha/pi, normalized into (-1, 1].  Powers and inverses
    stay in this exact polar form, so reality of a power is decidable.
    """

    modulus: Fraction
    angle: Fraction = Fraction(0)

    def __post_init__(self):
        m = as_fraction(self.modulus)
        if m <= 0:
            raise ValueError(f"polar modulus must be positive, got {m}")
        object.__setattr__(self, "modulus", m)
        object.__setattr__(self, "angle", normalize_angle(as_fraction(self.angle)))

    def power(self, k: int) -> "PolarScalar":
        if not isinstance(k, int):
            raise TypeError("power expects an integer exponent")
        if k >= 0:
            return PolarScalar(self.modulus**k, self.angle * k)
        return self.inverse().power(-k)

    def inverse(self) -> "PolarScalar":
        return PolarScalar(1 / self.modulus, -self.angle)

    @property
    def is_real(self) -> bool:
        return self.angle == 0 or self.angle == 1

    @property
    def real_sign(self) -> int | None:
        if self.angle == 0:
            return 1
        if self.angle == 1:
            return -1
        return None

    def to_exact(self) -> SurdComplex | None:
        """Rectangular form over Q(sqrt 3), or None when the angle needs a
        radical outside the field (for example multiples of pi/4)."""
        c = cos_pi(self.angle)
        if c is None:
            return None
        s = sin_pi(self.angle)
        return SurdComplex(self.modulus * c, self.modulus * s)

    def __str__(self):
        return f"{self.modulus}@{self.angle}"
