"""Exact scalars for the charge calculus: the real quadratic field Q(sqrt 3),
its complexification, and polar scalars whose angle is a rational multiple
of pi.

Numbers of the form r + s*sqrt(3) with rational r, s are closed under the
four field operations and admit exact sign decisions, so every comparison
made with them is certain, not a float guess.  The twelve unit vectors at
the multiples of pi/6, which cover the angles k*pi/g for g in
{1, 2, 3, 6}, are built once, as the exact powers of
exp(i*pi/6) = (sqrt 3 + i)/2; both the rectangular form of a polar scalar
and the direction at a multiple of pi/12 (a positive multiple of its unit
vector) read that one list.  A polar scalar at any other angle stays in
polar form: it has no rectangular form here, and nothing rounds it to one.

A Q3 is stored as one integer triple (a, b, d) standing for
(a + b*sqrt 3)/d, with d > 0 and gcd(a, b, d) = 1.  That form is unique, so
equality compares triples, and each arithmetic result is brought to it by a
single integer gcd.  The rational parts r and s are Fraction views of the
triple.  A float is rounded once from the triple, by an integer square root
and one integer division, so it keeps its sign and size even where a and
b*sqrt 3 nearly cancel.

Everything in this module is immutable and hashable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering, wraps
from math import gcd, isqrt, lcm


def as_fraction(x) -> Fraction:
    """Coerce an int or Fraction to Fraction, rejecting floats and bools."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {x!r}")


def _parts(x) -> "tuple[int, int, int] | None":
    """The canonical (a, b, d) of an int, Fraction or Q3; None otherwise."""
    t = type(x)
    if t is Q3:
        return x._abd
    if t is int:
        return (x, 0, 1)
    if t is Fraction:
        return (x.numerator, 0, x.denominator)
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        return (int(x.numerator), 0, int(x.denominator))
    return None


def _sum(x: tuple[int, int, int], y: tuple[int, int, int], sign: int) -> "Q3":
    """x + sign*y for canonical triples and sign 1 or -1, over d1 when the
    denominators agree and over d1*d2 otherwise."""
    a1, b1, d1 = x
    a2, b2, d2 = y
    m1, m2 = (1, sign) if d1 == d2 else (d2, sign * d1)
    return Q3._new(a1 * m1 + a2 * m2, b1 * m1 + b2 * m2, d1 * m1)


def _quotient(n: tuple[int, int, int], m: tuple[int, int, int]) -> "Q3":
    """n/m for canonical triples: multiply by the conjugate of m, whose
    norm a^2 - 3b^2 vanishes only at zero because sqrt 3 is irrational."""
    a1, b1, d1 = n
    a2, b2, d2 = m
    norm = a2 * a2 - 3 * b2 * b2
    if not norm:
        raise ZeroDivisionError("division by zero in Q(sqrt 3)")
    a, b, d = d2 * (a1 * a2 - 3 * b1 * b2), d2 * (b1 * a2 - a1 * b2), d1 * norm
    if d < 0:
        a, b, d = -a, -b, -d
    return Q3._new(a, b, d)


@total_ordering
class Q3:
    """The value r + s*sqrt(3) with exact rational r and s, stored as the
    integer triple (a, b, d) of (a + b*sqrt 3)/d with d > 0 and
    gcd(a, b, d) = 1.  The triple is unique, so equality compares it."""

    __slots__ = ("_abd",)

    def __new__(cls, r=0, s=0):
        r, s = as_fraction(r), as_fraction(s)
        d = lcm(r.denominator, s.denominator)
        return Q3._new(r.numerator * (d // r.denominator), s.numerator * (d // s.denominator), d)

    @staticmethod
    def _new(a: int, b: int, d: int) -> "Q3":
        """(a + b*sqrt 3)/d for integers with d > 0, reduced by one gcd."""
        g = gcd(a, b, d)
        if g != 1:
            a, b, d = a // g, b // g, d // g
        q = _object_new(Q3)
        _set_abd(q, (a, b, d))
        return q

    def __setattr__(self, name, value):
        raise AttributeError(f"Q3 is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"Q3 is immutable; cannot delete {name!r}")

    def __reduce__(self):
        return (Q3, (self.r, self.s))

    @property
    def r(self) -> Fraction:
        a, _, d = self._abd
        return Fraction(a, d)

    @property
    def s(self) -> Fraction:
        _, b, d = self._abd
        return Fraction(b, d)

    @property
    def is_rational(self) -> bool:
        return self._abd[1] == 0

    def sign(self) -> int:
        a, b, _ = self._abd
        if not b:
            return (a > 0) - (a < 0)
        # b*sqrt(3) decides unless a has the other sign and is larger;
        # |a| = |b|*sqrt(3) cannot happen because sqrt(3) is irrational
        if (a > 0) != (b > 0) and a * a > 3 * b * b:
            return 1 if a > 0 else -1
        return 1 if b > 0 else -1

    def __add__(self, other):
        o = other._abd if type(other) is Q3 else _parts(other)
        if o is None:
            return NotImplemented
        return _sum(self._abd, o, 1)

    __radd__ = __add__

    def __sub__(self, other):
        o = other._abd if type(other) is Q3 else _parts(other)
        if o is None:
            return NotImplemented
        return _sum(self._abd, o, -1)

    def __rsub__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        return _sum(o, self._abd, -1)

    def __mul__(self, other):
        o = other._abd if type(other) is Q3 else _parts(other)
        if o is None:
            return NotImplemented
        a1, b1, d1 = self._abd
        a2, b2, d2 = o
        if not (b1 or b2):
            return Q3._new(a1 * a2, 0, d1 * d2)
        return Q3._new(a1 * a2 + 3 * b1 * b2, a1 * b2 + b1 * a2, d1 * d2)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        return _quotient(self._abd, o)

    def __rtruediv__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        return _quotient(o, self._abd)

    def __neg__(self):
        a, b, d = self._abd
        return Q3._new(-a, -b, d)

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __eq__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        return self._abd == o

    def __hash__(self):
        # rational values must hash like their Fraction counterparts
        return hash(self.r) if self.is_rational else hash((self.r, self.s))

    def __lt__(self, other):
        o = other._abd if type(other) is Q3 else _parts(other)
        if o is None:
            return NotImplemented
        return _sum(self._abd, o, -1).sign() < 0

    def __bool__(self):
        return self.sign() != 0

    def __float__(self):
        # one rounding, int by int: sqrt 3 enters as isqrt(3 b^2 4^k), and 2^k
        # keeps 64 bits past any cancellation, as |a + b sqrt 3| >= 1/|a - b sqrt 3|
        a, b, d = self._abd
        if not b:
            return a / d
        k = 2 * max(a.bit_length(), b.bit_length()) + 64
        root = isqrt(3 * b * b << 2 * k)
        return ((a << k) + (root if b > 0 else -root)) / (d << k)

    def __repr__(self):
        return f"Q3(r={self.r!r}, s={self.s!r})"

    def __str__(self):
        r, s = self.r, self.s
        if s == 0:
            return str(r)
        if r == 0:
            return f"{s}*sqrt3"
        sep = "+" if s > 0 else "-"
        return f"{r}{sep}{abs(s)}*sqrt3"


_object_new = object.__new__
_set_abd = Q3.__dict__["_abd"].__set__
_Q3_ZERO = Q3()


def as_q3(x) -> Q3:
    """Coerce a Q3, int or Fraction to Q3, rejecting floats and bools."""
    o = _parts(x)
    if o is None:
        raise TypeError(f"expected Q3 or exact rational, got {x!r}")
    return x if type(x) is Q3 else Q3._new(*o)


def _exact_operand(op):
    """The SurdComplex operator op(self, o), its operand coerced to
    SurdComplex first; NotImplemented for an operand that is not exact."""

    @wraps(op)
    def method(self, other):
        t = type(other)
        if t is SurdComplex:
            return op(self, other)
        if t is Q3:
            return op(self, SurdComplex._new(other, _Q3_ZERO))
        o = _parts(other)
        return NotImplemented if o is None else op(self, SurdComplex._new(Q3._new(*o), _Q3_ZERO))

    return method


@dataclass(frozen=True, slots=True)
class SurdComplex:
    """Complex number with real and imaginary parts in Q(sqrt 3)."""

    re: Q3 = _Q3_ZERO
    im: Q3 = _Q3_ZERO

    def __post_init__(self):
        object.__setattr__(self, "re", as_q3(self.re))
        object.__setattr__(self, "im", as_q3(self.im))

    @staticmethod
    def _new(re: Q3, im: Q3) -> "SurdComplex":
        """re + i*im for parts already in Q3, without the coercion pass."""
        z = _object_new(SurdComplex)
        _set_re(z, re)
        _set_im(z, im)
        return z

    @property
    def is_zero(self) -> bool:
        return self.re.sign() == 0 and self.im.sign() == 0

    def conj(self) -> "SurdComplex":
        return SurdComplex._new(self.re, -self.im)

    def times_i(self) -> "SurdComplex":
        return SurdComplex._new(-self.im, self.re)

    def norm2(self) -> Q3:
        return self.re * self.re + self.im * self.im

    @_exact_operand
    def __add__(self, o):
        if o.im is _Q3_ZERO:  # a real operand: coercion shares this zero
            return SurdComplex._new(self.re + o.re, self.im)
        return SurdComplex._new(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    @_exact_operand
    def __sub__(self, o):
        return SurdComplex._new(self.re - o.re, self.im - o.im)

    @_exact_operand
    def __rsub__(self, o):
        return SurdComplex._new(o.re - self.re, o.im - self.im)

    @_exact_operand
    def __mul__(self, o):
        if o.im is _Q3_ZERO:  # a real factor: two products, not four
            return SurdComplex._new(self.re * o.re, self.im * o.re)
        return SurdComplex._new(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    @_exact_operand
    def __truediv__(self, o):
        n2 = o.norm2()
        if n2.sign() == 0:
            raise ZeroDivisionError("complex division by zero")
        num = self * o.conj()
        return SurdComplex._new(num.re / n2, num.im / n2)

    @_exact_operand
    def __rtruediv__(self, o):
        return o / self

    def __neg__(self):
        return SurdComplex._new(-self.re, -self.im)

    @_exact_operand
    def __eq__(self, o):
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        # a real value hashes like its real part, so like an equal Q3, int or Fraction
        return hash((self.re, self.im)) if self.im else hash(self.re)

    def __str__(self):
        sep = "+" if self.im.sign() >= 0 else "-"
        return f"({self.re}) {sep} ({abs(self.im)})*i"


_set_re = SurdComplex.__dict__["re"].__set__
_set_im = SurdComplex.__dict__["im"].__set__


def normalize_angle(a: Fraction) -> Fraction:
    """Reduce an angle, given in multiples of pi, into (-1, 1]: the
    numerator p of a = p/q is taken mod 2q, which keeps it prime to q."""
    a = as_fraction(a)
    p, q = a.numerator, a.denominator
    if -q < p <= q:
        return a
    p %= 2 * q
    return Fraction(p - 2 * q if p > q else p, q)


_E6 = SurdComplex(Q3(0, Fraction(1, 2)), Q3(Fraction(1, 2)))  # exp(i*pi/6)
_UNITS = [SurdComplex(1)]  # exp(i*j*pi/6) for j = 0..11, as powers of _E6
for _ in range(11):
    _UNITS.append(_UNITS[-1] * _E6)


def _unit(f: Fraction) -> SurdComplex | None:
    """exp(i*f*pi) when 6f is an integer, else None."""
    j = 6 * f
    return _UNITS[j.numerator % 12] if j.denominator == 1 else None


def direction_pi(f: Fraction) -> SurdComplex | None:
    """A positive multiple of exp(i*f*pi) when 12f is an integer, else None.
    Odd multiples of pi/12 come from the unit vector c + i*s at f - 1/4:
    turning it by pi/4 and scaling by sqrt(2) gives (c - s) + i*(c + s)."""
    f = as_fraction(f)
    if (12 * f).denominator != 1:
        return None
    u = _unit(f)
    if u is not None:
        return u
    u = _unit(f - Fraction(1, 4))
    return SurdComplex(u.re - u.im, u.re + u.im)


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
        if not isinstance(k, int) or isinstance(k, bool):
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
        u = _unit(self.angle)
        return None if u is None else SurdComplex._new(u.re * self.modulus, u.im * self.modulus)

    def __str__(self):
        return f"{self.modulus}@{self.angle}"
