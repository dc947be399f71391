"""Exact scalar tower: Q(sqrt 3), its complexification, polar scalars."""

import copy
import math
import operator
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from abelfm.lattice import AbelianContext, CohClass
from abelfm.surd import (
    PolarScalar,
    Q3,
    SurdComplex,
    _unit,
    as_fraction,
    direction_pi,
    normalize_angle,
)

H = Fraction(1, 2)

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=50)


def test_as_fraction_accepts_exact_and_rejects_floats():
    assert as_fraction(3) == Fraction(3)
    assert as_fraction(Fraction(2, 7)) == Fraction(2, 7)
    with pytest.raises(TypeError):
        as_fraction(0.5)
    with pytest.raises(TypeError):
        as_fraction(True)


def test_q3_sign_is_exact_near_sqrt3():
    # 26/15 > sqrt(3) > 19/11: both differences are tiny but exactly signed
    assert (Q3(Fraction(26, 15)) - Q3(0, 1)).sign() == 1
    assert (Q3(Fraction(19, 11)) - Q3(0, 1)).sign() == -1
    assert Q3(0).sign() == 0
    assert Q3(-2, 1).sign() == -1  # sqrt3 - 2 < 0
    assert Q3(2, -1).sign() == 1


@given(rationals, rationals, rationals, rationals)
def test_q3_mul_matches_float(r1, s1, r2, s2):
    a, b = Q3(r1, s1), Q3(r2, s2)
    prod = float(a) * float(b)
    assert abs(float(a * b) - prod) <= 1e-9 * max(1.0, abs(prod))


def test_q3_field_ops():
    a = Q3(Fraction(1, 2), Fraction(-1, 3))
    assert a - a == Q3(0)
    assert a / a == Q3(1)
    assert a * Q3(1) == a
    assert -a + a == 0
    assert 1 / Q3(0, 1) == Q3(0, Fraction(1, 3))  # 1/sqrt3 = sqrt3/3
    with pytest.raises(ZeroDivisionError):
        a / Q3(0)


def test_q3_compares_with_rationals_and_floats():
    assert Q3(0, 1) > Fraction(3, 2)
    assert Q3(0, 1) < 2
    assert Q3(H) == Fraction(1, 2)
    assert hash(Q3(H)) == hash(Fraction(1, 2))
    with pytest.raises(TypeError):
        Q3(0, 1) < float("inf")
    with pytest.raises(TypeError):
        Q3(0, 1) > float("-inf")
    assert not Q3(0, 1) == 1.7320508


def test_q3_str_roundtrip_shapes():
    assert str(Q3(H)) == "1/2"
    assert str(Q3(0, H)) == "1/2*sqrt3"
    assert str(Q3(1, -H)) == "1-1/2*sqrt3"
    assert str(Q3(-1, 2)) == "-1+2*sqrt3"


def test_surd_complex_arithmetic():
    z = SurdComplex(Q3(1), Q3(0, 1))  # 1 + sqrt3 i
    w = z * z.conj()
    assert w == SurdComplex(Q3(4))
    assert z.times_i() == SurdComplex(Q3(0, -1), Q3(1))
    assert (z / z) == SurdComplex(Q3(1))


# Exact property tests against a plain (Fraction, Fraction) reference.
# Numerators reach 10^30 and denominators 10^6; near_conjugates puts
# r + s*sqrt3 within about 10^-36 of zero while |r| is near 10^30.

big_fractions = st.builds(Fraction, st.integers(-(10**30), 10**30), st.integers(1, 10**6))


@st.composite
def near_conjugates(draw):
    """(r, s) with r within 1/q of -s*sqrt3, so r and s*sqrt3 nearly cancel."""
    s = draw(big_fractions)
    q = draw(st.integers(1, 10**6))
    a = math.isqrt(3 * (s.numerator * q) ** 2) // s.denominator  # about |s|*sqrt3*q
    a = a if s >= 0 else -a
    return (Fraction(-a + draw(st.integers(-1, 1)), q), s)


pairs = st.one_of(st.tuples(big_fractions, big_fractions), near_conjugates())


def ref_mul(x, y):
    (r1, s1), (r2, s2) = x, y
    return (r1 * r2 + 3 * s1 * s2, r1 * s2 + s1 * r2)


def ref_div(x, y):
    r2, s2 = y
    norm = r2 * r2 - 3 * s2 * s2
    r, s = ref_mul(x, (r2, -s2))
    return (r / norm, s / norm)


def ref_sign(x):
    """Exact sign of r + s*sqrt3, written as (a + b*sqrt3)/D with D > 0,
    from m = isqrt(3b^2): m < |b|*sqrt3 < m + 1 when b != 0."""
    r, s = x
    a, b = r.numerator * s.denominator, s.numerator * r.denominator
    if b == 0:
        return (a > 0) - (a < 0)
    m = math.isqrt(3 * b * b)
    if b > 0:
        return 1 if -a <= m else -1
    return 1 if a > m else -1


def ref_str(x):
    r, s = x
    if s == 0:
        return str(r)
    if r == 0:
        return f"{s}*sqrt3"
    return f"{r}{'+' if s > 0 else '-'}{abs(s)}*sqrt3"


def as_pair(q):
    return (q.r, q.s)


def assert_canonical(q):
    a, b, d = q._abd
    assert d > 0 and math.gcd(a, b, d) == 1
    assert as_pair(q) == (Fraction(a, d), Fraction(b, d))


@given(pairs, pairs)
def test_q3_arithmetic_matches_fraction_pairs(x, y):
    p, q = Q3(*x), Q3(*y)
    cases = [
        (p, x),
        (p + q, (x[0] + y[0], x[1] + y[1])),
        (p - q, (x[0] - y[0], x[1] - y[1])),
        (p * q, ref_mul(x, y)),
        (-p, (-x[0], -x[1])),
        (x[0] + q, (x[0] + y[0], y[1])),
        (x[0] - q, (x[0] - y[0], -y[1])),
        (q * x[0], (y[0] * x[0], y[1] * x[0])),
    ]
    if y != (0, 0):
        cases.append((p / q, ref_div(x, y)))
        cases.append((x[0] / q, ref_div((x[0], Fraction(0)), y)))
    for got, want in cases:
        assert_canonical(got)
        assert as_pair(got) == want
        assert got.sign() == ref_sign(want)
        assert str(got) == ref_str(want)
    assert (p == q) == (x == y)
    assert (p == x[0]) == (x[1] == 0)
    back = (p + q) - q  # the same value by another route
    assert back == p and hash(back) == hash(p)
    if x[1] == 0:
        assert hash(p) == hash(x[0])
    if y == (0, 0):
        with pytest.raises(ZeroDivisionError):
            p / q


@given(pairs, pairs, pairs, pairs)
def test_surd_complex_mul_div_match_fraction_pairs(a, b, c, d):
    z = SurdComplex(Q3(*a), Q3(*b))
    w = SurdComplex(Q3(*c), Q3(*d))
    re = tuple(u - v for u, v in zip(ref_mul(a, c), ref_mul(b, d)))
    im = tuple(u + v for u, v in zip(ref_mul(a, d), ref_mul(b, c)))
    prod = z * w
    assert (as_pair(prod.re), as_pair(prod.im)) == (re, im)
    for part in (prod.re, prod.im):
        assert_canonical(part)
    # a real factor, Fraction or Q3, either way round
    for real, pair in ((c[0], (c[0], Fraction(0))), (Q3(*c), c)):
        for got in (z * real, real * z):
            assert (as_pair(got.re), as_pair(got.im)) == (ref_mul(a, pair), ref_mul(b, pair))
    if w.is_zero:
        with pytest.raises(ZeroDivisionError):
            z / w
        return
    # z / w = z * conj(w) / |w|^2
    n2 = tuple(u + v for u, v in zip(ref_mul(c, c), ref_mul(d, d)))
    nre = tuple(u + v for u, v in zip(ref_mul(a, c), ref_mul(b, d)))
    nim = tuple(u - v for u, v in zip(ref_mul(b, c), ref_mul(a, d)))
    quo = z / w
    assert (as_pair(quo.re), as_pair(quo.im)) == (ref_div(nre, n2), ref_div(nim, n2))
    assert quo * w == z


# One model for every exact operator: an element of Q(sqrt3) is a
# (Fraction, Fraction) pair, a complex one a pair of those, a class a tuple
# of Fractions.  Operands mix int, Fraction and Q3 on either side.

CTX = AbelianContext(2, Fraction(3))
ZERO = (Fraction(0), Fraction(0))
operands = st.one_of(st.integers(-(10**30), 10**30), big_fractions, pairs.map(lambda x: Q3(*x)))
complex_operands = st.one_of(operands, st.tuples(pairs, pairs).map(lambda z: SurdComplex(Q3(*z[0]), Q3(*z[1]))))


def model(v):
    """The model of an int, Fraction, Q3 or SurdComplex value."""
    if isinstance(v, SurdComplex):
        return (model(v.re), model(v.im))
    return (v.r, v.s) if isinstance(v, Q3) else (Fraction(v), Fraction(0))


def padd(x, y):
    return (x[0] + y[0], x[1] + y[1])


def psub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def cmodel(v):
    m = model(v)
    return m if isinstance(v, SurdComplex) else (m, ZERO)


def cmul(z, w):
    return (psub(ref_mul(z[0], w[0]), ref_mul(z[1], w[1])), padd(ref_mul(z[0], w[1]), ref_mul(z[1], w[0])))


def cdiv(z, w):
    n2 = padd(ref_mul(w[0], w[0]), ref_mul(w[1], w[1]))
    num = cmul(z, (w[0], (-w[1][0], -w[1][1])))
    return (ref_div(num[0], n2), ref_div(num[1], n2))


def pell_reference(q):
    """float(q) for q = (a + b sqrt3)/d, rounded once from 2^k (a + b sqrt3)
    with k so large that the isqrt truncation cannot reach the last bit."""
    a, b, d = q._abd
    k = 4 * max(a.bit_length(), b.bit_length()) + 256
    root = math.isqrt(3 * b * b << 2 * k)
    return ((a << k) + (root if b > 0 else -root)) / (d << k)


@settings(max_examples=150, deadline=None)
@given(pairs, pairs, operands, complex_operands, st.lists(big_fractions, min_size=6, max_size=6),
       st.one_of(st.integers(), big_fractions), st.integers(0, 40), st.sampled_from([1, -1]))
def test_exact_operators_match_the_fraction_pair_model(x, x2, v, w, coeffs, lam, n, sign):
    ops = {
        "+": (operator.add, padd, lambda z, u: (padd(z[0], u[0]), padd(z[1], u[1]))),
        "-": (operator.sub, psub, lambda z, u: (psub(z[0], u[0]), psub(z[1], u[1]))),
        "*": (operator.mul, ref_mul, cmul),
        "/": (operator.truediv, ref_div, cdiv),
    }
    # Q3 against int, Fraction or Q3, in both orders
    q, y = Q3(*x), model(v)
    for left, right, lm, rm in ((q, v, x, y), (v, q, y, x)):
        for name, (op, ref, _) in ops.items():
            if name == "/" and rm == ZERO:
                with pytest.raises(ZeroDivisionError):
                    op(left, right)
                continue
            got = op(left, right)
            assert type(got) is Q3 and model(got) == ref(lm, rm)
        diff = ref_sign(psub(lm, rm))
        assert (left == right, left != right) == (diff == 0, diff != 0)
        assert (left < right, left <= right) == (diff < 0, diff <= 0)
        assert (left > right, left >= right) == (diff > 0, diff >= 0)
    # SurdComplex against SurdComplex or a real operand, in both orders
    z, zw = SurdComplex(q, Q3(*x2)), cmodel(w)
    for left, right, lm, rm in ((z, w, cmodel(z), zw), (w, z, zw, cmodel(z))):
        for name, (op, _, ref) in ops.items():
            if name == "/" and rm == (ZERO, ZERO):
                with pytest.raises(ZeroDivisionError):
                    op(left, right)
                continue
            got = op(left, right)
            assert type(got) is SurdComplex and model(got) == ref(lm, rm)
        assert (left == right) == (lm == rm)
    # CohClass: + and - with a class, * with an int or Fraction, in both orders
    e, f = CohClass(CTX, coeffs[:3]), CohClass(CTX, coeffs[3:])
    assert (e + f).c == tuple(a + b for a, b in zip(coeffs[:3], coeffs[3:]))
    assert (e - f).c == tuple(a - b for a, b in zip(coeffs[:3], coeffs[3:]))
    assert (e - f) + f == e and ((e == f) == (coeffs[:3] == coeffs[3:]))
    assert (e * lam).c == (lam * e).c == tuple(lam * a for a in coeffs[:3])
    # equal int, Fraction, Q3 and SurdComplex values hash alike
    r = x[0]
    same = [r, Q3(r), SurdComplex(r), SurdComplex(Q3(r), 0)] + ([int(r)] if r.denominator == 1 else [])
    assert len({hash(a) for a in same}) == 1 and len(set(same)) == 1
    assert {r: "x"}.get(SurdComplex(r)) == "x"
    assert hash(SurdComplex(q)) == hash(q) and SurdComplex(q) == q
    # float, str and bool operands are refused
    for bad in (0.5, "1", True):
        for exact in (q, z, e):
            for op, _, _ in ops.values():
                with pytest.raises(TypeError):
                    op(exact, bad)
                with pytest.raises(TypeError):
                    op(bad, exact)
            assert not exact == bad
        for cmp in (operator.lt, operator.le, operator.gt, operator.ge):
            with pytest.raises(TypeError):
                cmp(q, bad)
            with pytest.raises(TypeError):
                cmp(bad, q)
    # float of a Pell unit (2 + sign*sqrt3)^n: within one ulp, even at (2 - sqrt3)^40
    u = Q3(1)
    for _ in range(n):
        u = u * Q3(2, sign)
    want = pell_reference(u)
    assert want > 0 and abs(float(u) - want) <= math.ulp(want)


def test_q3_is_canonical_and_immutable():
    a, b = Q3(Fraction(2, 4), Fraction(6, 8)), Q3(Fraction(1, 2), Fraction(3, 4))
    assert a == b and hash(a) == hash(b) and a._abd == (2, 3, 4)
    assert (Q3(Fraction(1, 6), Fraction(1, 6)) * 3)._abd == (1, 1, 2)
    assert (Q3(Fraction(1, 2), Fraction(-1, 2)) - Q3(Fraction(1, 2), Fraction(-1, 2)))._abd == (0, 0, 1)
    # (1 + sqrt3)/(sqrt3 - 1) divides by the norm -2: the sign moves up
    assert (Q3(1, 1) / Q3(-1, 1))._abd == (2, 1, 1)
    for name in ("r", "s", "_abd", "other"):
        with pytest.raises(AttributeError):
            setattr(a, name, Fraction(1))
    with pytest.raises(AttributeError):
        del a._abd
    assert copy.deepcopy(a) == a and pickle.loads(pickle.dumps(a)) == a
    with pytest.raises(TypeError):
        Q3(0.5)
    with pytest.raises(TypeError):
        Q3(1, True)


def test_normalize_angle_window():
    assert normalize_angle(Fraction(1)) == 1
    assert normalize_angle(Fraction(-1)) == 1
    assert normalize_angle(Fraction(7, 3)) == Fraction(1, 3)
    assert normalize_angle(Fraction(-1, 2)) == Fraction(-1, 2)
    assert normalize_angle(Fraction(2)) == 0


@pytest.mark.parametrize(
    "f,c,s",
    [
        (Fraction(0), Q3(1), Q3(0)),
        (Fraction(1, 6), Q3(0, H), Q3(H)),
        (Fraction(1, 3), Q3(H), Q3(0, H)),
        (Fraction(1, 2), Q3(0), Q3(1)),
        (Fraction(2, 3), Q3(-H), Q3(0, H)),
        (Fraction(5, 6), Q3(0, -H), Q3(H)),
        (Fraction(1), Q3(-1), Q3(0)),
        (Fraction(-1, 3), Q3(H), Q3(0, -H)),
    ],
)
def test_trig_table(f, c, s):
    z = PolarScalar(Fraction(1), f).to_exact()
    assert z.re == c
    assert z.im == s


def test_trig_table_rejects_outside_field():
    assert PolarScalar(Fraction(1), Fraction(1, 4)).to_exact() is None  # needs sqrt2
    assert PolarScalar(Fraction(1), Fraction(1, 5)).to_exact() is None


@pytest.mark.parametrize("j", range(-24, 25))
def test_generated_units_are_exact_unit_vectors(j):
    u = _unit(Fraction(j, 6))
    assert abs(float(u.re) - math.cos(j * math.pi / 6)) < 1e-12
    assert abs(float(u.im) - math.sin(j * math.pi / 6)) < 1e-12
    for i in range(-24, 25):
        assert u * _unit(Fraction(i, 6)) == _unit(Fraction(j + i, 6))


@pytest.mark.parametrize(
    "f,t",
    [
        (Fraction(1, 12), Q3(2, -1)),
        (Fraction(1, 6), Q3(0, Fraction(1, 3))),
        (Fraction(1, 4), Q3(1)),
        (Fraction(1, 3), Q3(0, 1)),
        (Fraction(5, 12), Q3(2, 1)),
        (Fraction(7, 12), Q3(-2, -1)),
        (Fraction(11, 12), Q3(-2, 1)),
    ],
)
def test_tan_table(f, t):
    # the tangent of each twelfth is the slope of its direction
    d = direction_pi(f)
    assert d.im / d.re == t


def test_tan_table_domain():
    assert direction_pi(Fraction(1, 2)).re == 0  # no tangent, still a direction
    assert direction_pi(Fraction(0)).im == 0
    assert direction_pi(Fraction(1, 24)) is None
    assert direction_pi(Fraction(1, 5)) is None


@pytest.mark.parametrize("j", range(-24, 25))
def test_direction_pi_points_along_the_unit_vector(j):
    f = Fraction(j, 12)
    d = direction_pi(f)
    if (6 * f).denominator == 1:
        assert d == PolarScalar(Fraction(1), f).to_exact()
    # d * d is a positive multiple of the direction at 2f: exact cross
    # product zero and positive dot product
    d2, e = d * d, direction_pi(2 * f)
    assert (d2.re * e.im - d2.im * e.re).sign() == 0
    assert (d2.re * e.re + d2.im * e.im).sign() == 1
    # and d itself points along (cos, sin) of f*pi, not its negative
    c, s = math.cos(math.pi * f), math.sin(math.pi * f)
    assert abs(float(d.re) * s - float(d.im) * c) < 1e-12
    assert float(d.re) * c + float(d.im) * s > 0


def test_polar_scalar_power_and_inverse():
    u = PolarScalar(Fraction(2), Fraction(1, 3))
    assert u.power(3) == PolarScalar(Fraction(8), Fraction(1))
    assert u.power(6).angle == 0
    assert u.power(-1) == u.inverse()
    assert u.inverse().modulus == Fraction(1, 2)
    assert u.inverse().angle == Fraction(-1, 3)
    assert not u.is_real and u.real_sign is None
    assert u.power(3).real_sign == -1
    for bad in (True, False, 1.0):
        with pytest.raises(TypeError, match="integer exponent"):
            u.power(bad)


def test_polar_scalar_to_exact():
    u = PolarScalar(Fraction(2), Fraction(1, 6))
    assert u.to_exact() == SurdComplex(Q3(0, 1), Q3(1))  # 2e^{i pi/6} = sqrt3 + i
    assert PolarScalar(Fraction(1), Fraction(1, 4)).to_exact() is None
    assert str(u) == "2@1/6"


def test_polar_scalar_validation():
    with pytest.raises(ValueError):
        PolarScalar(Fraction(0), Fraction(1, 2))
    with pytest.raises(ValueError):
        PolarScalar(Fraction(-1), Fraction(0))
    assert PolarScalar(Fraction(1), Fraction(5, 2)).angle == Fraction(1, 2)
