"""Level-k charges, slopes, phases, polygons and the degree-three bound."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import abelfm.stability
from abelfm.lattice import (
    AbelianContext,
    CohClass,
    ContextMismatchError,
    ShiftedClass,
    line_bundle,
    skyscraper,
    structure_sheaf,
)
from abelfm.stability import (
    ChargeSpec,
    HeartValueError,
    _charge_ints,
    bg_check,
    charge,
    charge_at,
    heart_tower,
    hn_polygon,
    in_slice,
    phase,
    phase_cmp,
    slope,
    slope_cmp,
)
from abelfm.surd import Q3, SurdComplex, direction_pi

F = Fraction
SQRT3 = Q3(0, 1)


def ctx2():
    return AbelianContext(2, F(2))


def ctx3():
    return AbelianContext(3, F(6))


def test_charge_spec_validation():
    ctx = ctx2()
    with pytest.raises(ValueError):
        ChargeSpec(ctx, 0)
    with pytest.raises(ValueError):
        ChargeSpec(ctx, 3)
    with pytest.raises(ValueError):
        ChargeSpec(ctx, 1, F(0), F(0))
    with pytest.raises(ValueError):
        ChargeSpec(ctx, 1, F(0), Q3(1, -1))  # 1 - sqrt3 < 0
    ChargeSpec(ctx, 1, F(0), Q3(-1, 1))  # sqrt3 - 1 > 0 is a valid scale
    with pytest.raises(TypeError, match=r"^expected CohClass or ShiftedClass, got 1$"):
        charge(ChargeSpec(ctx, 1), 1)


def test_level_one_truncated_charge_worked_example():
    # g = 2, n = 2, b = 0: level-1 charge of e^l is -2t + i t^2
    ctx = ctx2()
    e = line_bundle(ctx, F(1))
    for t in (F(1), F(1, 2), F(3)):
        z = charge(ChargeSpec(ctx, 1, F(0), t), e)
        assert z == SurdComplex(Q3(-2 * t), Q3(t * t))


def test_full_level_charge_of_structure_sheaf():
    # g = 2, n = 2, b = 0, t = 1: Z(O) = -n beta^2/2 = 1
    ctx = ctx2()
    z = charge(ChargeSpec(ctx, 2), structure_sheaf(ctx))
    assert z == SurdComplex(Q3(1))


def test_skyscraper_charge_all_parameters():
    for ctx in (ctx2(), ctx3(), AbelianContext(1, F(1))):
        p = skyscraper(ctx)
        for b in (F(0), F(-3), F(7, 2)):
            for t in (F(1), F(1, 10), F(5, 3)):
                z = charge(ChargeSpec(ctx, ctx.g, b, t), p)
                assert z == SurdComplex(Q3(-1))


def test_skyscraper_truncation_kernel():
    ctx = ctx3()
    p = skyscraper(ctx)
    for k in (1, 2):
        spec = ChargeSpec(ctx, k, F(1, 2), F(2))
        assert charge(spec, p).is_zero
        assert phase(spec, p) is None
        with pytest.raises(HeartValueError):
            phase_cmp(spec, p, F(1, 2))


def test_charge_additive_and_shift_sign():
    ctx = ctx2()
    spec = ChargeSpec(ctx, 2, F(1, 3), F(5, 4))
    a = CohClass(ctx, (F(1), F(-2), F(1, 6)))
    b = CohClass(ctx, (F(0), F(3), F(-1, 2)))
    assert charge(spec, a) + charge(spec, b) == charge(spec, a + b)
    assert charge(spec, ShiftedClass(a, 1)) == -charge(spec, a)
    assert charge(spec, ShiftedClass(a, 2)) == charge(spec, a)


def test_charge_at_surd_parameter():
    # beta = i*sqrt3 keeps every value inside Q(sqrt3); here the surd parts
    # of the two cubic terms cancel and the value is plainly rational
    ctx = ctx3()
    beta = SurdComplex(Q3(0), SQRT3)
    z = charge_at(ctx, beta, line_bundle(ctx, F(1)), 3)
    assert z == SurdComplex(Q3(8))


BIG = st.integers(-(10**30), 10**30)
DENS = st.integers(1, 10**6)
RATS = st.one_of(st.just(F(0)), st.builds(F, BIG, DENS))
SURDS = st.builds(Q3, RATS, RATS)


def _surd_horner(coeffs, beta):
    """sum_m coeffs[m] * beta^m in plain SurdComplex arithmetic."""
    acc = SurdComplex()
    for c in reversed(coeffs):
        acc = acc * beta + c
    return acc


def charge_poly(ctx, e, k):
    """The integer charge kernel as Fraction coefficients, constant term first."""
    nums, den = _charge_ints(ctx, e, k)
    return [Fraction(x, den) for x in nums]


def _oracle_charge(ctx, beta, e, k):
    z = _surd_horner(charge_poly(ctx, e, k), beta)
    for _ in range(ctx.g - k):
        z = z.times_i()
    return -z


@st.composite
def charge_cases(draw):
    g = draw(st.integers(1, 8))
    ctx = AbelianContext(g, F(draw(st.integers(1, 10**30)), draw(DENS)))
    if draw(st.integers(0, 9)) == 0:
        e = CohClass.zero(ctx)
    else:
        e = CohClass(ctx, draw(st.lists(RATS, min_size=g + 1, max_size=g + 1)))
    return ctx, e, draw(st.integers(1, g)), SurdComplex(draw(SURDS), draw(SURDS))


@settings(max_examples=200, deadline=None)
@given(charge_cases(), st.integers(-3, 3), SURDS)
def test_charge_at_matches_surd_horner(case, shift, t):
    # every g in 1..8 and every k, so g - k takes every value mod 4; sqrt3
    # parts in both parts of beta; the shifted class goes through charge
    ctx, e, k, beta = case
    g = ctx.g
    plain = [ctx.n * e.c[g - m] * (-1) ** m / math.factorial(m) if g - m <= k else 0
             for m in range(g + 1)]
    assert charge_poly(ctx, e, k) == plain
    assert charge_at(ctx, beta, e, k) == _oracle_charge(ctx, beta, e, k)
    spec = ChargeSpec(ctx, k, beta.re.r, abs(t) or Q3(1))
    z = _oracle_charge(ctx, SurdComplex(Q3(spec.b), spec.t), e, k)
    assert charge(spec, ShiftedClass(e, shift)) == (-z if shift % 2 else z)


def test_slope_values_and_order():
    ctx = ctx2()
    spec = ChargeSpec(ctx, 2)
    # Z(O) = 1: slope is +infinity encoded as None
    assert slope(spec, structure_sheaf(ctx)) is None
    e = line_bundle(ctx, F(1))
    # Z(e^l) = -(beta-1)^2 ... at b=0,t=1: Z = 2i so slope 0
    assert charge(spec, e) == SurdComplex(Q3(0), Q3(2))
    assert slope(spec, e) == Q3(0)
    assert slope_cmp(None, Q3(5)) == 1
    assert slope_cmp(Q3(5), None) == -1
    assert slope_cmp(None, None) == 0
    assert slope_cmp(Q3(1), Q3(2)) == -1


def test_phase_values():
    ctx = ctx2()
    spec = ChargeSpec(ctx, 2)
    assert phase(spec, skyscraper(ctx)) == 1.0
    assert phase(spec, line_bundle(ctx, F(1))) == 0.5
    assert phase(spec, ShiftedClass(line_bundle(ctx, F(1)), 2)) == 2.5
    # the shift is pure bookkeeping on top of the base phase in (0, 1]
    assert phase(spec, ShiftedClass(skyscraper(ctx), 1)) == 2.0
    with pytest.raises(HeartValueError):
        phase(spec, structure_sheaf(ctx))  # Z = 1, positive real axis
    with pytest.raises(HeartValueError):
        # heart membership is judged on the base class, shift or not
        phase(spec, ShiftedClass(structure_sheaf(ctx), 1))


def test_phase_cmp_exact_at_twelfths():
    c1 = AbelianContext(1, F(1))
    spec = ChargeSpec(c1, 1, F(0), SQRT3)
    a = CohClass(c1, (F(1), F(-1)))  # Z = 1 + i sqrt3, phase exactly 1/3
    assert phase_cmp(spec, a, F(1, 3)) == 0
    assert phase_cmp(spec, a, F(1, 4)) == 1
    assert phase_cmp(spec, a, F(5, 12)) == -1
    assert phase_cmp(spec, a, F(1)) == -1
    assert phase_cmp(spec, a, F(-2)) == 1
    b = CohClass(c1, (F(1), F(1)))  # Z = -1 + i sqrt3, phase exactly 2/3
    assert phase_cmp(spec, b, F(2, 3)) == 0
    assert phase_cmp(spec, b, F(7, 12)) == 1
    assert phase_cmp(spec, b, F(3, 4)) == -1
    # shifted bound folds the integer part first
    assert phase_cmp(spec, ShiftedClass(a, 1), F(4, 3)) == 0
    # non-twelfth bounds take the float path but stay correct
    assert phase_cmp(spec, a, F(1, 5)) == 1
    assert phase_cmp(spec, a, F(2, 5)) == -1


def test_side_matches_the_q3_cross_product():
    # _side(z, y) against Im(conj(d) * z) in Q3 arithmetic, d = direction_pi(y),
    # and against atan2 where the gap is wide: charges with sqrt 3 parts, on
    # each twelfth direction and 1e-30 of a turn to either side of it
    parts = [F(0), F(1), F(-2), F(1, 2), SQRT3, Q3(1, -1), Q3(F(-3, 2), 2), Q3(7, -4)]
    zs = [SurdComplex(a, b) for a in parts for b in parts]
    eps = Q3(F(1, 10**30))
    for j in range(1, 13):
        d = direction_pi(F(j, 12))
        zs += [d * Q3(F(3, 7), F(1, 5)), d + d.times_i() * eps, d - d.times_i() * eps]
    zs = [z for z in zs if z.im.sign() > 0 or (z.im.sign() == 0 and z.re.sign() < 0)]
    seen = set()
    for y in [F(j, 12) for j in range(1, 13)]:
        d = direction_pi(y)
        for z in zs:
            want = (z.im * d.re - z.re * d.im).sign()
            # through the module, so tests/test_mutants.py can fault its kernel
            assert abelfm.stability._side(z, y) == want, (z, y)
            gap = math.atan2(float(z.im), float(z.re)) / math.pi - float(y)
            if abs(gap) > 1e-9:
                assert want == (1 if gap > 0 else -1), (z, y)
            seen.add(want)
    assert seen == {-1, 0, 1}


def test_phase_cmp_exact_beside_a_twelfth():
    # Z = 2 + i(4 + 2 sqrt3) has phase exactly 5/12; bounds 1e-20 away are
    # below float resolution and are decided by the twelfth itself; through
    # the module, so tests/test_mutants.py can fault it
    phase_cmp = abelfm.stability.phase_cmp
    c1 = AbelianContext(1, F(1))
    spec = ChargeSpec(c1, 1, F(0), Q3(4, 2))
    e = CohClass(c1, (F(1), F(-2)))
    eps = F(1, 10**20)
    assert phase_cmp(spec, e, F(5, 12)) == 0
    assert phase_cmp(spec, e, F(5, 12) - eps) == 1
    assert phase_cmp(spec, e, F(5, 12) + eps) == -1


@settings(max_examples=300, deadline=None)
@given(
    j=st.integers(1, 11),
    lam=st.fractions(F(1, 50), F(50)),
    digits=st.integers(1, 40),
    side=st.sampled_from([-1, 0, 1]),
    shift=st.integers(-2, 2),
)
def test_phase_cmp_at_twelfth_phases(j, lam, digits, side, shift):
    # a charge whose phase is exactly j/12, compared against bounds any
    # distance above or below it
    d = direction_pi(F(j, 12))
    # a positive multiple of d with a rational real part
    mu = Q3(d.re.r, -d.re.s) if d.re.s else Q3(1)
    mu = mu if mu.sign() > 0 else -mu
    z = SurdComplex(mu * d.re * lam, mu * d.im * lam)
    assert z.re.is_rational and z.im.sign() > 0
    c1 = AbelianContext(1, F(1))
    spec = ChargeSpec(c1, 1, F(0), z.im)
    e = ShiftedClass(CohClass(c1, (F(1), -z.re.r)), shift)
    bound = F(j, 12) + shift + side * F(1, 10**digits)
    assert phase_cmp(spec, e, bound) == -side


@settings(max_examples=200, deadline=None)
@given(
    c0=st.integers(1, 4),
    c1=st.fractions(F(-9), F(9), max_denominator=7),
    b=st.fractions(F(-3), F(3), max_denominator=5),
    t=st.tuples(st.fractions(F(0), F(4), max_denominator=5), st.fractions(F(0), F(3), max_denominator=5)),
    bound=st.one_of(
        st.fractions(F(-1, 4), F(5, 4), max_denominator=60),
        st.integers(-1, 13).map(lambda j: F(j, 12) + F(1, 10**6)),
        st.integers(-1, 13).map(lambda j: F(j, 12) - F(1, 10**6)),
    ),
)
def test_phase_cmp_matches_float_reference(c0, c1, b, t, bound):
    tq = Q3(*t)
    assume(tq.sign() > 0)
    ctx = AbelianContext(1, F(1))
    spec = ChargeSpec(ctx, 1, b, tq)
    e = CohClass(ctx, (F(c0), c1))  # Z = c0*(b + i t) - c1, upper half-plane
    z = charge(spec, e)
    base = math.atan2(float(z.im), float(z.re)) / math.pi
    diff = base - float(bound)
    assume(abs(diff) >= 1e-9)  # closer is beyond the float reference
    assert phase_cmp(spec, e, bound) == (1 if diff > 0 else -1)


def test_phase_cmp_boundary_values():
    # through the module, so tests/test_mutants.py can fault it
    phase_cmp = abelfm.stability.phase_cmp
    ctx = ctx2()
    spec = ChargeSpec(ctx, 2)
    p = skyscraper(ctx)  # phase exactly 1
    assert phase_cmp(spec, p, F(1)) == 0
    assert phase_cmp(spec, p, F(11, 12)) == 1
    e = line_bundle(ctx, F(1))  # phase exactly 1/2
    assert phase_cmp(spec, e, F(1, 2)) == 0
    assert phase_cmp(spec, e, F(5, 12)) == 1
    assert phase_cmp(spec, e, F(7, 12)) == -1


def test_in_slice_half_open():
    ctx = ctx2()
    spec = ChargeSpec(ctx, 2)
    p = skyscraper(ctx)
    assert in_slice(spec, p, (F(1, 2), F(1)))
    assert not in_slice(spec, p, (F(1), F(3, 2)))  # open at the bottom
    e = line_bundle(ctx, F(1))
    assert in_slice(spec, e, (F(0), F(1, 2)))
    assert not in_slice(spec, e, (F(1, 2), F(1)))
    assert in_slice(spec, ShiftedClass(e, 1), (F(1), F(3, 2)))


def test_heart_tower_descriptors():
    ctx = ctx3()
    tower = heart_tower(ctx, F(0), F(1))
    assert [lvl.k for lvl in tower] == [1, 2, 3]
    assert tower[0].heart == "Coh"
    assert "tilt" in tower[1].heart and "level 1" in tower[1].heart
    assert all(lvl.window == (F(1, 2), F(3, 2)) for lvl in tower)
    assert tower[-1].is_top and not tower[0].is_top
    assert tower[1].charge == ChargeSpec(ctx, 2, F(0), F(1))


def test_hn_polygon_frozen_vertices():
    c1 = AbelianContext(1, F(1))
    spec = ChargeSpec(c1, 1)
    up = line_bundle(c1, F(1))  # Z = -1 + i, slope 1
    o = structure_sheaf(c1)  # Z = i, slope 0
    dn = line_bundle(c1, F(-1))  # Z = 1 + i, slope -1
    poly = hn_polygon([up, o, dn], spec)
    assert poly.valid
    assert poly.slopes == (Q3(1), Q3(0), Q3(-1))
    assert poly.vertices == (
        (Q3(0), Q3(0)),
        (Q3(1), Q3(1)),
        (Q3(2), Q3(1)),
        (Q3(3), Q3(0)),
    )
    assert poly.sorted_order == (0, 1, 2)


def test_hn_polygon_invalid_and_sorting():
    c1 = AbelianContext(1, F(1))
    spec = ChargeSpec(c1, 1)
    up = line_bundle(c1, F(1))
    o = structure_sheaf(c1)
    poly = hn_polygon([o, up], spec)
    assert not poly.valid
    assert poly.sorted_order == (1, 0)
    # equal slopes in either order are fine and the sort is stable
    two = hn_polygon([o, o.scale(2)], spec)
    assert two.valid
    assert two.sorted_order == (0, 1)


def test_hn_polygon_merge_invariance():
    # splitting one factor into two parallel pieces keeps validity
    c1 = AbelianContext(1, F(1))
    spec = ChargeSpec(c1, 1)
    up = line_bundle(c1, F(1))
    o = structure_sheaf(c1)
    whole = hn_polygon([up, o], spec)
    split = hn_polygon([up, o.scale(F(1, 3)), o.scale(F(2, 3))], spec)
    assert whole.valid and split.valid
    assert whole.vertices[-1] == split.vertices[-1]


def test_hn_polygon_infinite_slope_first():
    ctx = ctx2()
    spec = ChargeSpec(ctx, 2)
    p = skyscraper(ctx)  # Z = -1, slope None = +infinity, x-step 0
    e = line_bundle(ctx, F(1))  # slope 0
    poly = hn_polygon([p, e], spec)
    assert poly.valid
    assert poly.vertices[1] == (Q3(0), Q3(1))  # vertical first edge
    bad = hn_polygon([e, p], spec)
    assert not bad.valid


def test_hn_polygon_rejects_non_heart_values():
    ctx = ctx2()
    spec = ChargeSpec(ctx, 2)
    with pytest.raises(HeartValueError) as err:
        hn_polygon([skyscraper(ctx), structure_sheaf(ctx)], spec)
    assert "factor 1" in str(err.value)


def test_bg_check_structure_sheaf_trivial():
    verdict = bg_check(ctx3(), F(0), F(1), structure_sheaf(ctx3()))
    assert verdict.inequality_holds
    assert verdict.lhs == Q3(0) and verdict.rhs == Q3(0)
    assert not verdict.precondition_zero_slope  # Re Z2 = 1 here, not 0


def test_bg_check_skyscraper():
    verdict = bg_check(ctx3(), F(0), F(1), skyscraper(ctx3()))
    assert not verdict.inequality_holds  # 1 <= 0 is false
    assert not verdict.precondition_zero_slope  # level-2 charge vanishes
    assert verdict.charge2.is_zero


def test_bg_check_worked_example():
    ctx = ctx3()
    e = line_bundle(ctx, F(1))
    v1 = bg_check(ctx, F(0), F(1), e)
    assert (v1.precondition_zero_slope, v1.inequality_holds) == (False, False)
    assert v1.lhs == Q3(1) and v1.rhs == Q3(F(1, 3))
    assert v1.charge2 == SurdComplex(Q3(-2), Q3(3))
    # at t = sqrt3 the level-2 real part vanishes and the bound is tight
    v2 = bg_check(ctx, F(0), SQRT3, e)
    assert (v2.precondition_zero_slope, v2.inequality_holds) == (True, True)
    assert v2.lhs == Q3(1) and v2.rhs == Q3(1)
    assert v2.charge2 == SurdComplex(Q3(0), Q3(9))


def test_bg_check_twist_enters():
    # twisting by b shifts the coefficients entering both sides
    ctx = ctx3()
    e = line_bundle(ctx, F(1))
    v = bg_check(ctx, F(1), F(1), e)  # ch^B of e^l at b=1 is the unit class
    assert v.lhs == Q3(0) and v.rhs == Q3(0)
    assert v.inequality_holds


def test_bg_check_requires_threefold():
    with pytest.raises(ValueError):
        bg_check(ctx2(), F(0), F(1), structure_sheaf(ctx2()))


def test_foreign_context_is_a_context_mismatch():
    alien = structure_sheaf(AbelianContext(2, F(7)))
    with pytest.raises(ContextMismatchError, match="^charge: context mismatch"):
        charge(ChargeSpec(ctx2(), 2), alien)
    ctx3 = AbelianContext(3, F(6))
    with pytest.raises(ContextMismatchError, match="^bg_check: context mismatch"):
        bg_check(ctx3, F(0), F(1), structure_sheaf(AbelianContext(3, F(12))))


def test_bg_check_monotone_in_t():
    ctx = ctx3()
    e = CohClass(ctx, (F(1), F(2), F(0), F(-1)))  # c1 >= 0, lhs < 0
    t = F(1, 10)
    v_small = bg_check(ctx, F(0), t, e)
    v_big = bg_check(ctx, F(0), 10 * t, e)
    assert v_small.inequality_holds and v_big.inequality_holds
