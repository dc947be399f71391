"""Induced charge relation: zeta, matched parameters, transport verdicts."""

from fractions import Fraction
from math import factorial, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abelfm import induced
from abelfm.induced import (
    ComplexAmpleClass,
    conjecture_params,
    induced_law,
    phase_shift_check,
    real_zeta_angles,
    verify_induced_law,
    zeta,
)
from abelfm.lattice import AbelianContext, CohClass, divided_power_basis, skyscraper
from abelfm.stability import charge_at
from abelfm.surd import PolarScalar, Q3, SurdComplex
from abelfm.transform import FMTransformSpec, apply, quasi_inverse

F = Fraction
H = F(1, 2)


def poincare2():
    return FMTransformSpec(
        src=AbelianContext(2, F(2), "X"),
        dst=AbelianContext(2, F(2), "Y"),
        r=1,
    )


def spec3():
    # g = 3, r = 2, n_X = 3, n_Y = 3, with twists
    return FMTransformSpec(
        src=AbelianContext(3, F(3), "X"),
        dst=AbelianContext(3, F(3), "Y"),
        r=2,
        d_x=H,
        d_y=F(-2, 3),
    )


def test_zeta_values():
    spec = poincare2()
    u = PolarScalar(F(1), H)  # u = i
    z = zeta(spec, u)
    # r n_X u^g / g! = 2 * (-1) / 2 = -1
    assert z.modulus == 1 and z.angle == 1
    assert z.is_real and z.real_sign == -1
    z3 = zeta(spec3(), PolarScalar(F(1, 2), F(1, 3)))
    # 2 * 3 * (1/8) / 6 = 1/8 at angle pi
    assert z3.modulus == F(1, 8) and z3.angle == 1
    assert z3.real_sign == -1


def test_real_zeta_angles():
    assert real_zeta_angles(3) == [F(1, 3), F(2, 3)]
    assert real_zeta_angles(1) == []
    with pytest.raises(ValueError):
        real_zeta_angles(0)


def test_induced_law_parameter_arithmetic():
    spec = spec3()
    law = induced_law(spec, PolarScalar(F(2), F(1, 3)))
    # source: -d_x + 2 e^{i pi/3} = -1/2 + 1 + i sqrt3 = 1/2 + i sqrt3
    assert law.omega_src.as_surd() == SurdComplex(Q3(H), Q3(0, 1))
    # target: d_y - e^{-i pi/3}/2 = -2/3 - 1/4 + i sqrt3/4
    assert law.omega_dst.as_surd() == SurdComplex(Q3(F(-11, 12)), Q3(0, F(1, 4)))
    assert law.zeta.modulus == 8 and law.zeta.angle == 1


def test_induced_law_rejects_real_u():
    spec = poincare2()
    with pytest.raises(ValueError):
        induced_law(spec, PolarScalar(F(2), F(0)))
    with pytest.raises(ValueError):
        induced_law(spec, PolarScalar(F(2), F(1)))
    with pytest.raises(ValueError):
        induced_law(spec, PolarScalar(F(2), F(-1, 2)))


def test_complex_ample_class_validation():
    ctx = AbelianContext(2, F(2))
    for angle in (F(0), F(1), F(-1, 2)):
        with pytest.raises(ValueError):
            ComplexAmpleClass(ctx, F(0), PolarScalar(F(1), angle))
    with pytest.raises(TypeError):
        ComplexAmpleClass(ctx, 0.5, PolarScalar(F(1), H))
    # rectangular inside the pi/6 family: 1/2 + 2 e^{i pi/3} = 3/2 + sqrt3 i
    rect = ComplexAmpleClass(ctx, H, PolarScalar(F(2), F(1, 3)))
    assert rect.as_surd() == SurdComplex(Q3(F(3, 2)), Q3(0, 1))
    assert str(rect) == "(3/2) + (1*sqrt3)*i"
    # polar outside it
    polar = ComplexAmpleClass(ctx, F(-1, 3), PolarScalar(F(2), F(1, 4)))
    assert polar.as_surd() is None
    assert str(polar) == "(-1/3) + (2@1/4)"


def test_verify_induced_law_exact_poincare():
    spec = poincare2()
    verdicts = verify_induced_law(
        spec, PolarScalar(F(1), H), divided_power_basis(spec.src)
    )
    assert len(verdicts) == 3
    assert all(v.equal and v.exact for v in verdicts)


def test_verify_induced_law_exact_twisted():
    spec = spec3()
    for k in (1, 2):
        for lam in (H, F(1), F(2), F(7, 3)):
            verdicts = verify_induced_law(
                spec, PolarScalar(lam, F(k, 3)), divided_power_basis(spec.src)
            )
            assert all(v.equal and v.exact for v in verdicts)


def test_verify_induced_law_float_fallback():
    # angle 1/4 leaves Q(sqrt3); the law is still decided exactly, as
    # polynomials in u, and the sides are shown as coefficient lists
    spec = poincare2()
    verdicts = verify_induced_law(
        spec, PolarScalar(F(1), F(1, 4)), divided_power_basis(spec.src)
    )
    assert all(v.equal and v.exact for v in verdicts)
    assert all(isinstance(v.lhs, tuple) and len(v.lhs) == 3 for v in verdicts)


def test_conjecture_params_surface_display():
    # g = 2, k = 1: omega = -d_x + i lam, omega' = d_y + i/lam
    spec = FMTransformSpec(
        src=AbelianContext(2, F(2), "X"),
        dst=AbelianContext(2, F(2), "Y"),
        r=1,
        d_x=F(1, 3),
        d_y=F(-1, 5),
    )
    for lam in (H, F(1), F(3)):
        om, om_p = conjecture_params(spec, 1, lam)
        assert om.as_surd() == SurdComplex(Q3(F(-1, 3)), Q3(lam))
        assert om_p.as_surd() == SurdComplex(Q3(F(-1, 5)), Q3(1 / lam))


def test_conjecture_params_threefold_display():
    # g = 3, k = 1: omega = (-d_x + lam/2) + i sqrt3 lam/2,
    #               omega' = (d_y - 1/(2 lam)) + i sqrt3/(2 lam)
    spec = spec3()
    lam = F(2, 3)
    om, om_p = conjecture_params(spec, 1, lam)
    assert om.as_surd() == SurdComplex(Q3(-H + lam / 2), Q3(0, lam / 2))
    assert om_p.as_surd() == SurdComplex(Q3(F(-2, 3) - 1 / (2 * lam)), Q3(0, 1 / (2 * lam)))


def test_conjecture_params_validation():
    spec = poincare2()
    with pytest.raises(ValueError):
        conjecture_params(spec, 0, F(1))
    with pytest.raises(ValueError):
        conjecture_params(spec, 2, F(1))  # k must stay below g
    with pytest.raises(ValueError):
        conjecture_params(spec, 1, F(0))
    with pytest.raises(ValueError):
        conjecture_params(spec, 1, F(-1))
    curve = FMTransformSpec(src=AbelianContext(1, F(1), "X"), dst=AbelianContext(1, F(1), "Y"), r=1)
    with pytest.raises(ValueError, match=r"^matched parameters need g >= 2, got g = 1$"):
        conjecture_params(curve, 1, F(1))


def test_conjecture_params_duality():
    spec = spec3()
    rev, _ = quasi_inverse(spec)
    for k in (1, 2):
        for lam in (H, F(2), F(7, 3)):
            om, om_p = conjecture_params(spec, k, lam)
            rv, rv_p = conjecture_params(rev, 3 - k, 1 / lam)
            assert rv.as_surd() == om_p.as_surd()
            assert rv_p.as_surd() == om.as_surd()


def test_phase_shift_check_exact():
    spec = spec3()
    u = PolarScalar(F(1), F(1, 3))
    verdict = phase_shift_check(spec, u, skyscraper(spec.src))
    assert verdict.holds and verdict.exact
    assert verdict.expected_shift == 1
    u2 = PolarScalar(F(3, 2), F(2, 3))
    verdict2 = phase_shift_check(spec, u2, skyscraper(spec.src))
    assert verdict2.holds and verdict2.exact
    assert verdict2.expected_shift == 2


def test_phase_shift_check_float():
    spec = poincare2()
    u = PolarScalar(F(1), F(1, 4))
    verdict = phase_shift_check(spec, u, skyscraper(spec.src))
    assert verdict.holds and verdict.exact
    assert verdict.expected_shift == 0  # round(2 * 1/4) banker-rounds to 0


def test_zeta_reality_against_angle_grid():
    spec = spec3()
    for q in range(1, 8):
        for p in range(-q, q + 1):
            u = PolarScalar(F(5, 4), F(p, q) if p else F(0))
            want = (F(p, q) * 3).denominator == 1
            assert zeta(spec, u).is_real == want


# ---- oracles for the polynomial law path --------------------------------


def _spec(g, r, n_x, d_x, d_y):
    return FMTransformSpec(
        src=AbelianContext(g, n_x, "X"),
        dst=AbelianContext(g, F(factorial(g)) ** 2 / (r * r * n_x), "Y"),
        r=r,
        d_x=d_x,
        d_y=d_y,
    )


def _eval(coeffs, x):
    # plain power sum, deliberately not Horner's rule
    total = SurdComplex()
    power = SurdComplex(Q3(1))
    for c in coeffs:
        total = total + power * c
        power = power * x
    return total


def law_sides(spec, e):
    """Both sides of the transport identity as Fraction coefficient lists in u."""
    ln, ld, rn, rd = induced._law_ints(spec, e)
    return [F(x, ld) for x in ln], [F(y, rd) for y in rn]


@pytest.mark.parametrize("g", [1, 2, 3, 6])
def test_law_sides_match_pointwise_charges(g):
    # the polynomial sides, evaluated at u, are the old exact path:
    # charge_at at omega_src, and zeta times charge_at of the image at omega_dst
    angles = sorted({F(k, g) for k in range(1, g)} | {F(j, 6) for j in range(1, 6)})
    specs = [_spec(g, 1, F(factorial(g)), F(0), F(0)), _spec(g, 2, F(3), H, F(-2, 3))]
    for spec in specs:
        basis = [*divided_power_basis(spec.src), CohClass(spec.src, tuple(F(i - 1, i + 2) for i in range(g + 1)))]
        for angle in angles:
            for lam in (H, F(1), F(7, 3)):
                u = PolarScalar(lam, angle)
                law = induced_law(spec, u)
                rect, z = u.to_exact(), law.zeta.to_exact()
                for e in basis:
                    lhs, rhs = law_sides(spec, e)
                    assert _eval(lhs, rect) == charge_at(spec.src, law.omega_src.as_surd(), e, g)
                    img = apply(spec, e)
                    assert _eval(rhs, rect) == z * charge_at(spec.dst, law.omega_dst.as_surd(), img, g)


@pytest.mark.parametrize("angle", [F(1, 3), F(1, 4), F(2, 5)])
def test_perturbed_image_breaks_the_law(monkeypatch, angle):
    spec = spec3()
    real_apply = induced.apply
    monkeypatch.setattr(
        induced, "apply", lambda s, e: real_apply(s, e) + CohClass(s.dst, (F(0), F(0), F(1, 7), F(0)))
    )
    u = PolarScalar(F(3, 2), angle)
    verdicts = verify_induced_law(spec, u, divided_power_basis(spec.src))
    assert verdicts and not any(v.equal for v in verdicts)
    verdict = phase_shift_check(spec, u, skyscraper(spec.src))
    assert not verdict.holds and verdict.exact


# cyclotomic polynomials Phi_N for N | 12, constant term first
PHI = {
    1: (-1, 1),
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    6: (1, -1, 1),
    12: (1, 0, -1, 0, 1),
}


def _order(j):
    # multiplicative order of exp(i*pi*j/6) = exp(2*pi*i*j/12)
    return 12 // gcd(j % 12, 12)


def _mul(p, q):
    out = [F(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


rationals = st.fractions(min_value=-3, max_value=3, max_denominator=5)


@settings(max_examples=150, deadline=None)
@given(
    coeffs=st.lists(rationals, min_size=1, max_size=6),
    j=st.integers(min_value=-5, max_value=6),
    lam=st.fractions(min_value=F(1, 4), max_value=4, max_denominator=4).filter(lambda x: x > 0),
    make_root=st.booleans(),
)
def test_cyclotomic_zero_test_matches_exact_evaluation(coeffs, j, lam, make_root):
    u = PolarScalar(lam, F(j, 6))
    n = _order(j)
    assert induced._cyclotomic(n) == PHI[n]
    if make_root:  # multiply in Phi_N(x/lam), which vanishes at x = u
        coeffs = _mul(coeffs, [c / lam**i for i, c in enumerate(PHI[n])])
    value = _eval(coeffs, u.to_exact())
    assert induced._vanishes_at(coeffs, u) == value.is_zero
    if make_root:
        assert value.is_zero


def test_cyclotomic_degree_bound_behind_the_shortcut():
    # _vanishes_at skips Phi_n when n > 2*len(r)^2, relying on
    # phi(n) >= sqrt(n/2); check the bound by a totient sieve
    top = 5000
    phi = list(range(top))
    for p in range(2, top):
        if phi[p] == p:
            for m in range(p, top, p):
                phi[m] -= phi[m] // p
    assert all(2 * phi[n] ** 2 >= n for n in range(1, top))
    u = PolarScalar(F(2), F(1, 1001))
    assert not induced._vanishes_at([F(1), F(-1)], u)
    assert induced._vanishes_at([F(0), F(0)], u)
