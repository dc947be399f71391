"""Truncated lattice ring: products, twists, pairing, coordinate maps."""

import copy
import pickle
from fractions import Fraction
from math import factorial, gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from abelfm import lattice
from abelfm.lattice import (
    AbelianContext,
    CohClass,
    ContextMismatchError,
    VVector,
    chi_advisory,
    divided_power_basis,
    exp_div,
    from_v_vector,
    integrate,
    line_bundle,
    mukai_dual,
    mukai_pairing,
    mul,
    semihomogeneous,
    skyscraper,
    structure_sheaf,
    twist,
    v_vector,
)
from abelfm.transform import FMTransformSpec, apply

F = Fraction


def ctx2(n=F(2)):
    return AbelianContext(2, n, "X")


def cls(ctx, *coeffs):
    return CohClass(ctx, tuple(F(c) for c in coeffs))


def test_context_validation():
    with pytest.raises(ValueError):
        AbelianContext(0, F(1))
    with pytest.raises(ValueError):
        AbelianContext(2, F(0))
    with pytest.raises(ValueError):
        AbelianContext(2, F(-3))
    with pytest.raises(TypeError):
        AbelianContext(2, 1.5)


def test_labels_are_cosmetic():
    a = AbelianContext(2, F(2), "X")
    b = AbelianContext(2, F(2), "Y")
    assert a.matches(b)
    # classes on matching contexts interoperate
    assert mul(structure_sheaf(a), skyscraper(b)) == skyscraper(a)
    # but a sum takes its left operand's context, label included, and the
    # label counts in equality, so + is not commutative across labels
    e, f = structure_sheaf(a), skyscraper(b)
    assert (e + f).ctx is e.ctx and (f + e).ctx is f.ctx
    assert e + f != f + e and (e + f).c == (f + e).c


def test_context_mismatch_raises():
    a = AbelianContext(2, F(2))
    b = AbelianContext(2, F(3))
    with pytest.raises(ContextMismatchError):
        mul(structure_sheaf(a), structure_sheaf(b))


def test_class_length_validation():
    ctx = ctx2()
    with pytest.raises(ValueError):
        CohClass(ctx, (F(1), F(0)))  # needs g + 1 = 3 coefficients
    with pytest.raises(TypeError):
        CohClass(ctx, (0.5, F(0), F(0)))
    with pytest.raises(ValueError, match=r"^v-vector needs 3 entries, got 2$"):
        VVector(ctx, 0, (1, 2))


def test_mul_truncates():
    ctx = ctx2()
    # l * l = l^2, l^2 * l = 0 after truncation
    ell = cls(ctx, 0, 1, 0)
    assert mul(ell, ell) == cls(ctx, 0, 0, 1)
    assert mul(mul(ell, ell), ell) == CohClass.zero(ctx)


def test_mul_worked_example():
    ctx = ctx2()
    a = cls(ctx, 1, 1, F(1, 2))  # e^l
    b = cls(ctx, 1, -1, F(1, 2))  # e^-l
    assert mul(a, b) == structure_sheaf(ctx)


def test_integrate_values():
    ctx = ctx2()
    assert integrate(cls(ctx, 5, 7, F(1, 2))) == 1
    assert integrate(skyscraper(ctx)) == 1
    assert integrate(structure_sheaf(ctx)) == 0
    ctx3 = AbelianContext(3, F(6))
    assert integrate(line_bundle(ctx3, F(1))) == 1  # n/g! = 6/6


def test_exp_div_and_twist():
    ctx = ctx2()
    assert exp_div(F(2), ctx) == cls(ctx, 1, 2, 2)
    assert twist(line_bundle(ctx, F(3)), F(3)) == structure_sheaf(ctx)
    e = cls(ctx, 2, -1, F(1, 3))
    assert twist(twist(e, F(1, 2)), F(-1, 2)) == e


def test_mukai_dual_is_involutive():
    ctx = ctx2()
    e = cls(ctx, 2, -3, F(7, 5))
    assert mukai_dual(mukai_dual(e)) == e
    assert mukai_dual(line_bundle(ctx, F(1))) == line_bundle(ctx, F(-1))


def test_pairing_frozen_values():
    ctx = ctx2()
    o = structure_sheaf(ctx)
    p = skyscraper(ctx)
    # <O, pt> = -integral(dual(1,0,0)*(0,0,1/2)) = -1
    assert mukai_pairing(o, p) == -1
    assert mukai_pairing(p, o) == -1
    assert mukai_pairing(o, o) == 0
    ell = cls(ctx, 0, 1, 0)
    # <l, l> = -integral((0,-1,0)*(0,1,0)) = -(-1)*n = 2
    assert mukai_pairing(ell, ell) == 2


def test_pairing_symmetry_sign_by_parity():
    c2 = ctx2()
    c3 = AbelianContext(3, F(6))
    a2, b2 = cls(c2, 1, 2, 3), cls(c2, -1, F(1, 2), 5)
    assert mukai_pairing(a2, b2) == mukai_pairing(b2, a2)
    a3 = CohClass(c3, (F(1), F(2), F(3), F(4)))
    b3 = CohClass(c3, (F(-1), F(1, 2), F(5), F(0)))
    assert mukai_pairing(a3, b3) == -mukai_pairing(b3, a3)


def test_v_vector_example():
    ctx = ctx2()
    e = line_bundle(ctx, F(1))
    vv = v_vector(e, F(0))
    assert vv.v == (F(2), F(2), F(2))  # i! * n * 1/i! with n = 2
    assert from_v_vector(vv) == e
    vv_tw = v_vector(e, F(1))  # twisting by its own slope kills the tail
    assert vv_tw.v == (F(2), F(0), F(0))
    assert from_v_vector(vv_tw) == e


def test_builders():
    ctx = ctx2(F(3))
    assert structure_sheaf(ctx).c == (1, 0, 0)
    assert skyscraper(ctx).c == (0, 0, F(1, 3))
    assert line_bundle(ctx, F(-2)).c == (1, -2, 2)
    assert semihomogeneous(ctx, 3, F(1, 3)).c == (3, 1, F(1, 6))
    with pytest.raises(ValueError):
        semihomogeneous(ctx, 0, F(1))
    with pytest.raises(ValueError):
        semihomogeneous(ctx, -2, F(1))


def test_divided_power_basis():
    ctx = AbelianContext(3, F(6))
    basis = divided_power_basis(ctx)
    assert len(basis) == 4
    assert basis[0] == structure_sheaf(ctx)
    assert basis[3].c == (0, 0, 0, F(1, 6))
    # partition of the exponential: sum d^i * e_i = e^{d l}
    d = F(2, 3)
    acc = CohClass.zero(ctx)
    for i, e in enumerate(basis):
        acc = acc + e.scale(d**i)
    assert acc == line_bundle(ctx, d)


def test_divided_power_basis_matches_fraction_built_classes():
    # called through the module, so that a monkeypatched basis is the one tested
    for g in range(1, 13):
        ctx = AbelianContext(g, F(7, 3))
        for i, e in enumerate(lattice.divided_power_basis(ctx)):
            want = CohClass(ctx, tuple(F(1, factorial(i)) if j == i else F(0) for j in range(g + 1)))
            assert e == want
            assert (e._nums, e._den) == (want._nums, want._den)


def test_class_operators():
    ctx = ctx2()
    a = cls(ctx, 1, 2, 3)
    assert (a + a) == a.scale(2)
    assert (a - a).is_zero
    assert (-a) == a.scale(-1)
    assert a * a == mul(a, a)
    assert F(1, 2) * a == a.scale(F(1, 2))
    assert a * F(1, 2) == a.scale(F(1, 2))


def test_chi_advisory():
    # chi = n/g!: integer values stay silent, fractional ones warn
    assert AbelianContext(2, F(6), "X").chi == 3
    assert chi_advisory(AbelianContext(2, F(2), "X")) is None
    note = chi_advisory(AbelianContext(2, F(3), "X"))
    assert note is not None and "3/2" in note and "X" in note
    assert "1/4" in chi_advisory(AbelianContext(3, F(3, 2)))


small_rat = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@settings(max_examples=40)
@given(st.lists(small_rat, min_size=3, max_size=3), st.lists(small_rat, min_size=3, max_size=3), small_rat)
def test_pairing_against_direct_expansion(xs, ys, b):
    # oracle: <a, c> expanded coefficientwise on g = 2
    ctx = ctx2()
    a = CohClass(ctx, tuple(xs))
    c = CohClass(ctx, tuple(ys))
    direct = -(xs[0] * ys[2] - xs[1] * ys[1] + xs[2] * ys[0]) * ctx.n
    assert mukai_pairing(a, c) == direct
    # twist invariance of the pairing under a joint twist
    assert mukai_pairing(twist(a, b), twist(c, b)) == mukai_pairing(a, c)


# numerators up to 10^30, denominators up to 10^6, and plenty of exact zeros
wide_rat = st.one_of(
    st.just(F(0)),
    st.builds(F, st.integers(-(10**30), 10**30), st.integers(1, 10**6)),
    small_rat,
)


def _coeff_pairs():
    # two coefficient lists of one length g + 1, g = 1..8
    return st.integers(1, 8).flatmap(
        lambda g: st.tuples(*[st.lists(wide_rat, min_size=g + 1, max_size=g + 1)] * 2)
    )


def _exp(x, g):
    # e^{x l} = sum x^i/i! l^i, truncated
    return tuple(x**i / factorial(i) for i in range(g + 1))


def _schoolbook(xs, ys):
    # truncated product, one Fraction operation at a time
    g = len(xs) - 1
    out = [F(0)] * (g + 1)
    for i in range(g + 1):
        for j in range(g + 1 - i):
            out[i + j] += xs[i] * ys[j]
    return tuple(out)


@settings(max_examples=200, deadline=None)
@given(_coeff_pairs(), wide_rat)
# _conv loops over the operand with more zeros: a unit vector on either side
@example(([F(1), F(2), F(3)], [F(0), F(1), F(0)]), F(0))
@example(([F(0), F(0), F(0), F(1, 6)], [F(2), F(-1), F(1, 3), F(5)]), F(7, 2))
# e^{0*l} on either side (b = 0 twists by it), and the zero class
@example(([F(1), F(0), F(0), F(0)], [F(-3), F(1, 2), F(0), F(4)]), F(0))
@example(([F(0), F(0), F(0)], [F(1, 2), F(-2), F(3)]), F(-5, 3))
# two sparse operands with their zeros in different places
@example(([F(0), F(3), F(0), F(0), F(-1)], [F(5, 4), F(0), F(0), F(2), F(0)]), F(1, 2))
def test_integer_kernel_matches_schoolbook_convolution(pair, b):
    xs, ys = pair
    g = len(xs) - 1
    ctx = AbelianContext(g, F(3, 2))
    a, c = CohClass(ctx, tuple(xs)), CohClass(ctx, tuple(ys))
    assert lattice._conv(a._nums, c._nums) == lattice._conv(c._nums, a._nums)
    prod = mul(a, c)
    assert prod.c == _schoolbook(xs, ys)
    assert all(type(x) is F for x in prod.c)
    assert exp_div(b, ctx).c == _exp(b, g)
    assert twist(a, b).c == _schoolbook(_exp(-b, g), xs)
    assert mukai_pairing(a, c) == -sum((-1) ** i * xs[i] * ys[g - i] for i in range(g + 1)) * ctx.n


# ------------------------------------------------------- representation --


def _ref_apply(xs, spec):
    # e -> e^{d_y l} * R(e^{d_x l} * e), R(c)_i = (g!/r)(-1)^i (g-i)!/(i! n_Y) c_(g-i)
    g = spec.g
    t = _schoolbook(_exp(spec.d_x, g), xs)
    rev = tuple(
        F(factorial(g), spec.r) * (-1) ** i * factorial(g - i) / (factorial(i) * spec.dst.n) * t[g - i]
        for i in range(g + 1)
    )
    return _schoolbook(_exp(spec.d_y, g), rev)


def _canonical(e, ref):
    """e holds ref as integer numerators over one positive denominator that
    share no common factor, and compares and hashes like ref rebuilt."""
    nums, den = e._nums, e._den
    assert type(nums) is tuple and all(type(x) is int for x in (*nums, den))
    assert den > 0 and gcd(*nums, den) == 1
    assert e.c == tuple(ref) and all(type(x) is F for x in e.c)
    same = CohClass(e.ctx, ref)
    assert e == same and hash(e) == hash(same)
    return e


@st.composite
def _class_pairs(draw):
    g = draw(st.integers(1, 8))
    xs = tuple(draw(st.lists(wide_rat, min_size=g + 1, max_size=g + 1)))
    kind = draw(st.sampled_from(["free", "zero", "complement", "equal-den"]))
    if kind == "zero":
        ys = (F(0),) * (g + 1)
    elif kind == "complement":  # xs + ys has integer entries, so the sum reduces
        ys = tuple(draw(st.integers(-3, 3)) - x for x in xs)
    elif kind == "equal-den":
        den = draw(st.integers(1, 10**6))
        ys = tuple(F(draw(st.integers(-(10**30), 10**30)), den) for _ in range(g + 1))
    else:
        ys = tuple(draw(st.lists(wide_rat, min_size=g + 1, max_size=g + 1)))
    return xs, ys


@settings(max_examples=150, deadline=None)
@given(
    _class_pairs(),
    wide_rat,
    wide_rat,
    st.integers(1, 4),
    st.sampled_from([F(1), F(2), F(3, 2), F(5, 7)]),
    wide_rat,
    wide_rat,
)
def test_canonical_numerators_match_a_fraction_reference(pair, q, b, r, n_x, d_x, d_y):
    xs, ys = pair
    g = len(xs) - 1
    ctx = AbelianContext(g, F(3, 2), "X")
    a, c = CohClass(ctx, xs), CohClass(ctx, ys)
    _canonical(a, xs)
    _canonical(c, ys)
    assert (a == c) == (xs == ys) and (a.is_zero, c.is_zero) == (not any(xs), not any(ys))
    _canonical(a + c, tuple(x + y for x, y in zip(xs, ys)))
    _canonical(a - c, tuple(x - y for x, y in zip(xs, ys)))
    _canonical(c - a, tuple(y - x for x, y in zip(xs, ys)))
    _canonical(-a, tuple(-x for x in xs))
    _canonical(a.scale(q), tuple(q * x for x in xs))
    _canonical(mukai_dual(a), tuple((-1) ** i * x for i, x in enumerate(xs)))
    _canonical(mul(a, c), _schoolbook(xs, ys))
    _canonical(twist(a, b), _schoolbook(_exp(-b, g), xs))
    spec = FMTransformSpec(
        src=AbelianContext(g, n_x, "X"),
        dst=AbelianContext(g, F(factorial(g)) ** 2 / (r * r * n_x), "Y"),
        r=r,
        d_x=d_x,
        d_y=d_y,
    )
    _canonical(apply(spec, CohClass(spec.src, xs)), _ref_apply(xs, spec))
    # text, copies and pickles behave as for a frozen dataclass of Fractions
    assert repr(a) == f"CohClass(ctx={ctx!r}, c={xs!r})"
    assert str(a) == ",".join(str(x) for x in xs)
    for dup in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert _canonical(dup, xs) == a


def test_internal_results_reduce_to_one_form():
    ctx = AbelianContext(1, F(2))
    half = CohClass(ctx, (F(2, 4), F(6, 8)))
    assert (half._nums, half._den) == ((2, 3), 4)
    assert CohClass._new(ctx, [2, 6], 4) == CohClass(ctx, (F(1, 2), F(3, 2)))
    assert CohClass._new(ctx, [2, 6], -4)._den == 2  # the sign moves up
    total = half + CohClass(ctx, (F(1, 2), F(1, 4)))
    assert (total._nums, total._den) == ((1, 1), 1)
    zero = half - half
    assert zero == CohClass.zero(ctx) and (zero._nums, zero._den) == ((0, 0), 1)
    assert (half.scale(0)._nums, half.scale(0)._den) == ((0, 0), 1)


def test_class_is_immutable_and_keeps_its_context_label():
    ctx = AbelianContext(2, F(2), "X")
    e = CohClass(ctx, (1, F(1, 2), 0))
    for name in ("c", "ctx", "_nums", "_den", "other"):
        with pytest.raises(AttributeError):
            setattr(e, name, None)
        with pytest.raises(AttributeError):
            delattr(e, name)
    assert e.c == (1, F(1, 2), 0)
    relabelled = CohClass(AbelianContext(2, F(2), "Y"), e.c)
    assert relabelled != e and relabelled.c == e.c
    with pytest.raises(TypeError):
        CohClass(ctx, (1, 0.5, 0))
    with pytest.raises(TypeError):
        CohClass(ctx, (1, True, 0))
    with pytest.raises(ValueError):
        CohClass(ctx, (1, 0))
