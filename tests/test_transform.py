"""Cohomological transform: spec validation, images, composition, duality."""

import copy
from dataclasses import replace
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

import abelfm.transform
from abelfm.lattice import (
    AbelianContext,
    CohClass,
    ContextMismatchError,
    ShiftedClass,
    VVector,
    divided_power_basis,
    exp_div,
    from_v_vector,
    line_bundle,
    mukai_pairing,
    skyscraper,
    structure_sheaf,
    twist,
    v_vector,
)
from abelfm.transform import (
    FMTransformSpec,
    InvalidSpecError,
    adjoint_pairing_check,
    antidiag_matrix,
    apply,
    exp_image,
    gamma_action,
    polarization_image_check,
    quasi_inverse,
)

F = Fraction


def poincare(g):
    n = F(factorial(g))
    return FMTransformSpec(
        src=AbelianContext(g, n, "X"),
        dst=AbelianContext(g, n, "Y"),
        r=1,
    )


def twisted_spec():
    # g = 3, r = 2: n_X * n_Y = (3!)^2 / 4 = 9; pick n_X = 3, n_Y = 3
    return FMTransformSpec(
        src=AbelianContext(3, F(3), "X"),
        dst=AbelianContext(3, F(3), "Y"),
        r=2,
        d_x=F(1, 2),
        d_y=F(-2, 3),
    )


def test_spec_validation():
    spec = poincare(2)
    assert spec.g == 2
    with pytest.raises(InvalidSpecError):
        FMTransformSpec(
            src=AbelianContext(2, F(2), "X"),
            dst=AbelianContext(2, F(3), "Y"),
            r=1,
        )
    with pytest.raises(InvalidSpecError):
        FMTransformSpec(
            src=AbelianContext(2, F(2), "X"),
            dst=AbelianContext(3, F(2), "Y"),
            r=1,
        )
    with pytest.raises(InvalidSpecError):
        FMTransformSpec(
            src=AbelianContext(2, F(2), "X"),
            dst=AbelianContext(2, F(2), "Y"),
            r=0,
        )
    with pytest.raises(InvalidSpecError):
        FMTransformSpec(
            src=AbelianContext(2, F(2), "X"),
            dst=AbelianContext(2, F(2), "Y"),
            r=-1,
        )


def test_reciprocity_accepts_nontrivial_rank():
    # (n_X/g!)(n_Y/g!) = 1/r^2 with g = 2, r = 3: n_X n_Y = 4/9
    spec = FMTransformSpec(
        src=AbelianContext(2, F(2, 3), "X"),
        dst=AbelianContext(2, F(2, 3), "Y"),
        r=3,
    )
    assert spec.r == 3


def _accepts(g, n_x, n_y, r):
    try:
        FMTransformSpec(src=AbelianContext(g, n_x, "X"), dst=AbelianContext(g, n_y, "Y"), r=r)
    except InvalidSpecError:
        return False
    return True


def test_integer_reciprocity_matches_the_fraction_formula():
    verdicts = []
    for g in range(1, 7):
        fg = factorial(g)
        for r in range(1, 7):
            for n_x in (F(1, 2), F(5, 3), F(7, 4), F(2, 9), F(11, 6)):
                partner = F(fg) ** 2 / (r * r * n_x)
                for n_y in (partner, partner * F(3, 2), partner * F(4, 5), F(5, 2), F(9, 7)):
                    if n_y.denominator == 1:
                        continue
                    want = (n_x / fg) * (n_y / fg) == F(1, r * r)
                    assert _accepts(g, n_x, n_y, r) == want
                    verdicts.append(want)
    assert True in verdicts and False in verdicts


@pytest.mark.parametrize("g,n_x,n_y,r,shown", [
    (2, F(2), F(3), 1, "3/2 but 1/r^2 = 1"),
    (3, F(3, 2), F(5, 4), 2, "5/96 but 1/r^2 = 1/4"),
])
def test_reciprocity_rejection_text(g, n_x, n_y, r, shown):
    with pytest.raises(InvalidSpecError) as info:
        FMTransformSpec(src=AbelianContext(g, n_x, "X"), dst=AbelianContext(g, n_y, "Y"), r=r)
    assert str(info.value) == f"degree reciprocity violated: (n_X/g!)(n_Y/g!) = {shown}"


def test_antidiag_matrix_entries():
    spec = poincare(2)
    m = antidiag_matrix(spec)
    assert m[0][2] == 1  # g!/(r n_X) = 2/2
    assert m[1][1] == -1
    assert m[2][0] == 1
    assert m[0][0] == 0 and m[1][2] == 0


def test_apply_swaps_structure_and_point():
    for g in (1, 2, 3, 4):
        spec = poincare(g)
        o = structure_sheaf(spec.src)
        p = skyscraper(spec.src)
        img_o = apply(spec, o)
        img_p = apply(spec, p)
        # rank-one untwisted transform: O -> (-1)^g pt, pt -> O
        assert img_o == skyscraper(spec.dst).scale((-1) ** g)
        assert img_p == structure_sheaf(spec.dst)


def test_apply_basis_closed_form():
    for g in (1, 2, 3, 4):
        n_x = F(3, 2)
        spec = FMTransformSpec(
            src=AbelianContext(g, n_x, "X"),
            dst=AbelianContext(g, F(factorial(g)) ** 2 / n_x, "Y"),
            r=1,
        )
        for i, e in enumerate(divided_power_basis(spec.src)):
            img = apply(spec, e)
            want = [F(0)] * (g + 1)
            want[g - i] = (-1) ** (g - i) * (n_x / factorial(g)) / factorial(g - i)
            assert img == CohClass(spec.dst, tuple(want))


def test_a_spec_builds_its_kernel_once(monkeypatch):
    # apply reads the exponentials of d_x and d_y from the spec's kernel,
    # built on its first use, however many classes the spec maps
    calls = []
    exp_ints = abelfm.transform._exp_ints

    def counting(d, g):
        calls.append(d)
        return exp_ints(d, g)

    monkeypatch.setattr(abelfm.transform, "_exp_ints", counting)
    spec = twisted_spec()
    for e in divided_power_basis(spec.src):
        apply(spec, e)
    assert calls == [spec.d_x, spec.d_y]


def _fresh(spec):
    """A spec with the same fields and no kernel built yet."""
    return FMTransformSpec(src=spec.src, dst=spec.dst, r=spec.r, d_x=spec.d_x, d_y=spec.d_y)


def test_no_spec_kernel_goes_stale():
    spec = twisted_spec()
    coeffs = [e.c for e in divided_power_basis(spec.src)] + [(F(1, 2), F(-3), F(2, 7), F(5))]

    def images(s):
        return [apply(s, CohClass(s.src, c)) for c in coeffs]

    original = images(spec)  # builds spec's kernel
    assert "_kernel" in vars(spec)
    copied = copy.copy(spec)  # carries the built kernel along
    assert "_kernel" in vars(copied)
    assert images(copied) == images(_fresh(spec)) == original
    for other in (replace(spec, d_x=F(-5, 3)), replace(spec, d_y=F(7, 2))):
        assert images(other) == images(_fresh(other)) != original
    rev = quasi_inverse(spec).spec
    assert images(rev) == images(_fresh(rev))


def test_apply_rejects_foreign_context():
    spec = poincare(2)
    alien = structure_sheaf(AbelianContext(2, F(7)))
    with pytest.raises(ContextMismatchError):
        apply(spec, alien)


def test_composition_with_twists():
    spec = twisted_spec()
    rev, shift = quasi_inverse(spec)
    assert shift == 3
    assert rev.d_x == F(2, 3) and rev.d_y == F(-1, 2)
    e = CohClass(spec.src, (F(2), F(-1), F(1, 3), F(5)))
    assert apply(rev, apply(spec, e)) == e.scale(-1)  # (-1)^3


def test_composition_poincare_even():
    spec = poincare(2)
    rev, _ = quasi_inverse(spec)
    e = CohClass(spec.src, (F(1), F(2), F(3)))
    assert apply(rev, apply(spec, e)) == e


def test_shifted_class():
    ctx = AbelianContext(2, F(2))
    e = structure_sheaf(ctx)
    sh = ShiftedClass(e, 3)
    assert sh.flatten() == e.scale(-1)
    assert sh.shifted(1).shift == 4
    assert sh.shifted(1).flatten() == e
    with pytest.raises(ValueError):
        ShiftedClass(e, "one")


def test_exp_image_closed_form():
    spec = twisted_spec()
    for m in (F(1), F(1, 2), F(-3), F(7, 5)):
        img = exp_image(spec, m)
        scale = F(spec.r) * spec.src.n * m**3 / 6
        assert img == exp_div(F(-1) / m, spec.dst).scale(scale)
    with pytest.raises(ValueError):
        exp_image(spec, F(0))


def test_line_bundle_image_degenerates_to_point_direction():
    # the m -> 0 analogue: a fiber class goes to a rank class, checked via
    # the skyscraper rather than a limit
    spec = twisted_spec()
    img = apply(spec, skyscraper(spec.src))
    assert img.c[0] == F(2)  # rank r of the kernel restricted to a fiber
    assert img == line_bundle(spec.dst, spec.d_y).scale(F(2))


def test_polarization_image_sign():
    spec = twisted_spec()
    for m in (F(1), F(1, 3), F(5)):
        assert polarization_image_check(spec, m)
    with pytest.raises(ValueError):
        polarization_image_check(spec, F(0))
    with pytest.raises(ValueError):
        polarization_image_check(spec, F(-2))


def test_adjoint_pairing_on_fixed_classes():
    spec = twisted_spec()
    u = CohClass(spec.dst, (F(1), F(1, 2), F(-3), F(0)))
    v = CohClass(spec.src, (F(2), F(0), F(1, 5), F(1)))
    assert adjoint_pairing_check(spec, u, v)
    # explicit numbers for one pair: both pairings agree exactly
    rev, shift = quasi_inverse(spec)
    left = mukai_pairing(apply(rev, u).scale((-1) ** shift), v)
    right = mukai_pairing(u, apply(spec, v))
    assert left == right


def test_gamma_action_values():
    spec = twisted_spec()
    act = gamma_action(spec, 1)
    assert act.degree == 1
    assert act.forward_scale == 2
    assert act.composite_scale == 8
    assert act.dual_ctx.g == 3
    assert act.dual_ctx.n == 4 * F(3)
    assert act.dual_ctx.label == "Y^"
    with pytest.raises(ValueError):
        gamma_action(spec, 4)
    with pytest.raises(ValueError):
        gamma_action(spec, -1)


def test_twist_conjugation_identity():
    # raising d_x by a is undone by pre-twisting the argument by a:
    # both pipelines multiply by e^{d_x l} before the antidiagonal step
    spec = twisted_spec()
    a = F(1, 4)
    shifted = FMTransformSpec(
        src=spec.src, dst=spec.dst, r=spec.r, d_x=spec.d_x + a, d_y=spec.d_y
    )
    e = CohClass(spec.src, (F(1), F(2), F(-1), F(1, 2)))
    assert apply(shifted, twist(e, a)) == apply(spec, e)


# numerators up to 10^30, denominators up to 10^6, and plenty of exact zeros
wide_rat = st.one_of(
    st.just(F(0)),
    st.builds(F, st.integers(-(10**30), 10**30), st.integers(1, 10**6)),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
)


@st.composite
def specs_and_classes(draw):
    g = draw(st.integers(1, 8))
    r = draw(st.integers(1, 5))
    n_x = draw(st.builds(F, st.integers(1, 10**6), st.integers(1, 10**6)))
    spec = FMTransformSpec(
        src=AbelianContext(g, n_x, "X"),
        dst=AbelianContext(g, F(factorial(g)) ** 2 / (r * r * n_x), "Y"),
        r=r,
        d_x=draw(wide_rat),
        d_y=draw(wide_rat),
    )
    zero = draw(st.booleans())
    coeffs = [F(0)] * (g + 1) if zero else draw(st.lists(wide_rat, min_size=g + 1, max_size=g + 1))
    return spec, CohClass(spec.src, tuple(coeffs))


@settings(max_examples=200, deadline=None)
@given(specs_and_classes())
def test_apply_matches_the_documented_pipeline(case):
    # oracle: coordinates with twist -d_x, the antidiagonal matrix, and
    # coordinates with twist d_y read back on the target
    spec, e = case
    g = spec.g
    vv = v_vector(e, -spec.d_x)
    m = antidiag_matrix(spec)
    w = tuple(sum(m[i][j] * vv.v[j] for j in range(g + 1)) for i in range(g + 1))
    want = from_v_vector(VVector(spec.dst, spec.d_y, w))
    got = apply(spec, e)
    assert got == want
    assert got.ctx == spec.dst and all(type(x) is F for x in got.c)
