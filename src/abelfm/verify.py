"""Runtime self-verification suites, runnable from the CLI.

Each suite drives a batch of exact checks with fixed seeds and reports one
line per check: PASS, FAIL with a counterexample, or NOTE for measured
conventions that are reported rather than asserted (the symmetry sign of
the pairing, and the quarter-turn factor of low-level charges, both of
which are easy to get wrong silently when conventions drift).

A check is a function _check_<name> returning (status, detail), listed
under its suite in _SUITE_CHECKS; run_verify reports it as <suite>.<name>.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from math import factorial

from . import induced, lattice, stability, transform
from .lattice import AbelianContext, CohClass
from .surd import PolarScalar, Q3, SurdComplex

_SEED = 271828


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # PASS, FAIL or NOTE
    detail: str = ""

    def line(self) -> str:
        return f"{self.status} {self.name}" + (f": {self.detail}" if self.detail else "")


def _rng(tag: str) -> random.Random:
    return random.Random(f"{_SEED}:{tag}")


def _rand_rat(rng: random.Random, lo: int = -9, hi: int = 9, den: int = 8) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def _rand_pos(rng: random.Random, hi: int = 9, den: int = 8) -> Fraction:
    return Fraction(rng.randint(1, hi), rng.randint(1, den))


def _rand_class(rng: random.Random, ctx: AbelianContext) -> CohClass:
    return CohClass(ctx, tuple(_rand_rat(rng) for _ in range(ctx.g + 1)))


def _spec(g: int, n_x, r: int = 1, d_x=0, d_y=0) -> transform.FMTransformSpec:
    """The X -> Y spec whose n_Y = (g!)^2 / (r^2 n_X) obeys the reciprocity."""
    return transform.FMTransformSpec(
        src=AbelianContext(g, n_x, "X"),
        dst=AbelianContext(g, Fraction(factorial(g)) ** 2 / (r * r * n_x), "Y"),
        r=r,
        d_x=d_x,
        d_y=d_y,
    )


def _rand_spec(rng: random.Random, g: int) -> transform.FMTransformSpec:
    r = rng.randint(1, 4)
    n_x = _rand_pos(rng)
    return _spec(g, n_x, r, _rand_rat(rng), _rand_rat(rng))


# ---------------------------------------------------------------- lattice --


def _check_ring_laws() -> tuple[str, str]:
    rng = _rng("ring")
    for g in range(1, 6):
        ctx = AbelianContext(g, _rand_pos(rng))
        for _ in range(8):
            a, b, c = (_rand_class(rng, ctx) for _ in range(3))
            if lattice.mul(lattice.mul(a, b), c) != lattice.mul(a, lattice.mul(b, c)):
                return "FAIL", f"associativity broke at g={g}"
            if lattice.mul(a, b) != lattice.mul(b, a):
                return "FAIL", f"commutativity broke at g={g}"
            if lattice.mul(a, b + c) != lattice.mul(a, b) + lattice.mul(a, c):
                return "FAIL", f"distributivity broke at g={g}"
            if lattice.mul(a, lattice.structure_sheaf(ctx)) != a:
                return "FAIL", f"unit broke at g={g}"
    return "PASS", "assoc, comm, distrib, unit on random classes g<=5"


def _check_twist_action() -> tuple[str, str]:
    rng = _rng("twist")
    for g in range(1, 6):
        ctx = AbelianContext(g, _rand_pos(rng))
        for _ in range(8):
            a = _rand_class(rng, ctx)
            b1, b2 = _rand_rat(rng), _rand_rat(rng)
            if lattice.twist(lattice.twist(a, b1), b2) != lattice.twist(a, b1 + b2):
                return "FAIL", f"composition broke at g={g}"
            if lattice.twist(a, 0) != a:
                return "FAIL", f"identity broke at g={g}"
    return "PASS", "twists compose additively and fix b=0"


def _check_pairing_bilinear() -> tuple[str, str]:
    rng = _rng("pairing")
    for g in range(1, 5):
        ctx = AbelianContext(g, _rand_pos(rng))
        for _ in range(8):
            a, b, c = (_rand_class(rng, ctx) for _ in range(3))
            q = _rand_rat(rng)
            lhs = lattice.mukai_pairing(a + b.scale(q), c)
            rhs = lattice.mukai_pairing(a, c) + q * lattice.mukai_pairing(b, c)
            if lhs != rhs:
                return "FAIL", f"first slot broke at g={g}"
            lhs = lattice.mukai_pairing(c, a + b.scale(q))
            rhs = lattice.mukai_pairing(c, a) + q * lattice.mukai_pairing(c, b)
            if lhs != rhs:
                return "FAIL", f"second slot broke at g={g}"
    return "PASS", "bilinear in both slots"


def _check_pairing_symmetry() -> tuple[str, str]:
    rng = _rng("sym")
    seen = []
    for g in range(1, 5):
        ctx = AbelianContext(g, _rand_pos(rng))
        flips = all(
            lattice.mukai_pairing(a, b) == (-1) ** g * lattice.mukai_pairing(b, a)
            for a, b in (
                (_rand_class(rng, ctx), _rand_class(rng, ctx)) for _ in range(12)
            )
        )
        seen.append(f"g={g}:{'(-1)^g' if flips else 'UNEXPECTED'}")
    return (
        "NOTE",
        "measured swap sign on this even lattice is (-1)^g "
        f"[{', '.join(seen)}]; symmetric for even g, antisymmetric for odd g",
    )


def _check_chi_advisory() -> tuple[str, str]:
    # integral chi stays silent, fractional chi warns, nothing ever raises
    cases = [
        (AbelianContext(2, Fraction(2)), True),
        (AbelianContext(2, Fraction(6)), True),
        (AbelianContext(2, Fraction(3)), False),
        (AbelianContext(3, Fraction(3, 2)), False),
        (AbelianContext(1, Fraction(1, 5)), False),
    ]
    for ctx, silent in cases:
        note = lattice.chi_advisory(ctx)
        if silent and note is not None:
            return "FAIL", f"false alarm for chi={ctx.chi}"
        if not silent and (note is None or str(ctx.chi) not in note):
            return "FAIL", f"missed fractional chi={ctx.chi}"
    return "PASS", "flags fractional n/g!, silent on integers"


def _check_vvector_roundtrip() -> tuple[str, str]:
    rng = _rng("vvec")
    for g in range(1, 6):
        ctx = AbelianContext(g, _rand_pos(rng))
        for _ in range(8):
            a = _rand_class(rng, ctx)
            b = _rand_rat(rng)
            vv = lattice.v_vector(a, b)
            if lattice.from_v_vector(vv) != a:
                return "FAIL", f"broke at g={g}, b={b}"
            if any(
                vv.v[i] != factorial(i) * ctx.n * lattice.twist(a, b).c[i]
                for i in range(g + 1)
            ):
                return "FAIL", f"scaling broke at g={g}"
    return "PASS", "v_vector and from_v_vector invert exactly"


def _check_point_class() -> tuple[str, str]:
    rng = _rng("point")
    for g in range(1, 6):
        ctx = AbelianContext(g, _rand_pos(rng))
        p = lattice.skyscraper(ctx)
        if lattice.integrate(p) != 1:
            return "FAIL", f"integral != 1 at g={g}"
        for _ in range(4):
            b = _rand_rat(rng)
            if lattice.integrate(lattice.twist(p, b)) != 1:
                return "FAIL", f"twist changed integral at g={g}"
    return "PASS", "point class integrates to 1 under every twist"


# -------------------------------------------------------------- transform --


def _check_reciprocity_guard() -> tuple[str, str]:
    rng = _rng("guard")
    for case in range(100):
        g = rng.randint(1, 5)
        spec = _rand_spec(rng, g)  # accepts by construction
        bad = spec.dst.n * Fraction(rng.randint(2, 9), rng.randint(2, 9) + 7)
        if bad == spec.dst.n:
            bad = spec.dst.n * 2
        try:
            replace(spec, dst=AbelianContext(g, bad, "Y"))
            return "FAIL", f"case {case}: accepted bad n_Y"
        except transform.InvalidSpecError:
            pass
    return "PASS", "100 accept/reject pairs behaved"


def _check_linearity() -> tuple[str, str]:
    rng = _rng("linear")
    for g in range(1, 5):
        spec = _rand_spec(rng, g)
        for _ in range(6):
            a = _rand_class(rng, spec.src)
            b = _rand_class(rng, spec.src)
            q = _rand_rat(rng)
            lhs = transform.apply(spec, a + b.scale(q))
            rhs = transform.apply(spec, a) + transform.apply(spec, b).scale(q)
            if lhs != rhs:
                return "FAIL", f"broke at g={g}"
    return "PASS", "apply is exactly linear"


def _check_composition_sign() -> tuple[str, str]:
    rng = _rng("comp")
    for g in range(1, 6):
        for _ in range(20):
            spec = _rand_spec(rng, g)
            rev, shift = transform.quasi_inverse(spec)
            if shift != g:
                return "FAIL", f"shift {shift} != g={g}"
            for e in lattice.divided_power_basis(spec.src):
                back = transform.apply(rev, transform.apply(spec, e))
                if back != e.scale((-1) ** g):
                    return "FAIL", f"g={g}, r={spec.r}: round trip is not (-1)^g id"
    return "PASS", "reverse o forward = (-1)^g id, 20 specs per g<=5"


def _check_poincare_images() -> tuple[str, str]:
    for g in range(1, 6):
        for n_x in (Fraction(1), Fraction(factorial(g)), Fraction(2), Fraction(3, 2)):
            spec = _spec(g, n_x)
            for i, e in enumerate(lattice.divided_power_basis(spec.src)):
                img = transform.apply(spec, e)
                want = [Fraction(0)] * (g + 1)
                want[g - i] = (
                    (-1) ** (g - i) * (n_x / factorial(g)) / factorial(g - i)
                )
                if img != CohClass(spec.dst, tuple(want)):
                    return "FAIL", f"g={g}, n_X={n_x}, basis {i}: got {img}"
    return "PASS", "rank-one untwisted images of divided powers match the closed form"


def _check_exp_image_shape() -> tuple[str, str]:
    rng = _rng("expimg")
    for g in range(1, 5):
        for _ in range(6):
            spec = _rand_spec(rng, g)
            for m in (_rand_pos(rng), -_rand_pos(rng)):
                img = transform.exp_image(spec, m)
                scale = Fraction(spec.r) * spec.src.n * m**g / factorial(g)
                want = lattice.exp_div(-1 / m, spec.dst).scale(scale)
                if img != want:
                    return "FAIL", f"g={g}, m={m}: got {img}, want {want}"
    return "PASS", "normalized exponential images are (r n_X m^g/g!) e^(-l/m)"


def _check_adjoint_isometry() -> tuple[str, str]:
    rng = _rng("adjoint")
    for g in (1, 2, 3):
        for _ in range(25):
            spec = _rand_spec(rng, g)
            u = _rand_class(rng, spec.dst)
            v = _rand_class(rng, spec.src)
            if not transform.adjoint_pairing_check(spec, u, v):
                return "FAIL", f"failed at g={g}"
    return "PASS", "pairing isometry on random pairs, g<=3"


def _check_polarization_image() -> tuple[str, str]:
    rng = _rng("polar")
    for g in range(1, 5):
        for _ in range(6):
            spec = _rand_spec(rng, g)
            m = _rand_pos(rng)
            if not transform.polarization_image_check(spec, m):
                return "FAIL", f"g={g}, m={m}"
    return "PASS", "image degree-one coefficient is negative for every ample scale"


def _check_gamma_scalars() -> tuple[str, str]:
    rng = _rng("gamma")
    for g in (1, 2, 3):
        spec = _rand_spec(rng, g)
        act = transform.gamma_action(spec, g)
        if act.forward_scale != spec.r or act.composite_scale != spec.r**3:
            return "FAIL", f"scales wrong at g={g}"
        if act.dual_ctx.n != spec.r**2 * spec.src.n:
            return "FAIL", f"dual degree wrong at g={g}"
    return "PASS", "scales (r, r^3) and dual degree r^2 n_X"


# -------------------------------------------------------------------- law --


def _check_zeta_reality() -> tuple[str, str]:
    for g in range(1, 7):
        spec = _spec(g, factorial(g))
        for q in range(1, 9):
            for p in range(-q, q + 1):
                if Fraction(p, q) == 0:
                    continue
                u = PolarScalar(Fraction(3, 2), Fraction(p, q))
                z = induced.zeta(spec, u)
                should_be_real = (Fraction(p, q) * g).denominator == 1
                if z.is_real != should_be_real:
                    return "FAIL", f"g={g}, angle {p}/{q}: is_real={z.is_real}"
        for f in induced.real_zeta_angles(g):
            if not induced.zeta(spec, PolarScalar(Fraction(2), f)).is_real:
                return "FAIL", f"listed angle {f} not real at g={g}"
    return "PASS", "zeta real exactly when g*angle is an integer"


def _law_specs(g: int) -> list[transform.FMTransformSpec]:
    picks = [
        (Fraction(1), 2, Fraction(1, 2), Fraction(-1, 3)),
        (Fraction(1, 2), 2, Fraction(-2), Fraction(3, 4)),
        (Fraction(2), 3, Fraction(1, 3), Fraction(1, 5)),
        (Fraction(1, 2), 3, Fraction(-1, 2), Fraction(-2, 3)),
        (Fraction(3), 4, Fraction(5, 2), Fraction(-1, 7)),
        (Fraction(3, 2), 2, Fraction(-4, 3), Fraction(5, 6)),
    ]
    return [_spec(g, factorial(g))] + [_spec(g, *pick) for pick in picks]


def _check_induced_identity() -> tuple[str, str]:
    lambdas = (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(7, 3))
    for g in (2, 3):
        for spec in _law_specs(g):
            basis = lattice.divided_power_basis(spec.src)
            for k in range(1, g):
                for lam in lambdas:
                    u = PolarScalar(lam, Fraction(k, g))
                    verdicts = induced.verify_induced_law(spec, u, basis)
                    for v in verdicts:
                        if not (v.equal and v.exact):
                            return "FAIL", (
                                f"g={g}, r={spec.r}, k={k}, lam={lam}, {v.label}: "
                                f"{v.lhs} vs {v.rhs}"
                            )
    return "PASS", "charge transport holds exactly for all angle/modulus/spec combinations"


def _check_param_positivity() -> tuple[str, str]:
    lambdas = (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(7, 3))
    for g in (2, 3, 6):
        for spec in (_law_specs(g)[0], _law_specs(g)[1]):
            for k in range(1, g):
                for lam in lambdas:
                    om_s, om_d = (om.as_surd() for om in induced.conjecture_params(spec, k, lam))
                    if om_s is None or om_d is None:
                        return "FAIL", f"g={g}, k={k}: inexact components"
                    if om_s.im.sign() <= 0 or om_d.im.sign() <= 0:
                        return "FAIL", f"g={g}, k={k}, lam={lam}: Im <= 0"
    return "PASS", "both matched polarizations stay complexified"


def _check_param_duality() -> tuple[str, str]:
    lambdas = (Fraction(1, 2), Fraction(2), Fraction(7, 3))
    for g in (2, 3):
        for spec in _law_specs(g)[:4]:
            rev, _ = transform.quasi_inverse(spec)
            for k in range(1, g):
                for lam in lambdas:
                    om_s, om_d = induced.conjecture_params(spec, k, lam)
                    rv_s, rv_d = induced.conjecture_params(rev, g - k, 1 / lam)
                    if rv_s.as_surd() != om_d.as_surd() or rv_d.as_surd() != om_s.as_surd():
                        return "FAIL", f"g={g}, k={k}, lam={lam}: reverse params do not swap"
    return "PASS", "reverse spec with k->g-k, lam->1/lam exchanges the two polarizations"


def _check_heart_shift() -> tuple[str, str]:
    for g in (2, 3):
        for spec in _law_specs(g)[:3]:
            u = PolarScalar(Fraction(1), Fraction(1, g))
            e = lattice.skyscraper(spec.src)
            verdict = induced.phase_shift_check(spec, u, e)
            if not (verdict.holds and verdict.exact and verdict.expected_shift == 1):
                return "FAIL", (
                    f"g={g}, r={spec.r}: holds={verdict.holds}, shift={verdict.expected_shift}"
                )
    return "PASS", "phase transport holds with predicted heart shift 1"


def _check_corrupted_spec() -> tuple[str, str]:
    try:
        transform.FMTransformSpec(
            src=AbelianContext(2, Fraction(2), "X"),
            dst=AbelianContext(2, Fraction(3), "Y"),
            r=1,
        )
    except transform.InvalidSpecError as exc:
        return "PASS", f"rejected: {exc}"
    return "FAIL", "perturbed degree pair was accepted"


# ---------------------------------------------------------- stability, bg --


def _convolved_charge(ctx, b, t, e, k) -> SurdComplex:
    """Oracle: the series convolution of _plain_truncated_integral, then the
    quarter turn.  Only shares scalar arithmetic with the closed-form
    implementation."""
    z = _plain_truncated_integral(ctx, b, t, e, k)
    for _ in range((ctx.g - k) % 4):
        z = z.times_i()
    return -z


def _check_point_charge() -> tuple[str, str]:
    rng = _rng("pointcharge")
    for g in (2, 3):
        ctx = AbelianContext(g, _rand_pos(rng))
        p = lattice.skyscraper(ctx)
        for _ in range(10):
            spec = stability.ChargeSpec(ctx, g, _rand_rat(rng), _rand_pos(rng))
            if stability.charge(spec, p) != SurdComplex(Q3(-1)):
                return "FAIL", f"full charge != -1 at g={g}"
            if stability.phase_cmp(spec, p, Fraction(1)) != 0:
                return "FAIL", f"phase != 1 at g={g}"
            if stability.slope(spec, p) is not None:
                return "FAIL", f"slope finite at g={g}"
    return "PASS", "point class has charge -1, phase 1, infinite slope"


def _check_point_kernel() -> tuple[str, str]:
    for g in (2, 3, 4):
        ctx = AbelianContext(g, Fraction(2))
        p = lattice.skyscraper(ctx)
        for k in range(1, g):
            spec = stability.ChargeSpec(ctx, k, Fraction(1, 3), Fraction(2))
            z = stability.charge(spec, p)
            if not z.is_zero:
                return "FAIL", f"Z != 0 at g={g}, k={k}"
            if stability.phase(spec, p) is not None:
                return "FAIL", f"phase defined at g={g}, k={k}"
    return "PASS", "truncated charges kill the point class, phase undefined"


def _check_charge_oracle() -> tuple[str, str]:
    rng = _rng("oracle")
    for g in range(1, 5):
        ctx = AbelianContext(g, _rand_pos(rng))
        for _ in range(10):
            e = _rand_class(rng, ctx)
            k = rng.randint(1, g)
            b = _rand_rat(rng)
            t = Q3(_rand_pos(rng), _rand_pos(rng) if rng.random() < 0.5 else Fraction(0))
            spec = stability.ChargeSpec(ctx, k, b, t)
            a = stability.charge(spec, e)
            o = _convolved_charge(ctx, b, t, e, k)
            if a != o:
                return "FAIL", f"mismatch at g={g}, k={k}"
            e2 = _rand_class(rng, ctx)
            if stability.charge(spec, e) + stability.charge(spec, e2) != stability.charge(
                spec, e + e2
            ):
                return "FAIL", f"additivity broke at g={g}"
    return "PASS", "closed form matches series convolution; additive"


def _check_slope_scaling() -> tuple[str, str]:
    rng = _rng("slopescale")
    ctx = AbelianContext(3, Fraction(2))
    for _ in range(20):
        e = _rand_class(rng, ctx)
        spec = stability.ChargeSpec(ctx, rng.randint(1, 3), _rand_rat(rng), _rand_pos(rng))
        q = _rand_pos(rng)
        s1 = stability.slope(spec, e)
        s2 = stability.slope(spec, e.scale(q))
        if stability.slope_cmp(s1, s2) != 0:
            return "FAIL", f"slope moved under scaling by {q}"
    return "PASS", "slope invariant under positive rescaling"


def _check_hn_polygon() -> tuple[str, str]:
    ctx = AbelianContext(1, Fraction(1))
    spec = stability.ChargeSpec(ctx, 1, Fraction(0), Fraction(1))
    # degree d line bundle has charge i - d here, hence slope d
    dn = lattice.line_bundle(ctx, Fraction(-1))
    z0 = lattice.structure_sheaf(ctx)
    up = lattice.line_bundle(ctx, Fraction(1))
    good = stability.hn_polygon([up, z0, dn], spec)
    if not good.valid:
        return "FAIL", "descending slopes judged invalid"
    bad = stability.hn_polygon([z0, up], spec)
    if bad.valid:
        return "FAIL", "ascending slopes judged valid"
    if list(bad.sorted_order) != [1, 0]:
        return "FAIL", f"sort order wrong: {bad.sorted_order}"
    merged = stability.hn_polygon([dn, dn], spec)
    if not merged.valid:
        return "FAIL", "equal adjacent slopes must merge into one edge"
    if any(v[0].sign() < 0 for v in good.vertices):
        return "FAIL", "x coordinate went negative"
    try:
        stability.hn_polygon([-up], spec)
        return "FAIL", "accepted a factor outside the heart range"
    except stability.HeartValueError:
        pass
    return "PASS", "validity, plumbing order and rejection all behave"


def _check_bound_cases() -> tuple[str, str]:
    rng = _rng("bound")
    ctx = AbelianContext(3, Fraction(6))
    v = lattice.structure_sheaf(ctx)
    verdict = stability.bg_check(ctx, Fraction(0), Fraction(1), v)
    if not verdict.inequality_holds:
        return "FAIL", "trivial 0 <= 0 case judged false"
    p = lattice.skyscraper(ctx)
    verdict = stability.bg_check(ctx, Fraction(0), Fraction(1), p)
    if verdict.inequality_holds or verdict.precondition_zero_slope:
        return "FAIL", "point class verdicts wrong"
    z = CohClass.zero(ctx)
    if not stability.bg_check(ctx, Fraction(0), Fraction(1), z).inequality_holds:
        return "FAIL", "zero class not vacuously true"
    for _ in range(50):
        e = _rand_class(rng, ctx)
        b = _rand_rat(rng)
        if lattice.twist(e, b).c[1] < 0:
            e = -e
        t1 = _rand_pos(rng)
        t2 = t1 + _rand_pos(rng)
        v1 = stability.bg_check(ctx, b, t1, e)
        v2 = stability.bg_check(ctx, b, t2, e)
        if v1.inequality_holds and not v2.inequality_holds:
            return "FAIL", f"monotonicity broke at b={b}, t={t1}->{t2}"
    return "PASS", "trivial, point, zero and t-monotone cases all behave"


def _check_slice_windows() -> tuple[str, str]:
    ctx = AbelianContext(2, Fraction(2))
    spec = stability.ChargeSpec(ctx, 2, Fraction(0), Fraction(1))
    p = lattice.skyscraper(ctx)
    half, one, threehalf = Fraction(1, 2), Fraction(1), Fraction(3, 2)
    if not stability.in_slice(spec, p, (half, one)):
        return "FAIL", "point class not in (1/2, 1]"
    ctx1 = AbelianContext(1, Fraction(1))
    spec1 = stability.ChargeSpec(ctx1, 1, Fraction(0), Fraction(1))
    o = lattice.structure_sheaf(ctx1)  # charge i, phase 1/2
    if stability.in_slice(spec1, o, (half, one)):
        return "FAIL", "phase 1/2 leaked into the open end"
    sh = transform.ShiftedClass(o, 1)  # phase 3/2
    if not stability.in_slice(spec1, sh, (half, threehalf)):
        return "FAIL", "shifted phase 3/2 missed (1/2, 3/2]"
    tower = stability.heart_tower(ctx, Fraction(0), Fraction(1))
    if [lvl.k for lvl in tower] != [1, 2] or not tower[-1].is_top:
        return "FAIL", "tower levels wrong"
    if tower[0].heart != "Coh" or tower[1].window != (half, threehalf):
        return "FAIL", "tower descriptors wrong"
    return "PASS", "slice membership and tower descriptors behave"


def _plain_truncated_integral(ctx, b, t, e, k) -> SurdComplex:
    """Oracle: build e^(-(b+it)l) coefficientwise, convolve against the
    truncated class and integrate; no quarter turn and no negation."""
    beta = SurdComplex(Q3(b), t)
    series = [SurdComplex(Q3(1))]
    for j in range(1, ctx.g + 1):
        series.append(series[-1] * -beta * Fraction(1, j))
    top = SurdComplex()
    for i in range(k + 1):
        top = top + series[ctx.g - i] * e.c[i]
    return ctx.n * top


def _check_rotation_convention() -> tuple[str, str]:
    # measure the quarter-turn factor -(i^(g-k)) at two spot levels
    ctx3 = AbelianContext(3, Fraction(6))
    e3 = lattice.line_bundle(ctx3, Fraction(1))
    z3 = stability.charge(stability.ChargeSpec(ctx3, 1), e3)
    g3_plain = z3 == _plain_truncated_integral(ctx3, Fraction(0), Fraction(1), e3, 1)
    ctx2 = AbelianContext(2, Fraction(2))
    e2 = lattice.line_bundle(ctx2, Fraction(1))
    z2 = stability.charge(stability.ChargeSpec(ctx2, 1), e2)
    plain2 = _plain_truncated_integral(ctx2, Fraction(0), Fraction(1), e2, 1)
    g2_minus_i = z2 == -(plain2.times_i())
    return (
        "NOTE",
        "level k quarter-turn is -(i^(g-k)); at g=3,k=1 that is the plain "
        f"integral (matches: {g3_plain}) and at g=2,k=1 it is -i times it "
        f"(matches: {g2_minus_i}); both familiar low-level conventions "
        "agree with the master formula under this reading",
    )


_SUITE_CHECKS = {
    "lattice": (
        _check_ring_laws,
        _check_twist_action,
        _check_pairing_bilinear,
        _check_vvector_roundtrip,
        _check_point_class,
        _check_chi_advisory,
        _check_pairing_symmetry,
    ),
    "transform": (
        _check_reciprocity_guard,
        _check_linearity,
        _check_composition_sign,
        _check_poincare_images,
        _check_exp_image_shape,
        _check_adjoint_isometry,
        _check_polarization_image,
        _check_gamma_scalars,
    ),
    "law": (
        _check_zeta_reality,
        _check_induced_identity,
        _check_param_positivity,
        _check_param_duality,
        _check_heart_shift,
        _check_corrupted_spec,
    ),
    "bg": (
        _check_point_charge,
        _check_point_kernel,
        _check_charge_oracle,
        _check_slope_scaling,
        _check_hn_polygon,
        _check_bound_cases,
        _check_slice_windows,
        _check_rotation_convention,
    ),
}
SUITES = (*_SUITE_CHECKS, "all")


def run_verify(suite: str) -> tuple[list[CheckResult], bool]:
    """Run one suite (or "all"); returns the results and overall success.
    NOTE results never affect success."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}, want one of {SUITES}")
    results: list[CheckResult] = []
    for name, checks in _SUITE_CHECKS.items():
        if suite in ("all", name):
            for check in checks:
                status, detail = check()
                tag = check.__name__.removeprefix("_check_")
                results.append(CheckResult(f"{name}.{tag}", status, detail))
    ok = all(r.status != "FAIL" for r in results)
    return results, ok
