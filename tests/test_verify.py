"""Fault injection for `abelfm verify`: one broken kernel per suite must give
a FAIL line whose witness, fed back through config and the public API,
reproduces the violation with the fault in place and holds without it."""

import hashlib
import random
import re
from dataclasses import replace
from pathlib import Path

import pytest

from abelfm import config, induced, lattice, stability, transform, verify
from abelfm.cli import main
from abelfm.literals import parse_rational
from abelfm.surd import Q3, SurdComplex

FAIL_LINE = re.compile(r"^FAIL (\w+)\.(\w+): (.+) fails at (.+)$")


def witness_of(line: str) -> tuple[str, str, dict]:
    """(suite, check, witness) of a FAIL line; the witness maps each key to
    its literal text."""
    m = FAIL_LINE.match(line)
    assert m, line
    suite, check, _, text = m.groups()
    pairs = [item.split("=", 1) for item in text.split("; ")]
    assert all(len(p) == 2 for p in pairs), text
    return suite, check, dict(pairs)


def context(w):
    return config.context_from({"context": {"g": int(w["g"]), "n": w["n"]}})


def spec(w):
    block = {key: w[key] for key in ("nX", "nY", "dX", "dY")}
    return config.transform_from({"transform": {**block, "g": int(w["g"]), "r": int(w["r"])}})


def charge_spec(w):
    block = {"k": int(w["k"]), "b": w["b"], "t": w["t"]}
    return config.charge_from({"charge": block}, context(w))


def twist_composes(w):
    ctx = context(w)
    a = config.class_from(ctx, w["a"])
    b1, b2 = parse_rational(w["b1"]), parse_rational(w["b2"])
    return lattice.twist(lattice.twist(a, b1), b2) == lattice.twist(a, b1 + b2)


def twist_multiplies(w):
    ctx = context(w)
    a = config.class_from(ctx, w["a"])
    b1 = parse_rational(w["b1"])
    return lattice.twist(a, b1) == lattice.mul(lattice.exp_div(-b1, ctx), a)


def round_trip_sign(w):
    s = spec(w)
    e = config.class_from(s.src, w["e"])
    rev, _ = transform.quasi_inverse(s)
    return transform.apply(rev, transform.apply(s, e)) == e.scale((-1) ** s.g)


def params_swap(w):
    s, k, lam = spec(w), int(w["k"]), parse_rational(w["lam"])
    om_s, om_d = induced.conjecture_params(s, k, lam)
    rv_s, rv_d = induced.conjecture_params(transform.quasi_inverse(s).spec, s.g - k, 1 / lam)
    return rv_s.as_surd() == om_d.as_surd() and rv_d.as_surd() == om_s.as_surd()


def point_charge(w):
    s = charge_spec(w)
    return stability.charge(s, lattice.skyscraper(s.ctx)) == SurdComplex(Q3(-1))


def _negated_twist(orig):
    return lambda a, b: -orig(a, b)


def _flipped_twist(orig):
    # twist(a, -b): composition and b = 0 cannot see the sign of b
    return lambda a, b: orig(a, -b)


def _unsigned_apply(orig):
    # the alternating sign of the reversal cancelled by a stray dual
    return lambda spec, e: lattice.mukai_dual(orig(spec, e))


def _target_b_sign(orig):
    # the target B-field d_y taken with the wrong sign
    def law(spec, u):
        out = orig(spec, u)
        return replace(out, omega_dst=replace(out.omega_dst, base=-out.omega_dst.base))
    return law


def _unrotated_charge(orig):
    # the quarter turn -(i^(g-k)) without its minus sign
    return lambda ctx, beta, e, k: -orig(ctx, beta, e, k)


# the whole stdout of each fault row: the witnesses are a pure function of the
# seeded draws, so a change in what a check draws, or in what order, shows here
STDOUT = {
    "lattice": """\
PASS lattice.ring_laws: assoc, comm, distrib, unit on random classes g<=5
FAIL lattice.twist_action: twist(twist(a, b1), b2) = twist(a, b1+b2) fails at g=1; n=3/4; a=3,-1/5; b1=4/3; b2=1/2
PASS lattice.pairing_bilinear: bilinear in both slots
PASS lattice.vvector_roundtrip: v_vector and from_v_vector invert exactly
FAIL lattice.point_class: twist(point, b) integrates to 1 fails at g=1; n=9/4; b=-1
PASS lattice.chi_advisory: flags fractional n/g!, silent on integers
NOTE lattice.pairing_symmetry: measured swap sign on this even lattice is (-1)^g [g=1:(-1)^g, g=2:(-1)^g, g=3:(-1)^g, g=4:(-1)^g]; symmetric for even g, antisymmetric for odd g
FAILED: 7 checks, 2 failures
""",
    "lattice-b-sign": """\
PASS lattice.ring_laws: assoc, comm, distrib, unit on random classes g<=5
FAIL lattice.twist_action: twist(a, b1) = e^(-b1*l) * a fails at g=1; n=3/4; a=3,-1/5; b1=4/3
PASS lattice.pairing_bilinear: bilinear in both slots
PASS lattice.vvector_roundtrip: v_vector and from_v_vector invert exactly
PASS lattice.point_class: point class integrates to 1 under every twist
PASS lattice.chi_advisory: flags fractional n/g!, silent on integers
NOTE lattice.pairing_symmetry: measured swap sign on this even lattice is (-1)^g [g=1:(-1)^g, g=2:(-1)^g, g=3:(-1)^g, g=4:(-1)^g]; symmetric for even g, antisymmetric for odd g
FAILED: 7 checks, 1 failures
""",
    "transform": """\
PASS transform.reciprocity_guard: 100 accept/reject pairs behaved
PASS transform.linearity: apply is exactly linear
FAIL transform.composition_sign: reverse(apply(e)) = (-1)^g e fails at g=1; nX=3/4; nY=4/27; r=3; dX=1/2; dY=-2/7; e=1,0
FAIL transform.poincare_images: apply(l^i/i!) = (-1)^(g-i) (n_X/g!)/(g-i)! l^(g-i) fails at g=1; nX=1; nY=1; r=1; dX=0; dY=0; e=1,0
FAIL transform.exp_image_shape: exp_image(m) = (r n_X m^g/g!) e^(-l/m) fails at g=1; nX=8/5; nY=5/72; r=3; dX=7/3; dY=6/7; m=7/3
FAIL transform.adjoint_isometry: <adjoint(u), v> = <u, apply(v)> fails at g=1; nX=1/4; nY=1/4; r=4; dX=-1/2; dY=-8/3; u=-8,-1/3; v=3,8/5
FAIL transform.polarization_image: the image of e^(m l) has c_1 < 0 fails at g=1; nX=1/7; nY=7; r=1; dX=-6; dY=1/8; m=7/5
PASS transform.gamma_scalars: scales (r, r^3) and dual degree r^2 n_X
FAILED: 8 checks, 5 failures
""",
    "law": """\
PASS law.zeta_reality: zeta real exactly when g*angle is an integer
PASS law.induced_identity: charge transport holds exactly for all angle/modulus/spec combinations
PASS law.param_positivity: both matched polarizations stay complexified
FAIL law.param_duality: reverse params at g-k, 1/lam swap fails at g=2; nX=1; nY=1; r=2; dX=1/2; dY=-1/3; k=1; lam=1/2
PASS law.heart_shift: phase transport holds with predicted heart shift 1
PASS law.corrupted_spec: rejected: degree reciprocity violated: (n_X/g!)(n_Y/g!) = 3/2 but 1/r^2 = 1
FAILED: 6 checks, 1 failures
""",
    "bg": """\
FAIL bg.point_charge: Z(point) = -1 fails at g=2; n=1/8; k=2; b=-4/5; t=3/8
PASS bg.point_kernel: truncated charges kill the point class, phase undefined
FAIL bg.charge_oracle: charge = the series convolution fails at g=1; n=3/7; k=1; b=0; t=5/2+2*sqrt3; e=8/3,6/7
PASS bg.slope_scaling: slope invariant under positive rescaling
FAIL bg.hn_polygon: raised HeartValueError: factor 0: charge (1) - (1)*i lies outside the closed upper half-plane union R<=0
PASS bg.bound_cases: trivial, point, zero and t-monotone cases all behave
FAIL bg.slice_windows: raised HeartValueError: charge (1) + (0)*i lies outside the closed upper half-plane union R<=0
NOTE bg.rotation_convention: level k quarter-turn is -(i^(g-k)); at g=3,k=1 that is the plain integral (matches: False) and at g=2,k=1 it is -i times it (matches: False); both familiar low-level conventions agree with the master formula under this reading
FAILED: 8 checks, 4 failures
""",
}


FAULTS = [  # suite, kernel, fault, first failing check, witness keys, replay
    pytest.param("lattice", (lattice, "twist"), _negated_twist, "twist_action",
                 ["g", "n", "a", "b1", "b2"], twist_composes, id="lattice"),
    pytest.param("lattice", (lattice, "twist"), _flipped_twist, "twist_action",
                 ["g", "n", "a", "b1"], twist_multiplies, id="lattice-b-sign"),
    pytest.param("transform", (transform, "apply"), _unsigned_apply, "composition_sign",
                 ["g", "nX", "nY", "r", "dX", "dY", "e"], round_trip_sign, id="transform"),
    pytest.param("law", (induced, "induced_law"), _target_b_sign, "param_duality",
                 ["g", "nX", "nY", "r", "dX", "dY", "k", "lam"], params_swap, id="law"),
    pytest.param("bg", (stability, "charge_at"), _unrotated_charge, "point_charge",
                 ["g", "n", "k", "b", "t"], point_charge, id="bg"),
]


@pytest.mark.parametrize("suite,kernel,fault,check,keys,holds", FAULTS)
def test_broken_kernel_prints_a_replayable_witness(request, capsys, monkeypatch, suite, kernel, fault,
                                                   check, keys, holds):
    module, name = kernel
    monkeypatch.setattr(module, name, fault(getattr(module, name)))
    rc = main(["verify", "--suite", suite])
    out, err = capsys.readouterr()
    assert (rc, err) == (1, "")
    assert out == STDOUT[request.node.callspec.id]
    lines = out.splitlines()
    assert lines[-1].startswith("FAILED: ")
    first = next(line for line in lines if line.startswith("FAIL "))
    got_suite, got_check, w = witness_of(first)
    assert (got_suite, got_check) == (suite, check)
    assert list(w) == keys
    assert not holds(w)  # the violation reproduces with the fault in place
    monkeypatch.undo()
    assert holds(w)  # and the property holds without it
    assert main(["verify", "--suite", suite]) == 0


def test_law_suite_passes():
    # the induced identity check compares each verdict's two shown values at
    # u as well as its equal flag, which is decided once per class
    results, ok = verify.run_verify("law")
    assert ok, [r.line() for r in results if r.status == "FAIL"]


def test_draw_stream_is_pinned(monkeypatch):
    # one digest over every value that _rand_ints and _rand_pos return in a
    # run of all suites: a change in what verify draws, in what order, or in
    # how a Python release's Random makes a draw, moves every witness
    digest, count = hashlib.sha256(), 0

    def recorded(draw):
        def wrapper(rng):
            nonlocal count
            value = draw(rng)
            digest.update(f"{value!r}\n".encode())
            count += 1
            return value
        return wrapper

    monkeypatch.setattr(verify, "_rand_ints", recorded(verify._rand_ints))
    monkeypatch.setattr(verify, "_rand_pos", recorded(verify._rand_pos))
    results, ok = verify.run_verify("all")
    assert ok and len(results) == 29
    assert count == 4297
    assert digest.hexdigest() == "1a9ba6176f411ab7f17ba04c863c43ece952d7d3b49fcc79776af05e2edd5f76"


# every n that verify draws below: the ranges -9..9, 1..8, 1..9, 2..9, 1..3,
# 1..4, 1..5 and 1..g for g = 1..4
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 9, 19])
def test_below_draws_what_randrange_draws(n):
    ours, theirs = random.Random(f"below:{n}"), random.Random(f"below:{n}")
    got = [verify._below(ours, n) for _ in range(10_000)]
    assert got == [theirs.randrange(n) for _ in range(10_000)]
    assert ours.getstate() == theirs.getstate()


def test_unknown_suite_is_refused():
    with pytest.raises(ValueError, match=r"^unknown suite 'nope', want one of \("):
        verify.run_verify("nope")


def test_transform_witness_is_the_readme_line():
    # the README shows the transform row's first FAIL line as its example
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    line = next(x for x in STDOUT["transform"].splitlines() if x.startswith("FAIL "))
    assert line in readme.splitlines()
