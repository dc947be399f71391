"""Fault injection for `abelfm verify`: one broken kernel per suite must give
a FAIL line whose witness, fed back through config and the public API,
reproduces the violation with the fault in place and holds without it."""

import re
from dataclasses import replace

import pytest

from abelfm import config, induced, lattice, stability, transform
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
def test_broken_kernel_prints_a_replayable_witness(capsys, monkeypatch, suite, kernel, fault,
                                                   check, keys, holds):
    module, name = kernel
    monkeypatch.setattr(module, name, fault(getattr(module, name)))
    rc = main(["verify", "--suite", suite])
    out, err = capsys.readouterr()
    assert (rc, err) == (1, "")
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
