"""The public names of the package, pinned: a change that adds or drops one
fails here until the list below is changed with it.  The package and the
CLI load their modules lazily, and fresh interpreters check what a bare
import and each entry point actually load."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import abelfm

SRC = Path(__file__).parent.parent / "src"

PUBLIC = [
    "AbelianContext",
    "BGVerdict",
    "ChargeSpec",
    "CohClass",
    "ComplexAmpleClass",
    "ContextMismatchError",
    "FMTransformSpec",
    "GammaAction",
    "HNPolygon",
    "HeartValueError",
    "InducedChargeLaw",
    "InvalidSpecError",
    "LawVerdict",
    "PhaseShiftVerdict",
    "PolarScalar",
    "Q3",
    "RecheckFailure",
    "ScanRequest",
    "ShiftedClass",
    "SurdComplex",
    "TransportLaw",
    "VVector",
    "WallCell",
    "WallDataset",
    "adjoint_pairing_check",
    "antidiag_matrix",
    "apply",
    "bg_check",
    "charge",
    "chi_advisory",
    "conjecture_params",
    "divided_power_basis",
    "exp_div",
    "exp_image",
    "first_bad_cell",
    "from_v_vector",
    "gamma_action",
    "heart_tower",
    "hn_polygon",
    "in_slice",
    "induced_law",
    "integrate",
    "line_bundle",
    "mukai_dual",
    "mukai_pairing",
    "mul",
    "phase",
    "phase_cmp",
    "phase_shift_check",
    "polarization_image_check",
    "quasi_inverse",
    "real_zeta_angles",
    "recheck_walls",
    "scan_walls",
    "semihomogeneous",
    "skyscraper",
    "slope",
    "slope_cmp",
    "structure_sheaf",
    "transport_law",
    "twist",
    "v_vector",
    "verify_induced_law",
    "zeta",
]


def test_all_is_pinned():
    assert sorted(abelfm.__all__) == PUBLIC
    assert len(set(abelfm.__all__)) == len(abelfm.__all__)


def test_every_public_name_resolves():
    for name in PUBLIC:
        assert getattr(abelfm, name) is not None, name


def test_star_import_binds_exactly_the_public_names():
    ns: dict = {}
    exec("from abelfm import *", ns)
    ns.pop("__builtins__")
    assert sorted(ns) == PUBLIC
    assert all(ns[name] is getattr(abelfm, name) for name in PUBLIC)


# the submodules that a bare "import abelfm" loaded when its imports were eager
SUBMODULES = ["induced", "lattice", "literals", "scan", "stability", "surd", "transform"]


def fresh(code: str):
    """Run code in a new interpreter that sees this checkout's src, and
    return the JSON value it prints."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_every_public_name_and_submodule_resolves_after_a_bare_import():
    code = f"""
import json
import abelfm
names = {PUBLIC + SUBMODULES!r}
print(json.dumps({{n: type(getattr(abelfm, n)).__name__ for n in names}}))
"""
    kinds = fresh(code)
    assert sorted(kinds) == sorted(PUBLIC + SUBMODULES)
    assert all(kinds[m] == "module" for m in SUBMODULES)
    assert all(kinds[n] != "module" for n in PUBLIC)


def test_public_names_are_the_defining_modules_objects():
    for name in PUBLIC:
        value = getattr(abelfm, name)
        assert value is getattr(sys.modules[value.__module__], name), name


def test_dir_lists_every_public_name_and_submodule():
    assert set(abelfm.__all__) <= set(dir(abelfm))
    assert set(SUBMODULES) <= set(dir(abelfm))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="^module 'abelfm' has no attribute 'no_such_name'$"):
        abelfm.no_such_name
    assert not hasattr(abelfm, "no_such_name")
    assert not hasattr(abelfm, "_charge_ints")  # private names stay in their modules


def test_parser_choices_equal_the_module_tuples():
    from abelfm import cli, scan, verify

    assert cli._FORMATS == scan.FORMATS
    assert cli._SUITES == verify.SUITES


LOADED = """
import json, sys
verbs = ("induced", "scan", "stability", "transform", "verify")
print(json.dumps([f"abelfm.{m}" for m in verbs if f"abelfm.{m}" in sys.modules]))
"""


def test_cli_start_up_loads_no_verb_module_it_does_not_need():
    # a top-level import of induced, scan or verify would undo the start-up
    # saving of every charge, transform and zeta call
    cfg = {"context": {"g": 2, "n": "2"}, "charge": {"k": 2, "b": "0", "t": "1"}}
    code = f"""
import abelfm, abelfm.cli
from abelfm import cli, config
ctx = config.context_from({cfg!r})
config.charge_from({cfg!r}, ctx)
cli.build_parser()
""" + LOADED
    assert fresh(code) == ["abelfm.stability"]


def test_transform_config_loads_transform_only():
    cfg = {"transform": {"g": 2, "nX": "2", "nY": "2", "r": 1, "dX": "0", "dY": "0"}}
    code = f"""
import abelfm, abelfm.cli
from abelfm import config
config.transform_from({cfg!r})
""" + LOADED
    assert fresh(code) == ["abelfm.transform"]


def test_scan_config_loads_scan_only():
    cfg = {
        "context": {"g": 2, "n": "2"},
        "scan": {"k": 2, "v": "1,0,0", "walls": ["0,0,1/2"], "b_range": ["-2", "2"],
                 "t_range": ["1/100", "2"], "resolution": [20, 20]},
    }
    code = f"""
import abelfm, abelfm.cli
from abelfm import config
config.scan_from({cfg!r}, config.context_from({cfg!r}))
""" + LOADED
    assert fresh(code) == ["abelfm.scan", "abelfm.stability"]


def test_readme_tour_runs_and_its_comments_hold():
    text = (SRC.parent / "README.md").read_text(encoding="utf-8")
    tour = text.split("## Thirty-second tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    ns = {}
    exec(compile(tour, "README.md", "exec"), ns)
    from abelfm import ChargeSpec, SurdComplex, phase, structure_sheaf

    X, Y = ns["X"], ns["Y"]
    assert str(ns["pt"]) == "0,0,1/2"
    assert str(ns["img"]) == "1,0,0" and ns["img"] == structure_sheaf(Y)
    assert ns["shift"] == 2 == X.g
    assert ns["z"] == SurdComplex(-2, 1)
    assert phase(ChargeSpec(X, k=X.g, b=0, t=1), ns["pt"]) == 1.0
