"""The public names of the package, pinned: a change that adds or drops one
fails here until the list below is changed with it."""

import abelfm

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
