"""Exact cohomological transforms, stability charges and wall scans for
abelian-variety-style truncated lattices.

Everything numeric is exact: rationals, the quadratic field Q(sqrt 3) and
polar scalars with rational angle in units of pi.  Floats appear only in
display values (the phase, SVG coordinates) and in phase_cmp when the
phase lies strictly between the two multiples of 1/12 around a bound
whose denominator does not divide 12.  Display floats are taken from exact
values brought into float range, so any exact input has one; no public
function accepts a float.

``import abelfm`` loads no submodule: each public name, and each
submodule, is imported on first use.
"""

from importlib import import_module

__version__ = "0.1.0"

# each public name, under the module that defines it
_PUBLIC = {
    "lattice": (
        "AbelianContext",
        "CohClass",
        "ContextMismatchError",
        "ShiftedClass",
        "VVector",
        "chi_advisory",
        "divided_power_basis",
        "exp_div",
        "from_v_vector",
        "integrate",
        "line_bundle",
        "mukai_dual",
        "mukai_pairing",
        "mul",
        "semihomogeneous",
        "skyscraper",
        "structure_sheaf",
        "twist",
        "v_vector",
    ),
    "surd": ("PolarScalar", "Q3", "SurdComplex"),
    "transform": (
        "FMTransformSpec",
        "GammaAction",
        "InvalidSpecError",
        "adjoint_pairing_check",
        "antidiag_matrix",
        "apply",
        "exp_image",
        "gamma_action",
        "polarization_image_check",
        "quasi_inverse",
    ),
    "stability": (
        "BGVerdict",
        "ChargeSpec",
        "HeartValueError",
        "HNPolygon",
        "bg_check",
        "charge",
        "heart_tower",
        "hn_polygon",
        "in_slice",
        "phase",
        "phase_cmp",
        "slope",
        "slope_cmp",
    ),
    "induced": (
        "ComplexAmpleClass",
        "InducedChargeLaw",
        "LawVerdict",
        "PhaseShiftVerdict",
        "conjecture_params",
        "induced_law",
        "phase_shift_check",
        "real_zeta_angles",
        "verify_induced_law",
        "zeta",
    ),
    "scan": (
        "RecheckFailure",
        "ScanRequest",
        "WallCell",
        "WallDataset",
        "first_bad_cell",
        "recheck_walls",
        "scan_walls",
    ),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}
# the submodules that the package's own imports loaded when they were eager
_SUBMODULES = (*_PUBLIC, "literals")

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
