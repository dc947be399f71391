"""A table of named faults in the exact kernels, each of which a named
deterministic test must catch.

Each row rewrites one snippet of one function's source and compiles the
result against the defining module's names.  It then binds the mutant by
monkeypatch in one module at a time, for every module that binds the
function, and calls that module's killing test directly, which must fail.
A hypothesis test takes part only through one of its explicit examples, run
by ``.hypothesis.inner_test``, so that no kill rests on a random draw."""

import functools
import importlib
import inspect
import pkgutil
import re
import tempfile
import textwrap
from fractions import Fraction as F
from pathlib import Path

import pytest

import abelfm
import abelfm.cli
import abelfm.induced
import abelfm.lattice
import abelfm.scan
import abelfm.stability
import abelfm.surd
import abelfm.transform
import abelfm.verify
import test_cli
import test_induced
import test_lattice
import test_scan
import test_stability
import test_surd
import test_transform
import test_verify


def _owner(target, name):
    """(object that holds the attribute, attribute) for a plain or a dotted
    name: "Class.method" is held by the class."""
    *path, attr = name.split(".")
    for part in path:
        target = getattr(target, part)
    return target, attr


def _mutant(module, name, old, new):
    """module.name (a function, or "Class.method", or "Class.prop" for a
    cached_property) with the one occurrence of old in its source replaced
    by new; its globals are a copy of the module's."""
    owner, attr = _owner(module, name)
    fn = getattr(owner, attr)
    src = textwrap.dedent(inspect.getsource(getattr(fn, "func", fn)))
    assert src.count(old) == 1, f"{name}: {old!r} does not occur once in its source"
    namespace = dict(vars(module))
    exec(compile(src.replace(old, new), inspect.getsourcefile(module), "exec"), namespace)
    mutant = namespace[attr]
    if isinstance(mutant, functools.cached_property):
        mutant.__set_name__(owner, attr)  # as the class statement would
    return mutant


def _linear_example(case):
    return lambda: test_scan.test_linear_signs_match_horner.hypothesis.inner_test(case)


def _merge_example(case):
    return lambda: test_scan.test_cell_rows_match_the_dense_cell_loop.hypothesis.inner_test(case)


def _recheck_example(g, k):
    return lambda: test_scan.test_recheck_matches_the_per_cell_reference(g, k)


def _axis_example(case):
    return lambda: test_scan.test_axis_index_matches_a_plain_lookup.hypothesis.inner_test(case)


def _cyclotomic_example(**case):
    test = test_induced.test_cyclotomic_zero_test_matches_exact_evaluation
    return lambda: test.hypothesis.inner_test(**case)


def _conv_example(xs, ys):
    test = test_lattice.test_integer_kernel_matches_schoolbook_convolution
    return lambda: test.hypothesis.inner_test((xs, ys), F(0))


def _surd_mul_example(*case):
    test = test_surd.test_surd_complex_mul_div_match_fraction_pairs
    return lambda: test.hypothesis.inner_test(*case)


def _bg_example(case):
    test = test_stability.test_bg_check_decides_as_the_fraction_formula
    return lambda: test.hypothesis.inner_test(case)


def _verify_draws():
    with pytest.MonkeyPatch.context() as mp:
        test_verify.test_draw_stream_is_pinned(mp)


def _params_golden():
    with tempfile.TemporaryDirectory() as tmp:
        test_cli.test_params_matches_golden(Path(tmp))


# (fault, defining module, function, snippet, replacement,
#  {module that binds the function: its killing test, or None where the
#   fault cannot change what that module computes}).  A method is patched
# once, on its class, which every module reaches; its row names a killing
# test in each module that calls it, or, for an operator, in each module
# that binds its class.  A patched cached_property only reaches objects
# built after the patch, so its killers build their own.
MUTANTS = [
    (
        "column-parts-sign-at-j-3-mod-4",
        abelfm.scan, "_column_parts", "j % 4 > 1", "j % 4 == 2",
        {abelfm.scan: lambda: test_scan.test_scan_below_the_top_level_matches_dense_reference(10, 3)},
    ),
    (
        "linear-runs-zero-without-q1-dividing-q0",
        abelfm.scan, "_runs", " and q0 % q1 == 0", "",
        {abelfm.scan: _linear_example(([-7, 2], [1, 4, 9]))},
    ),
    (
        "merge-skips-the-row-below-a-breakpoint",
        abelfm.scan, "_cell_rows", "            rows.append(hi - 1)\n", "            pass\n",
        {abelfm.scan: _merge_example((5, [(0, -1), (1, 1)], [(0, -1)]))},
    ),
    (
        "merge-ignores-a-segment-of-unequal-signs",
        abelfm.scan, "_cell_rows", "            rows.extend(range(lo, hi - 1))\n", "            pass\n",
        {abelfm.scan: _merge_example((4, [(0, 1)], [(0, -1)]))},
    ),
    (
        "predicate-ignores-the-fourth-corner",
        abelfm.scan, "_crosses", " or quad[3] != s", "",
        {abelfm.scan: lambda: test_scan.test_level_two_walls_are_semicircles_at_every_g(2)},
    ),
    (
        "recheck-cache-keyed-without-the-wall",
        abelfm.scan, "first_bad_cell", "w_ints[wi]", "w_ints[0]",
        {abelfm.scan: _recheck_example(2, 2)},
    ),
    (
        "axis-index-without-the-step-remainder",
        abelfm.scan, "_axis_index", "not r and ", "",
        # 3/2 on the axis 0, 1, 2, 3 at scale 2 reads as the point below
        {abelfm.scan: _axis_example((F(0), F(1), 4, 2, F(3, 2)))},
    ),
    (
        "axis-index-without-the-scale-test",
        abelfm.scan, "_axis_index", "    if scale % q:\n        return None\n", "",
        # 5/2 at scale 1: 1 // 2 == 0 reads it as the first point
        {abelfm.scan: _axis_example((F(0), F(1), 4, 1, F(5, 2)))},
    ),
    (
        "cross-sign-without-the-3-of-the-b-b-term",
        abelfm.surd, "_cross_sign_ints", "3 * (ub * wd", "(ub * wd",
        {
            abelfm.surd: test_surd.test_cross_sign_matches_the_fraction_reference,
            # a scan's charges are rational, so every sqrt 3 part it multiplies is 0
            abelfm.scan: None,
        },
    ),
    (
        "cross-sign-with-its-arguments-swapped",
        abelfm.surd, "_cross_sign_ints", "def _cross_sign_ints(u: tuple, w: tuple)",
        "def _cross_sign_ints(w: tuple, u: tuple)",
        {
            abelfm.surd: test_surd.test_cross_sign_matches_the_fraction_reference,
            # every corner sign flips: the same cells fail, with negated corners
            abelfm.scan: _recheck_example(2, 2),
        },
    ),
    (
        "cross-sign-clears-its-arguments-swapped",
        abelfm.surd, "_cross_sign", "_cross_sign_ints(_clear(u), _clear(w))",
        "_cross_sign_ints(_clear(w), _clear(u))",
        {
            abelfm.surd: test_surd.test_cross_sign_matches_the_fraction_reference,
            abelfm.stability: test_stability.test_side_matches_the_q3_cross_product,
        },
    ),
    (
        "horner-ints-with-the-wrong-sign-of-im-im",
        abelfm.stability, "_horner_core", "- ia * ya", "+ ia * ya",
        {
            abelfm.stability: test_stability.test_level_one_truncated_charge_worked_example,
            abelfm.scan: _recheck_example(2, 2),
        },
    ),
    (
        "horner-wrapper-with-the-parts-of-im-swapped",
        abelfm.stability, "_horner_ints", "Q3._new(ia, ib, q)", "Q3._new(ib, ia, q)",
        {
            abelfm.stability: test_stability.test_level_one_truncated_charge_worked_example,
            abelfm.induced: test_induced.test_law_verdicts_show_both_sides_at_u,
        },
    ),
    (
        "phase-cmp-excludes-the-top-bound",
        abelfm.stability, "phase_cmp", "if y > 1:", "if y >= 1:",
        {abelfm.stability: test_stability.test_phase_cmp_boundary_values},
    ),
    (
        "phase-cmp-misses-a-phase-on-the-lower-twelfth",
        abelfm.stability, "phase_cmp", "_side(z, lo) <= 0", "_side(z, lo) < 0",
        {abelfm.stability: test_stability.test_phase_cmp_exact_beside_a_twelfth},
    ),
    (
        "sum-loses-the-sign-of-the-sqrt-3-part",
        abelfm.surd, "_sum", "b1 * d2 + b2 * m", "b1 * d2 + b2 * d1",
        {abelfm.surd: test_surd.test_q3_sign_is_exact_near_sqrt3},
    ),
    (
        "twist-with-the-sign-of-b-flipped",
        abelfm.lattice, "twist", "_exp_ints(-as_fraction(b)", "_exp_ints(as_fraction(b)",
        {
            abelfm.lattice: test_lattice.test_v_vector_example,
            abelfm.stability: test_stability.test_bg_check_twist_enters,
            abelfm.induced: lambda: test_induced.test_law_sides_match_pointwise_charges(2),
            abelfm.transform: test_transform.test_exp_image_closed_form,
        },
    ),
    (
        "conv-without-the-top-degree",
        abelfm.lattice, "_conv", "range(g + 1 - i)", "range(g - i)",
        {
            abelfm.lattice: test_lattice.test_mul_truncates,
            abelfm.transform: test_transform.test_apply_swaps_structure_and_point,
        },
    ),
    (
        # the swap only picks the outer operand, so flipping its comparison
        # changes no value: that mutant is equivalent and has no row
        "conv-squares-the-denser-operand",
        abelfm.lattice, "_conv", "a, b = b, a", "a = b",
        {
            # l^0 + 2l + 3l^2 times l: the denser operand comes first
            abelfm.lattice: _conv_example([F(1), F(2), F(3)], [F(0), F(1), F(0)]),
            abelfm.transform: test_transform.test_line_bundle_image_degenerates_to_point_direction,
        },
    ),
    (
        "law-ints-without-the-source-sign",
        abelfm.induced, "_law_ints", "[-x for x in ln]", "ln",
        {abelfm.induced: lambda: test_induced.test_law_sides_match_pointwise_charges(2)},
    ),
    (
        "transport-verdict-shows-the-rhs-from-the-lhs-numerators",
        abelfm.induced, "TransportLaw.verdict", "_shown(self.rhs_nums,", "_shown(self.lhs_nums,",
        {
            abelfm.induced: test_induced.test_law_verdicts_show_both_sides_at_u,
            abelfm.verify: test_verify.test_law_suite_passes,
        },
    ),
    (
        "zeta-without-the-power-on-the-modulus-denominator",
        abelfm.induced, "zeta", "m.denominator**g", "m.denominator",
        {abelfm.induced: test_induced.test_zeta_matches_the_power_formula_on_a_grid},
    ),
    (
        "upper-half-plane-admits-angle-zero",
        abelfm.induced, "_require_upper_half_plane", "0 < u.angle", "0 <= u.angle",
        {abelfm.induced: test_induced.test_verify_induced_law_rejects_u_off_the_upper_half_plane},
    ),
    (
        "divided-power-basis-without-the-factorial",
        abelfm.lattice, "divided_power_basis", "factorial(i)) for", "1) for",
        {
            abelfm.lattice: test_lattice.test_divided_power_basis_matches_fraction_built_classes,
            # params shows each basis class's two sides, so l^2 for l^2/2 shows
            abelfm.cli: _params_golden,
        },
    ),
    (
        "transform-kernel-takes-d-y-for-d-x",
        abelfm.transform, "FMTransformSpec._kernel",
        "_exp_ints(self.d_x, g)", "_exp_ints(self.d_y, g)",
        {abelfm.transform: test_transform.test_composition_with_twists},
    ),
    (
        "complex-product-without-the-3-of-sqrt3-sqrt3",
        abelfm.surd, "SurdComplex.__mul__", "3 * (xb * ub", "(xb * ub",
        {
            abelfm.surd: _surd_mul_example((F(1, 2), F(1, 3)), (F(-2, 5), F(3, 7)),
                                           (F(3), F(-1, 4)), (F(5, 6), F(2))),
            # stability and induced multiply no two SurdComplex values after
            # import: charges come from the integer Horner core
            abelfm.stability: None,
            abelfm.induced: None,
            # the bg suite's series oracle squares a beta with a sqrt 3 part
            abelfm.verify: _verify_draws,
        },
    ),
    (
        "bg-check-without-the-18",
        abelfm.stability, "bg_check", "18 * td * td", "td * td",
        {abelfm.stability: _bg_example((test_stability.ctx3(), F(0), test_stability.SQRT3,
                                        abelfm.lattice.line_bundle(test_stability.ctx3(), F(1))))},
    ),
    (
        "zeta-without-the-angle-normalization",
        abelfm.induced, "zeta", "normalize_angle(u.angle * g)", "u.angle * g",
        {abelfm.induced: test_induced.test_zeta_matches_the_power_formula_on_a_grid},
    ),
    (
        "below-accepts-the-draw-n",
        abelfm.verify, "_below", "while r >= n:", "while r > n:",
        {abelfm.verify: lambda: test_verify.test_below_draws_what_randrange_draws(19)},
    ),
    (
        "vanishes-at-reads-the-quotient",
        abelfm.induced, "_vanishes_at", "_cyclotomic(n))[1]", "_cyclotomic(n))[0]",
        {abelfm.induced: _cyclotomic_example(coeffs=[F(1)], j=2, lam=F(1), make_root=True)},
    ),
]


def _short(module):
    return module.__name__.rsplit(".", 1)[-1]


# one case per (row, binding module); a row's id is its fault name in the
# defining module and "<fault>-via-<module>" in any other
CASES = [
    pytest.param(module, binder, name, old, new, kill,
                 id=fault if binder is module else f"{fault}-via-{_short(binder)}")
    for fault, module, name, old, new, kills in MUTANTS
    for binder, kill in kills.items()
    if kill is not None
]


@pytest.mark.parametrize("module,binder,name,old,new,kill", CASES)
def test_fault_is_caught_by_its_deterministic_test(monkeypatch, module, binder, name, old, new, kill):
    target = _owner(module, name) if "." in name else (binder, name)
    monkeypatch.setattr(*target, _mutant(module, name, old, new))
    with pytest.raises(AssertionError):
        kill()


def test_every_module_that_binds_a_faulted_function_has_a_row_entry():
    # a module that imports a kernel by name keeps the original when only
    # the defining module is patched, so each binding needs its own kill
    modules = [importlib.import_module(f"abelfm.{m.name}")
               for m in pkgutil.iter_modules(abelfm.__path__) if m.name != "__main__"]
    for fault, module, name, _, _, kills in MUTANTS:
        if "." in name:  # a method or property: every module that uses it
            owner, attr = _owner(module, name)
            if attr.startswith("__"):  # an operator: every module that binds its class
                binders = {m for m in modules if getattr(m, owner.__name__, None) is owner}
            else:
                use = re.compile(rf"\.{attr}\b")
                binders = {m for m in modules if use.search(inspect.getsource(m))}
        else:
            original = getattr(module, name)
            binders = {m for m in modules if getattr(m, name, None) is original}
        assert binders == set(kills), fault
