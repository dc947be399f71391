"""A table of named faults in the exact scan kernels, each of which a named
deterministic test must catch.

Each row rewrites one snippet of one function's source, compiles the
result against the defining module's names and binds it in the module by
monkeypatch; the killing test is then called directly and must fail.  A
hypothesis test takes part only through one of its explicit examples, run
by ``.hypothesis.inner_test``, so that no kill rests on a random draw."""

import inspect
import textwrap

import pytest

import abelfm.scan
import test_scan


def _mutant(module, name, old, new):
    """module.name with the one occurrence of old in its source replaced by
    new; its globals are a copy of the module's."""
    src = textwrap.dedent(inspect.getsource(getattr(module, name)))
    assert src.count(old) == 1, f"{name}: {old!r} does not occur once in its source"
    namespace = dict(vars(module))
    exec(compile(src.replace(old, new), inspect.getsourcefile(module), "exec"), namespace)
    return namespace[name]


def _linear_example(case):
    return lambda: test_scan.test_linear_signs_match_horner.hypothesis.inner_test(case)


def _merge_example(case):
    return lambda: test_scan.test_cell_rows_match_the_dense_cell_loop.hypothesis.inner_test(case)


# (fault, function, snippet, replacement, killing test)
MUTANTS = [
    (
        "column-parts-sign-at-j-3-mod-4",
        "_column_parts", "j % 4 > 1", "j % 4 == 2",
        lambda: test_scan.test_scan_below_the_top_level_matches_dense_reference(10, 3),
    ),
    (
        "linear-runs-zero-without-q1-dividing-q0",
        "_runs", " and q0 % q1 == 0", "",
        _linear_example(([-7, 2], [1, 4, 9])),
    ),
    (
        "merge-skips-the-row-below-a-breakpoint",
        "_cell_rows", "            rows.append(hi - 1)\n", "            pass\n",
        _merge_example((5, [(0, -1), (1, 1)], [(0, -1)])),
    ),
    (
        "merge-ignores-a-segment-of-unequal-signs",
        "_cell_rows", "            rows.extend(range(lo, hi - 1))\n", "            pass\n",
        _merge_example((4, [(0, 1)], [(0, -1)])),
    ),
    (
        "predicate-ignores-the-fourth-corner",
        "_crosses", " or quad[3] != s", "",
        lambda: test_scan.test_level_two_walls_are_semicircles_at_every_g(2),
    ),
    (
        "recheck-cache-keyed-without-the-wall",
        "_first_bad_cell", "key = (wi, x, y)", "key = (x, y)",
        test_scan.test_recheck_matches_the_per_cell_reference,
    ),
]


@pytest.mark.parametrize("name,old,new,kill", [row[1:] for row in MUTANTS],
                         ids=[row[0] for row in MUTANTS])
def test_fault_is_caught_by_its_deterministic_test(monkeypatch, name, old, new, kill):
    monkeypatch.setattr(abelfm.scan, name, _mutant(abelfm.scan, name, old, new))
    with pytest.raises(AssertionError):
        kill()
