"""End-to-end CLI behavior: verbs, output shapes, exit codes, env override."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from fractions import Fraction as F
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import abelfm
from abelfm.cli import main

ROOT = Path(__file__).parent.parent
DATA = Path(__file__).parent / "data"
EXAMPLE = DATA / "example_scan.json"
GOLDEN = Path(__file__).parent / "golden"

POINCARE2 = {"transform": {"g": 2, "nX": "2", "nY": "2", "r": 1, "dX": "0", "dY": "0"}}


@pytest.fixture
def poincare_cfg(tmp_path):
    p = tmp_path / "poincare.json"
    p.write_text(json.dumps(POINCARE2), encoding="utf-8")
    return str(p)


@pytest.fixture
def scan_cfg(tmp_path):
    payload = {
        "context": {"g": 2, "n": "2", "label": "X"},
        "scan": {
            "k": 2,
            "v": "1,0,0",
            "walls": ["0,0,1/2"],
            "b_range": ["-2", "2"],
            "t_range": ["1/100", "2"],
            "resolution": [9, 9],
        },
    }
    p = tmp_path / "scan.json"
    p.write_text(json.dumps(payload), encoding="utf-8")
    return str(p)


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_transform_roundtrip(capsys, poincare_cfg):
    rc, out, _ = run(capsys, ["transform", "--config", poincare_cfg, "--class", "1,0,0"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "source = 1,0,0"
    assert lines[1] == "image  = 0,0,1/2"
    assert lines[2] == "round trip (shift 2) = 1,0,0"


def test_charge_worked_example(capsys):
    rc, out, _ = run(
        capsys,
        ["charge", "--config", str(EXAMPLE), "--class", "1,1,1/2", "--k", "1"],
    )
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "k = 1, b = 0, t = 1"
    assert lines[1] == "Z = (-2) + (1)*i"
    assert lines[2] == "slope = 2"
    assert lines[3] == "phase = 0.85241638235"


def test_charge_positive_real_axis_has_no_phase(capsys):
    rc, out, _ = run(capsys, ["charge", "--config", str(EXAMPLE), "--class", "1,0,0"])
    assert rc == 0
    assert "Z = (1) + (0)*i" in out
    assert "slope = infinity" in out
    assert "phase = undefined" in out


def test_charge_point_class(capsys):
    rc, out, err = run(capsys, ["charge", "--config", str(EXAMPLE), "--class", "0,0,1/2"])
    assert rc == 0
    assert "Z = (-1) + (0)*i" in out
    assert "phase = 1" in out
    assert "advisory" not in err  # chi = 1 here


@pytest.mark.parametrize(
    "b, t, cls, phase",
    [
        # Z = beta^2 = 10^800 - 1 + 2*10^400 i: parts past float range
        ("1" + "0" * 400, "1", "-1,0,0", "0"),
        # Z = 2it with t below float range: exactly phase 1/2
        ("0", "1/1" + "0" * 400, "0,1,0", "0.5"),
    ],
    ids=["huge-parts", "tiny-parts"],
)
def test_charge_phase_of_parts_outside_float_range(capsys, tmp_path, b, t, cls, phase):
    cfg = tmp_path / "far.json"
    cfg.write_text(json.dumps({"context": {"g": 2, "n": "2"},
                               "charge": {"k": 2, "b": b, "t": t}}), encoding="utf-8")
    rc, out, err = run(capsys, ["charge", "--config", str(cfg), f"--class={cls}"])
    assert (rc, err) == (0, "")
    assert out.splitlines()[3] == f"phase = {phase}"


def test_charge_phase_of_a_nearly_cancelling_surd(capsys, tmp_path):
    # t is a Pell unit 1/(a + b sqrt3), about 1e-12: Z = 2it lies on the
    # imaginary axis, and the float of a - b sqrt3 must not round to 0
    cfg = tmp_path / "pell.json"
    cfg.write_text(json.dumps({"context": {"g": 2, "n": "2"}, "charge": {
        "k": 2, "b": "0", "t": "512706121226-296011017105*sqrt3"}}), encoding="utf-8")
    rc, out, err = run(capsys, ["charge", "--config", str(cfg), "--class=0,1,0"])
    assert (rc, err) == (0, "")
    assert out.splitlines()[3] == "phase = 0.5"


def test_charge_fractional_chi_advisory(capsys, tmp_path):
    cfg = tmp_path / "frac.json"
    cfg.write_text(
        json.dumps(
            {
                "context": {"g": 2, "n": "3", "label": "X"},
                "charge": {"k": 2, "b": "0", "t": "1"},
            }
        ),
        encoding="utf-8",
    )
    rc, _, err = run(capsys, ["charge", "--config", str(cfg), "--class", "0,0,1/3"])
    assert rc == 0
    assert "advisory: chi = n/g! = 3/2" in err


def test_zeta(capsys, poincare_cfg):
    rc, out, _ = run(capsys, ["zeta", "--config", poincare_cfg, "--u", "1@1/2"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "u = 1@1/2"
    assert lines[1] == "zeta = 1@1"
    assert lines[2] == "rect = (-1) + (0)*i"
    assert lines[3] == "real: yes, sign -1"
    assert lines[4] == "real-zeta angles for g=2: 1/2"


def test_params_ok(capsys, poincare_cfg):
    rc, out, _ = run(capsys, ["params", "--config", poincare_cfg, "--k", "1", "--lambda", "1"])
    assert rc == 0
    assert "omega_src = (0) + (1)*i" in out
    assert "omega_dst = (0) + (1)*i" in out
    # one verdict row per divided-power basis element, table and JSON forms
    assert out.count('"equal": true') == 3
    assert "phase shift: holds=True, expected heart shift = 1, exact=True" in out


def test_walls_stdout_deterministic(capsys, scan_cfg):
    rc, out1, _ = run(capsys, ["walls", "--config", scan_cfg])
    assert rc == 0
    assert out1.startswith("w,b,t\n")
    rc, out2, _ = run(capsys, ["walls", "--config", scan_cfg])
    assert rc == 0
    assert out1 == out2


def test_walls_out_file_and_recheck(capsys, scan_cfg, tmp_path):
    out_file = tmp_path / "cells.csv"
    rc, out, err = run(
        capsys,
        ["walls", "--config", scan_cfg, "--out", str(out_file), "--recheck"],
    )
    assert rc == 0
    assert "recheck: all 16 cells confirmed" in err
    assert f"wrote {out_file}: 16 cells" in out
    text = out_file.read_text(encoding="utf-8")
    assert text.startswith("w,b,t\n")
    assert len(text.splitlines()) == 17


def test_walls_json_format(capsys, scan_cfg, tmp_path):
    out_file = tmp_path / "cells.json"
    rc, out, _ = run(
        capsys,
        ["walls", "--config", scan_cfg, "--out", str(out_file), "--format", "json"],
    )
    assert rc == 0
    rec = json.loads(out_file.read_text(encoding="utf-8"))
    assert rec["resolution"] == [9, 9]
    assert len(rec["cells"]) == 16


BIG = "1" + "0" * 400


@pytest.mark.parametrize(
    "b_range, t_range",
    [
        ([f"-{BIG}", BIG], ["1/100", "2"]),
        (["-2", "2"], ["1", "1000000000000000000000000000001/1000000000000000000000000000000"]),
        (["-2", "2"], [f"1/{BIG}", f"2/{BIG}"]),
    ],
    ids=["huge-b", "narrow-t", "tiny-t"],
)
def test_walls_svg_for_any_exact_range(capsys, tmp_path, b_range, t_range):
    # every point is placed by its exact relative position, so a range that
    # CSV and JSON handle never leaves float range in the SVG
    cfg = tmp_path / "range.json"
    cfg.write_text(json.dumps({
        "context": {"g": 2, "n": "2"},
        "scan": {"k": 2, "v": "1,0,0", "walls": ["0,0,1/2"], "b_range": b_range,
                 "t_range": t_range, "resolution": [9, 9]},
    }), encoding="utf-8")
    rc, csv, _ = run(capsys, ["walls", "--config", str(cfg)])
    assert rc == 0
    rc, svg, err = run(capsys, ["walls", "--config", str(cfg), "--format", "svg"])
    assert (rc, err) == (0, "")
    assert svg.startswith("<svg ") and svg.endswith("</svg>\n")
    cells = re.findall(r'<rect x="([-\d.]+)" y="([-\d.]+)" width="69.000" height="51.000"/>', svg)
    assert len(cells) == len(csv.splitlines()) - 1 > 0
    assert all(64 <= float(x) <= 616 and 24 <= float(y) <= 432 for x, y in cells)


def test_walls_out_dir_env(capsys, scan_cfg, tmp_path, monkeypatch):
    outdir = tmp_path / "redirected"
    outdir.mkdir()
    monkeypatch.setenv("ABELFM_OUT_DIR", str(outdir))
    rc, _, _ = run(capsys, ["walls", "--config", scan_cfg, "--out", "cells.csv"])
    assert rc == 0
    assert (outdir / "cells.csv").exists()
    # absolute paths ignore the override
    abs_file = tmp_path / "abs.csv"
    rc, _, _ = run(capsys, ["walls", "--config", scan_cfg, "--out", str(abs_file)])
    assert rc == 0
    assert abs_file.exists()
    assert not (outdir / "abs.csv").exists()


def test_walls_unwritable_out_exits_3(capsys, scan_cfg, tmp_path):
    rc, _, err = run(
        capsys,
        ["walls", "--config", scan_cfg, "--out", str(tmp_path / "nodir" / "x.csv")],
    )
    assert rc == 3
    assert "i/o error" in err


def test_verify_verb(capsys):
    rc, out, _ = run(capsys, ["verify", "--suite", "lattice"])
    assert rc == 0
    lines = out.splitlines()
    assert all(line.split()[0] in ("PASS", "FAIL", "NOTE") for line in lines[:-1])
    assert lines[-1].startswith("ok: ")


def test_verify_all_matches_golden(capsys):
    rc, out, _ = run(capsys, ["verify", "--suite", "all"])
    assert rc == 0
    assert out == (GOLDEN / "verify_all.txt").read_bytes().decode("utf-8")


def test_verify_failure_names_the_check(capsys, monkeypatch):
    import abelfm.lattice

    monkeypatch.setattr(abelfm.lattice, "chi_advisory", lambda ctx: None)
    rc, out, _ = run(capsys, ["verify", "--suite", "lattice"])
    assert rc == 1
    lines = out.splitlines()
    assert (
        "FAIL lattice.chi_advisory: an advisory names chi exactly when it is fractional"
        " fails at g=2; n=3"
    ) in lines
    assert lines[-1] == "FAILED: 7 checks, 1 failures"


def test_verify_reports_a_raising_check_and_runs_the_rest(capsys, monkeypatch):
    import abelfm.lattice

    def broken(a, b):
        raise ValueError("kernel broke")

    monkeypatch.setattr(abelfm.lattice, "twist", broken)
    rc, out, err = run(capsys, ["verify", "--suite", "lattice"])
    assert (rc, err) == (1, "")
    lines = out.splitlines()
    assert [line for line in lines if line.startswith("FAIL ")] == [
        f"FAIL lattice.{check}: raised ValueError: kernel broke"
        for check in ("twist_action", "vvector_roundtrip", "point_class")
    ]
    assert sum(line.startswith(("PASS ", "NOTE ")) for line in lines) == 4
    assert lines[-1] == "FAILED: 7 checks, 3 failures"


def test_internal_error_is_not_a_usage_error(capsys, monkeypatch, poincare_cfg):
    # a TypeError inside a verb is a program bug: it propagates, and neither
    # an "error:" line nor exit 2 is printed for it
    import abelfm.transform

    def broken(spec, e):
        raise TypeError("bug in apply")

    monkeypatch.setattr(abelfm.transform, "apply", broken)
    with pytest.raises(TypeError, match="bug in apply"):
        main(["transform", "--config", poincare_cfg, "--class", "1,0,0"])
    assert capsys.readouterr() == ("", "")
    # run as a program, Python prints the traceback and exits 1
    code = (
        "import sys, abelfm.transform as t; from abelfm.cli import main\n"
        "def broken(spec, e): raise TypeError('bug in apply')\n"
        "t.apply = broken; sys.exit(main(sys.argv[1:]))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, "transform", "--config", poincare_cfg, "--class", "1,0,0"],
        capture_output=True, text=True, env=_subprocess_env(),
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("Traceback ")
    assert proc.stderr.rstrip().endswith("TypeError: bug in apply")
    assert not any(line.startswith("error: ") for line in proc.stderr.splitlines())


@pytest.mark.parametrize("leaf,value", [("t", "1 2"), ("t", "1 +2*sqrt3"), ("t", "1+2 *sqrt3"),
                                        ("t", "1/2 + sqrt3"), ("b", "1 2")])
def test_space_inside_a_literal_exits_2(capsys, tmp_path, leaf, value):
    cfg = json.loads(json.dumps(CHARGE_CFG))
    cfg["charge"][leaf] = value
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    rc, out, err = run(capsys, ["charge", "--config", str(path), "--class", "1,0,0"])
    assert (rc, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith(f"error: charge.{leaf}: bad "), err
    assert repr(value) in err


def test_usage_exit_codes(capsys):
    # every usage error is one stderr line
    for argv in ([], ["bogus"], ["verify", "--suite", "bogus"], ["verify", "--suite"],
                 ["charge", "--config", str(EXAMPLE)],  # --class required
                 ["walls", "--config", str(EXAMPLE), "--format", "-x"]):
        rc, out, err = run(capsys, argv)
        assert (rc, out) == (2, ""), argv
        assert len(err.splitlines()) == 1 and err.startswith("error: "), (argv, err)
    rc, out, err = run(capsys, ["--help"])
    assert (rc, err) == (0, "") and out.startswith("usage: abelfm")


# each verb's flags in the order its --help lists them
VERB_FLAGS = {
    "transform": ["--config", "--class"],
    "charge": ["--config", "--class", "--k"],
    "zeta": ["--config", "--u"],
    "params": ["--config", "--k", "--lambda"],
    "walls": ["--config", "--out", "--format", "--recheck"],
    "verify": ["--suite"],
}


def test_help_lists_every_verb_and_its_flags_in_order(capsys):
    rc, out, err = run(capsys, ["--help"])
    assert (rc, err) == (0, "") and out.startswith("usage: abelfm")
    assert "{" + ",".join(VERB_FLAGS) + "}" in out
    listed = re.findall(r"^    (\w+) +\w", out, re.M)  # one help line per verb
    assert listed == list(VERB_FLAGS)
    for verb, flags in VERB_FLAGS.items():
        rc, out, err = run(capsys, [verb, "--help"])
        assert (rc, err) == (0, ""), verb
        usage, _, options = out.partition("\n\n")
        assert usage.startswith(f"usage: abelfm {verb} [-h]"), usage
        assert re.findall(r"--\w+", usage) == flags
        assert re.findall(r"^  (--\w+)", options, re.M) == flags


def test_missing_config_exits_3(capsys, tmp_path):
    rc, _, err = run(
        capsys,
        ["charge", "--config", str(tmp_path / "none.json"), "--class", "1,0,0"],
    )
    assert rc == 3
    assert "i/o error" in err


def test_config_errors_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken", encoding="utf-8")
    rc, _, err = run(capsys, ["charge", "--config", str(bad), "--class", "1,0,0"])
    assert rc == 2
    assert "invalid JSON" in err

    rc, _, err = run(capsys, ["charge", "--config", str(EXAMPLE), "--class", "1,0"])
    assert rc == 2
    assert "class:" in err


def _subprocess_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def test_console_script_entry_point():
    # run the target declared in [project.scripts] the way the installed
    # console script does, so a broken declaration fails here too
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    scripts = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    target = re.search(r'^abelfm\s*=\s*"([\w.]+):(\w+)"\s*$', scripts, re.M)
    assert target, "no abelfm entry in [project.scripts]"
    module, func = target.groups()
    code = f"import sys; from {module} import {func}; sys.exit({func}())"
    proc = subprocess.run(
        [sys.executable, "-c", code, "verify", "--suite", "lattice"],
        capture_output=True,
        text=True,
        env=_subprocess_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.rstrip().splitlines()[-1].startswith("ok: ")
    # the distribution is named and versioned as the package
    project = text.split("[project]", 1)[1].split("\n[", 1)[0]
    assert re.search(r'^name\s*=\s*"abelfm"\s*$', project, re.M)
    version = re.search(r'^version\s*=\s*"([^"]+)"\s*$', project, re.M)
    assert version and version.group(1) == abelfm.__version__


def test_python_dash_m_help():
    proc = subprocess.run(
        [sys.executable, "-m", "abelfm", "--help"],
        capture_output=True,
        text=True,
        env=_subprocess_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: abelfm")


CHARGE_CFG = {
    "context": {"g": 2, "n": "2", "label": "X"},
    "charge": {"k": 2, "b": "0", "t": "1"},
}


@pytest.mark.parametrize(
    "leaf,value,cls",
    [
        (None, None, "1,1/00,0"),
        (("charge", "b"), "1/00", "1,0,0"),
        (("context", "n"), "3/000", "1,0,0"),
        (("charge", "t"), 0.1, "1,0,0"),
        (("charge", "t"), True, "1,0,0"),
        (("charge", "b"), 1.5, "1,0,0"),
        (("charge", "b"), False, "1,0,0"),
        (("context", "n"), 2.0, "1,0,0"),
        (("context", "n"), True, "1,0,0"),
        ("nested", None, "1,0,0"),
        ("huge-int", None, "1,0,0"),
        ("not-utf8", None, "1,0,0"),
        (("context", "n"), "1", "1,1/00,0"),
        (None, None, "-1,1/00,0"),
        ("argv", ("--k", "-x"), "1,0,0"),
        ("argv", ("--k", "x"), "1,0,0"),
        ("argv", ("--k",), "1,0,0"),
        ("argv", ("--bogus",), "1,0,0"),
        ("argv", ("--class", "--k"), "1,0,0"),
        ("argv", ("--bogus\nline",), "1,0,0"),
        # numbers past Python's int-to-str limit, read from --class, from a
        # config string and from a JSON integer
        pytest.param("huge-class", None, "9" * 5000 + ",0,0", id="huge-class"),
        pytest.param(("charge", "b"), "9" * 5000, "1,0,0", id="huge-string"),
        pytest.param("huge-json-int", None, "1,0,0", id="huge-json-int"),
        # a label is a JSON string or absent
        pytest.param(("context", "label"), 1.5, "1,0,0", id="label-float"),
        pytest.param(("context", "label"), [1], "1,0,0", id="label-list"),
        pytest.param(("context", "label"), True, "1,0,0", id="label-bool"),
        # a label that is not one printable line would forge stderr lines
        pytest.param(("context", "label"), "X\nerror: fake", "1,0,0", id="label-newline"),
        # a literal's digits are ASCII: other Unicode decimal digits are refused
        pytest.param(None, None, "\u0661,0,0", id="arabic-indic-class"),
        pytest.param(("context", "n"), "\u0663", "1,0,0", id="arabic-indic-n"),
        pytest.param(("charge", "t"), "\uff11\uff12*sqrt3", "1,0,0", id="fullwidth-t"),
        # --k is an optional "-" and ASCII digits, as a literal's integer part
        pytest.param("argv", ("--k", "\u0661"), "1,0,0", id="arabic-indic-k"),
        pytest.param("argv", ("--k", "\uff12"), "1,0,0", id="fullwidth-k"),
        pytest.param("argv", ("--k", " +1"), "1,0,0", id="space-plus-k"),
        pytest.param("argv", ("--k", "+1"), "1,0,0", id="plus-k"),
        pytest.param("argv", ("--k", "1_0"), "1,0,0", id="underscore-k"),
        # keys are unique at every depth; json alone keeps the last of a pair
        pytest.param("duplicate", (b'"label": "X"}', b'"label": "X", "n": "3"}', "n"),
                     "1,0,0", id="duplicate-context-key"),
        pytest.param("duplicate", (b"}}", b'}, "charge": {"k": 2, "b": "0", "t": "1"}}', "charge"),
                     "1,0,0", id="duplicate-block"),
        pytest.param("duplicate", (b'"t": "1"}', b'"t": "1", "x": [{"y": 1, "y": 1}]}', "y"),
                     "1,0,0", id="duplicate-nested-key"),
    ],
)
def test_malformed_input_exits_2_with_one_line(capsys, tmp_path, int_str_limit, leaf, value, cls):
    cfg = json.loads(json.dumps(CHARGE_CFG))
    if isinstance(leaf, tuple):
        cfg[leaf[0]][leaf[1]] = value
    data = json.dumps(cfg).encode()
    if leaf == "nested":
        # deeper than the JSON decoder's recursion limit
        data = b"[" * 100_000 + b"]" * 100_000
    elif leaf == "huge-int":
        # past Python's limit on decimal digits of an int
        data = data.replace(b'"g": 2', b'"g": ' + b"9" * 5000)
    elif leaf == "huge-json-int":
        data = data.replace(b'"b": "0"', b'"b": ' + b"9" * 5000)
    elif leaf == "not-utf8":
        data = data.replace(b'"X"', b'"\xff"')
    elif leaf == "duplicate":
        data = data.replace(*value[:2])
    path = tmp_path / "cfg.json"
    path.write_bytes(data)
    extra = list(value) if leaf == "argv" else []
    rc, out, err = run(capsys, ["charge", "--config", str(path), "--class", cls] + extra)
    assert rc == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert err.startswith("error: ")
    if leaf in ("huge-int", "huge-json-int", "not-utf8"):
        assert err.startswith(f"error: config {path}: ")
    if leaf == "duplicate":
        assert err == f"error: config {path}: duplicate key {value[2]!r}\n"
    if leaf in ("huge-int", "huge-class", "huge-json-int") or value == "9" * 5000:
        assert "an input number exceeds the int-to-str limit (4300 digits)" in err
        assert "PYTHONINTMAXSTRDIGITS" in err and "set_int_max_str_digits" not in err
    if leaf == "huge-class":
        assert err.startswith("error: class: ")
    if value == "9" * 5000:
        assert err.startswith("error: charge.b: ")
    if leaf == ("context", "label"):
        want = "one printable line" if isinstance(value, str) else "a string"
        assert err == f"error: context.label: want {want}, got {value!r}\n"
    if (leaf, value) == (("context", "n"), "1"):  # chi = 1/2: the error, not the advisory
        assert err.startswith("error: class: ")
    if leaf == "argv" and value[0] == "--k" and len(value) == 2:
        assert err == f"error: argument --k: invalid int value: {value[1]!r}\n"
    elif not f"{value}{cls}".isascii():
        assert "bad rational literal" in err


# one valid config holding every block; each verb reads the blocks it needs
LEAF_CFG = {
    "context": {"g": 2, "n": "2", "label": "X"},
    "transform": {"g": 2, "nX": "2", "nY": "2", "r": 1, "dX": "0", "dY": "0",
                  "labelX": "X", "labelY": "Y"},
    "charge": {"k": 2, "b": "0", "t": "1"},
    "scan": {"k": 2, "v": "1,0,0", "walls": ["0,0,1/2"], "b_range": ["-2", "2"],
             "t_range": ["1/100", "2"], "resolution": [9, 9]},
}
LEAF_ARGV = {
    "context": ["charge", "--class", "1,0,0"],
    "transform": ["transform", "--class", "1,0,0"],
    "charge": ["charge", "--class", "1,0,0"],
    "scan": ["walls"],
}
BAD_LEAF = {"str-int": "2", "float": 1.5, "bool": True, "list": [1], "x": "x", "zero-den": "1/0",
            "huge": "9" * 5000}
BAD_BY_KIND = {
    "int": BAD_LEAF,
    "pair": BAD_LEAF,
    "rational": {k: v for k, v in BAD_LEAF.items() if k != "str-int"},
    "class": {k: v for k, v in BAD_LEAF.items() if k != "str-int"},
    "label": {"float": 1.5, "bool": True, "list": [1], "newline": "X\nerror: fake"},
}
CONFIG_LEAVES = [  # (path into LEAF_CFG, kind of leaf)
    (("context", "g"), "int"), (("context", "n"), "rational"), (("context", "label"), "label"),
    (("transform", "g"), "int"), (("transform", "nX"), "rational"),
    (("transform", "nY"), "rational"), (("transform", "r"), "int"),
    (("transform", "dX"), "rational"), (("transform", "dY"), "rational"),
    (("transform", "labelX"), "label"), (("transform", "labelY"), "label"),
    (("charge", "k"), "int"), (("charge", "b"), "rational"), (("charge", "t"), "rational"),
    (("scan", "k"), "int"), (("scan", "v"), "class"), (("scan", "walls", 0), "class"),
    (("scan", "b_range"), "pair"), (("scan", "b_range", 1), "rational"),
    (("scan", "t_range"), "pair"), (("scan", "t_range", 1), "rational"),
    (("scan", "resolution"), "pair"), (("scan", "resolution", 1), "int"),
]


def _leaf_field(path) -> str:
    """The field an error names: scan.walls[0] for a wall, scan.b_range for
    either end of a range."""
    block, key, *index = path
    return f"{block}.{key}" + (f"[{index[0]}]" if key == "walls" else "")


@pytest.mark.parametrize(
    "path,value",
    [
        pytest.param(path, value, id=f"{'.'.join(map(str, path))}-{name}")
        for path, kind in CONFIG_LEAVES
        for name, value in BAD_BY_KIND[kind].items()
    ],
)
def test_bad_config_leaf_is_named_once(capsys, tmp_path, int_str_limit, path, value):
    cfg = json.loads(json.dumps(LEAF_CFG))
    *parents, last = path
    node = cfg
    for key in parents:
        node = node[key]
    node[last] = value
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    verb, *extra = LEAF_ARGV[path[0]]
    rc, out, err = run(capsys, [verb, "--config", str(cfg_path)] + extra)
    assert (rc, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: {_leaf_field(path)}: "), err[:200]
    assert err.count(path[0]) == 1, err[:200]


@pytest.mark.parametrize(
    "verb,cfg,expect",
    [
        ("charge", {"context": {"g": 3000, "n": "1"}, "charge": {"k": 1, "b": "0", "t": "1"}},
         "error: context.g: 3000 exceeds the limit of 100"),
        ("walls", {"context": {"g": 2, "n": "2"},
                   "scan": {"k": 2, "v": "1,0,0", "walls": ["0,0,1/2"], "b_range": ["-2", "2"],
                            "t_range": ["1/100", "2"], "resolution": [2, 100_000_000]}},
         "error: scan.resolution: 100000000 points exceeds the limit of 10000 per axis"),
        ("walls", {"context": {"g": 1, "n": "1"},
                   "scan": {"k": 1, "v": "1,0", "walls": ["0,1"] * 101, "b_range": ["-2", "2"],
                            "t_range": ["1/100", "2"], "resolution": [2, 10000]}},
         "error: scan.walls: 101 wall classes exceeds the limit of 100"),
    ],
)
def test_oversized_request_exits_2_with_one_line(capsys, tmp_path, monkeypatch, verb, cfg, expect):
    import abelfm.scan

    def no_scan(req):
        raise AssertionError("an oversized scan was started")

    monkeypatch.setattr(abelfm.scan, "scan_walls", no_scan)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    argv = [verb, "--config", str(path)] + (["--class", "1"] if verb == "charge" else [])
    rc, out, err = run(capsys, argv)
    assert (rc, out, err) == (2, "", expect + "\n")


@pytest.mark.parametrize(
    "verb,flag,value,extra",
    [
        ("charge", "--class", "-1,0,0", []),
        ("charge", "--cla", "-1,0,0", []),
        ("transform", "--class", "-1,1/2,0", []),
        ("charge", "--k", "-1", ["--class", "1,0,0"]),
        ("zeta", "--u", "-1@1/2", []),
        ("zeta", "--u", "1@-1/2", []),
        ("params", "--lambda", "-1/2", ["--k", "1"]),
    ],
)
def test_value_word_may_start_with_minus(capsys, poincare_cfg, tmp_path, verb, flag, value, extra):
    # "--flag v" and "--flag=v" are the same call, whatever v starts with
    cfg = json.loads(json.dumps(POINCARE2))
    cfg.update(CHARGE_CFG)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    head = [verb, "--config", str(path)] + extra
    apart = run(capsys, head + [flag, value])
    joined = run(capsys, head + [f"{flag}={value}"])
    assert apart == joined
    rc, out, err = apart
    if rc == 2:
        assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")
    else:
        assert rc == 0 and err == "", err


@pytest.fixture
def int_str_limit():
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(old)


def test_output_past_int_str_limit_prints_nothing(capsys, tmp_path, int_str_limit):
    # the image's coefficients have about 4400 digits; "source = 1,0,0"
    # would be printed before the image fails to format
    cfg = {"transform": {"g": 2, "nX": "2", "nY": "2", "r": 1, "dX": "7" * 2200, "dY": "0"}}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    rc, out, err = run(capsys, ["transform", "--config", str(path), "--class", "1,0,0"])
    assert (rc, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: transform: a result number")
    assert f"({int_str_limit} digits)" in err and "PYTHONINTMAXSTRDIGITS" in err
    # reading such a number from a flag is named as an input, with the same knob
    rc, out, err = run(capsys, ["zeta", "--config", str(path), "--u", "9" * 5000 + "@1/2"])
    assert (rc, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: zeta: an input number")
    assert f"({int_str_limit} digits)" in err and "PYTHONINTMAXSTRDIGITS" in err


def test_walls_recheck_names_the_failing_cell(capsys, scan_cfg, monkeypatch):
    import abelfm.scan

    real_scan = abelfm.scan.scan_walls

    def corrupted(req):
        ds = real_scan(req)
        # here W = Im(beta^2) = 2bt, so the only wall is b = 0 and all four
        # corners of the cell at b = 3/2 are positive
        bad = abelfm.scan.WallCell(0, F(3, 2), F(1, 100))
        return type(ds)(ds.request, ds.cells[:3] + (bad,) + ds.cells[3:],
                        ds.trivial_walls, ds.v_degenerate)

    monkeypatch.setattr(abelfm.scan, "scan_walls", corrupted)
    rc, out, err = run(capsys, ["walls", "--config", scan_cfg, "--recheck"])
    assert rc == 1
    assert out.startswith("w,b,t\n")
    assert err == (
        "recheck: FAIL, emitted cell without sign change: wall 0, b = 3/2, t = 1/100,"
        " corner signs +, +, +, + at (b, t), (b', t), (b, t'), (b', t')\n"
    )

    def off_grid(req):
        ds = real_scan(req)
        bad = abelfm.scan.WallCell(0, F(3, 2), F(1, 3))
        return type(ds)(ds.request, (bad,) + ds.cells, ds.trivial_walls, ds.v_degenerate)

    monkeypatch.setattr(abelfm.scan, "scan_walls", off_grid)
    rc, _, err = run(capsys, ["walls", "--config", scan_cfg, "--recheck"])
    assert rc == 1
    assert err == "recheck: FAIL, emitted cell off the grid: wall 0, b = 3/2, t = 1/3\n"


def test_walls_recheck_walks_once_on_failure(capsys, monkeypatch):
    # the shipped example plus one cell that does not cross: the failing
    # recheck stops there and its stderr line comes from the same walk, so
    # the run makes the walk's 1,372 core evaluations, not twice that
    import abelfm.scan

    real_scan, core = abelfm.scan.scan_walls, abelfm.scan._horner_core

    def corrupted(req):
        ds = real_scan(req)
        bad = abelfm.scan.WallCell(0, F(-2), F(199, 100))
        return type(ds)(ds.request, ds.cells + (bad,), ds.trivial_walls, ds.v_degenerate)

    calls = 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return core(*args)

    monkeypatch.setattr(abelfm.scan, "scan_walls", corrupted)
    monkeypatch.setattr(abelfm.scan, "_horner_core", counting)
    rc, out, err = run(capsys, ["walls", "--config", str(EXAMPLE), "--recheck"])
    assert (rc, calls) == (1, 1372)
    assert out.startswith("w,b,t\n")
    assert err == (
        "recheck: FAIL, emitted cell without sign change: wall 0, b = -2, t = 199/100,"
        " corner signs -, -, -, - at (b, t), (b', t), (b, t'), (b', t')\n"
    )


FLOAT_LITERAL = re.compile(r"\d\.\d|\d[eE][-+]?\d|\b(nan|inf)\b")


@pytest.mark.parametrize("g", [4, 5])
def test_params_exact_outside_pi6_family(capsys, tmp_path, g):
    # angles k*pi/g with g = 4, 5 mostly leave Q(sqrt3); the law is still
    # decided exactly and nothing printed is a float
    n_x = F(3)
    cfg = {
        "transform": {
            "g": g, "nX": str(n_x), "nY": str(F(factorial(g)) ** 2 / (4 * n_x)),
            "r": 2, "dX": "1/2", "dY": "-2/3",
        }
    }
    path = tmp_path / "t.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    for k in range(1, g):
        for lam in ("1/2", "1", "7/3"):
            rc, out, err = run(capsys, ["params", "--config", str(path), "--k", str(k), "--lambda", lam])
            assert rc == 0, err
            assert out.count('"exact": true') == g + 1
            assert '"equal": false' not in out
            assert "holds=True" in out and out.rstrip().endswith("exact=True")
            assert not FLOAT_LITERAL.search(out), out


def _params_transcript(tmp: Path) -> str:
    """params stdout for the Poincare g = 2 transform and for g = 3, 4, 5
    with r = 2, dX = 1/2, dY = -2/3, at every k in 1..g-1 and lambda in
    {1/2, 7/3}; each run is headed by a "## " line naming its inputs."""
    blocks = [POINCARE2["transform"]] + [
        {"g": g, "nX": "3", "nY": str(F(factorial(g)) ** 2 / 12), "r": 2,
         "dX": "1/2", "dY": "-2/3"}
        for g in (3, 4, 5)
    ]
    parts = []
    for block in blocks:
        path = tmp / f"params{block['g']}.json"
        path.write_text(json.dumps({"transform": block}), encoding="utf-8")
        for k in range(1, block["g"]):
            for lam in ("1/2", "7/3"):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    rc = main(["params", "--config", str(path), "--k", str(k), "--lambda", lam])
                assert rc == 0
                parts.append(f"## {json.dumps(block, sort_keys=True)} k={k} lambda={lam}\n")
                parts.append(out.getvalue())
    return "".join(parts)


def test_params_matches_golden(tmp_path):
    # pi/6-family values over Q(sqrt 3) (g = 2, 3) and coefficient lists in u (g = 4, 5)
    golden = (GOLDEN / "params.txt").read_bytes().decode("utf-8")
    assert _params_transcript(tmp_path) == golden


# ---- fuzz: generated configs and literals through cli.main ----

JUNK_TEXT = ["", " ", "x", "1.5", "1e3", "nan", "-inf", "1/0", "1/00", "0", "-1", "1/2", "-7/3",
             "2*sqrt3", "1/2-sqrt3", "1,0", "1@1/3", "@", "9" * 5000]
JUNK_JSON = [b"", b"{", b"[]", b"null", b'"x"', b"\xff\xfe{}", b"[" * 100_000,
             b'{"context": {"g": ' + b"9" * 5000 + b', "n": "1"}}']
leaves = st.one_of(
    st.sampled_from(JUNK_TEXT),
    st.integers(-3, 6),
    st.sampled_from([101, 10**5, 2**70]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.none(),
    st.lists(st.integers(-2, 6), max_size=3),
    st.builds(dict),  # a fresh dict per draw: the strategy below mutates blocks
)
rats = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def literals(valid):
    """Half valid literals, half junk."""
    return st.one_of(valid, st.sampled_from(JUNK_TEXT + ["1,0,0,0,0,0", "1,,0", ","]))


def class_literals(g):
    coeffs = st.lists(rats, min_size=g + 1, max_size=g + 1)
    return literals(coeffs.map(lambda cs: ",".join(map(str, cs))))


@st.composite
def cli_calls(draw):
    g = draw(st.integers(1, 3))
    r = draw(st.integers(1, 2))
    n_x = draw(st.sampled_from([F(1), F(2), F(3, 2), F(factorial(g))]))
    cfg = {
        "context": {"g": g, "n": str(draw(st.sampled_from([F(1), F(2), F(factorial(g))]))),
                    "label": "X"},
        "transform": {"g": g, "nX": str(n_x), "nY": str(F(factorial(g)) ** 2 / (r * r * n_x)),
                      "r": r, "dX": str(draw(rats)), "dY": str(draw(rats))},
        "charge": {"k": draw(st.integers(1, g)), "b": str(draw(rats)),
                   "t": draw(st.sampled_from(["1", "1/3", "sqrt3"]))},
        "scan": {"k": draw(st.integers(1, g)), "v": draw(class_literals(g)),
                 "walls": draw(st.lists(class_literals(g), min_size=1, max_size=2)),
                 "b_range": ["-2", "2"], "t_range": ["1/10", "2"], "resolution": [4, 5]},
    }
    # break up to three leaves or blocks; about a third of the configs stay valid
    for _ in range(draw(st.sampled_from([0, 0, 1, 1, 2, 3]))):
        block = draw(st.sampled_from(sorted(cfg)))
        if not isinstance(cfg[block], dict) or draw(st.sampled_from([True] + [False] * 5)):
            cfg[block] = draw(leaves)
            continue
        key = draw(st.sampled_from(sorted(cfg[block]) + ["extra"]))
        if draw(st.booleans()):
            cfg[block].pop(key, None)
        else:
            cfg[block][key] = draw(leaves)
    data = json.dumps(cfg).encode()
    if draw(st.sampled_from([True] + [False] * 9)):
        data = draw(st.sampled_from(JUNK_JSON))
    verb = draw(st.sampled_from(["transform", "charge", "zeta", "params", "walls"]))

    def flag(name, value):
        return [f"{name}={value}"] if draw(st.booleans()) else [name, value]

    argv = [verb]
    if verb in ("transform", "charge"):
        argv += flag("--class", draw(class_literals(g)))
    if verb == "charge" and draw(st.booleans()):
        argv += flag("--k", str(draw(st.integers(-1, 4))))
    if verb == "zeta":
        argv += flag("--u", draw(literals(st.sampled_from(["1@1/3", "2@1/2", "1/2@0", "3@-5/6"]))))
    if verb == "params":
        k = draw(st.one_of(st.integers(1, g), st.sampled_from([-1, 0, 4])))
        argv += flag("--k", str(k))
        argv += flag("--lambda", draw(literals(st.sampled_from(["1", "1/2", "7/3"]))))
    if verb == "walls":
        argv += flag("--format", draw(st.sampled_from(["csv", "json", "svg"])))
        if draw(st.booleans()):
            argv.append("--recheck")
    if draw(st.sampled_from([True] + [False] * 9)):  # an argparse usage error
        argv += draw(st.sampled_from([["--bogus"], ["--k"], ["--format", "-x"], ["-1,0,0"]]))
    return data, argv


@settings(max_examples=200, deadline=None)
@given(cli_calls())
def test_fuzzed_input_never_escapes(call):
    # configs, literal values and argv may be anything; each value is given
    # as "--flag=v" or as "--flag v", also when v starts with "-"
    data, argv = call
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_bytes(data)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv[:1] + ["--config", str(path)] + argv[1:])
    lines = err.getvalue().splitlines()
    if rc == 2:
        assert out.getvalue() == ""
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
    else:
        assert rc == 0, (rc, lines)
        assert all(ln.startswith(("advisory: ", "recheck: all ")) for ln in lines), lines
