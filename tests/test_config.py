"""Config loading: JSON shape errors, block extraction, literal wiring."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from abelfm.config import (
    MAX_G,
    MAX_RESOLUTION,
    ConfigError,
    charge_from,
    class_from,
    context_from,
    load_config,
    scan_from,
    transform_from,
)
from abelfm.lattice import AbelianContext
from abelfm.surd import Q3

F = Fraction

DATA = Path(__file__).parent / "data"


def write_cfg(tmp_path, payload):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(payload), encoding="utf-8")
    return p


def test_load_config_roundtrip(tmp_path):
    p = write_cfg(tmp_path, {"context": {"g": 2, "n": "2"}})
    assert load_config(p) == {"context": {"g": 2, "n": "2"}}


def test_load_config_bad_json(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(p)


def test_load_config_top_level_not_object(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(ConfigError, match="top level"):
        load_config(p)


def test_load_config_missing_file_is_oserror(tmp_path):
    # missing files surface as I/O errors, not config errors
    with pytest.raises(OSError):
        load_config(tmp_path / "nope.json")


def test_context_from():
    ctx = context_from({"context": {"g": 2, "n": "2", "label": "X"}})
    assert ctx == AbelianContext(2, F(2), "X")
    # n accepts a plain JSON integer too, label defaults to empty
    assert context_from({"context": {"g": 1, "n": 3}}).label == ""


def test_context_from_errors():
    with pytest.raises(ConfigError, match="no 'context' block"):
        context_from({})
    with pytest.raises(ConfigError, match="'context' block must be an object"):
        context_from({"context": 5})
    with pytest.raises(ConfigError, match="missing key 'n'"):
        context_from({"context": {"g": 2}})
    with pytest.raises(ConfigError, match="context.g: want an integer"):
        context_from({"context": {"g": "2", "n": "2"}})
    with pytest.raises(ConfigError, match="context.g: want an integer"):
        context_from({"context": {"g": True, "n": "2"}})
    with pytest.raises(ConfigError, match="context.n: want a rational"):
        context_from({"context": {"g": 2, "n": 2.0}})
    with pytest.raises(ConfigError, match="context.n"):
        context_from({"context": {"g": 2, "n": "2/0"}})
    with pytest.raises(ConfigError, match=r"^context\.label: want a string, got 1\.5$"):
        context_from({"context": {"g": 2, "n": "2", "label": 1.5}})
    # domain validation is reported under the block name
    with pytest.raises(ConfigError, match="context:"):
        context_from({"context": {"g": 0, "n": "2"}})


TRANSFORM = {
    "g": 2,
    "nX": "2",
    "nY": "2",
    "r": 1,
    "dX": "1/3",
    "dY": "-1/2",
    "labelX": "A",
    "labelY": "B",
}


def test_transform_from():
    spec = transform_from({"transform": TRANSFORM})
    assert spec.src == AbelianContext(2, F(2), "A")
    assert spec.dst == AbelianContext(2, F(2), "B")
    assert (spec.r, spec.d_x, spec.d_y) == (1, F(1, 3), F(-1, 2))


@pytest.mark.parametrize("key", ["labelX", "labelY"])
@pytest.mark.parametrize("value", [1, None, ["X"]])
def test_transform_from_rejects_a_non_string_label(key, value):
    with pytest.raises(ConfigError, match=rf"^transform\.{key}: want a string, got "):
        transform_from({"transform": dict(TRANSFORM, **{key: value})})


def test_transform_from_rejects_bad_reciprocity():
    bad = dict(TRANSFORM, r=2)  # needs nX*nY = (g!)^2 / r^2 = 1
    with pytest.raises(ConfigError, match="transform:"):
        transform_from({"transform": bad})


def test_charge_from():
    ctx = AbelianContext(2, F(2), "X")
    spec = charge_from({"charge": {"k": 2, "b": "0", "t": "1"}}, ctx)
    assert (spec.k, spec.b, spec.t) == (2, F(0), F(1))
    # t accepts surd literals and bare integers
    s = charge_from({"charge": {"k": 1, "b": "-1/2", "t": "sqrt3"}}, ctx)
    assert s.t == Q3(0, 1)
    assert charge_from({"charge": {"k": 1, "b": 0, "t": 2}}, ctx).t == F(2)


def test_charge_from_k_override():
    ctx = AbelianContext(2, F(2), "X")
    spec = charge_from({"charge": {"b": "0", "t": "1"}}, ctx, k_override=1)
    assert spec.k == 1
    with pytest.raises(ConfigError, match="missing key 'k'"):
        charge_from({"charge": {"b": "0", "t": "1"}}, ctx)


def test_charge_from_errors():
    ctx = AbelianContext(2, F(2), "X")
    with pytest.raises(ConfigError, match=r"^charge\.t: "):
        charge_from({"charge": {"k": 2, "b": "0", "t": "x"}}, ctx)
    with pytest.raises(ConfigError, match="charge:"):
        charge_from({"charge": {"k": 2, "b": "0", "t": "-1"}}, ctx)
    with pytest.raises(ConfigError, match="charge:"):
        charge_from({"charge": {"k": 5, "b": "0", "t": "1"}}, ctx)


def test_charge_from_rejects_non_string_t():
    # t takes the same typed route as every other leaf: no JSON floats or
    # bools, ever
    ctx = AbelianContext(2, F(2), "X")
    for bad in (0.1, 1.5, 2.0, True, False, None, [1]):
        with pytest.raises(ConfigError, match="charge.t"):
            charge_from({"charge": {"k": 2, "b": "0", "t": bad}}, ctx)
    with pytest.raises(ConfigError, match="zero denominator"):
        charge_from({"charge": {"k": 2, "b": "0", "t": "1/00"}}, ctx)


def test_class_from():
    ctx = AbelianContext(2, F(2), "X")
    c = class_from(ctx, "1,0,-1/2")
    assert c.c == (F(1), F(0), F(-1, 2))
    with pytest.raises(ConfigError, match="class:"):
        class_from(ctx, "1,0")  # wrong length for g = 2
    with pytest.raises(ConfigError, match="class:"):
        class_from(ctx, "1,0,q")


def test_scan_from_example_file():
    cfg = load_config(DATA / "example_scan.json")
    ctx = context_from(cfg)
    req = scan_from(cfg, ctx)
    assert req.k == 2
    assert req.v.c == (F(1), F(0), F(0))
    assert len(req.walls) == 2
    assert req.walls[1].c == (F(1), F(1), F(1, 2))
    assert req.b_range == (F(-2), F(2))
    assert req.t_range == (F(1, 100), F(2))
    assert req.resolution == (200, 200)


def scan_block(**over):
    base = {
        "k": 2,
        "v": "1,0,0",
        "walls": ["0,0,1/2"],
        "b_range": ["-2", "2"],
        "t_range": ["1/100", "2"],
        "resolution": [9, 9],
    }
    base.update(over)
    return {"scan": base}


def test_scan_from_errors():
    ctx = AbelianContext(2, F(2), "X")
    with pytest.raises(ConfigError, match="scan.walls: want a list"):
        scan_from(scan_block(walls="0,0,1/2"), ctx)
    with pytest.raises(ConfigError, match="scan.walls\\[1\\]"):
        scan_from(scan_block(walls=["0,0,1/2", "0,0"]), ctx)
    with pytest.raises(ConfigError, match="scan.b_range: want a two-element"):
        scan_from(scan_block(b_range=["-2"]), ctx)
    with pytest.raises(ConfigError, match="scan.t_range:"):
        scan_from(scan_block(t_range=["1/100", "two"]), ctx)
    # range ends are exact leaves, read like every other one
    with pytest.raises(ConfigError, match="^scan.b_range: want a rational string, got True$"):
        scan_from(scan_block(b_range=[True, "2"]), ctx)
    with pytest.raises(ConfigError, match="^scan.t_range: want a rational string, got 0.5$"):
        scan_from(scan_block(t_range=["1/100", 0.5]), ctx)
    with pytest.raises(ConfigError, match="scan.resolution"):
        scan_from(scan_block(resolution=[9]), ctx)
    with pytest.raises(ConfigError, match="scan.v"):
        scan_from(scan_block(v=17), ctx)
    # range direction is domain validation, reported under the block
    with pytest.raises(ConfigError, match="scan:"):
        scan_from(scan_block(t_range=["2", "1/100"]), ctx)


@pytest.mark.parametrize("g", [MAX_G + 1, 3000, 10**100])
def test_dimension_cap_refuses_before_building(g):
    # the refusal is the ConfigError alone: nothing of size g is built
    with pytest.raises(ConfigError, match=f"context.g: {g} exceeds the limit of {MAX_G}"):
        context_from({"context": {"g": g, "n": "1"}})
    with pytest.raises(ConfigError, match=f"transform.g: {g} exceeds the limit of {MAX_G}"):
        transform_from({"transform": dict(TRANSFORM, g=g)})


def test_dimension_cap_admits_the_limit():
    assert context_from({"context": {"g": MAX_G, "n": "1"}}).g == MAX_G


@pytest.mark.parametrize(
    "res", [[2, MAX_RESOLUTION + 1], [100_000_000, 2], [2, 100_000_000], [10**100, 10**100]]
)
def test_resolution_cap_refuses_before_the_grid(res):
    ctx = AbelianContext(2, F(2), "X")
    big = max(res)
    with pytest.raises(
        ConfigError,
        match=f"scan.resolution: {big} points exceeds the limit of {MAX_RESOLUTION} per axis",
    ):
        scan_from(scan_block(resolution=res), ctx)


def test_resolution_cap_admits_the_limit():
    # a request only records the resolution; no grid is built here
    ctx = AbelianContext(2, F(2), "X")
    req = scan_from(scan_block(resolution=[MAX_RESOLUTION, MAX_RESOLUTION]), ctx)
    assert req.resolution == (MAX_RESOLUTION, MAX_RESOLUTION)
