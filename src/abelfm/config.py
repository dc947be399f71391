"""Single JSON config format shared by all CLI verbs.

Blocks, all optional unless a verb needs them:

    context:   {"g": 2, "n": "2", "label": "X"}
    transform: {"g": 2, "nX": "2", "nY": "2", "r": 1, "dX": "0", "dY": "0",
                "labelX": "X", "labelY": "Y"}
    charge:    {"k": 2, "b": "0", "t": "1"}          t may be "p/q*sqrt3"
    scan:      {"k": 2, "v": "1,0,0", "walls": ["0,0,1/2"],
                "b_range": ["-2", "2"], "t_range": ["1/100", "2"],
                "resolution": [200, 200]}

Keys are unique at every depth.  Every numeric leaf is an exact rational
string; nothing in a config is ever parsed as a float.  A bad leaf is named
<block>.<key>, and a rule that spans the leaves of one block is named
<block>.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import TYPE_CHECKING

from .lattice import AbelianContext, CohClass
from .literals import parse_class_coeffs, parse_rational, parse_surd

if TYPE_CHECKING:
    from .scan import ScanRequest
    from .stability import ChargeSpec
    from .transform import FMTransformSpec


# Requests past these caps are refused before anything is allocated for them.
MAX_G = 100  # dimension g of a context or transform
MAX_RESOLUTION = 10_000  # grid points on each scan axis
MAX_WALLS = 100  # wall classes in one scan


class ConfigError(ValueError):
    """Malformed or incomplete configuration."""


def _unique_keys(pairs: list) -> dict:
    """A JSON object whose keys are all distinct; json keeps the last of a
    repeated key without a word."""
    obj = {}
    for key, val in pairs:
        if key in obj:
            raise ConfigError(f"duplicate key {key!r}")
        obj[key] = val
    return obj


def load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh, object_pairs_hook=_unique_keys)
    except ConfigError as exc:
        raise ConfigError(f"config {path}: {exc}") from None
    except RecursionError:
        raise ConfigError(f"config {path}: invalid JSON (nested too deeply)") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path}: not UTF-8 text ({exc})") from None
    except ValueError as exc:  # bad syntax, or an integer past Python's digit limit
        raise ConfigError(f"config {path}: invalid JSON ({exc})") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path}: top level must be an object")
    return raw


def _need(block: dict, key: str, where: str):
    if key not in block:
        raise ConfigError(f"missing key {key!r} in {where} block")
    return block[key]


def _block(cfg: dict, name: str) -> dict:
    block = cfg.get(name)
    if block is None:
        raise ConfigError(f"config has no {name!r} block")
    if not isinstance(block, dict):
        raise ConfigError(f"{name!r} block must be an object")
    return block


def _exact(val, field: str, parse=parse_rational):
    """An exact leaf: a plain JSON integer, or a string read by parse."""
    if isinstance(val, int) and not isinstance(val, bool):
        return Fraction(val)
    if isinstance(val, str):
        try:
            return parse(val)
        except ValueError as exc:
            raise ConfigError(f"{field}: {exc}") from None
    raise ConfigError(f"{field}: want a rational string, got {val!r}")


def _int(val, field: str) -> int:
    if not isinstance(val, int) or isinstance(val, bool):
        raise ConfigError(f"{field}: want an integer, got {val!r}")
    return val


def _class(text, field: str, ctx: AbelianContext) -> CohClass:
    if not isinstance(text, str):
        raise ConfigError(f"{field}: want a class literal string, got {text!r}")
    try:
        return CohClass(ctx, tuple(parse_class_coeffs(text)))
    except ValueError as exc:
        raise ConfigError(f"{field}: {exc}") from None


def _leaf(block: dict, key: str, where: str, read=_exact, **kw):
    """The leaf at key, read and named <where>.<key> by read."""
    return read(_need(block, key, where), f"{where}.{key}", **kw)


def _pair(block: dict, key: str, read=_exact) -> tuple:
    pair = _need(block, key, "scan")
    if not (isinstance(pair, list) and len(pair) == 2):
        raise ConfigError(f"scan.{key}: want a two-element list")
    return tuple(read(val, f"scan.{key}") for val in pair)


def _label(block: dict, key: str, where: str, default: str) -> str:
    val = block.get(key, default)
    if not isinstance(val, str):
        raise ConfigError(f"{where}.{key}: want a string, got {val!r}")
    if not val.isprintable():
        raise ConfigError(f"{where}.{key}: want one printable line, got {val!r}")
    return val


def _dim(block: dict, where: str) -> int:
    g = _leaf(block, "g", where, _int)
    if g > MAX_G:
        raise ConfigError(f"{where}.g: {g} exceeds the limit of {MAX_G}")
    return g


def _build(where: str, make, *args):
    """make(*args), with a domain error that spans the block named <where>."""
    try:
        return make(*args)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def context_from(cfg: dict) -> AbelianContext:
    block = _block(cfg, "context")
    return _build(
        "context", AbelianContext,
        _dim(block, "context"), _leaf(block, "n", "context"), _label(block, "label", "context", ""),
    )


def transform_from(cfg: dict) -> FMTransformSpec:
    from .transform import FMTransformSpec
    block = _block(cfg, "transform")
    g = _dim(block, "transform")
    src, dst = (
        _build(
            "transform", AbelianContext, g,
            _leaf(block, f"n{side}", "transform"), _label(block, f"label{side}", "transform", side),
        )
        for side in "XY"
    )
    return _build(
        "transform", FMTransformSpec,
        src, dst, _leaf(block, "r", "transform", _int),
        _leaf(block, "dX", "transform"), _leaf(block, "dY", "transform"),
    )


def charge_from(cfg: dict, ctx: AbelianContext, k_override: int | None = None) -> ChargeSpec:
    from .stability import ChargeSpec
    block = _block(cfg, "charge")
    k = k_override if k_override is not None else _leaf(block, "k", "charge", _int)
    t = _leaf(block, "t", "charge", parse=parse_surd)
    return _build("charge", ChargeSpec, ctx, k, _leaf(block, "b", "charge"), t)


def class_from(ctx: AbelianContext, text: str) -> CohClass:
    return _class(text, "class", ctx)


def scan_from(cfg: dict, ctx: AbelianContext) -> ScanRequest:
    from .scan import ScanRequest
    block = _block(cfg, "scan")
    walls_raw = _need(block, "walls", "scan")
    if not isinstance(walls_raw, list):
        raise ConfigError("scan.walls: want a list of class literals")
    if len(walls_raw) > MAX_WALLS:
        raise ConfigError(
            f"scan.walls: {len(walls_raw)} wall classes exceeds the limit of {MAX_WALLS}"
        )
    b_range, t_range = _pair(block, "b_range"), _pair(block, "t_range")
    resolution = _pair(block, "resolution", _int)
    for n in resolution:
        if n > MAX_RESOLUTION:
            raise ConfigError(
                f"scan.resolution: {n} points exceeds the limit of {MAX_RESOLUTION} per axis"
            )
    return _build(
        "scan", ScanRequest,
        ctx, _leaf(block, "k", "scan", _int), _leaf(block, "v", "scan", _class, ctx=ctx),
        tuple(_class(w, f"scan.walls[{i}]", ctx) for i, w in enumerate(walls_raw)),
        b_range, t_range, resolution,
    )
