"""Single JSON config format shared by all CLI verbs.

Blocks, all optional unless a verb needs them:

    context:   {"g": 2, "n": "2", "label": "X"}
    transform: {"g": 2, "nX": "2", "nY": "2", "r": 1, "dX": "0", "dY": "0",
                "labelX": "X", "labelY": "Y"}
    charge:    {"k": 2, "b": "0", "t": "1"}          t may be "p/q*sqrt3"
    scan:      {"k": 2, "v": "1,0,0", "walls": ["0,0,1/2"],
                "b_range": ["-2", "2"], "t_range": ["1/100", "2"],
                "resolution": [200, 200]}

Every numeric leaf is an exact rational string; nothing in a config is ever
parsed as a float.
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


def load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
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


def _exact(val, where: str, parse=parse_rational):
    """An exact leaf: a plain JSON integer, or a string read by parse."""
    if isinstance(val, int) and not isinstance(val, bool):
        return Fraction(val)
    if isinstance(val, str):
        try:
            return parse(val)
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from None
    raise ConfigError(f"{where}: want a rational string, got {val!r}")


def _rat(block: dict, key: str, where: str, parse=parse_rational):
    return _exact(_need(block, key, where), f"{where}.{key}", parse)


def _int(block: dict, key: str, where: str) -> int:
    val = _need(block, key, where)
    if not isinstance(val, int) or isinstance(val, bool):
        raise ConfigError(f"{where}.{key}: want an integer, got {val!r}")
    return val


def _str(block: dict, key: str, where: str, default: str) -> str:
    val = block.get(key, default)
    if not isinstance(val, str):
        raise ConfigError(f"{where}.{key}: want a string, got {val!r}")
    return val


def _dim(g: int, where: str) -> int:
    if g > MAX_G:
        raise ConfigError(f"{where}.g: {g} exceeds the limit of {MAX_G}")
    return g


def context_from(cfg: dict) -> AbelianContext:
    block = _block(cfg, "context")
    try:
        label = _str(block, "label", "context", "")
        ctx = AbelianContext(_int(block, "g", "context"), _rat(block, "n", "context"), label)
    except ValueError as exc:
        raise ConfigError(f"context: {exc}") from None
    _dim(ctx.g, "context")
    return ctx


def transform_from(cfg: dict) -> FMTransformSpec:
    from .transform import FMTransformSpec
    block = _block(cfg, "transform")
    g = _dim(_int(block, "g", "transform"), "transform")
    try:
        src = AbelianContext(
            g, _rat(block, "nX", "transform"), _str(block, "labelX", "transform", "X")
        )
        dst = AbelianContext(
            g, _rat(block, "nY", "transform"), _str(block, "labelY", "transform", "Y")
        )
        return FMTransformSpec(
            src=src,
            dst=dst,
            r=_int(block, "r", "transform"),
            d_x=_rat(block, "dX", "transform"),
            d_y=_rat(block, "dY", "transform"),
        )
    except ValueError as exc:
        raise ConfigError(f"transform: {exc}") from None


def charge_from(cfg: dict, ctx: AbelianContext, k_override: int | None = None) -> ChargeSpec:
    from .stability import ChargeSpec
    block = _block(cfg, "charge")
    k = k_override if k_override is not None else _int(block, "k", "charge")
    try:
        t = _rat(block, "t", "charge", parse_surd)
        return ChargeSpec(ctx, k, _rat(block, "b", "charge"), t)
    except ValueError as exc:
        raise ConfigError(f"charge: {exc}") from None


def _class(ctx: AbelianContext, text, where: str) -> CohClass:
    if not isinstance(text, str):
        raise ConfigError(f"{where}: want a class literal string, got {text!r}")
    try:
        return CohClass(ctx, tuple(parse_class_coeffs(text)))
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def class_from(ctx: AbelianContext, text: str) -> CohClass:
    return _class(ctx, text, "class")


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
    rng = {}
    for key in ("b_range", "t_range"):
        pair = _need(block, key, "scan")
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ConfigError(f"scan.{key}: want a two-element list")
        rng[key] = (_exact(pair[0], f"scan.{key}"), _exact(pair[1], f"scan.{key}"))
    res = _need(block, "resolution", "scan")
    if not (isinstance(res, list) and len(res) == 2):
        raise ConfigError("scan.resolution: want a two-element list")
    for n in res:
        if isinstance(n, int) and n > MAX_RESOLUTION:
            raise ConfigError(
                f"scan.resolution: {n} points exceeds the limit of {MAX_RESOLUTION} per axis"
            )
    try:
        return ScanRequest(
            ctx=ctx,
            k=_int(block, "k", "scan"),
            v=_class(ctx, _need(block, "v", "scan"), "scan.v"),
            walls=tuple(_class(ctx, w, f"scan.walls[{i}]") for i, w in enumerate(walls_raw)),
            b_range=rng["b_range"],
            t_range=rng["t_range"],
            resolution=(res[0], res[1]),
        )
    except ValueError as exc:
        raise ConfigError(f"scan: {exc}") from None
