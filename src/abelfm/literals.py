"""Parsing and formatting for the exact text formats used by configs, the
command line, and emitted datasets.

Rationals are written "p/q" with q > 0, or with the integer shorthand "p".
Surds add an optional "*sqrt3" term, as in "1/2", "3*sqrt3", "sqrt3" or
"1/2-3/4*sqrt3".  Classes are comma-separated coefficient lists such as
"1,1,1/2".  Polar scalars are "modulus@angle" with the angle measured in
multiples of pi, for example "2@1/3".  A rational or surd literal may
carry whitespace at its ends, never inside.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .surd import Q3, as_fraction

_RAT_RE = re.compile(r"^[+-]?[0-9]+(/[0-9]+)?$")


def parse_rational(text: str) -> Fraction:
    t = text.strip()
    if not _RAT_RE.match(t):
        raise ValueError(f"bad rational literal {text!r} (want p/q or p)")
    if "/" in t and int(t.split("/")[1]) == 0:
        raise ValueError(f"bad rational literal {text!r} (zero denominator)")
    return Fraction(t)


def format_rational(x: Fraction) -> str:
    """Canonical reduced form with integer shorthand, for human output."""
    return str(Fraction(x))


def format_rational_frac(x: Fraction) -> str:
    """Always "p/q", used in emitted datasets.  Only an int or a Fraction
    is accepted: a float or bool raises TypeError rather than printing its
    binary expansion or 1/1."""
    x = as_fraction(x)
    return f"{x.numerator}/{x.denominator}"


def parse_surd(text: str) -> Q3:
    t = text.strip()
    if "sqrt3" not in t:
        return Q3(parse_rational(t))
    if t.endswith("sqrt3") and t[-6:-5] in ("", "+", "-"):
        t = t[:-5] + "1*sqrt3"  # bare sqrt3 means coefficient 1
    if not t.endswith("*sqrt3") or len(t.split()) > 1:  # whitespace inside
        raise ValueError(f"bad surd literal {text!r}")
    body = t[: -len("*sqrt3")]
    cut = max(body.rfind("+"), body.rfind("-"))
    if cut <= 0:  # a leading sign belongs to the sqrt3 coefficient
        return Q3(Fraction(0), parse_rational(body))
    return Q3(parse_rational(body[:cut]), parse_rational(body[cut:]))


def parse_class_coeffs(text: str) -> list[Fraction]:
    parts = text.strip().split(",")
    if not parts or parts == [""]:
        raise ValueError("empty class literal")
    return [parse_rational(p) for p in parts]


def format_class(coeffs) -> str:
    return ",".join(format_rational(c) for c in coeffs)


def parse_polar(text: str) -> tuple[Fraction, Fraction]:
    """Split "modulus@angle" into its two exact rational parts."""
    t = text.strip()
    if t.count("@") != 1:
        raise ValueError(f"bad polar literal {text!r} (want modulus@angle)")
    m, a = t.split("@")
    return parse_rational(m), parse_rational(a)
