"""Command-line front door.

Verbs: transform, charge, zeta, params, walls, verify.  All but verify read
a JSON config file; verb-specific flags supply the remaining inputs.  A flag
value may start with "-" in either form, "--class -1,0,0" or
"--class=-1,0,0".  Exit statuses: 0 success, 1 verification failure, 2 usage
or config error (one "error: " line on stderr), 3 I/O error; a bug raises.
A verb's stdout is written only once the verb has finished, so a failing
verb prints nothing there.  The only environment override is
ABELFM_OUT_DIR, which redirects relative --out paths.
"""

from __future__ import annotations

import argparse
import io
import os
import re
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

from . import config
from .lattice import chi_advisory, divided_power_basis, skyscraper
from .literals import format_class, format_rational, parse_polar, parse_rational
from .surd import PolarScalar

__all__ = ["build_parser", "main"]

# the choices of --format and --suite, which a test holds equal to
# scan.FORMATS and verify.SUITES; written here so that building the parser
# imports neither module
_FORMATS = ("csv", "json", "svg")
_SUITES = ("lattice", "transform", "law", "bg", "all")


_INT_LITERAL = re.compile(r"-?[0-9]+")


def _int_literal(text: str) -> int:
    """A --k value: an optional "-" and ASCII digits, the literal grammar's
    rule.  int() alone would also take other Unicode digits, "+", "_" and
    whitespace at the ends."""
    if not _INT_LITERAL.fullmatch(text):
        raise ValueError(text)
    return int(text)


# argparse names the type in its one-line error: "invalid int value: 'x'"
_int_literal.__name__ = "int"


def _out_path(out: str) -> Path:
    """Resolve --out against ABELFM_OUT_DIR when the path is relative."""
    base = os.environ.get("ABELFM_OUT_DIR")
    p = Path(out)
    if base and not p.is_absolute():
        return Path(base) / p
    return p


def _cmd_transform(args) -> int:
    from . import transform
    cfg = config.load_config(args.config)
    spec = config.transform_from(cfg)
    e = config.class_from(spec.src, args.cls)
    img = transform.apply(spec, e)
    print(f"source = {format_class(e.c)}")
    print(f"image  = {format_class(img.c)}")
    rev, shift = transform.quasi_inverse(spec)
    back = transform.apply(rev, img)
    print(f"round trip (shift {shift}) = {format_class(back.c)}")
    return 0


def _warn_chi(ctx) -> None:
    note = chi_advisory(ctx)
    if note:
        print(note, file=sys.stderr)


def _cmd_charge(args) -> int:
    from . import stability
    cfg = config.load_config(args.config)
    ctx = config.context_from(cfg)
    spec = config.charge_from(cfg, ctx, args.k)
    e = config.class_from(ctx, args.cls)
    _warn_chi(ctx)  # after parsing, so malformed input gets one stderr line
    z = stability.charge(spec, e)
    print(f"k = {spec.k}, b = {format_rational(spec.b)}, t = {spec.t}")
    print(f"Z = {z}")
    s = stability.slope(spec, e)
    print(f"slope = {'infinity' if s is None else s}")
    try:
        p = stability.phase(spec, e)
    except stability.HeartValueError as exc:
        print(f"phase = undefined ({exc})")
    else:
        # the one documented float display; everything above is exact
        print("phase = kernel class (Z = 0)" if p is None else f"phase = {p:.12g}")
    return 0


def _cmd_zeta(args) -> int:
    from . import induced
    cfg = config.load_config(args.config)
    spec = config.transform_from(cfg)
    modulus, angle = parse_polar(args.u)
    u = PolarScalar(modulus, angle)
    z = induced.zeta(spec, u)
    print(f"u = {u}")
    print(f"zeta = {z}")
    rect = z.to_exact()
    if rect is not None:
        print(f"rect = {rect}")
    if z.is_real:
        print(f"real: yes, sign {z.real_sign:+d}")
    else:
        print("real: no")
    angles = induced.real_zeta_angles(spec.g)
    print(f"real-zeta angles for g={spec.g}: {', '.join(str(a) for a in angles)}")
    return 0


def _cmd_params(args) -> int:
    from . import induced
    cfg = config.load_config(args.config)
    spec = config.transform_from(cfg)
    lam = parse_rational(args.lam)
    omega_src, omega_dst = induced.conjecture_params(spec, args.k, lam)
    print(f"k = {args.k}, lambda = {format_rational(lam)}, g = {spec.g}")
    print(f"omega_src = {omega_src}  [units of l]")
    print(f"omega_dst = {omega_dst}  [units of l]")
    u = PolarScalar(lam, Fraction(args.k, spec.g))
    verdicts = induced.verify_induced_law(spec, u, divided_power_basis(spec.src))
    print(induced.render_verdicts(verdicts))
    shift = induced.phase_shift_check(spec, u, skyscraper(spec.src))
    print(
        f"phase shift: holds={shift.holds}, expected heart shift ="
        f" {shift.expected_shift}, exact={shift.exact}"
    )
    if not (all(v.equal for v in verdicts) and shift.holds):
        print("FAIL: charge transport identity violated", file=sys.stderr)
        return 1
    return 0


def _describe(bad) -> str:
    """The stderr text for a scan.RecheckFailure."""
    cell = bad.cell
    where = f"wall {cell.w_index}, b = {format_rational(cell.b)}, t = {format_rational(cell.t)}"
    if bad.corners is None:
        return f"emitted cell off the grid: {where}"
    signs = ", ".join("+" if s > 0 else "-" if s < 0 else "0" for s in bad.corners)
    return (
        f"emitted cell without sign change: {where},"
        f" corner signs {signs} at (b, t), (b', t), (b, t'), (b', t')"
    )


def _cmd_walls(args) -> int:
    from . import scan
    cfg = config.load_config(args.config)
    ctx = config.context_from(cfg)
    req = config.scan_from(cfg, ctx)
    _warn_chi(ctx)
    ds = scan.scan_walls(req)
    status = 0
    if args.recheck:
        if scan.recheck_walls(ds):
            print(f"recheck: all {len(ds.cells)} cells confirmed", file=sys.stderr)
        else:
            print(f"recheck: FAIL, {_describe(scan.first_bad_cell(ds))}", file=sys.stderr)
            status = 1
    if args.out:
        path = _out_path(args.out)
        scan.emit(ds, args.format, path)
        print(
            f"wrote {path}: {len(ds.cells)} cells, "
            f"trivial walls {list(ds.trivial_walls)}, "
            f"degenerate probe {ds.v_degenerate}"
        )
    else:
        sys.stdout.write(scan.render(ds, args.format))
    return status


def _cmd_verify(args) -> int:
    from . import verify
    results, ok = verify.run_verify(args.suite)
    for res in results:
        print(res.line())
    fails = sum(1 for r in results if r.status == "FAIL")
    print(f"{'ok' if ok else 'FAILED'}: {len(results)} checks, {fails} failures")
    return 0 if ok else 1


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage errors are one stderr line, and whose
    value-taking flags accept a separate value word starting with "-"."""

    def __init__(self, *args, **kwargs):
        # set before ArgumentParser.__init__, which already adds -h
        self._flags: set[str] = set()
        self._value_flags: set[str] = set()
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        self._flags.update(action.option_strings)
        if action.option_strings and action.nargs is None:
            self._value_flags.update(action.option_strings)
        return action

    def _takes_value(self, word: str) -> bool:
        """Whether word is, or abbreviates as argparse allows, a flag that
        takes one value."""
        if word in self._flags or not word.startswith("--"):
            return word in self._value_flags
        names = [f for f in self._flags if f.startswith(word)]
        return len(names) == 1 and names[0] in self._value_flags

    def parse_known_args(self, args=None, namespace=None):
        # "--class -1,0,0" would read -1,0,0 as an option; "--class=-1,0,0" cannot
        joined: list[str] = []
        for word in sys.argv[1:] if args is None else args:
            if joined and self._takes_value(joined[-1]) and word.startswith("-") and (
                word.split("=", 1)[0] not in self._flags
            ):
                joined[-1] += "=" + word
            else:
                joined.append(word)
        return super().parse_known_args(joined, namespace)

    def error(self, message):
        self.exit(2, "error: " + message.replace("\n", " ") + "\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="abelfm",
        description=(
            "Exact lattice transforms, charges and wall scans on principally "
            "polarized-style abelian contexts."
        ),
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_config(p):
        p.add_argument("--config", required=True, help="path to the JSON config file")

    p = sub.add_parser("transform", help="apply the configured transform to a class")
    add_config(p)
    p.add_argument("--class", dest="cls", required=True, help='class literal "c0,c1,...,cg"')
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("charge", help="evaluate the level-k charge of a class")
    add_config(p)
    p.add_argument("--class", dest="cls", required=True, help='class literal "c0,c1,...,cg"')
    p.add_argument("--k", type=_int_literal, default=None, help="override the config charge level")
    p.set_defaults(func=_cmd_charge)

    p = sub.add_parser("zeta", help="exact polar factor of the induced charge relation")
    add_config(p)
    p.add_argument("--u", required=True, help='polar literal "modulus@angle", angle in units of pi')
    p.set_defaults(func=_cmd_zeta)

    p = sub.add_parser("params", help="matched polarization pair and transport verdicts")
    add_config(p)
    p.add_argument("--k", type=_int_literal, required=True, help="angle numerator, angle = k*pi/g")
    p.add_argument("--lambda", dest="lam", required=True, help="polar modulus, rational > 0")
    p.set_defaults(func=_cmd_params)

    p = sub.add_parser("walls", help="scan wall loci on the (b, t) grid and emit a file")
    add_config(p)
    p.add_argument("--out", default=None, help="output path (stdout when omitted)")
    p.add_argument("--format", choices=_FORMATS, default="csv")
    p.add_argument(
        "--recheck",
        action="store_true",
        help="independently re-verify every emitted cell through the public charge",
    )
    p.set_defaults(func=_cmd_walls)

    p = sub.add_parser("verify", help="run a self-check suite")
    p.add_argument("--suite", choices=_SUITES, default="all")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage errors; normalize others
        return exc.code if exc.code in (0, 2) else 2
    out = io.StringIO()
    try:
        with redirect_stdout(out):
            status = args.func(args)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # ConfigError is one
        print(f"error: {_error_text(args.verb, exc)}", file=sys.stderr)
        return 2
    sys.stdout.write(out.getvalue())
    return status


# Python's text, at the end of the message or of a parenthesis around it
_INT_STR_LIMIT = re.compile(
    r"Exceeds the limit \(\d+ digits\) for integer string conversion"
    r"(: value has \d+ digits)?; use sys\.set_int_max_str_digits\(\) to increase the limit\)?$"
)


def _error_text(verb: str, exc: Exception) -> str:
    """The message of a verb's error.  Python's own text for a number past
    the int-to-str digit limit names neither the number nor a knob that a
    command-line user has, so it is replaced by one that does.  Python says
    "... conversion: value has N digits" when reading such a number and
    "... conversion; use ..." when printing one.  Whatever the config
    reader put before that text names the field or file the number came
    from; a bare text comes from a flag or a result, named by the verb."""
    text = str(exc)
    m = _INT_STR_LIMIT.search(text)
    if m:
        where = text[: m.start()].rstrip(" (:") or verb
        what = "an input" if m.group(1) else "a result"
        return (
            f"{where}: {what} number exceeds the int-to-str limit"
            f" ({sys.get_int_max_str_digits()} digits); raise the limit with the"
            " environment variable PYTHONINTMAXSTRDIGITS"
        )
    return text


if __name__ == "__main__":
    sys.exit(main())
