"""Outside-in tracer for the abelfm layers.

The tracer changes no file of the program.  It replaces each public
function of a layer module with a timing wrapper at *every* place that
binds it: the defining module, every other ``abelfm`` module that imported
it by name (``scan`` binds ``charge``, ``induced`` binds ``charge_at`` and
``apply``), and module-level dicts and tuples that hold it (the emitter
table in ``scan``, the suite table in ``verify``).  Arithmetic dunders of
``Q3`` and ``SurdComplex`` are counted without spans, because they run tens
of thousands of times per job.

Spans (id, parent, job, name, start, end) are kept in memory up to a cap
and written out by ``write_spans`` when the run ends.  Self time is folded
in as each span closes, so aggregates stay exact past the cap.
"""

from __future__ import annotations

import inspect
import json
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# per layer module, the public functions that get spans; None means "all of
# them".  The tenth layer, surd, gets counters only.
_SPANNED = {
    "cli": ("main",),
    "config": None,
    "literals": ("parse_rational", "parse_surd", "parse_class_coeffs", "parse_polar"),
    "lattice": None,
    "transform": None,
    "stability": None,
    "induced": None,
    "scan": None,
    "verify": ("run_verify",),
}

SPAN_CAP = 100_000


class Tracer:
    package = "abelfm"

    def __init__(self):
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.incl_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self.job = 0
        self._stack: list[list] = []  # [span id, name, start, child time]
        self._active: Counter = Counter()
        self._next_id = 1
        self._undo: list[tuple] = []
        self.wrapped: dict[str, int] = {}  # span name -> binding sites replaced

    # ------------------------------------------------------------ spans --

    def _enter(self, name: str) -> None:
        self.calls[name] += 1
        self._active[name] += 1
        self._stack.append([self._next_id, name, perf_counter(), 0.0])
        self._next_id += 1

    def _exit(self, failed: BaseException | None) -> None:
        end = perf_counter()
        sid, name, start, child = self._stack.pop()
        self._active[name] -= 1
        dur = end - start
        self.incl_s[name] += dur
        self.self_s[name] += dur - child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        if failed is not None:
            layer = name.split(".", 1)[0]
            if parent is None or parent[1].split(".", 1)[0] != layer:
                self.errors[layer] += 1  # the exception leaves this layer
        if len(self.spans) < SPAN_CAP:
            self.spans.append((sid, parent[0] if parent else 0, self.job, name, start, end))
        else:
            self.spans_dropped += 1

    def active(self, name: str) -> bool:
        return self._active[name] > 0

    @contextmanager
    def span(self, name: str):
        self._enter(name)
        try:
            yield
        except BaseException as exc:
            self._exit(exc)
            raise
        self._exit(None)

    def wrapper(self, name: str, fn, on_call=None, on_return=None):
        enter, exit_ = self._enter, self._exit

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            enter(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                exit_(exc)
                raise
            exit_(None)
            if on_return is not None:
                on_return(out, *args, **kwargs)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -------------------------------------------------------- installing --

    def _modules(self):
        pkg = self.package
        return [
            m
            for n, m in sorted(sys.modules.items())
            if m is not None and (n == pkg or n.startswith(pkg + "."))
        ]

    def _replace_everywhere(self, fn, new, name: str) -> None:
        """Rebind fn to new in every module namespace, and inside every
        module-level dict, list or tuple (also one level down), that holds it."""
        sites = 0
        for mod in self._modules():
            ns = vars(mod)
            for attr, val in list(ns.items()):
                if val is fn:
                    self._undo.append((ns, attr, val))
                    ns[attr] = new
                    sites += 1
                elif isinstance(val, dict):
                    sites += self._replace_in_dict(val, fn, new)
        self.wrapped[name] = self.wrapped.get(name, 0) + sites

    def _replace_in_dict(self, d: dict, fn, new) -> int:
        sites = 0
        for key, val in list(d.items()):
            if val is fn:
                self._undo.append((d, key, val))
                d[key] = new
                sites += 1
            elif isinstance(val, (tuple, list)) and any(v is fn for v in val):
                seq = type(val)(new if v is fn else v for v in val)
                self._undo.append((d, key, val))
                d[key] = seq
                sites += 1
        return sites

    def install(self) -> "Tracer":
        pkg = self.package
        hooks = self._hooks()
        for layer, names in _SPANNED.items():
            mod = sys.modules.get(f"{pkg}.{layer}")
            if mod is None:
                continue
            for attr, fn in list(vars(mod).items()):
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                if attr.startswith("_") or (names is not None and attr not in names):
                    continue
                name = f"{layer}.{attr}"
                self._replace_everywhere(fn, self.wrapper(name, fn, **hooks.get(name, {})), name)
        self._install_suites(sys.modules.get(f"{pkg}.verify"))
        self._install_counters(sys.modules.get(f"{pkg}.surd"))
        return self

    def _install_suites(self, verify) -> None:
        """Each verify check gets a span named after its suite.  The suite
        table is private to verify; without it the suite times read 0."""
        table = getattr(verify, "_SUITE_CHECKS", None)
        if not isinstance(table, dict):
            return
        for suite, checks in list(table.items()):
            name = f"verify.{suite}"
            wrapped = tuple(self.wrapper(name, fn) for fn in checks)
            self._undo.append((table, suite, checks))
            table[suite] = wrapped
            self.wrapped[name] = len(wrapped)

    def _install_counters(self, surd) -> None:
        if surd is None:
            return
        counts = self.counts
        q3 = getattr(surd, "Q3", None)
        if q3 is not None:
            orig = q3.__dict__["__mul__"]

            def q3_mul(a, b, _orig=orig):
                counts["surd.q3_mul"] += 1
                if a.s == 0 and (b.s == 0 if type(b) is q3 else True):
                    counts["surd.q3_mul.rational"] += 1
                return _orig(a, b)

            self._patch_class(q3, orig, q3_mul, "surd.q3_mul")
        sc = getattr(surd, "SurdComplex", None)
        if sc is not None:
            orig = sc.__dict__["__mul__"]

            def complex_mul(a, b, _orig=orig):
                counts["surd.complex_mul"] += 1
                return _orig(a, b)

            self._patch_class(sc, orig, complex_mul, "surd.complex_mul")

    def _patch_class(self, cls, orig, new, name: str) -> None:
        sites = 0
        for attr in ("__mul__", "__rmul__"):
            if cls.__dict__.get(attr) is orig:
                self._undo.append((cls, attr, orig))
                setattr(cls, attr, new)
                sites += 1
        self.wrapped[name] = sites

    def uninstall(self) -> None:
        for container, key, val in reversed(self._undo):
            if isinstance(container, type):
                setattr(container, key, val)
            else:
                container[key] = val
        self._undo.clear()

    # ------------------------------------------------------------- hooks --

    def _hooks(self) -> dict:
        counts = self.counts
        active = self.active

        def scan_call(req, *a, **k):
            nb, nt = req.resolution
            counts["scan.grid_points"] += nb * nt
            counts["scan.cell_slots"] += len(req.walls) * (nb - 1) * (nt - 1)

        def scan_return(ds, *a, **k):
            counts["scan.cells"] += len(ds.cells)

        def recheck_call(ds, *a, **k):
            counts["scan.recheck.cells"] += len(ds.cells)

        def charge_call(*a, **k):
            if active("scan.recheck_walls"):
                counts["scan.recheck.charge_calls"] += 1

        def law_return(verdicts, *a, **k):
            counts["induced.verdicts"] += len(verdicts)
            counts["induced.exact_verdicts"] += sum(1 for v in verdicts if v.exact)

        def shift_return(verdict, *a, **k):
            counts["induced.verdicts"] += 1
            counts["induced.exact_verdicts"] += 1 if verdict.exact else 0

        def emitted(fmt):
            def hook(text, *a, **k):
                counts[f"scan.emit_{fmt}.bytes"] += len(text.encode("utf-8"))

            return hook

        return {
            "scan.scan_walls": {"on_call": scan_call, "on_return": scan_return},
            "scan.recheck_walls": {"on_call": recheck_call},
            "stability.charge": {"on_call": charge_call},
            "induced.verify_induced_law": {"on_return": law_return},
            "induced.phase_shift_check": {"on_return": shift_return},
            "scan.emit_csv": {"on_return": emitted("csv")},
            "scan.emit_json": {"on_return": emitted("json")},
            "scan.emit_svg": {"on_return": emitted("svg")},
        }

    # ----------------------------------------------------------- results --

    def layer_self(self, layer: str) -> tuple[int, float]:
        calls = sum(c for n, c in self.calls.items() if n.split(".", 1)[0] == layer)
        busy = sum(s for n, s in self.self_s.items() if n.split(".", 1)[0] == layer)
        return calls, busy

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, job, name, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {"id": sid, "parent": parent, "job": job, "name": name,
                         "start": start, "end": end}
                    )
                    + "\n"
                )
