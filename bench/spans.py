"""Span tracing of liecurv from outside the package.

The package binds names with ``from .x import f``, so one function is looked
up in several module namespaces (``levi_civita`` in ``riemann``, ``catalog``,
``cli`` and the package root). ``Tracer.install`` therefore swaps its wrapper
into every ``liecurv`` module namespace that holds the original function
object, and onto the class for methods. Untraced runs never call it, so they
run the package untouched.

Spans are recorded only between ``begin_op`` and ``end_op``; calls made by
set-up or by the output checks pass straight through. Spans stay in memory
and are written out once, at the end of a run.
"""

from __future__ import annotations

import functools
import importlib
import re
import sys
from collections import Counter
from fractions import Fraction
from time import perf_counter_ns

# (module under liecurv, qualified name); the metric prefix is "module.qualname".
TARGETS = (
    ("cli", "main"),
    ("catalog", "get_case"),
    ("catalog", "reproduce"),
    ("catalog", "fixture_line"),
    ("exprs", "parse_expr"),
    ("exprs", "evaluate"),
    ("documents", "parse_document"),
    ("documents", "document_digest"),
    ("algebra", "check_jacobi"),
    ("algebra", "MetricTensor.inner"),
    ("algebra", "MetricTensor.is_positive_definite"),
    ("linalg", "solve_many"),
    ("linalg", "nullspace"),
    ("linalg", "rank"),
    ("linalg", "gram_schmidt"),
    ("linalg", "orthonormal_pair"),
    ("riemann", "levi_civita"),
    ("riemann", "riemann_tensor"),
    ("riemann", "scalar_curvature"),
    ("riemann", "sectional"),
    ("riemann", "curvature_apply"),
    ("randers", "parallel_fields"),
    ("randers", "build_randers"),
    ("randers", "g_y"),
    ("randers", "flag_curvature"),
    ("scalars", "sqrt_scalar"),
)

NAMES = tuple(f"{mod}.{qual}" for mod, qual in TARGETS)
LINALG = frozenset(name for name in NAMES if name.startswith("linalg."))


def all_exact(value) -> bool:
    """True when every number inside value (nested sequences) is int/Fraction."""
    if isinstance(value, (int, Fraction)):
        return True
    if isinstance(value, float):
        return False
    if isinstance(value, (str, bytes)):
        return True
    try:
        items = iter(value)
    except TypeError:
        return True
    return all(all_exact(x) for x in items)


class Tracer:
    """In-memory spans and per-function counts for one process."""

    def __init__(self):
        self.active = False
        self.op = -1
        self.spans: list = []  # (op, name, parent span index, start ns, end ns)
        self._stack: list = []  # [span index, ns spent in child spans]
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.parse_sources: set = set()
        self.merged_sources = 0
        self.linalg_float = 0
        self.sqrt_irrational = 0
        self.missing: list = []
        self._restore: list = []

    # --- counters fed after a traced call returns -----------------------------

    def _note_parse(self, args, result) -> None:
        if args:
            self.parse_sources.add(args[0])

    def _note_linalg(self, args, result) -> None:
        if not all_exact(args):
            self.linalg_float += 1

    def _note_sqrt(self, args, result) -> None:
        if args and all_exact(args[0]) and isinstance(result, float):
            self.sqrt_irrational += 1

    def _note_for(self, name: str):
        if name == "exprs.parse_expr":
            return self._note_parse
        if name in LINALG:
            return self._note_linalg
        if name == "scalars.sqrt_scalar":
            return self._note_sqrt
        return None

    # --- wrappers -------------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        stack = self._stack
        spans = self.spans
        note = self._note_for(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            frame = [idx, 0]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                tracer.calls[name] += 1
                tracer.self_ns[name] += (t1 - t0) - frame[1]
                spans[idx] = (tracer.op, name, parent, t0, t1)
                if stack:
                    stack[-1][1] += t1 - t0
            if note is not None:
                t2 = perf_counter_ns()
                note(args, result)
                if stack:
                    # counter bookkeeping is not the caller's own work
                    stack[-1][1] += perf_counter_ns() - t2
            return result

        return traced

    def install(self) -> None:
        """Wrap every target in each liecurv namespace that binds it."""
        found = []
        for mod_name, qual in TARGETS:
            name = f"{mod_name}.{qual}"
            try:
                module = importlib.import_module(f"liecurv.{mod_name}")
            except ImportError:
                self.missing.append(name)
                continue
            owner_name, _, attr = qual.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            fn = getattr(owner, attr, None) if owner is not None else None
            if not callable(fn):
                self.missing.append(name)
                continue
            found.append((name, owner if owner_name else None, attr, fn))
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "liecurv" or key.startswith("liecurv."))]
        for name, cls, attr, fn in found:
            wrapper = self._wrap(name, fn)
            if cls is not None:
                self._restore.append((cls, attr, cls.__dict__[attr]))
                setattr(cls, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._restore.append((module, key, value))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    def begin_op(self, op: int) -> None:
        self.op = op
        self.active = True

    def end_op(self) -> None:
        self.active = False

    # --- output ---------------------------------------------------------------

    def distinct_sources(self) -> int:
        """Distinct parse_expr sources, counted per process and summed."""
        return len(self.parse_sources) + self.merged_sources

    def stats(self) -> dict:
        """Everything recorded, in a JSON-ready form (a CLI child hands it back)."""
        return {"calls": dict(self.calls), "self_ns": dict(self.self_ns),
                "distinct_sources": self.distinct_sources(),
                "linalg_float": self.linalg_float,
                "sqrt_irrational": self.sqrt_irrational,
                "missing": list(self.missing), "spans": self.spans}

    def merge(self, stats: dict) -> None:
        """Fold a child's stats() into this tracer, under the current op."""
        self.calls.update(stats["calls"])
        self.self_ns.update(stats["self_ns"])
        self.merged_sources += stats["distinct_sources"]
        self.linalg_float += stats["linalg_float"]
        self.sqrt_irrational += stats["sqrt_irrational"]
        self.missing = sorted(set(self.missing) | set(stats["missing"]))
        base = len(self.spans)
        for _, name, parent, t0, t1 in stats["spans"]:
            self.spans.append((self.op, name, parent + base if parent >= 0 else -1, t0, t1))


IMPORT_LINE = re.compile(r"import time:\s+\d+\s+\|\s+(\d+)\s+\|\s*(\S+)\s*$")


def numpy_import_ms(importtime_stderr: str) -> float:
    """Cumulative `import numpy` time from -X importtime output; 0 if absent."""
    for line in importtime_stderr.splitlines():
        m = IMPORT_LINE.match(line)
        if m and m.group(2) == "numpy":
            return int(m.group(1)) / 1e3
    return 0.0


def write_spans(path, spans) -> None:
    """One span per line: op, name, parent span index, start ns, end ns."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("op\tname\tparent\tstart_ns\tend_ns\n")
        for span in spans:
            fh.write("\t".join(str(x) for x in span) + "\n")
