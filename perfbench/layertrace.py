"""In-process tracing of mvkraw's public layers.

`patched(tracer)` wraps each function in LAYERS, in every mvkraw module
that binds it, so calls made from inside the package (the CLI's `main`,
`verify_structure` calling `tabulate_rates`, ...) are traced as well as
direct calls.  Classes are traced through their `__init__`.  Each call
becomes one span with its name, start, end, parent span, operation and
lattice size; spans stay in memory until the run writes them out.  The
program's code is not changed: the wrappers are removed on exit.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time

LAYERS = (
    ("lattice", "StateSpace"),
    ("bdcore", "tabulate_rates"),
    ("model", "weight_vector"),
    ("bdcore", "generator_from_tables"),
    ("bdcore", "stationary_weight_generic"),
    ("bdcore", "verify_structure"),
    ("spectrum", "solve_spectrum"),
    ("spectrum", "identity_checks"),
    ("spectrum", "numeric_eigenbasis"),
    ("polynomials", "table"),
    ("polynomials", "table_via_generating_function"),
    ("polynomials", "eigen_residuals"),
    ("polynomials", "gram_matrix"),
    ("polynomials", "dual_gram"),
    ("polynomials", "orthonormal_map"),
    ("rational", "derive_dual_pair"),
    ("rational", "verify_recurrence"),
    ("simulate", "evolve_distribution"),
    ("simulate", "gillespie_run"),
)
LAYER_NAMES = tuple(f"{mod}.{attr}" for mod, attr in LAYERS)
# counts taken from a call's arguments or result: (name, layer, function)
COUNTS = (
    ("lattice.points", "lattice.StateSpace", lambda args, out: args[0].size),
    ("polynomials.entries", "polynomials.table", lambda args, out: out.size),
    ("polynomials.entries", "polynomials.table_via_generating_function",
     lambda args, out: out.size),
    ("simulate.rate_bound", "simulate.evolve_distribution",
     lambda args, out: out.rate_bound),
    ("simulate.events", "simulate.gillespie_run", lambda args, out: out.events),
)
COUNT_NAMES = tuple(dict.fromkeys(name for name, _, _ in COUNTS))


class Tracer:
    """Collects spans; `operation` opens the root span of one operation."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._op: tuple = (None, None)

    @contextlib.contextmanager
    def operation(self, label: str, size: int):
        self._op = (label, size)
        root = self._open(f"op:{label}")
        try:
            yield root
        finally:
            self._close(root)
            self._op = (None, None)

    def _open(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "op": self._op[0],
            "size": self._op[1],
            "start": time.perf_counter() - self.t0,
            "end": None,
            "counts": {},
        }
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter() - self.t0
        self._stack.pop()

    def wrap(self, name: str, fn):
        counters = [(count, get) for count, layer, get in COUNTS if layer == name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(span)
            for count, get in counters:
                span["counts"][count] = float(get(args, out))
            return out

        return traced


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Route every binding of the LAYERS functions through the tracer."""
    undo = []
    try:
        for module, attr in LAYERS:
            mod = importlib.import_module(f"mvkraw.{module}")
            orig = getattr(mod, attr, None)
            if orig is None:
                continue
            name = f"{module}.{attr}"
            if isinstance(orig, type):
                undo.append((orig, "__init__", orig.__init__))
                orig.__init__ = tracer.wrap(name, orig.__init__)
                continue
            wrapped = tracer.wrap(name, orig)
            for mname, m in list(sys.modules.items()):
                if mname.split(".")[0] == "mvkraw" and getattr(m, attr, None) is orig:
                    undo.append((m, attr, orig))
                    setattr(m, attr, wrapped)
        yield tracer
    finally:
        for obj, attr, value in reversed(undo):
            setattr(obj, attr, value)


def with_self_times(spans: list[dict]) -> list[dict]:
    """Spans with `self`: duration minus the time covered by child spans."""
    child = {}
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] = child.get(s["parent"], 0.0) + s["end"] - s["start"]
    return [dict(s, self=s["end"] - s["start"] - child.get(s["id"], 0.0))
            for s in spans]
