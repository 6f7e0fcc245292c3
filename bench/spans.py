"""Spans for the traced run, recorded from outside the package.

``install`` replaces functions in oscquad's modules with wrappers that
record one span per call: name, start, end, parent span and the integral
it belongs to.  The replacement goes on the name the caller looks up: for
example ``panel_trio`` is imported into ``adaptive`` by name, so the
wrapper goes on ``adaptive.panel_trio``, and ``adaptive_integrate`` and
``adaptive_gauss`` are wrapped where ``reference`` calls them.  Counts are
recorded at the same boundaries as span attributes (sample points of an
expression call, a truncated QR apply, and the intervals, depth and
recomputed panels of a worklist run).  Spans are kept in flat arrays in
memory and written out when the run ends.

A span's self time is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import math
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from oscquad import adaptive, expr, linalg, oracle, reference

# Spans whose calls and self times are reported, by layer.
LAYERS = ("linalg.qr_factor", "linalg.qr_apply", "levin.panel_trio",
          "adaptive.adaptive_integrate", "reference.integrand_for", "expr.eval",
          "oracle.adaptive_gauss")

N_ATTRS = 3

# Per-layer metrics of one pass over a workload's cases, with their units.
UNITS = {f"{layer}.{kind}": unit for layer in LAYERS
         for kind, unit in (("calls", "count"), ("self_ms", "ms"))}
UNITS.update({
    "linalg.qr_apply.truncated": "count", "linalg.truncated_share": "share",
    "expr.eval.points": "count", "adaptive.intervals_processed": "count",
    "adaptive.max_depth": "levels", "adaptive.recomputed_panel_share": "share",
    "oracle.intervals_processed": "count", "oracle.recomputed_panel_share": "share",
    "trace.overhead_share": "share",
})


class Tracer:
    """Spans in flat arrays; one integral id per evaluated case."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.integral = array("i")
        self.start = array("d")
        self.end = array("d")
        self.attrs = [array("q") for _ in range(N_ATTRS)]
        self._stack: list[int] = []
        self.integral_id = -1

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.integral.append(self.integral_id)
        for a in self.attrs:
            a.append(0)
        self._stack.append(i)
        self.start.append(0.0)
        self.end.append(0.0)
        self.start[i] = perf_counter()
        return i

    def close(self, i: int):
        self.end[i] = perf_counter()
        self._stack.pop()

    def annotate_open(self, *values):
        """Set the attributes of the innermost open span."""
        i = self._stack[-1]
        for a, v in zip(self.attrs, values):
            a[i] = v

    def wrap(self, name: str, fn, attr=None):
        """fn wrapped in a span; ``attr(args, result)`` sets attribute 0."""
        nid = self.name_id(name)

        def traced(*args, **kwargs):
            i = self.open(nid)
            try:
                out = fn(*args, **kwargs)
                if attr is not None:
                    self.attrs[0][i] = attr(args, out)
                return out
            finally:
                self.close(i)

        return traced

    def __len__(self):
        return len(self.start)

    def columns(self, lo: int = 0, hi: int | None = None) -> dict:
        """The spans in [lo, hi) as numpy arrays."""
        hi = len(self) if hi is None else hi
        cols = {"name": self.name, "parent": self.parent, "integral": self.integral,
                "start": self.start, "end": self.end}
        cols.update({f"attr{k}": a for k, a in enumerate(self.attrs)})
        return {k: np.array(v[lo:hi]) for k, v in cols.items()}

    def save(self, path, meta: dict):
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names),
                            meta=np.array(repr(meta)), **self.columns())


def _counting_worklist(tracer: Tracer, run_worklist):
    """_run_worklist wrapped so each run's interval statistics are recorded.

    The statistics go on the innermost open span (adaptive_integrate or
    adaptive_gauss): attr0 intervals processed, attr1 deepest bisection
    level, attr2 panel estimates recomputed (a whole panel already
    estimated as a half of its parent).
    """

    def worklist(trio, a, b, *rest):
        root = b - a
        halves = set()
        stats = [0, 0, 0]

        def counted(a0, c0, b0):
            stats[0] += 1
            stats[1] = max(stats[1], round(math.log2(root / (b0 - a0))))
            if (a0, b0) in halves:
                stats[2] += 1
            out = trio(a0, c0, b0)
            halves.add((a0, c0))
            halves.add((c0, b0))
            return out

        try:
            return run_worklist(counted, a, b, *rest)
        finally:
            tracer.annotate_open(*stats)

    return worklist


@contextmanager
def install(tracer: Tracer):
    """Wrap the layer functions for the duration of the block."""

    def compile_fn(*args, **kwargs):
        return tracer.wrap("expr.eval", original_compile(*args, **kwargs),
                           attr=lambda a, out: np.size(a[0]))

    original_compile = expr.compile_fn
    patches = [
        (reference, "integrand_for", tracer.wrap("reference.integrand_for",
                                                 reference.integrand_for)),
        (reference, "adaptive_integrate", tracer.wrap("adaptive.adaptive_integrate",
                                                      reference.adaptive_integrate)),
        (reference, "adaptive_gauss", tracer.wrap("oracle.adaptive_gauss",
                                                  reference.adaptive_gauss)),
        (adaptive, "panel_trio", tracer.wrap("levin.panel_trio", adaptive.panel_trio)),
        (adaptive, "_run_worklist", _counting_worklist(tracer, adaptive._run_worklist)),
        (oracle, "_run_worklist", _counting_worklist(tracer, oracle._run_worklist)),
        (linalg, "qr_factor", tracer.wrap("linalg.qr_factor", linalg.qr_factor)),
        (linalg, "qr_apply", tracer.wrap(
            "linalg.qr_apply", linalg.qr_apply,
            attr=lambda a, out: int(out[1] < a[0].qr.shape[0]))),
        (expr, "compile_fn", compile_fn),
    ]
    saved = [(module, name, getattr(module, name)) for module, name, _ in patches]
    try:
        for module, name, fn in patches:
            setattr(module, name, fn)
        yield tracer
    finally:
        for module, name, fn in saved:
            setattr(module, name, fn)


def layer_totals(tracer: Tracer, lo: int, hi: int) -> dict:
    """Per span name over spans [lo, hi): calls, self seconds, attribute sums and max."""
    c = tracer.columns(lo, hi)
    dur = c["end"] - c["start"]
    n = dur.shape[0]
    child = c["parent"] >= lo
    busy = np.bincount(c["parent"][child] - lo, weights=dur[child], minlength=n)
    self_s = dur - busy
    out = {}
    for nid, name in enumerate(tracer.names):
        sel = c["name"] == nid
        out[name] = {
            "calls": int(np.count_nonzero(sel)),
            "self_s": float(self_s[sel].sum()),
            "attr_sum": [int(c[f"attr{k}"][sel].sum()) for k in range(N_ATTRS)],
            "attr_max": [int(c[f"attr{k}"][sel].max(initial=0)) for k in range(N_ATTRS)],
        }
    return out


def layer_metrics(totals: dict, scale: float = 1.0) -> dict:
    """The per-layer metrics of one pass from its layer totals.

    Self times are multiplied by ``scale`` (the pass's calibration factor).
    """
    empty = {"calls": 0, "self_s": 0.0, "attr_sum": [0] * N_ATTRS, "attr_max": [0] * N_ATTRS}
    t = {name: totals.get(name, empty) for name in LAYERS}
    m = {}
    for name in LAYERS:
        m[f"{name}.calls"] = t[name]["calls"]
        m[f"{name}.self_ms"] = 1e3 * scale * t[name]["self_s"]
    applies = t["linalg.qr_apply"]
    m["linalg.qr_apply.truncated"] = applies["attr_sum"][0]
    m["linalg.truncated_share"] = _share(applies["attr_sum"][0], applies["calls"])
    m["expr.eval.points"] = t["expr.eval"]["attr_sum"][0]
    for layer, span in (("adaptive", "adaptive.adaptive_integrate"),
                        ("oracle", "oracle.adaptive_gauss")):
        processed, _, recomputed = t[span]["attr_sum"]
        m[f"{layer}.intervals_processed"] = processed
        m[f"{layer}.recomputed_panel_share"] = _share(recomputed, 3 * processed)
    m["adaptive.max_depth"] = t["adaptive.adaptive_integrate"]["attr_max"][1]
    return m


def _share(part, whole) -> float:
    return part / whole if whole else 0.0
