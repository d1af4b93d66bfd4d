"""Span tracing of calls into linhyp's modules, from outside the library.

While a ``Tracer`` is active, each function named in ``TRACED`` is replaced,
in every ``linhyp`` namespace that binds it, by a wrapper that records a
span (name, start, end, parent, whether it raised).  Modules that import a
function by name (``verify`` and ``matching`` import ``tau``) get the wrapper
too.  The originals are restored on exit.  Spans stay in memory; per-layer
figures are computed from them afterwards.

Per-element work such as ``FiniteField.mul`` or the deficiency search's
``defic_of_set`` runs once per search node and is too hot to wrap; counts
stand in for it (search nodes, embeddings found, special sets visited,
incidences built).
"""

from __future__ import annotations

import sys
from collections import defaultdict
from statistics import median
from time import perf_counter

import linhyp  # noqa: F401  (loads every linhyp module into sys.modules)

# layer (module) -> its public functions that get a span
TRACED = {
    "solver": ("tau", "enumerate_min_transversals", "gamma_t"),
    "deficiency": ("find_embeddings", "deficiency", "check_key_theorem"),
    "verify": ("obs61_suite", "defic_identity_check", "bound_check", "theorem_mainyy_check"),
    "algebra": ("projective_plane", "affine_plane", "affine_residual", "random_linear", "g30", "heawood"),
    "matching": ("max_matching_general", "max_matching_bipartite", "check_dual_identity"),
    "core": ("is_linear", "incidence_graph", "onh", "bipartite_complement", "dual_graph"),
    "probability": ("shrink",),
    "hgio": ("loads",),
    "catalog": ("special",),
}

class Spans:
    """Spans and counters of one traced stretch of work."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.raised: list[bool] = []
        self.counts: dict[str, int] = {}
        self.stack: list[int] = []

    def count(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [end - start for start, end in zip(self.starts, self.ends)]
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[i] - self.starts[i]
        return own

    def layers(self) -> dict[str, float]:
        """Per-function self seconds, calls and failures, plus counters."""
        out: dict[str, float] = dict(self.counts)
        for name, own, raised in zip(self.names, self.self_times(), self.raised):
            out[f"{name}.s"] = out.get(f"{name}.s", 0.0) + own
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
            out[f"{name}.failed"] = out.get(f"{name}.failed", 0) + raised
        return out

    def covered(self) -> float:
        """Seconds inside top-level spans (the sum of all self times)."""
        return sum(
            end - start
            for start, end, parent in zip(self.starts, self.ends, self.parents)
            if parent < 0
        )


def _count_result(spans: Spans, name: str, args, kwargs, result) -> None:
    if name == "solver.tau":
        spans.count("solver.tau.nodes", result.nodes_explored)
    elif name == "solver.enumerate_min_transversals":
        spans.count("solver.enumerate_min_transversals.found", len(result))
    elif name == "deficiency.find_embeddings":
        spans.count("deficiency.find_embeddings.found", len(result))
        if (args[1] if len(args) > 1 else kwargs["kind"]) != "H4":
            spans.count("deficiency.find_embeddings.found_non_h4", len(result))
    elif name in ("algebra.projective_plane", "algebra.affine_plane"):
        spans.count("algebra.incidences", sum(len(e) for e in result.edges))


def _with_visit_counter(spans: Spans, args, kwargs):
    """Count the special sets deficiency() forms, through its public visitor."""
    args, kwargs = list(args), dict(kwargs)
    given = args.pop(2) if len(args) > 2 else kwargs.pop("visitor", None)

    def visitor(special_set):
        spans.count("deficiency.sets_visited", 1)
        if given is not None:
            given(special_set)

    kwargs["visitor"] = visitor
    return args, kwargs


def _wrap(name: str, fn, tracer: "Tracer"):
    def traced(*args, **kwargs):
        spans = tracer.spans
        if name == "deficiency.deficiency":
            args, kwargs = _with_visit_counter(spans, args, kwargs)
        idx = len(spans.names)
        spans.names.append(name)
        spans.parents.append(spans.stack[-1] if spans.stack else -1)
        spans.raised.append(False)
        spans.ends.append(0.0)
        spans.stack.append(idx)
        spans.starts.append(perf_counter())
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            spans.raised[idx] = True
            raise
        finally:
            spans.ends[idx] = perf_counter()
            spans.stack.pop()
        _count_result(spans, name, args, kwargs, result)
        return result

    traced.__wrapped__ = fn
    return traced


class Tracer:
    """Context manager that swaps traced functions for span-recording wrappers.

    ``tracer.spans`` may be replaced between units of work; wrappers always
    record into the current one.
    """

    def __init__(self):
        self.spans = Spans()
        self._swapped: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        namespaces = [m for k, m in sys.modules.items() if k == "linhyp" or k.startswith("linhyp.")]
        for layer, names in TRACED.items():
            module = sys.modules[f"linhyp.{layer}"]
            for fname in names:
                original = getattr(module, fname)
                wrapper = _wrap(f"{layer}.{fname}", original, self)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, attr, wrapper)
                            self._swapped.append((ns, attr, original))
        return self

    def __exit__(self, *exc) -> None:
        for ns, attr, original in reversed(self._swapped):
            setattr(ns, attr, original)
        self._swapped.clear()


def per_layer(setup: Spans, passes: list[tuple[Spans, float]], untraced_s: float) -> dict[str, float]:
    """Per-layer figures: one traced input build plus one traced pass.

    Times are medians over the traced passes; counts are the same in every
    pass, since each pass runs the same ops.  Layers a workload never calls
    read 0.
    """
    figures = [p.layers() for p, _ in passes]
    base = setup.layers()
    keys = set(base).union(*figures)
    out = defaultdict(float, {k: base.get(k, 0) + median(f.get(k, 0) for f in figures) for k in keys})
    tau_s = out["solver.tau.s"]
    out["solver.tau.nodes_per_s"] = out["solver.tau.nodes"] / tau_s if tau_s else 0.0
    plane_s = out["algebra.projective_plane.s"] + out["algebra.affine_plane.s"]
    out["algebra.incidences_per_s"] = out["algebra.incidences"] / plane_s if plane_s else 0.0
    out["trace.overhead_ratio"] = median(wall for _, wall in passes) / untraced_s
    out["trace.self_coverage"] = median(p.covered() / wall for p, wall in passes)
    return out
