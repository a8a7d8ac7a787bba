"""Traced passes: spans around domrec's public functions, installed from outside.

Each public function of each domrec module is replaced, in every domrec
module namespace that binds it, by a wrapper that records a span (name,
start, end, parent) and counts work from the arguments and return value it
sees. Per-element helpers (bitmask predicates, set conversions) are left
alone: wrapping them would time the wrapper, not the layer. Spans stay in
memory until the run ends. A layer's self time is its span's duration minus
the part of it that child spans cover, where a child's cover includes the
wrapper's own bookkeeping so that no layer is charged for it.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

MODULES = ("graph_core", "domination", "reconfig", "separation", "families", "io_cli")
PER_ELEMENT = frozenset({
    "bit", "popcount", "iter_vertices", "vertex_list", "mask_of", "canonical_key",
    "is_dominating", "private_neighbours", "is_minimal_dominating", "is_irredundant",
    "partition_separation",
})
SUBSETS_SPAN = "domination.dominating_sets_upto"


@dataclass(slots=True)
class Span:
    name: str
    parent: int  # index of the enclosing span, -1 at the root
    start: float = 0.0
    end: float = 0.0
    cover_start: float = 0.0  # start and end including the wrapper's bookkeeping
    cover_end: float = 0.0
    counts: dict[str, int] = field(default_factory=dict)
    sizes: Optional[Counter] = None  # cardinality histogram of returned sets


def _counts(tracer: "Tracer", idx: int, args: tuple, result: Any) -> tuple[dict, Optional[Counter]]:
    """Work counters for span `idx`, measured from what the wrapper sees."""
    name = tracer.spans[idx].name
    if name == "domination.enumerate_minimal_dominating":
        return {"sets": len(result.sets)}, None
    if name == SUBSETS_SPAN:
        return {"sets": len(result)}, Counter(map(int.bit_count, result))
    if name == "reconfig.build_dk":
        return {"order": len(result.verts), "size": len(result.edges)}, None
    if name == "separation.sep_bottleneck":
        m = len(args[0].sets)
        return {"pairs_computed": m * (m - 1) // 2}, None
    if name == "reconfig.d0_direct":
        # A span's descendants are the spans recorded after it.
        useful = enumerated = 0
        for child in tracer.spans[idx + 1:]:
            if child.name == SUBSETS_SPAN and child.sizes is not None:
                enumerated += sum(child.sizes.values())
                useful += sum(c for size, c in child.sizes.items() if size <= result)
        return {"useful_sets": useful, "enumerated_sets": enumerated}, None
    return {}, None


def targets() -> dict[int, tuple[str, Callable]]:
    """id(function) -> (span name, function) for every function to wrap."""
    out = {}
    for short in MODULES:
        module = importlib.import_module(f"domrec.{short}")
        for name, fn in vars(module).items():
            if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                    and not name.startswith("_") and name not in PER_ELEMENT
                    and not inspect.isgeneratorfunction(fn)):
                out[id(fn)] = (f"{short}.{name}", fn)
    return out


class Tracer:
    """Installs span-recording wrappers into the imported domrec modules."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            cover_start = clock()
            idx = len(spans)
            span = Span(name, stack[-1] if stack else -1)
            spans.append(span)
            stack.append(idx)
            try:
                span.start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span.end = clock()
                    stack.pop()
                span.counts, span.sizes = _counts(self, idx, args, result)
                return result
            finally:
                span.cover_start, span.cover_end = cover_start, clock()

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in targets().items()}
        namespaces = [m for key, m in sys.modules.items()
                      if key == "domrec" or key.startswith("domrec.")]
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and inspect.isfunction(value):
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])
        graph = sys.modules["domrec.graph_core"].Graph
        original = graph.__dict__["from_edges"]
        self._saved.append((graph, "from_edges", original))
        graph.from_edges = staticmethod(self._wrap("graph_core.Graph.from_edges", original.__func__))

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)
        self._stack.clear()

    def take(self) -> list[Span]:
        """Spans recorded since the last call, and a fresh list for the next pass."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the union of its children's cover intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.cover_start, span.cover_end))
    out = []
    for idx, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for lo, hi in sorted(children.get(idx, [])):
            lo, hi = max(lo, reach), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


@dataclass
class LayerTotals:
    calls: int = 0
    self_s: float = 0.0
    inclusive_s: float = 0.0
    counts: Counter = field(default_factory=Counter)


def layer_totals(spans: list[Span]) -> dict[str, LayerTotals]:
    """Per span name: calls, summed self time, summed counters."""
    totals: dict[str, LayerTotals] = {}
    for span, own in zip(spans, self_times(spans)):
        t = totals.setdefault(span.name, LayerTotals())
        t.calls += 1
        t.self_s += own
        # Recursion would double-count inclusive time; no traced layer recurses.
        t.inclusive_s += span.end - span.start
        t.counts.update(span.counts)
    return totals


# Per-layer metric -> unit. A name is "<span>.<field>"; the field is calls,
# self_s, a counter, or useful_set_ratio; "families.verify_structure" sums
# the gkr and qkr structure checks.
PER_LAYER = {
    "io_cli.parse_graph6.calls": "count",
    "io_cli.parse_graph6.self_s": "s",
    "graph_core.Graph.from_edges.self_s": "s",
    "io_cli.export_json.self_s": "s",
    "domination.enumerate_minimal_dominating.calls": "count",
    "domination.enumerate_minimal_dominating.self_s": "s",
    "domination.enumerate_minimal_dominating.sets": "count",
    "domination.dominating_sets_upto.calls": "count",
    "domination.dominating_sets_upto.self_s": "s",
    "domination.dominating_sets_upto.sets": "count",
    "reconfig.d0_direct.calls": "count",
    "reconfig.d0_direct.self_s": "s",
    "reconfig.d0_direct.useful_set_ratio": "ratio",
    "reconfig.connectivity_profile.self_s": "s",
    "reconfig.build_dk.self_s": "s",
    "reconfig.build_dk.order": "count",
    "reconfig.build_dk.size": "count",
    "reconfig.dk_diameter.self_s": "s",
    "reconfig.reconfig_path.self_s": "s",
    "separation.sep_bottleneck.calls": "count",
    "separation.sep_bottleneck.self_s": "s",
    "separation.sep_bottleneck.pairs_computed": "count",
    "separation.check_sep_equals_d0.self_s": "s",
    "families.verify_structure.self_s": "s",
}
ALIASES = {
    "families.verify_structure": ("families.verify_gkr_structure", "families.verify_qkr_structure"),
}


def layer_metrics(totals: dict[str, LayerTotals]) -> dict[str, float]:
    """Every PER_LAYER metric for one pass; 0 for a layer the pass never called."""
    out: dict[str, float] = {}
    for metric in PER_LAYER:
        span, fld = metric.rsplit(".", 1)
        parts = [totals.get(name, LayerTotals()) for name in ALIASES.get(span, (span,))]
        if fld == "calls":
            out[metric] = sum(t.calls for t in parts)
        elif fld == "self_s":
            out[metric] = sum(t.self_s for t in parts)
        elif fld == "useful_set_ratio":
            enumerated = sum(t.counts["enumerated_sets"] for t in parts)
            useful = sum(t.counts["useful_sets"] for t in parts)
            out[metric] = useful / enumerated if enumerated else 0.0
        else:
            out[metric] = sum(t.counts[fld] for t in parts)
    return out


def summary(passes: list[list[Span]], traced_wall: float) -> list[str]:
    """Layers by inclusive time over all traced passes, as shares of their wall."""
    totals: dict[str, LayerTotals] = {}
    for spans in passes:
        for name, t in layer_totals(spans).items():
            total = totals.setdefault(name, LayerTotals())
            total.calls += t.calls
            total.self_s += t.self_s
            total.inclusive_s += t.inclusive_s
    ranked = sorted(totals.items(), key=lambda kv: -kv[1].inclusive_s)
    return [
        f"layer {name}: {t.calls} calls, self {t.self_s / traced_wall:.1%},"
        f" inclusive {t.inclusive_s / traced_wall:.1%} of traced wall"
        for name, t in ranked[:12]
    ]


def write_spans(path: str, passes: list[list[Span]]) -> None:
    """One JSON line per span: pass, name, start, end, parent, counters."""
    with open(path, "w", encoding="ascii") as fh:
        for number, spans in enumerate(passes):
            for span in spans:
                fh.write(json.dumps([number, span.name, span.start, span.end, span.parent,
                                     span.counts], separators=(",", ":")) + "\n")
