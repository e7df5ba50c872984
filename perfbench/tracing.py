"""In-memory spans around calls into gridmagic's public functions.

During a traced pass every instrumented function is replaced, in each
gridmagic module that binds it, by a wrapper that records a span (name,
start, end, parent span, operation id) and bumps work counters. Nothing in
the package itself changes; the wrappers are removed again after the pass,
so untraced passes run the plain code.

A span's self time is its duration minus the time its child spans cover.
Self times are summed per layer metric: `verifier.reduce`, for instance,
is the self time of the `verify_*` spans, i.e. the verifier minus its
cube-sum kernels.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

MODULES = ("grid_core", "labeling_2d", "labeling_nd", "verifier", "io_cli", "oracle")


def _cube_sums_done(counts, args, kwargs, result):
    arrays = args[0] if isinstance(args[0], tuple) else (args[0],)
    counts["verifier.cubes_scanned"] += result.size
    counts["verifier.bytes_moved"] += sum(a.nbytes for a in arrays) + result.nbytes


def _verify_done(counts, args, kwargs, report):
    spec = args[0]
    labels = {
        "vertex": spec.vertex_count,
        "edge": spec.edge_count,
        "total": spec.vertex_count + spec.edge_count,
    }[report.kind]
    counts["verifier.labels_checked"] += labels
    counts["verifier.distinct_sums"] += report.distinct_count


def _save_done(counts, args, kwargs, data):
    counts["io_cli.json_bytes"] += len(data)


def _load_done(counts, args, kwargs, doc):
    counts["io_cli.json_bytes"] += len(args[0])


def _render_done(counts, args, kwargs, text):
    counts["io_cli.render_bytes"] += len(text)


def _target_sum(args, kwargs):
    return kwargs.get("target_sum", args[2] if len(args) > 2 else None)


def _search_done(counts, args, kwargs, result):
    counts["oracle.examined"] += result.examined
    counts["oracle.found"] += result.found_count
    if _target_sum(args, kwargs) is not None:
        from gridmagic.oracle import required_assignments

        counts["oracle.pruned_examined"] += result.examined
        counts["oracle.pruned_required"] += required_assignments(args[0], args[1].mode)


# (module, function, span name from the call's arguments, counter hook)
INSTRUMENTED = [
    ("grid_core", "check_h_covering", None, None),
    ("labeling_2d", "base_vertex_labeling", None, None),
    ("labeling_2d", "base_edge_labeling", None, None),
    ("labeling_nd", "build_labelings", None, None),
    ("labeling_nd", "extend_vertex_labeling", None, None),
    ("labeling_nd", "extend_edge_labeling", None, None),
    ("labeling_nd", "combine_supermagic", None, None),
    ("verifier", "cube_vertex_sums", None, _cube_sums_done),
    ("verifier", "cube_edge_sums", None, _cube_sums_done),
    ("verifier", "verify_vertex_magic", None, _verify_done),
    ("verifier", "verify_edge_magic", None, _verify_done),
    ("verifier", "verify_supermagic", None, _verify_done),
    ("io_cli", "cli", None, None),
    ("io_cli", "generate_document", None, None),
    ("io_cli", "save", None, _save_done),
    ("io_cli", "load", None, _load_done),
    ("io_cli", "document_labeling", None, None),
    ("io_cli", "verify_document", None, None),
    (
        "io_cli",
        "render",
        lambda args, kwargs: "io_cli.render." + kwargs.get("style", args[1] if len(args) > 1 else ""),
        _render_done,
    ),
    ("io_cli", "document_vertex_label", None, None),
    ("io_cli", "document_edge_label", None, None),
    (
        "oracle",
        "exhaustive_search",
        lambda args, kwargs: "oracle.pruned_search"
        if _target_sum(args, kwargs) is not None
        else "oracle.exhaustive_search",
        _search_done,
    ),
    ("oracle", "confirm_construction", None, None),
]

# Span name -> the per-layer busy metric its self time feeds, where the two differ.
METRIC_OF_SPAN = {
    "labeling_2d.base_vertex_labeling": "labeling_2d.base",
    "labeling_2d.base_edge_labeling": "labeling_2d.base",
    "verifier.verify_vertex_magic": "verifier.reduce",
    "verifier.verify_edge_magic": "verifier.reduce",
    "verifier.verify_supermagic": "verifier.reduce",
    "io_cli.document_vertex_label": "io_cli.document_label",
    "io_cli.document_edge_label": "io_cli.document_label",
}

BUSY_METRICS = (
    "process.start",
    "process.import",
    "grid_core.check_h_covering",
    "labeling_2d.base",
    "labeling_nd.build_labelings",
    "labeling_nd.extend_vertex_labeling",
    "labeling_nd.extend_edge_labeling",
    "labeling_nd.combine_supermagic",
    "verifier.cube_vertex_sums",
    "verifier.cube_edge_sums",
    "verifier.reduce",
    "io_cli.cli",
    "io_cli.generate_document",
    "io_cli.save",
    "io_cli.load",
    "io_cli.document_labeling",
    "io_cli.verify_document",
    "io_cli.render.csv",
    "io_cli.render.dot",
    "io_cli.render.tikz2d",
    "io_cli.render.tikz3d",
    "io_cli.document_label",
    "oracle.exhaustive_search",
    "oracle.confirm_construction",
    "oracle.pruned_search",
)

COUNT_METRICS = (
    "verifier.cubes_scanned",
    "verifier.labels_checked",
    "verifier.distinct_sums",
    "verifier.bytes_moved",
    "io_cli.json_bytes",
    "io_cli.render_bytes",
    "oracle.examined",
    "oracle.found",
    "oracle.pruned_examined",
    "oracle.pruned_required",
)


class Tracer:
    """Span and counter recorder for traced passes."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.stack: list[int] = []
        self.op: int | None = None
        self.counts: dict[str, float] = defaultdict(float)
        self.errors: dict[str, int] = defaultdict(int)
        self._undo: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self.stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, fn, module: str, span_name, hook):
        tracer = self
        fixed = f"{module}.{fn.__name__}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.begin(span_name(args, kwargs) if span_name else fixed)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.errors[module] += 1
                raise
            finally:
                tracer.end(index)
            if hook is not None:
                hook(tracer.counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every instrumented function in every module binding it."""
        package = importlib.import_module("gridmagic")
        namespaces = [package] + [importlib.import_module(f"gridmagic.{m}") for m in MODULES]
        for module, name, span_name, hook in INSTRUMENTED:
            original = getattr(importlib.import_module(f"gridmagic.{module}"), name)
            wrapper = self._wrap(original, module, span_name, hook)
            for namespace in namespaces:
                for attr, value in list(vars(namespace).items()):
                    if value is original:
                        setattr(namespace, attr, wrapper)
                        self._undo.append((namespace, attr, original))

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._undo):
            setattr(namespace, attr, original)
        self._undo.clear()

    def self_times(self) -> tuple[dict[str, float], dict[str, int], float]:
        """Per-metric self time and call count, plus op time no layer covers."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        busy: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        unattributed = 0.0
        for index, (name, start, end, parent, _) in enumerate(self.spans):
            own = end - start - child_time[index]
            if name.startswith("op."):
                unattributed += own
                continue
            metric = METRIC_OF_SPAN.get(name, name)
            busy[metric] += own
            calls[metric] += 1
        return busy, calls, unattributed
