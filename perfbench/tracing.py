"""Span tracing of the library's public functions, from outside the library.

While a traced request runs, each function in ``WRAPPED`` is replaced by a
wrapper that records a span (name, start, end, parent span, request id).  A
wrapper replaces the name in every ``mmgcn`` module that holds the same
function object, because several modules import public functions by name
(``graph_bases`` in ``training`` and ``cli``, ``group_lasso`` in ``layers``,
...) and a patch of the defining module alone would miss those callers.
Spans stay in memory until ``write`` is called; every patch is undone when
the request ends, also when it raises.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

# Public functions only: private helpers may be renamed or merged at will.
WRAPPED = (
    ("mmgcn.data", ("load_dataset", "make_windows")),
    ("mmgcn.graphs", ("graph_bases",)),
    ("mmgcn.layers", ("batch_loss", "predict_batches", "network_forward")),
    ("mmgcn.regularization", ("group_lasso", "tensor_normal_loss", "flip_flop_update",
                              "normalize_trace")),
    ("mmgcn.metrics", ("rmse",)),
    ("mmgcn.training", ("train", "adam_step", "save_checkpoint", "load_checkpoint")),
    ("mmgcn.cli", ("dispatch",)),
)

# Per-layer metrics of a traced run, with units, in output order.
PER_LAYER = (
    ("data.load_dataset.ms", "ms"),
    ("data.make_windows.ms", "ms"),
    ("data.make_windows.calls", "count"),
    ("data.windows_used_ratio", "ratio"),
    ("graphs.graph_bases.ms", "ms"),
    ("layers.batch_loss.self_ms", "ms"),
    ("layers.batch_loss.calls", "count"),
    ("layers.forward_ms", "ms"),
    ("layers.backward_ms", "ms"),
    ("layers.ggcn_forward.ms", "ms"),
    ("layers.mrgcn_forward.ms", "ms"),
    ("layers.predict_batches.ms_per_window", "ms"),
    ("layers.network_forward.ms", "ms"),
    ("regularization.group_lasso.ms", "ms"),
    ("regularization.group_lasso.calls", "count"),
    ("regularization.tensor_normal_loss.ms", "ms"),
    ("regularization.tensor_normal_loss.calls", "count"),
    ("regularization.flip_flop_update.ms", "ms"),
    ("regularization.flip_flop_update.calls", "count"),
    ("regularization.normalize_trace.ms", "ms"),
    ("regularization.normalize_trace.calls", "count"),
    ("training.adam_step.ms", "ms"),
    ("training.adam_step.calls", "count"),
    ("training.eval_share", "ratio"),
    ("training.save_checkpoint.ms", "ms"),
    ("training.load_checkpoint.ms", "ms"),
    ("training.final_val_rmse", "rmse"),
    ("cli.dispatch.train.self_ms", "ms"),
    ("cli.dispatch.predict.self_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.unaccounted_pct", "%"),
)


@dataclass
class Span:
    span_id: int
    parent: int | None
    request: int
    name: str
    start: float
    end: float
    windows: int = 0  # windows built (make_windows) or predicted (predict_batches)

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


def _windows(name: str, args, result) -> int:
    if name == "data.make_windows" and result is not None:
        return len(result)
    if name == "layers.predict_batches":
        return len(args[0])
    return 0


class Tracer:
    """Collects spans of traced requests; ``request`` turns tracing on for one."""

    def __init__(self):
        self.spans: list[Span] = []
        self.requests: list[dict] = []
        self._stack: list[Span] = []
        self._patches: list = []
        self._next_id = 0

    @contextmanager
    def request(self, kind: str, windows_used: int = 0):
        """Trace one request: install the wrappers, record a root span
        ``request.<kind>`` around the body, then restore every patch.

        ``windows_used`` is how many windows the request consumes out of
        those it builds through ``make_windows``."""
        self.requests.append({"root": self._next_id, "kind": kind,
                              "windows_used": windows_used})
        root = self._open(f"request.{kind}")
        self._install()
        try:
            yield
        finally:
            self._uninstall()
            self._close(root)

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(self._next_id, parent, len(self.requests) - 1, name,
                    time.perf_counter(), 0.0)
        self._next_id += 1
        self._stack.append(span)
        return span

    def _close(self, span: Span, windows: int = 0) -> None:
        span.end = time.perf_counter()
        span.windows = windows
        self._stack.pop()
        self.spans.append(span)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = f"{name}.{args[0][0]}" if name == "cli.dispatch" else name
            span = self._open(span_name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(span, _windows(span_name, args, result))
        return traced

    def _install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "mmgcn" or n.startswith("mmgcn."))]
        for module_name, names in WRAPPED:
            home = sys.modules[module_name]
            for fn_name in names:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{module_name.split('.')[1]}.{fn_name}", original)
                for module in modules:
                    if getattr(module, fn_name, None) is original:
                        setattr(module, fn_name, wrapper)
                        self._patches.append((module, fn_name, original))

    def _uninstall(self) -> None:
        while self._patches:
            module, fn_name, original = self._patches.pop()
            setattr(module, fn_name, original)

    def write(self, path) -> None:
        spans = sorted(self.spans, key=lambda s: s.span_id)
        path.write_text(json.dumps({"requests": self.requests,
                                    "spans": [asdict(s) for s in spans]}) + "\n")

    def layer_metrics(self) -> dict:
        """Per-layer figures over every traced request.  ``.ms`` is the median
        call, ``.calls`` the calls per traced request; a layer the workload
        never calls reads 0.  The single-layer timings that are measured
        untraced (``layers.forward_ms`` and the like) are not included."""
        by_id = {s.span_id: s for s in self.spans}
        child_ms: dict[int, float] = {}
        by_name: dict[str, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                child_ms[s.parent] = child_ms.get(s.parent, 0.0) + s.ms
            by_name.setdefault(s.name, []).append(s)

        def spans(name):
            return by_name.get(name, [])

        def ms(name):
            return _median([s.ms for s in spans(name)])

        def self_ms(name):
            return _median([s.ms - child_ms.get(s.span_id, 0.0) for s in spans(name)])

        def calls(name):
            return len(spans(name)) / max(len(self.requests), 1)

        def inside(span, ancestor):
            parent = span.parent
            while parent is not None:
                if by_id[parent].name == ancestor:
                    return True
                parent = by_id[parent].parent
            return False

        out = {}
        for layer in ("data.load_dataset", "data.make_windows", "graphs.graph_bases",
                      "layers.network_forward", "training.save_checkpoint",
                      "training.load_checkpoint"):
            out[f"{layer}.ms"] = ms(layer)
        out["data.make_windows.calls"] = calls("data.make_windows")
        built = sum(s.windows for s in spans("data.make_windows"))
        used = sum(r["windows_used"] for r in self.requests)
        out["data.windows_used_ratio"] = used / built if built else 0.0
        out["layers.batch_loss.self_ms"] = self_ms("layers.batch_loss")
        out["layers.batch_loss.calls"] = calls("layers.batch_loss")
        predicted = sum(s.windows for s in spans("layers.predict_batches"))
        predict_ms = sum(s.ms for s in spans("layers.predict_batches"))
        out["layers.predict_batches.ms_per_window"] = predict_ms / predicted if predicted else 0.0
        for layer in ("regularization.group_lasso", "regularization.tensor_normal_loss",
                      "regularization.flip_flop_update", "regularization.normalize_trace",
                      "training.adam_step"):
            out[f"{layer}.ms"] = ms(layer)
            out[f"{layer}.calls"] = calls(layer)
        train_ms = sum(s.ms for s in spans("training.train"))
        eval_ms = sum(s.ms for s in spans("layers.predict_batches")
                      if inside(s, "training.train"))
        out["training.eval_share"] = eval_ms / train_ms if train_ms else 0.0
        for sub in ("train", "predict"):
            out[f"cli.dispatch.{sub}.self_ms"] = self_ms(f"cli.dispatch.{sub}")
        # Share of the traced training calls (or, without any, of the traced
        # requests) that no wrapped call covers.
        outer = spans("training.train") or [by_id[r["root"]] for r in self.requests]
        total = sum(s.ms for s in outer)
        uncovered = sum(s.ms - child_ms.get(s.span_id, 0.0) for s in outer)
        out["trace.unaccounted_pct"] = 100.0 * uncovered / total if total else 0.0
        return out


def _median(values) -> float:
    return statistics.median(values) if values else 0.0
