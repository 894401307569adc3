"""Span tracing of convrec's public functions, installed from outside the package.

``Tracer.install()`` replaces every public module-level function of the traced
convrec modules with a wrapper that records a span (id, parent id, name, run
id, start, end, self time). The wrapper is installed under every name a caller
looks the function up by: ``convrec.recommender.retrieve``,
``convrec.cli.run_train`` and ``convrec.encode_items`` all resolve to the same
wrapper. Nothing under ``src/`` changes.

Spans stay in memory and are written once, by ``Tracer.write``. ``summarize``
turns the span files of one or more processes into per-layer totals.
This module imports only the standard library until ``install`` runs.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# The layers are the package's modules; ``synthetic`` is the load generator
# and ``errors`` holds no code that runs, so neither is traced.
LAYERS = ("corpus", "graphs", "retrieval", "encoders", "preference",
          "recommender", "autodiff", "optim", "cli")

# Helpers called once per document inside a single call are not layer
# boundaries: a span each would cost more than the work it times. Their time
# is the caller's self time.
INNER = frozenset(("retrieval.bm25_score",))

_INTERACTION_RELATIONS = frozenset(("like", "dislike"))


class Tracer:
    """Records spans for one process."""

    def __init__(self) -> None:
        self.run_id = "main"
        self.spans: list[tuple] = []
        self.wrapped: list[str] = []
        # per-call facts that only the call boundary can see
        self.retrieve_keys: set = set()
        self.retrieve_repeats = 0
        self.retrieve_hits = 0
        self.retrieve_query_tokens = 0
        self.adam_clipped = 0
        self._stack: list[list] = []
        self._next_id = 0
        self.started = time.perf_counter()

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn, label=None, observe=None):
        tracer = self

        def traced(*args, **kwargs):
            # A refactor may change a signature or a result type; the traced
            # program must still run, so labels and counters then fall back.
            span_name = name
            if label is not None:
                try:
                    span_name = f"{name}.{label(args, kwargs)}"
                except (LookupError, AttributeError, TypeError):
                    pass
            span_id = tracer._next_id
            tracer._next_id += 1
            stack = tracer._stack
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                tracer.spans.append((span_id, parent, span_name, tracer.run_id,
                                     start, end, duration - frame[1]))
            if observe is not None:
                try:
                    observe(args, kwargs, result)
                except (LookupError, AttributeError, TypeError):
                    pass
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    def _observe_retrieve(self, sig):
        def observe(args, kwargs, result):
            bound = sig.bind(*args, **kwargs)
            query = tuple(bound.arguments["query"])
            key = (query, bound.arguments.get("exclude_id"), bound.arguments["n"])
            if key in self.retrieve_keys:
                self.retrieve_repeats += 1
            else:
                self.retrieve_keys.add(key)
            self.retrieve_query_tokens += len(query)
            if result.ranked:
                self.retrieve_hits += 1
        return observe

    def _observe_adam(self, sig):
        def observe(args, kwargs, result):
            config = sig.bind(*args, **kwargs).arguments["config"]
            if result > config.clip_norm:
                self.adam_clipped += 1
        return observe

    @staticmethod
    def _graph_label(args, kwargs):
        graph = args[0] if args else kwargs["graph"]
        return "ig" if set(graph.relations) == _INTERACTION_RELATIONS else "kg"

    def install(self) -> None:
        """Wrap every public function of every traced convrec module."""
        modules = {layer: importlib.import_module(f"convrec.{layer}") for layer in LAYERS}
        replacements: dict[int, object] = {}
        for layer, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                name = f"{layer}.{attr}"
                if name in INNER:
                    continue
                label = observe = None
                if name == "encoders.rgcn_forward":
                    label = self._graph_label
                elif name == "retrieval.retrieve":
                    observe = self._observe_retrieve(inspect.signature(fn))
                elif name == "optim.adam_step":
                    observe = self._observe_adam(inspect.signature(fn))
                replacements[id(fn)] = self._wrap(name, fn, label, observe)
                self.wrapped.append(name)
        # Rebind under every name a caller can look the function up by.
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "convrec" and not mod_name.startswith("convrec."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
        self.started = time.perf_counter()

    # -- output ------------------------------------------------------------

    def write(self, path: str | Path) -> None:
        """Write every span plus the call-boundary counters as one JSON file."""
        payload = {
            "wall_s": time.perf_counter() - self.started,
            "wrapped": self.wrapped,
            "retrieve": {
                "repeats": self.retrieve_repeats,
                "hits": self.retrieve_hits,
                "query_tokens": self.retrieve_query_tokens,
            },
            "adam_clipped": self.adam_clipped,
            "spans": self.spans,
        }
        Path(path).write_text(json.dumps(payload), "utf-8")


def summarize(traces: list[dict]) -> dict:
    """Per-name and per-layer totals over the span files of several processes.

    A layer's self time is the time inside its spans not covered by child
    spans; ``other_s`` is the traced wall time outside every span. The layer
    self times plus ``other_s`` add up to the summed traced wall time.
    """
    calls: dict[str, int] = defaultdict(int)
    total_s: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    layer_self: dict[str, float] = {layer: 0.0 for layer in LAYERS}
    by_run: dict[tuple[str, str], float] = defaultdict(float)
    wall = 0.0
    top = 0.0
    wrapped: set[str] = set()
    retrieve = {"repeats": 0, "hits": 0, "query_tokens": 0}
    adam_clipped = 0
    for trace in traces:
        wall += trace["wall_s"]
        wrapped.update(trace["wrapped"])
        for key in retrieve:
            retrieve[key] += trace["retrieve"][key]
        adam_clipped += trace["adam_clipped"]
        for _id, parent, name, run_id, start, end, own in trace["spans"]:
            duration = end - start
            calls[name] += 1
            total_s[name] += duration
            self_s[name] += own
            layer_self[name.split(".", 1)[0]] += own
            by_run[(name, run_id)] += duration
            if parent == -1:
                top += duration
    return {
        "wall_s": wall,
        "other_s": wall - top,
        "calls": dict(calls),
        "total_s": dict(total_s),
        "self_s": dict(self_s),
        "layer_self_s": layer_self,
        "by_run_s": {f"{name}@{run}": v for (name, run), v in by_run.items()},
        "wrapped": sorted(wrapped),
        "retrieve": retrieve,
        "adam_clipped": adam_clipped,
    }


def family(summary: dict, prefix: str, field: str = "total_s") -> float:
    """Sum of ``field`` over a name and its labelled variants (``name.kg``...)."""
    return sum(v for k, v in summary[field].items()
               if k == prefix or k.startswith(prefix + "."))
