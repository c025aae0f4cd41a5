"""Spans around the benchmark's calls into lgraph, and the per-layer table.

A span is (name, operation, parent span, start ns, end ns).  The parent of
a layer call made directly by an operation is the operation's own span;
calls that ``lgraph.cli`` makes through module attributes nest under the
``cli.run`` span.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import json
import time
from types import SimpleNamespace

# Public functions timed per layer, as "module.function".
TRACED = ("mill.parse", "mill.print_formula", "mill.to_graph",
          "mill.canonical_key", "mill.normalize", "core.validate",
          "core.from_json", "core.to_json", "iso.alpha_equiv",
          "iso.alpha_equiv_all", "oracle.enumerate_formulas", "cli.run")

# Calls lgraph.cli makes through module attributes, traced by patching.
PATCHED = ("mill.normalize", "mill.print_formula", "oracle.enumerate_formulas")

EFFORT = ("mill.to_graph.vertices", "mill.to_graph.edges",
          "mill.canonical_key.chars", "core.validate.rejected", "iso.maps")


def layer_api(lgraph) -> SimpleNamespace:
    """The functions the workloads call, by their short names."""
    api = SimpleNamespace(NotWellFormed=lgraph.core.NotWellFormed)
    for qualified in TRACED:
        module, name = qualified.split(".")
        setattr(api, name, getattr(getattr(lgraph, module), name))
    return api


class Tracer:
    def __init__(self, lgraph):
        self.lgraph = lgraph
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.effort = dict.fromkeys(EFFORT, 0)
        self.op = -1
        self.last_ns = 0
        plain = layer_api(lgraph)
        self.api = SimpleNamespace(NotWellFormed=plain.NotWellFormed)
        for qualified in TRACED:
            name = qualified.split(".")[1]
            setattr(self.api, name,
                    self._wrap(qualified, getattr(plain, name)))
        self._originals = {q: getattr(plain, q.split(".")[1]) for q in PATCHED}

    def _wrap(self, name: str, fn):
        spans, stack, clock, effort = (self.spans, self.stack,
                                       time.thread_time_ns, self.effort)
        rejected = self.lgraph.core.NotWellFormed

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except rejected:
                if name == "core.validate":
                    effort["core.validate.rejected"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, self.op, parent, start, end)
            if name == "mill.to_graph":
                effort["mill.to_graph.vertices"] += len(result)
                effort["mill.to_graph.edges"] += len(result.edges)
            elif name == "mill.canonical_key":
                effort["mill.canonical_key.chars"] += len(result)
            elif name == "iso.alpha_equiv":
                effort["iso.maps"] += result is not None
            elif name == "iso.alpha_equiv_all":
                effort["iso.maps"] += len(result)
            return result
        return traced

    def call(self, op: int, fn, *args):
        """Run one operation as the root span of its layer calls."""
        self.op = op
        index = len(self.spans)
        self.spans.append(None)
        self.stack.append(index)
        self._patch(True)
        start = time.thread_time_ns()
        try:
            return fn(*args)
        finally:
            end = time.thread_time_ns()
            self._patch(False)
            self.stack.pop()
            self.spans[index] = ("op", op, -1, start, end)
            self.last_ns = end - start

    def _patch(self, on: bool) -> None:
        for qualified in PATCHED:
            module, name = qualified.split(".")
            fn = (getattr(self.api, name) if on
                  else self._originals[qualified])
            setattr(getattr(self.lgraph, module), name, fn)

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per traced function: mean µs per call, calls and share per
        operation; plus self times and effort counts per operation."""
        ops = [s for s in self.spans if s[0] == "op"]
        n_ops = len(ops)
        op_total = sum(end - start for _, _, _, start, end in ops)
        total = dict.fromkeys(TRACED, 0)
        calls = dict.fromkeys(TRACED, 0)
        covered = [0] * len(self.spans)
        for _, _, parent, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        for name, _, _, start, end in self.spans:
            if name != "op":
                total[name] += end - start
                calls[name] += 1
        metrics: dict[str, tuple[float, str]] = {}
        for name in TRACED:
            metrics[f"{name}.time_us"] = (
                total[name] / calls[name] / 1e3 if calls[name] else 0.0, "us")
            metrics[f"{name}.calls"] = (calls[name] / n_ops, "calls/op")
            metrics[f"{name}.share"] = (total[name] / op_total, "ratio")
        cli_self = [end - start - covered[i]
                    for i, (name, _, _, start, end) in enumerate(self.spans)
                    if name == "cli.run"]
        metrics["cli.run.self_us"] = (
            sum(cli_self) / len(cli_self) / 1e3 if cli_self else 0.0, "us")
        op_self = sum(end - start - covered[i]
                      for i, (name, _, _, start, end) in enumerate(self.spans)
                      if name == "op")
        metrics["op.self_us"] = (op_self / n_ops / 1e3, "us")
        for name in EFFORT:
            metrics[name] = (self.effort[name] / n_ops, "count/op")
        return metrics

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, op, parent, start, end in self.spans:
                fh.write(json.dumps({"name": name, "op": op, "parent": parent,
                                     "start_ns": start, "end_ns": end}))
                fh.write("\n")
