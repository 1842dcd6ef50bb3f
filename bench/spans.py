"""Spans around the calls into each module of ``ultrasmall``.

The program has no trace channel of its own yet, so the traced run wraps
the public functions of every module from here and rebinds each wrapped
name in every ``ultrasmall`` module that holds it (``harness`` and ``cli``
import names such as ``diameter`` at import time). Nothing under ``src/``
changes. ``Tracer.install`` returns the function that puts the originals
back.

A span's self time is its duration minus the time its direct child spans
cover; calls are strictly nested because everything runs in one thread.
"""

import functools
import inspect
import os
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []  # (span id, parent id, layer, start, end)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.captured = {}  # id(graph) -> graph, for the BFS sweeps
        self.capture = False
        self._stack = []  # [span id, child time] of each open span
        self._next_id = 0

    def reset(self):
        """Drop the spans, self times and counts (not the captured graphs)."""
        self.spans.clear()
        self.self_s.clear()
        self.counts.clear()

    def wrap(self, layer, fn, after=None):
        """`fn` inside a span of `layer`; `after(tracer, args, kwargs,
        result)` runs once the span has ended, to record counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            frame = [span_id, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                duration = end - start
                self.self_s[layer] += duration - frame[1]
                self.counts[layer + ".calls"] += 1
                if parent is not None:
                    parent[1] += duration
                self.spans.append(
                    (span_id, parent[0] if parent else None, layer, start, end)
                )
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every traced entry point; returns the undo function."""
        from ultrasmall import bounds, cli, cm, degrees, harness, metrics
        from ultrasmall import multigraph, pam, structure

        modules = [
            m
            for name, m in sorted(sys.modules.items())
            if name == "ultrasmall" or name.startswith("ultrasmall.")
        ]
        undo = []

        def rebind(fn, wrapped):
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapped)
                        undo.append((mod, attr, fn))

        def function(mod, name, layer, after=None):
            fn = getattr(mod, name)
            rebind(fn, self.wrap(layer, fn, after))

        def method(cls, name, layer, after=None):
            raw = vars(cls)[name]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(layer, raw.__func__, after))
            else:
                wrapped = self.wrap(layer, raw, after)
            setattr(cls, name, wrapped)
            undo.append((cls, name, raw))

        function(degrees, "sample_iid_powerlaw", "degrees.sample")
        function(degrees, "fix_parity", "degrees.sample")
        function(cm, "generate_cm", "cm.generate")
        function(pam, "generate_pam", "pam.generate", _count_attachments)
        method(pam.PamGraph, "undirected_view", "pam.undirected_view")
        method(multigraph.MultiGraph, "from_pairs", "multigraph.build")
        method(multigraph.MultiGraph, "from_edge_list", "multigraph.build")
        method(multigraph.MultiGraph, "edges", "multigraph.edges")
        method(
            multigraph.MultiGraph,
            "write_edge_list",
            "multigraph.write_edge_list",
            _count_written_bytes,
        )
        function(
            multigraph,
            "read_edge_list",
            "multigraph.read_edge_list",
            _count_read_bytes,
        )
        function(
            metrics, "connected_components", "metrics.components", _count_components
        )
        function(metrics, "diameter", "metrics.diameter", _capture_graph)
        function(
            metrics, "typical_distance_sample", "metrics.typical", _count_pairs
        )
        function(metrics, "extract_core", "metrics.extract_core")
        function(structure, "census_mkc", "structure.census_mkc")
        function(structure, "explore", "structure.explore")
        function(
            structure,
            "distance_to_core",
            "structure.distance_to_core",
            _capture_graph,
        )
        for name, fn in list(vars(bounds).items()):
            if (
                inspect.isfunction(fn)
                and fn.__module__ == bounds.__name__
                and not name.startswith("_")
            ):
                function(bounds, name, "bounds")
        for name in ("k_minus", "k_plus", "k_bar", "h"):
            method(bounds.AsymptoticConstants, name, "bounds")
        for name in ("run", "write_csv", "write_json", "write_gnuplot"):
            function(harness, name, "harness")
        function(cli, "main", "cli")

        def uninstall():
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)
            undo.clear()

        return uninstall


def _count_attachments(tracer, args, kwargs, result):
    tracer.counts["pam.attachments"] += (result.t - 1) * result.m


def _count_written_bytes(tracer, args, kwargs, result):
    tracer.counts["multigraph.edge_list_bytes"] += os.path.getsize(args[1])


def _count_read_bytes(tracer, args, kwargs, result):
    tracer.counts["multigraph.edge_list_bytes"] += os.path.getsize(args[0])


def _count_components(tracer, args, kwargs, result):
    tracer.counts["metrics.components"] += len(result[1])


def _count_pairs(tracer, args, kwargs, result):
    tracer.counts["metrics.typical_pairs"] += len(result)


def _capture_graph(tracer, args, kwargs, result):
    """Keep each MultiGraph the workload measured, for the BFS sweeps."""
    from ultrasmall.multigraph import MultiGraph

    graph = args[0]
    if tracer.capture and isinstance(graph, MultiGraph):
        tracer.captured.setdefault(id(graph), graph)
