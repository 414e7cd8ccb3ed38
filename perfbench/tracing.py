"""Spans around the calls into each module's public functions.

`Tracer.installed()` replaces each traced function at every monocover
module attribute (or class attribute) that holds it, so the program's own
calls and the benchmark's calls are both seen, and puts the originals back
on exit.  Each call records a span: function, start, end (ns) and the
enclosing span.  Spans stay in memory as flat arrays until `save`.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from array import array
from pathlib import Path

import numpy as np

from monocover import (cli, covers, generators, graphs, grid, layers, oracle,
                       solver, twocolour)
import monocover

MODULES = (monocover, cli, covers, generators, graphs, grid, layers, oracle,
           solver, twocolour)

# Traced name -> (owner, attribute) pairs whose function it times.
# `graphs.bfs` counts both BFS entry points together.
TRACED = {
    "cli.main": [(cli, "main")],
    "graphs.parse_colouring": [(graphs, "parse_colouring")],
    "graphs.format_colouring": [(graphs, "format_colouring")],
    "graphs.EdgeColouring.from_pairs": [(graphs.EdgeColouring, "from_pairs")],
    "graphs.EdgeColouring.recoloured": [(graphs.EdgeColouring, "recoloured")],
    "graphs.MonoMetrics.spans_within_diameter": [(graphs.MonoMetrics, "spans_within_diameter")],
    "graphs.MonoMetrics.colour_diameter": [(graphs.MonoMetrics, "colour_diameter")],
    "graphs.set_diameter": [(graphs, "set_diameter")],
    "graphs.bfs": [(graphs, "bfs_reach"), (graphs, "bfs_distances")],
    "covers.verify_cover": [(covers, "verify_cover")],
    "covers.parse_cover": [(covers, "parse_cover")],
    "solver.solve4": [(solver, "solve4")],
    "solver.reduce_small_diameters": [(solver, "reduce_small_diameters")],
    "solver.gyarfas_connectivity_cover": [(solver, "gyarfas_connectivity_cover")],
    "layers.build_layer_mapping": [(layers, "build_layer_mapping")],
    "layers.find_k_distant": [(layers, "find_k_distant")],
    "layers.cover_from_dist3_quad": [(layers, "cover_from_dist3_quad")],
    "twocolour.multipartite_colour": [(twocolour, "multipartite_colour")],
    "twocolour.bipartite_outcome": [(twocolour, "bipartite_outcome")],
    "grid.points_from_colouring": [(grid, "points_from_colouring")],
    "grid.cover_G3": [(grid, "cover_G3")],
    "oracle.exhaustive_colouring_scan": [(oracle, "exhaustive_colouring_scan")],
    "oracle.minimal_bound": [(oracle, "minimal_bound")],
    "oracle.min_cover_bruteforce": [(oracle, "min_cover_bruteforce")],
}

class Tracer:
    def __init__(self):
        self.names = list(TRACED)
        self.fn = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        # 1 when no enclosing span times the same function (recursion).
        self.outer = array("b")
        self._stack = [-1]
        self._depth = [0] * len(self.names)

    def _wrap(self, nid: int, func):
        fn, parent, start, end, outer = self.fn, self.parent, self.start, self.end, self.outer
        stack, depth, clock = self._stack, self._depth, time.perf_counter_ns

        @functools.wraps(func)
        def traced(*args, **kwargs):
            i = len(fn)
            fn.append(nid)
            parent.append(stack[-1])
            outer.append(depth[nid] == 0)
            end.append(0)
            stack.append(i)
            depth[nid] += 1
            start.append(clock())
            try:
                return func(*args, **kwargs)
            finally:
                end[i] = clock()
                depth[nid] -= 1
                stack.pop()

        return traced

    @contextlib.contextmanager
    def installed(self):
        undo = []
        try:
            for nid, name in enumerate(self.names):
                for owner, attr in TRACED[name]:
                    raw = vars(owner)[attr]
                    func = raw.__func__ if isinstance(raw, classmethod) else raw
                    wrapped = self._wrap(nid, func)
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(wrapped)
                    holders = [(owner, attr)] if isinstance(owner, type) else [
                        (m, a) for m in MODULES for a, v in vars(m).items() if v is raw]
                    for holder, name_there in holders:
                        undo.append((holder, name_there, raw))
                        setattr(holder, name_there, wrapped)
            yield self
        finally:
            for holder, attr, raw in reversed(undo):
                setattr(holder, attr, raw)

    def metrics(self) -> dict[str, tuple[float, str]]:
        """`F.s` (inclusive seconds), `F.self_s` (seconds not covered by
        child spans) and `F.calls` for every traced function F."""
        fn = np.frombuffer(self.fn, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = (np.frombuffer(self.end, dtype=np.int64)
               - np.frombuffer(self.start, dtype=np.int64)) / 1e9
        outer = np.frombuffer(self.outer, dtype=np.int8).astype(bool)
        child = np.zeros(len(fn))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        size = len(self.names)
        calls = np.bincount(fn, minlength=size)
        total = np.bincount(fn[outer], weights=dur[outer], minlength=size)
        own = np.bincount(fn, weights=dur - child, minlength=size)
        out = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.s"] = (float(total[nid]), "s")
            out[f"{name}.self_s"] = (float(own[nid]), "s")
            out[f"{name}.calls"] = (int(calls[nid]), "count")
        return out

    def save(self, path: Path) -> None:
        """Write the spans as arrays, with the function names as JSON."""
        np.savez(path, names=np.array(json.dumps(self.names)),
                 fn=np.frombuffer(self.fn, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 start_ns=np.frombuffer(self.start, dtype=np.int64),
                 end_ns=np.frombuffer(self.end, dtype=np.int64))
