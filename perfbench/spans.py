"""Spans around the calls into nncp's layers, recorded from outside.

A wrapper replaces the module attribute that the *caller* looks up: for
example `quotient_graph` calls `nncp.symmetry.canonical_right`, so that is
the name wrapped, not `nncp.coupling.canonical_right`.  Each call becomes a
span (name, start, end, parent, instance).  Spans stay in memory while an
instance runs; the worker writes them out after the instance's timing ends.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

# (module, attribute, span name).  The solve path as the benchmark drives it:
# decompose -> quotient_graph -> solve_reduced -> reconstruct -> verify.
TARGETS = [
    ("nncp.circuit", "decompose", "circuit.decompose"),
    ("nncp.symmetry", "fixing_pattern", "circuit.fixing_pattern"),
    ("nncp.symmetry", "quotient_graph", "symmetry.quotient_graph"),
    ("nncp.symmetry", "layer_orbits", "symmetry.layer_orbits"),
    ("nncp.symmetry", "layer_orbitals", "symmetry.layer_orbitals"),
    ("nncp.symmetry", "canonical_form", "symmetry.canonical_form"),
    ("nncp.symmetry", "canonical_right", "coupling.canonical_right"),
    ("nncp.symmetry", "snf_elements", "symmetry.snf_elements"),
    ("nncp.symmetry", "b_tau", "symmetry.b_tau"),
    ("nncp.lp", "solve_reduced", "lp.solve_reduced"),
    ("nncp.lp", "_shortest_quotient_path", "lp.bfs"),
    ("nncp.lp", "build_rspp_scaled", "lp.build_rspp_scaled"),
    ("nncp.lp", "simplex_solve", "lp.simplex_solve"),
    ("nncp.simplex", "solve", "simplex.solve"),
    ("nncp.reconstruct", "reconstruct", "reconstruct.reconstruct"),
    ("nncp.reconstruct", "verify", "reconstruct.verify"),
]


class Tracer:
    """Installs span wrappers on the TARGETS and aggregates per instance."""

    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent, instance]
        self.counts: Counter = Counter()
        self.instance = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, fn, name):
        spans, stack, counts = self.spans, self._stack, self.counts
        hook = _HOOKS.get(name)

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            counts[(name, spans[parent][0] if parent >= 0 else None)] += 1
            sid = len(spans)
            span = [name, time.perf_counter(), None, parent, self.instance]
            spans.append(span)
            stack.append(sid)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(counts, args, out)
            return out

        return wrapper

    def install(self):
        for mod_name, attr, name in TARGETS:
            mod = sys.modules[mod_name]
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, name))

    def uninstall(self):
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    def take(self) -> tuple[dict, dict, list]:
        """Self seconds per span name, counts, and the raw spans of the
        instance just run; resets for the next one."""
        self_s: dict[str, float] = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            dur = end - start
            self_s[name] += dur
            if parent >= 0:
                self_s[self.spans[parent][0]] -= dur
        counts: dict[str, float] = defaultdict(float)
        for key, v in self.counts.items():
            if isinstance(key, tuple):
                name, parent = key
                counts[name + ".calls"] += v
                counts[f"{name}.calls_under.{parent}"] += v
            else:
                counts[key] += v
        spans = self.spans[:]
        self.spans.clear()
        self.counts.clear()
        return dict(self_s), dict(counts), spans


def _canonical_right(counts, args, out):
    elements = args[1].aut.elements
    if elements is not None:
        counts["aut_scan_elems"] += len(elements)


def _layer_orbits(counts, args, out):
    counts["orbits_found"] += len(out)


def _build(counts, args, lp):
    rows = len(lp.rows)
    counts["lp_vars"] += lp.n_vars
    counts["lp_rows"] += rows
    counts["basis_bytes"] = max(counts["basis_bytes"], 8 * rows * rows)


def _bfs(counts, args, out):
    q = args[0]
    counts["bfs_states"] += q.m * len(q.nodes)


def _reconstruct(counts, args, out):
    counts["swaps"] += len(out.swaps)


_HOOKS = {
    "coupling.canonical_right": _canonical_right,
    "symmetry.layer_orbits": _layer_orbits,
    "lp.build_rspp_scaled": _build,
    "lp.bfs": _bfs,
    "reconstruct.reconstruct": _reconstruct,
}
