"""Unreduced reference solver and the averaging cross-check.

`solve_spp` runs a 0-1 BFS over the full layered graph — every permutation
of every layer as an explicit state — so it is exponential in n and capped
accordingly, but it shares no code with the reduced pipeline and therefore
serves as its oracle.

`reynolds_check` is the deeper consistency probe: it averages the indicator
flow of a concrete optimal path over the full symmetry group (enumerated by
brute force, again independently of the reduced pipeline) and feeds the
averaged point into the reduced LP.  If the reduction is sound, the result
is feasible there with the same objective, to numerical noise."""

from __future__ import annotations

import itertools
from collections import deque

from .circuit import Circuit, fixing_pattern
from .coupling import CouplingGraph
from .errors import CapError, SolverError
from .lp import build_rspp_scaled
from .perm import Perm, inverse, swap
from .reconstruct import NncpSolution
from .symmetry import quotient_graph

BASELINE_N_CAP = 8
REYNOLDS_N_CAP = 5
REYNOLDS_TOL = 1e-9


def solve_spp(circuit: Circuit, coupling: CouplingGraph) -> NncpSolution:
    """Exact optimum by shortest path over the explicit layered graph:
    (layer, permutation) states, coupling-edge moves within a layer, free
    layer crossings where the gate complies."""
    n, m = circuit.n, circuit.m
    if n > BASELINE_N_CAP:
        raise CapError(
            f"baseline explores all {n}! permutations per layer; "
            f"capped at n <= {BASELINE_N_CAP}")
    if m == 0:
        return NncpSolution(opt=0, orders=[], swaps=[])

    edges = sorted(coupling.edges)
    dist: dict[tuple[int, tuple], int] = {}
    parent: dict[tuple[int, tuple], tuple] = {}     # state -> (previous state, swapped edge)
    dq = deque()
    for p in itertools.permutations(range(n)):
        state = (1, p)
        dist[state] = 0
        parent[state] = (None, None)
        dq.append((0, state))

    final = None
    while dq:
        d, state = dq.popleft()
        if d > dist[state]:
            continue
        k, imgs = state
        a, b = circuit.gates[k - 1]
        i, j = imgs.index(a), imgs.index(b)
        if ((i, j) if i < j else (j, i)) in coupling.edges:
            if k == m:
                final = state
                break
            nxt = (k + 1, imgs)
            if d < dist.get(nxt, d + 1):
                dist[nxt] = d
                parent[nxt] = (state, None)
                dq.appendleft((d, nxt))
        for (i, j) in edges:
            nxt = (k, swap(imgs, i, j))
            if d + 1 < dist.get(nxt, d + 2):
                dist[nxt] = d + 1
                parent[nxt] = (state, (i, j))
                dq.append((d + 1, nxt))
    if final is None:
        raise SolverError("no compliant assignment reachable")

    orders: dict[int, Perm] = {m: final[1]}
    swaps: list[tuple[int, tuple[int, int]]] = []
    state = final
    while state is not None:
        prev, edge = parent[state]
        if edge is not None:
            swaps.append((state[0] - 1, edge))
        elif prev is not None:                  # crossed into this layer
            orders[state[0] - 1] = state[1]
        state = prev
    swaps.reverse()
    return NncpSolution(opt=dist[final],
                        orders=[orders[k] for k in range(1, m + 1)],
                        swaps=swaps)


# ---------------------------------------------------------------------------
# averaging cross-check

def flow_from_solution(sol: NncpSolution) -> tuple[dict, dict]:
    """Indicator flow of a concrete schedule on the layered graph.

    x keys: (layer, src order, (i, j)) for SWAP arcs; y keys:
    (boundary, order) for the source (0), crossing (1..m-1) and sink
    (m) arcs."""
    x: dict[tuple, float] = {}
    y: dict[tuple, float] = {}
    m = len(sol.orders)
    if m == 0:
        return x, y
    y[(0, sol.orders[0])] = 1.0
    for k in range(1, m):
        y[(k, sol.orders[k - 1])] = 1.0
        cur = sol.orders[k - 1]
        for after_gate, t in sol.swaps:
            if after_gate == k:
                x[(k + 1, cur, t)] = 1.0
                cur = swap(cur, *t)
    y[(m, sol.orders[m - 1])] = 1.0
    return x, y


def brute_automorphisms(coupling: CouplingGraph) -> list[Perm]:
    """Filter all n! permutations for edge preservation."""
    out = []
    for p in itertools.permutations(range(coupling.n)):
        if all(tuple(sorted((p[i], p[j]))) in coupling.edges
               for (i, j) in coupling.edges):
            out.append(p)
    return out


def brute_pattern_stabilizer(circuit: Circuit) -> list[Perm]:
    """Filter all n! permutations for setwise stabilization of every
    pattern class (the idle qubits form one of them)."""
    sets = [set(cls) for cls in fixing_pattern(circuit).classes]
    out = []
    for p in itertools.permutations(range(circuit.n)):
        if all({p[v] for v in s} == s for s in sets):
            out.append(p)
    return out


def reynolds_average(x: dict, y: dict, snf: list[Perm],
                     aut: list[Perm]) -> tuple[dict, dict]:
    """Average indicator flows over the product group by scattering."""
    size = len(snf) * len(aut)
    w = 1.0 / size
    xbar: dict[tuple, float] = {}
    ybar: dict[tuple, float] = {}
    for a in snf:
        for b in aut:
            binv = inverse(b)
            for (k, imgs, (i, j)), val in x.items():
                new = tuple(a[imgs[binv[t]]] for t in range(len(imgs)))
                e = (b[i], b[j]) if b[i] < b[j] else (b[j], b[i])
                key = (k, new, e)
                xbar[key] = xbar.get(key, 0.0) + val * w
            for (k, imgs), val in y.items():
                new = tuple(a[imgs[binv[t]]] for t in range(len(imgs)))
                key = (k, new)
                ybar[key] = ybar.get(key, 0.0) + val * w
    return xbar, ybar


def reynolds_check(circuit: Circuit, coupling: CouplingGraph) -> dict:
    """Average a concrete optimal flow over the full symmetry group and
    test it against the reduced LP: every row, every bound, and the
    objective must agree within ``REYNOLDS_TOL``."""
    n = circuit.n
    if n > REYNOLDS_N_CAP:
        raise CapError(
            f"averaging check enumerates the group by brute force; "
            f"capped at n <= {REYNOLDS_N_CAP}")

    sol = solve_spp(circuit, coupling)
    x, y = flow_from_solution(sol)

    aut = brute_automorphisms(coupling)
    snf = brute_pattern_stabilizer(circuit)
    q = quotient_graph(circuit, coupling)
    if len(aut) != coupling.aut.order or len(snf) != q.fp.group_order:
        raise SolverError("brute-force group orders disagree with the "
                          "structural ones")
    xbar, ybar = reynolds_average(x, y, snf, aut)

    lp = build_rspp_scaled(q)
    aut_order = len(aut)
    values = []
    for tag in lp.var_tags:
        if tag[0] == "lam":
            _, k, ai = tag
            key = (k, q.nodes[q.src(ai)].rep, (q.u[ai], q.v[ai]))
            values.append(aut_order * xbar.get(key, 0.0))
        else:
            _, k, u = tag
            values.append(aut_order * ybar.get((k, q.nodes[u].rep), 0.0))

    max_row = 0.0
    for row, beta in zip(lp.rows, lp.rhs):
        r = sum(float(coef) * values[j] for j, coef in row) - float(beta)
        max_row = max(max_row, abs(r))
    max_bound = 0.0
    for v in values:
        max_bound = max(max_bound, -v, v - aut_order)
    obj = sum(float(c) * v for c, v in zip(lp.objective, values))

    return {
        "ok": (max_row <= REYNOLDS_TOL and max_bound <= REYNOLDS_TOL
               and abs(obj - sol.opt) <= REYNOLDS_TOL),
        "opt": sol.opt,
        "objective": obj,
        "objective_error": abs(obj - sol.opt),
        "max_row_residual": max_row,
        "max_bound_violation": max_bound,
        "group_order": len(snf) * len(aut),
        "variables": len(values),
    }
