"""The star solve: closed-form level masks (`lp._star_level`) and the walk
back every family shares (`lp._shortest_quotient_path`).

On K_{1,N} any two distinct orbits are one SWAP apart, so a star solve
needs no arc, chunk table or BFS.  The oracle here is a plain BFS over the
arc columns of the same star quotient, built at their first read: its
potentials ψ_{k+1}(y) = min_x ψ_k(x) + d(x, y) give every gate's level
masks, and its walk back, written out with the solver's tie-breaks, gives
the whole path.  For n <= 8 the worklist on the star given as an edge list
and the layered BFS `solve_spp` check the optimum."""

import importlib.util
import json
import random
from collections import deque
from itertools import pairwise
from pathlib import Path

import pytest

import nncp.lp
import nncp.symmetry
from nncp.baseline import solve_spp
from nncp.circuit import CNOT, RawGate, decompose, fixing_pattern
from nncp.coupling import make
from nncp.errors import CapError, SolverError
from nncp.generate import random_class_i
from nncp.lp import NO_PATH, _star_level, solve_reduced
from nncp.reconstruct import reconstruct, verify
from nncp.symmetry import _split_counts, quotient_graph
from tests.test_cli import run

ROOT = Path(__file__).resolve().parent.parent


def seeded_star(seed, n_range=(3, 30), most_gates=40):
    """A star of n_range locations whose circuit may leave qubits idle and
    may put an isolated pair beside the rest, or have no gate at all."""
    rng = random.Random(f"star-metric-{seed}")
    n = rng.randint(*n_range)
    qubits = rng.sample(range(n), rng.randint(2, n))
    pairs = [tuple(rng.sample(qubits, 2)) for _ in range(rng.randint(0, most_gates))]
    spare = [x for x in range(n) if x not in qubits]
    if len(spare) >= 2 and rng.random() < 0.7:
        for _ in range(rng.randint(1, 3)):
            pairs.insert(rng.randrange(len(pairs) + 1), tuple(spare[:2]))
    return decompose([RawGate(CNOT, p) for p in pairs], n=n), make("star", n=n)[0]


def star_wide_seed_0():
    """The benchmark's star-wide instances of seed 0 (star n=100, m=400)."""
    spec = importlib.util.spec_from_file_location(
        "workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for inst in workloads.instances("star-wide", 0):
        c = decompose([RawGate(CNOT, tuple(p)) for p in inst["gates"]], n=inst["n"])
        yield c, make("star", n=inst["n"])[0]


def mask(ids):
    return sum(1 << u for u in ids)


def closed_form_levels(q):
    """Every gate's level masks as the solver takes them on a star."""
    levels = [(0, [(1 << len(q.nodes)) - 1])]
    for ids in q.compliant:
        levels.append(_star_level(levels[-1], mask(ids)))
    return levels


def arc_bfs(q):
    """The oracle: per gate its compliant orbits' potentials, from BFS
    distances over the arc columns, and the shortest path walked back from
    the lowest cheapest orbit of the last gate.  Per boundary the walk
    starts at the nearest orbit s of the previous gate with ψ(s) + d(s, t)
    = ψ(t), the lowest on a tie, and each hop takes the first arc, in
    ``dst`` order, one SWAP closer to t."""
    succ = [list(q.dst[lo:hi]) for lo, hi in pairwise(q.offsets)]

    def dist_from(x):
        dist = {x: 0}
        todo = deque([x])
        while todo:
            v = todo.popleft()
            for w in succ[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    todo.append(w)
        return dist

    dist = [dist_from(x) for x in range(len(q.nodes))]
    pots = [dict.fromkeys(range(len(q.nodes)), 0)]
    for ids in q.compliant:
        prev = pots[-1]
        pots.append({y: min(p + dist[x][y] for x, p in prev.items() if y in dist[x])
                     for y in ids})

    potential = min(pots[-1].values())
    opt, t = potential, min(y for y, p in pots[-1].items() if p == potential)
    hops = []
    for prev in reversed(pots[1:-1]):
        d = dist[t]
        r, s = min((d[x], x) for x, p in prev.items() if x in d and p + d[x] == potential)
        walk, v = [], s
        for left in range(r - 1, -1, -1):
            v = next(w for w in succ[v] if d[w] == left)
            walk.append(v)
        hops.append(walk)
        t, potential = s, potential - r
    hops.reverse()
    return pots, (opt, t, hops)


def as_levels(pots):
    """Potentials as level masks: (base, masks), masks[j] the orbits at base + j."""
    base = min(pots.values())
    return base, [mask(u for u, p in pots.items() if p == base + j)
                  for j in range(max(pots.values()) - base + 1)]


def same_schedule_as_the_bfs(c, g):
    q = quotient_graph(c, g)
    levels = closed_form_levels(q)
    opt, path = solve_reduced(q)
    schedule = reconstruct(q, path)
    assert "dst" not in vars(q.layer)   # the solve and the replay read no arc
    pots, ref = arc_bfs(q)
    assert levels[1:] == [as_levels(p) for p in pots[1:]]
    assert (path.opt, path.entry, path.hops) == ref
    assert verify(schedule, c, g)["ok"]
    return opt


@pytest.mark.parametrize("seed", range(60))
def test_metric_solve_matches_the_bfs(seed):
    same_schedule_as_the_bfs(*seeded_star(seed))


def test_metric_solve_matches_the_bfs_on_star_wide():
    for c, g in star_wide_seed_0():
        assert same_schedule_as_the_bfs(c, g) > 0


@pytest.mark.parametrize("seed", range(30))
def test_metric_optimum_matches_the_worklist_and_the_layered_bfs(seed):
    c, g = seeded_star(seed, n_range=(3, 8), most_gates=12)
    opt = same_schedule_as_the_bfs(c, g)
    listed, _, _ = make("general", edges=sorted(g.edges))
    assert solve_reduced(quotient_graph(c, listed))[0] == opt
    assert solve_spp(c, g).opt == opt


def test_a_gate_with_no_compliant_orbit_has_no_path():
    c, g = seeded_star(0)
    q = quotient_graph(c, g)
    q.compliant = [[]] + q.compliant[1:]
    with pytest.raises(SolverError, match=NO_PATH):
        solve_reduced(q)


def test_a_star_solve_builds_no_arc_table_or_bfs(monkeypatch):
    # a star-300 schedule needs the orbits, the compliance and the class
    # vectors alone
    for module, name in ((nncp.symmetry, "_split_columns"), (nncp.lp, "_expander"),
                         (nncp.lp, "_adjacency_expander"), (nncp.lp, "_bfs_level")):
        def boom(*args, name=name, **kwargs):
            raise AssertionError(f"{name} called on a star solve")

        monkeypatch.setattr(module, name, boom)
    c = decompose(random_class_i(300, 600, seed=3), n=300)
    g, _, _ = make("star", n=300)
    q = quotient_graph(c, g)
    opt, path = solve_reduced(q)
    schedule = reconstruct(q, path)
    assert opt > 0 and verify(schedule, c, g)["ok"]
    sizes = [len(cl) for cl in q.fp.classes]
    assert len(q.arcs) == _split_counts(sizes, 1)[1] > 0
    assert "dst" not in vars(q.layer)


def test_a_star_over_the_arc_cap_solves_and_caps_its_columns(monkeypatch):
    # a connected chain leaves every pattern class a singleton: 9 orbits and
    # 9·8 = 72 arcs; a star solve reads none of them
    monkeypatch.setattr(nncp.symmetry, "ORBIT_NODE_CAP", 50)
    c = decompose([RawGate(CNOT, (x, x + 1)) for x in range(8)], n=9)
    g, _, _ = make("star", n=9)
    q = quotient_graph(c, g)
    assert len(q.nodes) == 9 and len(q.arcs) == 72
    opt, path = solve_reduced(q)
    assert opt == 3 and verify(reconstruct(q, path), c, g)["ok"]
    with pytest.raises(CapError, match="arc count 72 exceeds cap 50"):
        q.dst
    assert "dst" not in vars(q.layer)


def test_a_biclique_over_the_arc_cap_fails_before_its_orbits(monkeypatch):
    # a biclique solve reads the arcs, so its cap is checked up front
    monkeypatch.setattr(nncp.symmetry, "ORBIT_NODE_CAP", 50)
    c = decompose([RawGate(CNOT, (x, x + 1)) for x in range(6)], n=7)
    g, _, _ = make("biclique", n=7, m_side=2)
    with pytest.raises(CapError, match="arc count 210 exceeds cap 50"):
        quotient_graph(c, g)


@pytest.mark.parametrize("family, n, m_side", [("star", 9, None), ("biclique", 8, 3)])
def test_arcs_are_counted_before_the_columns_are_built(family, n, m_side):
    c = decompose([RawGate(CNOT, p) for p in [(0, 1), (1, 2), (4, 5)]], n=n)
    g, _, _ = make(family, n=n, m_side=m_side)
    q = quotient_graph(c, g)
    count = _split_counts([len(cl) for cl in fixing_pattern(c).classes], g.split)[1]
    assert len(q.arcs) == count and "dst" not in vars(q.layer)
    assert len(q.dst) == len(q.arcs) == count
    assert q.offsets[-1] == count and len(q.offsets) == len(q.nodes) + 1
    # the columns are those `_split_columns` builds from a layer built
    # afresh, and are built once
    dst = q.dst
    nodes, columns = nncp.symmetry.layer_orbits(q.fp, g)
    assert columns is None
    assert [list(col) for col in (q.offsets, dst, q.u, q.v, q.d_out)] == \
        [list(col) for col in nncp.symmetry._split_columns(q.fp, g.split, nodes)]
    assert q.dst is dst


def test_star_stats_are_unchanged(capsys):
    # `nncp stats` reads the arc count from the class vectors alone
    code, out, _ = run(capsys, "stats", "--circuit", "classI:12:5", "--seed", "3",
                       "--coupling", "star", "--out", "json")
    assert code == 0
    assert json.loads(out) == {
        "schema": 1, "n": 12, "m": 5, "family": "star", "aut_order": 39916800,
        "snf_order": 96, "nodes_per_layer": 7, "arcs_per_layer": 45, "source_arcs": 7,
        "cross_arcs": [2, 1, 2, 1, 2], "variables": 240, "constraints": 37,
        "unreduced_variables": 27223257600, "unreduced_constraints": 2395008002,
        "reduction_variables_pct": 99.99999911840088,
        "reduction_constraints_pct": 99.99999845511998}
