"""The star solve by the closed-form swap metric (`lp._star_path`).

On K_{1,N} any two distinct orbits are one SWAP apart, so `solve_reduced`
needs no arc, chunk table or BFS there.  The BFS (`_shortest_quotient_path`)
still runs on the same quotient, on columns built at its first read, and is
the oracle for the whole schedule.  For n <= 8 the worklist on the star given
as an edge list and the layered BFS `solve_spp` check the optimum."""

import importlib.util
import json
import random
from pathlib import Path

import pytest

import nncp.lp
import nncp.symmetry
from nncp.baseline import solve_spp
from nncp.circuit import CNOT, RawGate, decompose, fixing_pattern
from nncp.coupling import make
from nncp.errors import SolverError
from nncp.generate import random_class_i
from nncp.lp import NO_PATH, _shortest_quotient_path, solve_reduced
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


def same_schedule_as_the_bfs(c, g):
    q = quotient_graph(c, g)
    opt, path = solve_reduced(q)
    schedule = reconstruct(q, path)
    ref = _shortest_quotient_path(q)
    assert (path.opt, path.entry, path.hops) == (ref.opt, ref.entry, ref.hops)
    assert schedule.to_json() == reconstruct(q, ref).to_json()
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
                         (nncp.lp, "_adjacency_expander")):
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
    assert "dst" not in vars(q)


@pytest.mark.parametrize("family, n, m_side", [("star", 9, None), ("biclique", 8, 3)])
def test_arcs_are_counted_before_the_columns_are_built(family, n, m_side):
    c = decompose([RawGate(CNOT, p) for p in [(0, 1), (1, 2), (4, 5)]], n=n)
    g, _, _ = make(family, n=n, m_side=m_side)
    q = quotient_graph(c, g)
    count = _split_counts([len(cl) for cl in fixing_pattern(c).classes], g.split)[1]
    assert len(q.arcs) == count and "dst" not in vars(q)
    assert len(q.dst) == len(q.arcs) == count
    assert q.offsets[-1] == count and len(q.offsets) == len(q.nodes) + 1
    # the columns are those `layer_orbits` builds, and are built once
    dst = q.dst
    assert [list(col) for col in (q.offsets, dst, q.u, q.v, q.d_out)] == \
        [list(col) for col in nncp.symmetry.layer_orbits(q.fp, g)[1]]
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
