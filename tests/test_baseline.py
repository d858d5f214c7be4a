import random

import pytest

from nncp.baseline import (brute_automorphisms, brute_pattern_stabilizer,
                           flow_from_solution, reynolds_check, solve_spp)
from nncp.circuit import CNOT, RawGate, decompose
from nncp.coupling import make
from nncp.errors import CapError
from nncp.reconstruct import verify


def circ(n, pairs):
    return decompose([RawGate(CNOT, p) for p in pairs], n=n)


def test_zero_swaps_when_an_order_exists():
    c = circ(4, [(0, 2), (1, 3), (0, 1)])
    g, _, _ = make("cycle", n=4)
    sol = solve_spp(c, g)
    assert sol.opt == 0 and sol.swaps == []
    assert verify(sol, c, g)["ok"]


def test_single_swap_instance():
    # star: gate 1 parks 0 or 1 at the centre, gate 2 then needs 2 or 3 there
    c = circ(4, [(0, 1), (2, 3)])
    g, _, _ = make("star", n=4)
    sol = solve_spp(c, g)
    assert sol.opt == 1
    assert verify(sol, c, g)["ok"]


def test_swaps_are_ordered_and_verified():
    c = circ(5, [(0, 1), (2, 3), (0, 4), (1, 3)])
    g, _, _ = make("star", n=5)
    sol = solve_spp(c, g)
    assert verify(sol, c, g)["ok"]
    assert [k for k, _ in sol.swaps] == sorted(k for k, _ in sol.swaps)


def test_empty_circuit():
    c = circ(4, [])
    g, _, _ = make("cycle", n=4)
    assert solve_spp(c, g).opt == 0


def test_cap():
    c = circ(9, [(0, 1)])
    g, _, _ = make("star", n=9)
    with pytest.raises(CapError):
        solve_spp(c, g)


def test_qubit_relabeling_invariance():
    # conjugating every gate by a qubit relabeling cannot change the optimum
    base = [(0, 1), (2, 3), (1, 4), (0, 3)]
    g, _, _ = make("cycle", n=5)
    ref = solve_spp(circ(5, base), g).opt
    rng = random.Random(3)
    for _ in range(4):
        a = list(range(5))
        rng.shuffle(a)
        relabeled = [(a[x], a[y]) for x, y in base]
        assert solve_spp(circ(5, relabeled), g).opt == ref


# --- flow extraction and averaging --------------------------------------------

def test_flow_indicators_count_path_arcs():
    c = circ(4, [(0, 1), (2, 3), (0, 1)])
    g, _, _ = make("star", n=4)
    sol = solve_spp(c, g)
    x, y = flow_from_solution(sol)
    assert len(y) == c.m + 1              # source, m-1 crossings, sink
    assert sum(x.values()) == sol.opt
    assert all(v == 1.0 for v in x.values())
    assert y[(0, sol.orders[0])] == 1.0
    assert y[(c.m, sol.orders[-1])] == 1.0


def test_brute_groups_match_structural_orders():
    c = circ(5, [(0, 1), (2, 3)])
    for family, m_side in [("cycle", None), ("star", None), ("biclique", 2)]:
        g, _, aut = make(family, n=5, m_side=m_side)
        assert len(brute_automorphisms(g)) == aut.order
    from nncp.circuit import fixing_pattern
    assert len(brute_pattern_stabilizer(c)) == fixing_pattern(c).group_order


@pytest.mark.parametrize("family, m_side, pairs", [
    ("cycle", None, [(0, 2), (1, 3)]),
    ("star", None, [(0, 1), (2, 3), (0, 1)]),
    ("biclique", 2, [(0, 1), (1, 2), (3, 4)]),
    ("cycle", None, [(0, 1), (1, 2), (2, 3), (3, 4)]),
])
def test_reynolds_feasibility(family, m_side, pairs):
    c = circ(5, pairs)
    g, _, _ = make(family, n=5, m_side=m_side)
    report = reynolds_check(c, g)
    assert report["ok"], report
    assert report["max_row_residual"] <= 1e-9
    assert report["max_bound_violation"] <= 1e-9
    assert report["objective_error"] <= 1e-9


def test_reynolds_cap():
    c = circ(6, [(0, 1)])
    g, _, _ = make("star", n=6)
    with pytest.raises(CapError):
        reynolds_check(c, g)
