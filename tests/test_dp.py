import itertools
import random

import pytest

from nncp.baseline import solve_spp
from nncp.circuit import CNOT, RawGate, decompose
from nncp.coupling import make
from nncp.dp import solve_star_dp, star_solution
from nncp.lp import solve_reduced
from nncp.reconstruct import reconstruct, verify
from nncp.symmetry import quotient_graph


def circ(n, pairs):
    return decompose([RawGate(CNOT, p) for p in pairs], n=n)


def test_hand_example():
    # centre must shuttle between the two disjoint pairs
    c = circ(4, [(0, 1), (2, 3), (0, 1)])
    table = solve_star_dp(c)
    assert table.opt == 2


def test_shared_operand_costs_nothing():
    c = circ(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    table = solve_star_dp(c)
    assert table.opt == 0
    assert table.centers == [0, 0, 0, 0]


def test_ties_retain_the_centre():
    # after gate 2 both operands cost the same; the walk must keep centre 0
    c = circ(4, [(0, 1), (0, 2), (0, 1)])
    table = solve_star_dp(c)
    assert table.opt == 0
    assert table.centers == [0, 0, 0]


def test_empty_circuit():
    table = solve_star_dp(circ(4, []))
    assert table.opt == 0 and table.centers == []
    assert star_solution(circ(4, []), table).opt == 0


def test_exhaustive_small_star_suite():
    # every circuit of up to 3 gates over 4 qubits, against the baseline
    g, _, _ = make("star", n=4)
    pairs = list(itertools.combinations(range(4), 2))
    for m in (1, 2, 3):
        for gates in itertools.product(pairs, repeat=m):
            c = circ(4, list(gates))
            table = solve_star_dp(c)
            assert table.opt == solve_spp(c, g).opt, gates
            sol = star_solution(c, table)
            assert verify(sol, c, g)["ok"], gates
            assert len(sol.swaps) == table.opt


@pytest.mark.parametrize("seed", range(6))
def test_random_star_instances_match_reduced(seed):
    rng = random.Random(seed)
    n = rng.randint(5, 8)
    m = rng.randint(4, 12)
    pairs = [tuple(rng.sample(range(n), 2)) for _ in range(m)]
    c = circ(n, pairs)
    g, _, _ = make("star", n=n)
    table = solve_star_dp(c)
    opt, _ = solve_reduced(quotient_graph(c, g))
    assert table.opt == opt
    assert verify(star_solution(c, table), c, g)["ok"]


def sparse_class_i(n, used, m, seed):
    """m random gates on the first `used` qubits; the other n - used idle."""
    rng = random.Random(seed)
    return [tuple(rng.sample(range(used), 2)) for _ in range(m)]


@pytest.mark.parametrize("n, used, m, seed", [
    (30, 30, 300, 1),
    (100, 100, 150, 0),        # 4 qubits stay idle by chance
    (100, 100, 400, 7),        # 1 idle qubit
    (200, 40, 200, 3),         # 160 idle qubits
], ids=["n30", "n100-idle", "n100", "n200-idle"])
def test_large_stars_match_star_dp(n, used, m, seed):
    c = circ(n, sparse_class_i(n, used, m, seed))
    g, _, _ = make("star", n=n)
    q = quotient_graph(c, g)
    opt, path = solve_reduced(q)
    schedule = reconstruct(q, path)
    assert verify(schedule, c, g)["ok"]
    table = solve_star_dp(c)
    assert opt == schedule.opt == table.opt
    assert verify(star_solution(c, table), c, g)["ok"]
