import itertools
import json
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

import nncp.symmetry
from nncp.baseline import solve_spp
from nncp.circuit import CNOT, FixingPattern, RawGate, decompose, fixing_pattern
from nncp.coupling import make
from nncp.dp import solve_star_dp
from nncp.errors import SolverError
from nncp.generate import random_class_i
from nncp.lp import ReducedPath, solve_reduced
from nncp.perm import pair, swap
from nncp.reconstruct import NncpSolution, reconstruct, verify
from nncp.symmetry import quotient_graph
from tests.test_split_canonical import sides_oracle


def circ(n, pairs):
    return decompose([RawGate(CNOT, p) for p in pairs], n=n)


def solved(n, pairs, family, m_side=None):
    c = circ(n, pairs)
    g, _, _ = make(family, n=n, m_side=m_side)
    q = quotient_graph(c, g)
    opt, sol = solve_reduced(q)
    return c, g, q, opt, sol


def test_reconstruct_from_shortest_path():
    c, g, q, opt, sol = solved(5, [(0, 2), (2, 4), (1, 3)], "cycle")
    assert isinstance(sol, ReducedPath)
    schedule = reconstruct(q, sol)
    assert schedule.opt == opt == len(schedule.swaps)
    assert verify(schedule, c, g)["ok"]


def test_reconstruct_from_lp_support():
    # a pair pattern: orbitals with in/out multipliers other than 1
    c, g, q, opt, sol = solved(4, [(0, 1), (2, 3), (0, 1)], "star")
    assert any(q.d_out[ai] != 1 or q.d_in(ai) != 1 for ai in q.arcs)
    assert isinstance(sol, ReducedPath)
    schedule = reconstruct(q, sol)
    assert schedule.opt == opt == 2
    assert verify(schedule, c, g)["ok"]


def test_reconstruct_matches_baseline_optimum():
    for family, m_side, pairs in [
            ("biclique", 2, [(0, 1), (2, 3), (1, 4)]),
            ("cycle", None, [(0, 3), (1, 4), (0, 1), (2, 3)]),
            ("star", None, [(0, 1), (2, 3), (4, 1), (0, 2)])]:
        c, g, q, opt, sol = solved(5, pairs, family, m_side)
        schedule = reconstruct(q, sol)
        assert verify(schedule, c, g)["ok"]
        assert schedule.opt == solve_spp(c, g).opt


# --- idle qubits and isolated pairs ------------------------------------------

# K_{3,4} as a plain edge list: the enumerated-group path, |Aut| = 144
K34 = [(i, j) for i in range(3) for j in range(3, 7)]
# triangle {0, 4, 5}, isolated pair {1, 2}, idle qubits 3 and 6
SPARSE7 = [(0, 4), (1, 2), (4, 5), (0, 5), (1, 2), (0, 4)]


@pytest.mark.parametrize("family, m_side", [
    ("cycle", None), ("star", None), ("biclique", 3), ("general", K34)],
    ids=["cycle", "star", "biclique3", "general-k34"])
def test_solve_path_never_lists_the_pattern_stabilizer(family, m_side, monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("snf_elements called on the solve path")

    monkeypatch.setattr(nncp.symmetry, "snf_elements", boom)
    c = circ(7, SPARSE7)
    fp = fixing_pattern(c)
    assert fp.classes == ((0,), (1, 2), (3, 6), (4,), (5,))
    if family == "general":
        g, _, _ = make("general", edges=m_side)
    else:
        g, _, _ = make(family, n=7, m_side=m_side)
    q = quotient_graph(c, g)
    opt, sol = solve_reduced(q)
    schedule = reconstruct(q, sol)
    assert verify(schedule, c, g)["ok"]
    assert opt == schedule.opt == solve_spp(c, g).opt


# a triangle with its idle qubits split into two 2-classes, and one with
# its idle qubits split into a 3-class and a singleton
REFINEMENTS = [
    ([(0, 1), (1, 2), (0, 2), (0, 1)], ((0,), (1,), (2,), (3, 5), (4, 6))),
    ([(2, 4), (4, 6), (2, 6), (4, 6), (2, 4)], ((0, 3, 5), (1,), (2,), (4,), (6,))),
]


@pytest.mark.parametrize("family, m_side", [
    ("cycle", None), ("star", None), ("biclique", 3), ("general", K34)],
    ids=["cycle", "star", "biclique3", "general-k34"])
@pytest.mark.parametrize("pairs, classes", REFINEMENTS, ids=["two-2-classes", "3-class"])
def test_a_refined_pattern_keeps_the_optimum(family, m_side, pairs, classes, monkeypatch):
    # S_n(F) of a refinement of the circuit's pattern is a subgroup of the
    # circuit's, so it folds the layered graph without changing distances
    c = circ(7, pairs)
    fine = FixingPattern(classes)
    coarse = fixing_pattern(c).classes
    assert all(any(set(cl) <= set(big) for big in coarse) for cl in classes)
    assert len(classes) > len(coarse)
    monkeypatch.setattr(nncp.symmetry, "fixing_pattern", lambda circuit: fine)
    if family == "general":
        g, _, _ = make("general", edges=m_side)
    else:
        g, _, _ = make(family, n=7, m_side=m_side)
    q = quotient_graph(c, g)
    assert q.fp is fine
    opt, sol = solve_reduced(q)
    schedule = reconstruct(q, sol)
    assert verify(schedule, c, g)["ok"]
    assert opt == schedule.opt == solve_spp(c, g).opt


@pytest.mark.parametrize("n", [20, 100, 1000])
def test_triangle_on_a_large_star(n):
    # 3 singleton classes and n - 3 idle qubits: S_n(F) has (n-3)! elements,
    # and on n >= 172 |Aut| = (n-1)! no longer fits in a float
    c = circ(n, [(3, 7), (7, n - 1), (3, n - 1)])
    g, _, _ = make("star", n=n)
    q = quotient_graph(c, g)
    assert len(q.nodes) == 4
    opt, sol = solve_reduced(q)
    assert isinstance(sol, ReducedPath)         # the BFS path
    schedule = reconstruct(q, sol)
    assert verify(schedule, c, g)["ok"]
    assert opt == schedule.opt == solve_star_dp(c).opt == 1


@st.composite
def sparse_instances(draw):
    """A connected core of >= 3 qubits (or none), isolated pairs and idle
    qubits, on a cycle, star, biclique or random connected graph, n <= 7,
    with up to 40 gates."""
    family = draw(st.sampled_from(["cycle", "star", "biclique", "general"]))
    n = draw(st.integers(5, 7))
    core = draw(st.sampled_from([0] + list(range(3, n))))
    pairs = draw(st.integers(0, (n - core) // 2))
    assume(core or pairs)
    assume(pairs or n - core >= 2)                 # S_n(F) is nontrivial
    labels = draw(st.permutations(range(n)))
    # a random tree on the core, up to two extra core gates, one gate per pair
    gates = [(labels[i], labels[draw(st.integers(0, i - 1))]) for i in range(1, core)]
    gates += [(labels[draw(st.integers(0, core - 1))], labels[draw(st.integers(0, core - 1))])
              for _ in range(draw(st.integers(0, 2)) if core else 0)]
    gates = [gt for gt in gates if gt[0] != gt[1]]
    gates += [(labels[core + 2 * p], labels[core + 2 * p + 1]) for p in range(pairs)]
    # deeper circuits repeat those gates, which keeps the pattern; the n! x m
    # layered oracle caps the depth at 40 below n = 7 and at 16 on n = 7
    depth = draw(st.integers(len(gates), 40 if n < 7 else 16))
    gates += [draw(st.sampled_from(gates)) for _ in range(depth - len(gates))]
    gates = draw(st.permutations(gates))

    if family == "general":
        edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
        edges |= set(draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
            .filter(lambda e: e[0] < e[1]), max_size=3)))
        g, _, _ = make("general", edges=sorted(edges))
    else:
        m_side = draw(st.integers(2, (n - 1) // 2)) if family == "biclique" else None
        g, _, _ = make(family, n=n, m_side=m_side)
    return circ(n, gates), g


@settings(max_examples=60, deadline=None)
@given(sparse_instances())
def test_reduced_matches_baseline_with_idle_qubits_and_pairs(instance):
    c, g = instance
    q = quotient_graph(c, g)
    opt, sol = solve_reduced(q)
    schedule = reconstruct(q, sol)
    assert verify(schedule, c, g)["ok"]
    assert opt == schedule.opt == solve_spp(c, g).opt


def test_reconstruct_empty_circuit():
    c, g, q, opt, sol = solved(4, [], "cycle")
    schedule = reconstruct(q, sol)
    assert schedule.opt == 0 and schedule.orders == [] and schedule.swaps == []


# a triangle with an idle qubit on cycle-4 and the 4-star, and SPARSE7 (a
# triangle, an isolated pair and two idle qubits) on K_{3,4}: each needs a SWAP
DEAD_ENDS = [(4, [(0, 1), (1, 2), (0, 2)], "cycle", None),
             (4, [(0, 1), (1, 2), (0, 2)], "star", None),
             (7, SPARSE7, "biclique", 3)]


def test_reconstruct_rejects_empty_support():
    # no hop list for any gate boundary
    for n, pairs, family, m_side in DEAD_ENDS:
        _, _, q, _, sol = solved(n, pairs, family, m_side)
        with pytest.raises(SolverError,
                           match=f"0 hop lists and 0 hops, expected {q.m - 1} and 0"):
            reconstruct(q, ReducedPath(opt=0, entry=sol.entry, hops=[]))


def test_reconstruct_dead_end():
    for n, pairs, family, m_side in DEAD_ENDS:
        _, g, q, _, sol = solved(n, pairs, family, m_side)
        assert isinstance(sol, ReducedPath) and sol.opt > 0
        # hop into the orbit the walk is already in: cycle-4's orbits have no
        # self-loop, and a split replay refuses a hop that keeps the class
        # vector (K_{3,4} has self-loops)
        k = next(k for k, hop in enumerate(sol.hops) if hop)
        v = [sol.entry, *itertools.chain(*sol.hops[:k])][-1]
        assert g.split or v not in q.dst[q.offsets[v]:q.offsets[v + 1]]
        hops = [list(hop) for hop in sol.hops]
        hops[k][0] = v
        with pytest.raises(SolverError, match=f"orbit {v} after gate {k + 1} is not one SWAP"):
            reconstruct(q, ReducedPath(opt=sol.opt, entry=sol.entry, hops=hops))


# --- the class-vector replay on stars and bicliques ----------------------------

def canonicalizing_replay(q, path):
    """The replay that canonicalizes before every SWAP, on a star or
    biclique through the test-side `sides_oracle`: the hop from orbit v into
    w takes v's first arc into w, and the witness b of the current order
    maps the arc's edge back through b⁻¹."""
    v = path.entry
    tau = q.nodes[v].rep
    orders, swaps = [tau], []
    for k, hop in enumerate(path.hops, start=1):
        for w in hop:
            rep, b = sides_oracle(tau, q.fp, q.coupling)
            assert rep == q.nodes[v].rep
            ai = q.dst.index(w, q.offsets[v], q.offsets[v + 1])
            t = pair(b.index(q.u[ai]), b.index(q.v[ai]))
            swaps.append((k, t))
            tau = swap(tau, *t)
            v = w
        orders.append(tau)
    return NncpSolution(opt=path.opt, orders=orders, swaps=swaps)


def split_instances(count, seed):
    """Seeded stars and bicliques, n = 4..13, whose circuits leave qubits
    idle or as isolated pairs beside a connected core (or none)."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(4, 13)
        m_side = rng.randint(2, (n - 1) // 2) if n >= 5 and rng.random() < 0.5 else None
        core = rng.choice([0] + list(range(3, n + 1)))
        pairs = rng.randint(0 if core else 1, (n - core) // 2)
        labels = rng.sample(range(n), n)
        cq = labels[:core]
        gates = [(cq[i], cq[rng.randrange(i)]) for i in range(1, core)]
        gates += [tuple(rng.sample(cq, 2)) for _ in range(rng.randint(0, 12) if core else 0)]
        gates += [(labels[core + 2 * p], labels[core + 2 * p + 1]) for p in range(pairs)]
        rng.shuffle(gates)
        yield n, gates, "star" if m_side is None else "biclique", m_side


SPLIT_INSTANCES = list(split_instances(60, 2026))


@pytest.mark.parametrize("n, pairs, family, m_side", SPLIT_INSTANCES,
                         ids=[f"{i}-{f}{m or ''}-n{n}" for i, (n, _, f, m) in enumerate(SPLIT_INSTANCES)])
def test_split_replay_matches_the_canonicalizing_replay(n, pairs, family, m_side):
    c, g, q, opt, sol = solved(n, pairs, family, m_side)
    schedule = reconstruct(q, sol)
    assert schedule.to_json() == canonicalizing_replay(q, sol).to_json()
    assert verify(schedule, c, g)["ok"]


def test_split_replay_matches_the_canonicalizing_replay_on_200_qubits():
    # `nncp solve --circuit classI:200:400 --coupling star`
    c = decompose(random_class_i(200, 400, seed=0), n=200)
    g, _, _ = make("star", n=200)
    q = quotient_graph(c, g)
    _, sol = solve_reduced(q)
    schedule = reconstruct(q, sol)
    assert schedule.opt > 0
    assert schedule.to_json() == canonicalizing_replay(q, sol).to_json()
    assert verify(schedule, c, g)["ok"]


@pytest.mark.parametrize("family, m_side", [("star", None), ("biclique", 3)])
def test_split_replay_never_canonicalizes(family, m_side, monkeypatch):
    # the whole solve, build and compliance marking included, runs on class
    # vectors: SPARSE7 leaves two qubits idle and one pair isolated
    for name in ("canonical_form", "canonical_right", "b_tau"):
        def boom(*args, name=name, **kwargs):
            raise AssertionError(f"{name} called on a split coupling")

        monkeypatch.setattr(nncp.symmetry, name, boom)
    c = circ(7, SPARSE7)
    g, _, _ = make(family, n=7, m_side=m_side)
    q = quotient_graph(c, g)
    assert sorted(map(len, q.fp.classes)) == [1, 1, 1, 2, 2]
    _, sol = solve_reduced(q)
    assert sol.opt > 0
    assert verify(reconstruct(q, sol), c, g)["ok"]


# --- JSON schedule format ------------------------------------------------------

def sample_solution():
    return NncpSolution(
        opt=1,
        orders=[(0, 1, 2), (1, 0, 2)],
        swaps=[(1, (0, 1))])


def test_json_round_trip():
    sol = sample_solution()
    again = NncpSolution.from_json(sol.to_json())
    assert again.opt == sol.opt
    assert again.orders == sol.orders
    assert again.swaps == sol.swaps
    # a swap read with its high end first is stored, and written, sorted
    data = sol.to_json_dict()
    data["swaps"][0]["swap"] = [3, 1]
    again = NncpSolution.from_json_dict(data)
    assert again.swaps == [(1, (0, 2))]
    assert again.to_json_dict()["swaps"] == [{"after_gate": 1, "swap": [1, 3]}]


def test_json_is_one_based():
    data = json.loads(sample_solution().to_json())
    assert data["schema"] == 1
    assert data["orders"][0] == [1, 2, 3]
    assert data["swaps"][0] == {"after_gate": 1, "swap": [1, 2]}


@pytest.mark.parametrize("swaps", [True, False], ids=["swaps", "no-swaps"])
def test_json_puts_each_order_and_swap_on_one_row(swaps):
    sol = sample_solution()
    if not swaps:
        sol.swaps = []
    data = sol.to_json_dict()
    text = sol.to_json()
    assert json.loads(text) == json.loads(json.dumps(data, indent=2)) == data
    lines = text.splitlines()
    assert lines[0] == "{" and lines[-1] == "}"
    assert [line.split(":")[0] for line in lines if line.startswith('  "')] == [
        f'  "{key}"' for key in data]
    rows = [json.loads(line.strip().rstrip(",")) for line in lines if line.startswith("    ")]
    assert rows == data["orders"] + data["swaps"]


@pytest.mark.parametrize("schema", [99, True, 1.0])
def test_json_schema_guard(schema):
    # True and 1.0 compare equal to 1, but only the int 1 is schema 1
    data = json.loads(sample_solution().to_json())
    data["schema"] = schema
    with pytest.raises(ValueError, match="schema"):
        NncpSolution.from_json_dict(data)


@pytest.mark.parametrize("data", [
    [1, 2],
    {"opt": 0, "orders": 5, "swaps": []},
    {"opt": 1, "orders": [[1, 2, 3]], "swaps": [{"after_gate": 1, "swap": [1]}]},
    {"opt": 0, "orders": [[1.0, 2, 3]], "swaps": []},
    {"opt": 0.5, "orders": [[1, 2, 3]], "swaps": []},
    {"opt": 1, "orders": [[1, 2, 3]], "swaps": [{"after_gate": 1, "swap": [2, 2]}]},
    {"opt": 0, "orders": [[1, 1, 3]], "swaps": []},
    {"opt": 0, "orders": [[1, 2, 4]], "swaps": []},
])
def test_json_malformed_shape_is_value_error(data):
    with pytest.raises(ValueError):
        NncpSolution.from_json_dict(data)


# --- verification catches tampering --------------------------------------------

def good_instance():
    c = circ(4, [(0, 1), (2, 3)])
    g, _, _ = make("star", n=4)
    sol = solve_spp(c, g)
    assert verify(sol, c, g)["ok"]
    return c, g, sol


def test_verify_flags_wrong_opt():
    c, g, sol = good_instance()
    sol.opt += 1
    rep = verify(sol, c, g)
    assert not rep["ok"] and "claims opt" in rep["violations"][0]


def test_verify_flags_noncompliant_order():
    c, g, sol = good_instance()
    bad = [tau for tau in sol.orders]
    # rotate qubits so gate 1 no longer touches the centre
    a, b = c.gates[0]
    others = [x for x in range(4) if x not in (a, b)]
    bad[0] = (others[0], a, b, others[1])
    rep = verify(NncpSolution(sol.opt, bad, sol.swaps), c, g)
    assert not rep["ok"] and "not a coupling edge" in rep["violations"][0]


def test_verify_flags_broken_swap_chain():
    c, g, sol = good_instance()
    swaps = [(k, (1, 2)) for k, _ in sol.swaps]
    rep = verify(NncpSolution(sol.opt, sol.orders, swaps), c, g)
    assert not rep["ok"]


def test_verify_flags_non_edge_swap():
    c, g, sol = good_instance()
    # locations 1 and 2 are both leaves: not a star edge
    swaps = sol.swaps + [(1, (1, 2))]
    rep = verify(NncpSolution(sol.opt + 1, sol.orders, swaps), c, g)
    assert not rep["ok"]
    assert any("not a coupling edge" in v for v in rep["violations"])
    # a swap of one location with itself is not an edge either
    swaps = sol.swaps + [(1, (1, 1))]
    rep = verify(NncpSolution(sol.opt + 1, sol.orders, swaps), c, g)
    assert "swap (2,2) is not a coupling edge" in rep["violations"]


def test_verify_accepts_a_swap_listed_high_end_first():
    c, g, sol = good_instance()
    assert sol.swaps and all(i < j for _, (i, j) in sol.swaps)
    swaps = [(k, (j, i)) for k, (i, j) in sol.swaps]
    assert verify(NncpSolution(sol.opt, sol.orders, swaps), c, g)["ok"]


def test_verify_flags_bad_after_gate():
    c, g, sol = good_instance()
    swaps = [(c.m, t) for _, t in sol.swaps]      # after the last gate
    rep = verify(NncpSolution(sol.opt, sol.orders, swaps), c, g)
    assert not rep["ok"] and "outside" in rep["violations"][0]


def test_verify_flags_wrong_order_count():
    c, g, sol = good_instance()
    rep = verify(NncpSolution(sol.opt, sol.orders[:-1], sol.swaps), c, g)
    assert not rep["ok"] and "expected 2 qubit orders" in rep["violations"][0]


def test_verify_flags_wrong_degree():
    c, g, sol = good_instance()
    orders = [(0, 1, 2)] + sol.orders[1:]
    rep = verify(NncpSolution(sol.opt, orders, sol.swaps), c, g)
    assert not rep["ok"] and "permutes 3 items" in rep["violations"][0]


@pytest.mark.parametrize("order, message", [
    ((0, 1, 1), "order 1 is not a permutation of the 3 qubits"),
    ((0, 1, 7), "order 1 is not a permutation of the 3 qubits"),
    ((0, 0, 2), "gate 1 acts on qubit 2, which order 1 does not place"),
], ids=["repeat", "out-of-range", "missing-gate-qubit"])
def test_verify_flags_an_order_that_is_not_a_permutation(order, message):
    # star-3 with the one gate (0, 1): each order puts the gate's qubits, or
    # the one it finds, on the edge (0, 1), but none is a permutation
    c = circ(3, [(0, 1)])
    g, _, _ = make("star", n=3)
    rep = verify(NncpSolution(0, [order], []), c, g)
    assert not rep["ok"] and message in rep["violations"]
    assert verify(NncpSolution(0, [(0, 1, 2)], []), c, g)["ok"]


def test_verify_flags_a_later_order_that_is_not_a_permutation():
    # order 1 is a permutation, so a broken later order fails the swap chain
    c, g, sol = good_instance()
    orders = sol.orders[:-1] + [(sol.orders[-1][0],) * 4]
    rep = verify(NncpSolution(sol.opt, orders, sol.swaps), c, g)
    assert not rep["ok"]
    assert any("do not transform order" in v for v in rep["violations"])
