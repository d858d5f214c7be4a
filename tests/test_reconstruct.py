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
    for name in ("canonical_form", "_least_fill", "canonical_right", "b_tau"):
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


def star_class_instances(count, seed):
    """Seeded stars, n = 8..24, whose circuits hold a connected core beside
    several isolated pairs and idle qubits, so that pattern classes of two
    or more qubits hold several leaves."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(8, 24)
        core = rng.randint(3, n // 2)
        pairs = rng.randint(2, (n - core) // 2)
        labels = rng.sample(range(n), n)
        cq = labels[:core]
        gates = [(cq[i], cq[rng.randrange(i)]) for i in range(1, core)]
        gates += [tuple(rng.sample(cq, 2)) for _ in range(rng.randint(4, 16))]
        gates += [(labels[core + 2 * p], labels[core + 2 * p + 1])
                  for p in range(pairs) for _ in range(rng.randint(1, 3))]
        rng.shuffle(gates)
        yield n, gates


def test_star_step_matches_the_canonicalizing_replay_on_multi_member_classes():
    # the star step swaps the centre with the lowest leaf of the class it
    # enters; count the hops that choose among several such leaves
    choices = 0
    for n, pairs in star_class_instances(40, 29):
        c, g, q, _, sol = solved(n, pairs, "star")
        schedule = reconstruct(q, sol)
        assert schedule.to_json() == canonicalizing_replay(q, sol).to_json()
        assert verify(schedule, c, g)["ok"]
        cls = q.fp.class_index
        orders = iter(schedule.orders)
        tau = next(orders)
        for k, (i, j) in schedule.swaps:
            assert i == 0
            d = cls[tau[j]]
            choices += sum(cls[x] == d for x in tau[1:]) > 1
            tau = swap(tau, i, j)
    assert choices > 50


def test_star_step_refuses_a_hop_that_keeps_the_centre_class():
    n, pairs = next(star_class_instances(1, 5))
    _, _, q, _, sol = solved(n, pairs, "star")
    k = next(k for k, hop in enumerate(sol.hops) if hop)
    v = [sol.entry, *itertools.chain(*sol.hops[:k])][-1]
    hops = [list(hop) for hop in sol.hops]
    hops[k][0] = v
    with pytest.raises(SolverError, match=f"orbit {v} after gate {k + 1} is not one SWAP"):
        reconstruct(q, ReducedPath(opt=sol.opt, entry=sol.entry, hops=hops))
    # the step itself: the centre's class is v's, so v and no other orbit is refused
    rep = q.nodes[v].rep
    for w in range(len(q.nodes)):
        step = nncp.symmetry.replay_step(q, rep)
        assert (step(list(rep), v, w) is None) == (w == v)


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


# --- the one-pass verify against the per-layer check it replaced ---------------

def verify_oracle(solution, circuit, coupling):
    """The earlier `verify`: ``tuple.index`` per gate and a new order per
    SWAP, each layer's swaps applied to the given order before it."""
    violations = []
    m, n = circuit.m, circuit.n

    if len(solution.orders) != m:
        violations.append(
            f"expected {m} qubit orders, got {len(solution.orders)}")
    for idx, tau in enumerate(solution.orders):
        if len(tau) != n:
            violations.append(
                f"order {idx + 1} permutes {len(tau)} items, expected {n}")
            break

    if not violations:
        if m and set(solution.orders[0]) != set(range(n)):
            violations.append(f"order 1 is not a permutation of the {n} qubits")
        for k, (gate, tau) in enumerate(zip(circuit.gates, solution.orders), start=1):
            try:
                edge = tuple(sorted(map(tau.index, gate)))
            except ValueError:
                missing = next(x for x in gate if x not in tau)
                violations.append(
                    f"gate {k} acts on qubit {missing + 1}, which order {k} does not place")
                break
            if edge not in coupling.edges:
                violations.append(
                    f"gate {k} acts on locations {edge[0] + 1},{edge[1] + 1}, "
                    f"not a coupling edge")
                break

        by_layer = {}
        for after_gate, t in solution.swaps:
            if not 1 <= after_gate <= m - 1:
                violations.append(
                    f"swap scheduled after gate {after_gate}, outside 1..{m - 1}")
                break
            by_layer.setdefault(after_gate, []).append(t)
        else:
            for _, t in solution.swaps:
                edge = tuple(sorted(t))
                if edge not in coupling.edges:
                    violations.append(
                        f"swap ({edge[0] + 1},{edge[1] + 1}) is not a coupling edge")
                    break
            else:
                for k in range(1, m):
                    cur = solution.orders[k - 1]
                    for t in by_layer.get(k, ()):
                        cur = swap(cur, *t)
                    if cur != solution.orders[k]:
                        violations.append(
                            f"swaps after gate {k} do not transform order {k} "
                            f"into order {k + 1}")
                        break

    if len(solution.swaps) != solution.opt:
        violations.append(
            f"solution lists {len(solution.swaps)} swaps but claims "
            f"opt={solution.opt}")

    return {"ok": not violations, "violations": violations, "gates": m,
            "swaps": len(solution.swaps), "opt": solution.opt}


def _mutate(orders, swaps, opt, n, m, edges, rng):
    """One seeded tampering of a schedule, in place; returns the new opt."""
    kind = rng.randrange(12)
    k = rng.randrange(len(orders)) if orders else None
    if kind == 0 and orders and len(orders[k]) > 1:     # two entries exchanged
        tau = list(orders[k])
        i, j = rng.sample(range(len(tau)), 2)
        tau[i], tau[j] = tau[j], tau[i]
        orders[k] = tuple(tau)
    elif kind in (1, 2) and orders:                     # an entry repeated or out of range
        k = 0 if kind == 1 or len(orders) == 1 else rng.randrange(1, len(orders))
        tau = list(orders[k])
        i = rng.randrange(len(tau))
        tau[i] = rng.choice([tau[(i + 1) % len(tau)], n, n + 3, -1])
        orders[k] = tuple(tau)
    elif kind == 3 and orders:                          # an order deleted
        del orders[k]
    elif kind == 4 and orders:                          # an order shortened
        orders[k] = orders[k][:-1]
    elif kind == 5 and orders:                          # an order shuffled
        orders[k] = tuple(rng.sample(orders[k], len(orders[k])))
    elif kind == 6 and swaps:                           # after_gate 0, m or -1
        s = rng.randrange(len(swaps))
        swaps[s] = (rng.choice([0, m, -1]), swaps[s][1])
    elif kind == 7:                                     # a non-edge swap
        t = rng.choice([(i, j) for i in range(n) for j in range(i + 1, n)
                        if (i, j) not in edges] or [(0, 0)])
        swaps.insert(rng.randrange(len(swaps) + 1), (rng.randint(1, max(m - 1, 1)), t))
    elif kind == 8 and swaps:                           # high end first
        s = rng.randrange(len(swaps))
        k, (i, j) = swaps[s]
        swaps[s] = (k, (j, i))
    elif kind == 9 and swaps:                           # a location >= n or negative
        s = rng.randrange(len(swaps))
        k, (i, j) = swaps[s]
        swaps[s] = (k, (i, rng.choice([n, n + 2, -1, -n])))
    elif kind == 10:                                    # a wrong opt
        return opt + rng.choice([-1, 1])
    elif kind == 11 and len(swaps) > 1:                 # a swap moved to another layer
        s = rng.randrange(len(swaps))
        k, t = swaps.pop(s)
        swaps.append((rng.randint(1, max(m - 1, 1)), t))
    return opt


def _verify_instances():
    """Real schedules on star, cycle, biclique:2 and a general edge list."""
    wheel = [(0, i) for i in range(1, 7)] + [(i, i % 6 + 1) for i in range(1, 7)]
    for family, n, m_side, edges in (("star", 9, None, None), ("cycle", 7, None, None),
                                     ("biclique", 7, 2, None), ("general", 7, None, wheel)):
        for seed, m in enumerate((0, 1, 5, 12, 20)):
            c = decompose(random_class_i(n, m, seed=seed), n=n) if m else circ(n, [])
            g, _, _ = make(family, n=n, m_side=m_side, edges=edges)
            q = quotient_graph(c, g)
            _, sol = solve_reduced(q)
            yield f"{family}-m{m}", c, g, reconstruct(q, sol)


VERIFY_INSTANCES = list(_verify_instances())


@pytest.mark.parametrize("name, c, g, sol", VERIFY_INSTANCES,
                         ids=[case[0] for case in VERIFY_INSTANCES])
def test_verify_matches_the_per_layer_check_on_tampered_schedules(name, c, g, sol):
    assert verify(sol, c, g) == verify_oracle(sol, c, g)
    assert verify(sol, c, g)["ok"]
    rng = random.Random(name)
    flagged = 0
    for _ in range(150):
        orders, swaps = list(sol.orders), list(sol.swaps)
        opt = sol.opt
        for _ in range(rng.randint(1, 3)):
            opt = _mutate(orders, swaps, opt, c.n, c.m, g.edges, rng)
        tampered = NncpSolution(opt, orders, swaps)
        report = verify(tampered, c, g)
        assert report == verify_oracle(tampered, c, g), (orders, swaps, opt)
        flagged += not report["ok"]
    assert flagged > (0 if c.m == 0 else 100)
