import random
import tracemalloc
from collections import deque
from fractions import Fraction
from functools import reduce
from operator import or_
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.optimize

from nncp import simplex
from nncp.baseline import solve_spp
from nncp.circuit import CNOT, RawGate, decompose
from nncp.coupling import make
from nncp.errors import SolverError
from nncp.generate import random_class_i
from nncp.lp import (ReducedPath, _adjacency_expander, _bfs_level, _chunk_tables, _expander,
                     _lowest, _pulled, _star_level, _table_expander, _table_fits, build_gnfp,
                     build_rspp_scaled, gnfp_lp, simplex_solve, solve_reduced, write_lp)
from nncp.reconstruct import reconstruct, verify
from nncp.symmetry import quotient_graph


def instance(n, pairs, family, m_side=None):
    c = decompose([RawGate(CNOT, p) for p in pairs], n=n)
    g, _, _ = make(family, n=n, m_side=m_side)
    return c, g, quotient_graph(c, g)


CHAIN6 = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]


def test_model_sizes_match_closed_forms():
    c, g, q = instance(6, CHAIN6, "star")
    lp = build_rspp_scaled(q)
    assert lp.n_vars == q.m * len(q.arcs) + len(q.nodes) + sum(
        len(ids) for ids in q.compliant) == 166
    assert len(lp.rows) == q.m * len(q.nodes) + 2 == 32
    assert len(lp.rows) == len(lp.rhs)
    assert all(len(t) in (3,) for t in lp.var_tags)


def test_star_trivial_pattern_coefficients_are_unit():
    # trivial pattern on a star: every orbit has size |Aut|, so every scaled
    # coefficient collapses to 1
    _, _, q = instance(6, CHAIN6, "star")
    lp = build_rspp_scaled(q)
    lam = [cv for cv, t in zip(lp.objective, lp.var_tags) if t[0] == "lam"]
    assert set(lam) == {Fraction(1)}
    assert set(cv for _, cv in lp.rows[0]) == {Fraction(1)}
    assert set(cv for _, cv in lp.rows[1]) == {Fraction(1)}


def test_conservation_rows_balance():
    _, _, q = instance(5, [(0, 1), (2, 3)], "biclique", m_side=2)
    lp = build_rspp_scaled(q)
    # each lambda column hits exactly two conservation rows, +d_in and -d_out
    by_col: dict[int, list[Fraction]] = {}
    for row in lp.rows[2:]:
        for j, cv in row:
            by_col.setdefault(j, []).append(cv)
    for j, tag in enumerate(lp.var_tags):
        if tag[0] != "lam":
            continue
        ai = tag[2]
        if q.src(ai) == q.dst[ai]:   # self-loop orbitals merge to a net entry
            net = Fraction(q.d_in(ai) - q.d_out[ai])
            assert by_col.get(j, []) == ([net] if net else [])
        else:
            assert sorted(by_col[j]) == sorted(
                [Fraction(q.d_in(ai)), Fraction(-q.d_out[ai])])


def test_builders_reject_empty_circuits():
    c, g, q = instance(4, [], "cycle")
    with pytest.raises(ValueError):
        build_rspp_scaled(q)
    with pytest.raises(ValueError):
        build_gnfp(q)
    assert solve_reduced(q)[0] == 0


def has_multipliers(q):
    return any(q.d_out[ai] != 1 or q.d_in(ai) != 1 for ai in q.arcs)


def linprog_objective(lp):
    c, cols, b, lb, ub = lp.float_arrays()
    A = np.zeros((len(b), lp.n_vars))
    for j, col in enumerate(cols):
        for i, coef in col:
            A[i, j] = coef
    res = scipy.optimize.linprog(
        c, A_eq=A, b_eq=b,
        bounds=[(lo, None if hi == float("inf") else hi) for lo, hi in zip(lb, ub)],
        method="highs")
    assert res.status == 0, res.message
    return res.fun


def test_fast_path_used_only_without_multipliers():
    _, _, q = instance(5, CHAIN6[:4], "cycle")      # trivial pattern
    opt, sol = solve_reduced(q)
    assert isinstance(sol, ReducedPath)
    _, _, q = instance(4, [(0, 1), (2, 3), (0, 1)], "star")  # pair pattern
    assert has_multipliers(q)
    opt, sol = solve_reduced(q)
    assert isinstance(sol, ReducedPath)             # the same BFS, multipliers or not
    assert opt == sol.opt == 2


def test_fast_path_agrees_with_simplex_on_the_same_model():
    # (n, pairs, family, m_side, some orbital multiplier != 1)
    cases = [
        (5, [(0, 2), (1, 3), (0, 1)], "cycle", None, False),
        (5, [(0, 1), (1, 2), (0, 4)], "cycle", None, False),
        # pair patterns and idle qubits: in/out multipliers other than 1
        (4, [(0, 1), (2, 3), (0, 1)], "star", None, True),
        (6, [(0, 1), (2, 3), (4, 5), (0, 1)], "star", None, True),
        (6, [(0, 2), (2, 4), (0, 4)], "star", None, True),
        (5, [(0, 1), (2, 3), (1, 4)], "biclique", 2, True),
        (6, [(0, 3), (1, 2), (3, 4), (0, 4)], "biclique", 2, True),
        (6, [(0, 1), (2, 3), (4, 5)], "cycle", None, True),
        (6, [(1, 4), (2, 5), (1, 4)], "cycle", None, True),
    ]
    for n, pairs, family, m_side, multipliers in cases:
        _, _, q = instance(n, pairs, family, m_side)
        assert has_multipliers(q) == multipliers, (n, pairs, family)
        opt, sol = solve_reduced(q)
        assert isinstance(sol, ReducedPath)
        lp = build_rspp_scaled(q)
        ref = simplex_solve(lp)
        assert ref.status == simplex.OPTIMAL
        assert round(ref.objective) == opt, (n, pairs, family)
        assert abs(ref.objective - opt) < 1e-9, (n, pairs, family)
        assert abs(linprog_objective(lp) - opt) < 1e-6, (n, pairs, family)


def test_lp_solver_failure_is_a_solver_error(monkeypatch):
    # what linprog returns when HiGHS gives up (status 4: numerical difficulties)
    def numerical_failure(*args, **kwargs):
        return scipy.optimize.OptimizeResult(status=4, x=None, message="HiGHS gave up")

    monkeypatch.setattr(scipy.optimize, "linprog", numerical_failure)
    _, _, q = instance(5, CHAIN6[:4], "cycle")
    with pytest.raises(SolverError, match="^LP solver failed: HiGHS gave up$"):
        simplex_solve(build_rspp_scaled(q))


def test_reduced_path_support_shape():
    _, _, q = instance(5, [(0, 2), (2, 4), (1, 3), (0, 1)], "cycle")
    opt, path = solve_reduced(q)
    assert isinstance(path, ReducedPath)
    assert len(path.hops) == q.m - 1
    assert sum(map(len, path.hops)) == opt
    assert path.entry in q.compliant[0]


@pytest.mark.parametrize("n, pairs, family, m_side", [
    (4, [(0, 1), (2, 3), (0, 1)], "star", None),
    (5, [(0, 1), (2, 3), (1, 4)], "biclique", 2),
    (5, [(0, 2), (1, 3), (0, 1)], "cycle", None),
    (6, [(0, 1), (2, 3), (4, 5)], "star", None),
])
def test_reduced_matches_baseline(n, pairs, family, m_side):
    c, g, q = instance(n, pairs, family, m_side)
    opt, _ = solve_reduced(q)
    assert opt == solve_spp(c, g).opt


@pytest.mark.parametrize("n, pairs, family, m_side", [
    (4, [(0, 1), (2, 3), (0, 1)], "star", None),
    (5, [(0, 1), (2, 3)], "biclique", 2),
    (5, [(0, 2), (1, 3), (0, 1)], "cycle", None),
])
def test_gnfp_equals_rspp(n, pairs, family, m_side):
    _, _, q = instance(n, pairs, family, m_side)
    a = simplex_solve(build_rspp_scaled(q))
    b = simplex_solve(gnfp_lp(build_gnfp(q)))
    assert a.status == b.status == simplex.OPTIMAL
    assert abs(a.objective - b.objective) <= 1e-6


def test_gnfp_multiplier_structure():
    _, _, q = instance(5, [(0, 1), (2, 3)], "star")
    model = build_gnfp(q)
    for arc in model.arcs:
        if arc.tail == ("s",):
            assert arc.multiplier == Fraction(1, int(arc.upper))
        elif arc.head == ("t",):
            assert arc.multiplier == q.nodes[arc.tag[2]].orbit_size
            assert arc.upper == 1
        elif arc.tag[0] == "theta":
            assert arc.multiplier == 1 and arc.upper == 1


def test_solution_residual_and_implied_bounds():
    _, _, q = instance(4, [(0, 1), (2, 3), (0, 1)], "star")
    sol = simplex_solve(build_rspp_scaled(q))
    assert sol.status == simplex.OPTIMAL
    assert sol.residual <= 1e-8
    assert all(v <= q.coupling.aut.order + 1e-6 for v in sol.values)


def test_write_lp_format():
    _, _, q = instance(4, [(0, 1), (1, 2)], "star")
    lp = build_rspp_scaled(q)
    text = write_lp(lp, name="example")
    assert text.startswith("\\ example\nMinimize")
    assert "Subject To" in text and "Bounds" in text and text.endswith("End\n")
    assert "lam_1_0" in text and "theta_0_0" in text
    # fractional coefficients keep 12 significant digits
    lp.objective[0] = Fraction(1, 3)
    assert "0.333333333333 " in write_lp(lp)


# --- the per-gate solver against the global (layer, orbit) 0-1 BFS -------------

def global_01_bfs(q):
    """The solver this package used before the per-gate passes: one 0-1 BFS
    over (layer, orbit) states, intra-layer arcs cost 1, boundary arcs 0.
    O(m·orbits) time and memory; an oracle only."""
    m, nnodes = q.m, len(q.nodes)
    compl = [set(ids) for ids in q.compliant]
    INF = float("inf")
    dist = [[INF] * nnodes for _ in range(m + 1)]
    parent = {}                 # state -> (previous state, arc id or None)
    dq = deque()
    for u in range(nnodes):
        dist[1][u] = 0
        parent[(1, u)] = (None, None)
        dq.append((0, 1, u))

    end = None
    while dq:
        d, k, u = dq.popleft()
        if d > dist[k][u]:
            continue
        if u in compl[k - 1]:
            if k == m:
                end = (k, u)
                break
            if d < dist[k + 1][u]:
                dist[k + 1][u] = d
                parent[(k + 1, u)] = ((k, u), None)
                dq.appendleft((d, k + 1, u))
        for ai in range(q.offsets[u], q.offsets[u + 1]):
            v = q.dst[ai]
            if d + 1 < dist[k][v]:
                dist[k][v] = d + 1
                parent[(k, v)] = ((k, u), ai)
                dq.append((d + 1, k, v))
    assert end is not None

    # a swap in layer k >= 2 comes between gates k-1 and k; a hop names the
    # orbit it enters
    hops = [[] for _ in range(m - 1)]
    state = end
    while parent[state][0] is not None:
        prev, ai = parent[state]
        if ai is not None:
            hops[state[0] - 2].append(q.dst[ai])
        state = prev
    for hop in hops:
        hop.reverse()
    return ReducedPath(opt=dist[end[0]][end[1]], entry=state[1], hops=hops)


BOWTIE = [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)]
WHEEL7 = [(0, i) for i in range(1, 7)] + [(i, i % 6 + 1) for i in range(1, 7)]


def random_deep_instance(seed):
    """20-60 random gates on a random subset of the qubits (the rest idle),
    sometimes plus an isolated pair, on one of six coupling families."""
    rng = random.Random(seed)
    family, arg, n = rng.choice([
        ("cycle", None, 6), ("cycle", None, 7), ("star", None, 9),
        ("biclique", 3, 7), ("general", BOWTIE, 5), ("general", WHEEL7, 7)])
    qubits = rng.sample(range(n), rng.randint(3, n))
    pairs = [tuple(rng.sample(qubits, 2)) for _ in range(rng.randint(20, 60))]
    spare = [x for x in range(n) if x not in qubits]
    if len(spare) >= 2 and rng.random() < 0.5:
        pairs += [tuple(spare[:2])] * rng.randint(1, 3)
        rng.shuffle(pairs)
    c = decompose([RawGate(CNOT, p) for p in pairs], n=n)
    if family == "general":
        g, _, _ = make("general", edges=arg)
    else:
        g, _, _ = make(family, n=n, m_side=arg)
    return c, g


# the widest chunk tables the size rule may allow: 8 or 4 orbits per chunk,
# or none (adjacency lists)
WIDTHS = (8, 4, 0)


def allow_tables(monkeypatch, q, most):
    """Let the size rule allow chunk tables of at most ``most`` orbits per
    chunk (none if 0), whatever their size, and drop the expander ``q``'s
    layer keeps, so the next solve on it picks one anew."""
    monkeypatch.setattr("nncp.lp._table_fits", lambda q, width=4: width <= most)
    q.layer.expand = None


@pytest.mark.parametrize("seed", range(24))
def test_per_gate_solver_matches_global_bfs(monkeypatch, seed):
    # the solver runs with each expander on every case, whichever the size
    # rule would pick
    c, g = random_deep_instance(seed)
    q = quotient_graph(c, g)
    ref = global_01_bfs(q)
    assert verify(reconstruct(q, ref), c, g)["ok"]
    for most in WIDTHS:
        allow_tables(monkeypatch, q, most)
        opt, path = solve_reduced(q)
        assert opt == path.opt == ref.opt
        schedule = reconstruct(q, path)
        assert verify(schedule, c, g)["ok"]
        assert schedule.opt == opt


def replay_oracle(q):
    """The solver's path by plain sets and scans: each gate's potentials by
    a BFS from the previous gate's compliant orbits at theirs, then the
    backward walk from the cheapest orbit t of the last gate.  Spheres
    around t grow until sphere r holds an orbit of the previous gate at
    potential P − r; the lowest such orbit s starts the walk down the
    spheres, each hop into the destination of the first out-arc, scanning
    ``dst`` in order, that lies in the next sphere in."""
    n = len(q.nodes)
    out = [list(q.dst[q.offsets[u]:q.offsets[u + 1]]) for u in range(n)]
    pots = [dict.fromkeys(range(n), 0)]
    for ids in q.compliant:
        # level d: the orbits injected at d or reached from level d - 1
        dist, reached, d = {}, set(), min(pots[-1].values())
        while len(dist) < n:        # the quotient is connected
            level = (reached | {u for u, p in pots[-1].items() if p == d}) - dist.keys()
            dist.update(dict.fromkeys(level, d))
            reached = {w for u in level for w in out[u]}
            d += 1
        pots.append({u: dist[u] for u in ids})

    potential = min(pots[-1].values())
    t = min(u for u, p in pots[-1].items() if p == potential)
    opt, hops = potential, []
    for k in range(q.m, 1, -1):
        spheres, seen = [{t}], {t}
        while not any(pots[k - 1].get(x) == potential - len(spheres) + 1 for x in spheres[-1]):
            spheres.append({w for u in spheres[-1] for w in out[u]} - seen)
            seen |= spheres[-1]
        r = len(spheres) - 1
        s = v = min(x for x in spheres[-1] if pots[k - 1].get(x) == potential - r)
        walk = []
        for sphere in reversed(spheres[:-1]):
            v = next(w for w in out[v] if w in sphere)
            walk.append(v)
        hops.append(walk)
        t, potential = s, potential - r
    hops.reverse()
    return ReducedPath(opt=opt, entry=t, hops=hops)


def seeded_replay_instance(seed):
    """`random_deep_instance`, or a star of 12-30 or a biclique of 8-14
    locations with idle qubits and an isolated pair."""
    if seed % 3:
        return random_deep_instance(seed)
    rng = random.Random(f"replay-{seed}")
    n = rng.randint(8, 14) if seed % 2 else rng.randint(12, 30)
    qubits = rng.sample(range(n), rng.randint(3, n - 2))
    pairs = [tuple(rng.sample(qubits, 2)) for _ in range(rng.randint(10, 40))]
    spare = [x for x in range(n) if x not in qubits]
    pairs.insert(rng.randrange(len(pairs)), tuple(spare[:2]))
    c = decompose([RawGate(CNOT, p) for p in pairs], n=n)
    if seed % 2:
        return c, make("biclique", n=n, m_side=rng.randint(2, 3))[0]
    return c, make("star", n=n)[0]


@pytest.mark.parametrize("seed", range(30))
def test_replay_matches_first_arc_oracle(monkeypatch, seed):
    # the BFS finds each hop with dst.index per candidate successor, and a
    # star takes the closed-form metric; the oracle scans each orbit's
    # out-arcs in order.  The hop lists, the entry and the optimum must be
    # the same under every level expander
    c, g = seeded_replay_instance(seed)
    q = quotient_graph(c, g)
    ref = replay_oracle(q)
    for most in WIDTHS:
        allow_tables(monkeypatch, q, most)
        path = solve_reduced(q)[1]
        assert (path.opt, path.entry, path.hops) == (ref.opt, ref.entry, ref.hops)
    assert verify(reconstruct(q, ref), c, g)["ok"]


def runs_instance(seed):
    """A circuit whose gates come in same-pair runs of 1-4 on a cycle, an
    edge list, a star or a biclique, sometimes with idle qubits."""
    rng = random.Random(f"runs-{seed}")
    family, arg, n = [("cycle", None, 7), ("general", WHEEL7, 7), ("star", None, 9),
                      ("biclique", 3, 7)][seed % 4]
    qubits = rng.sample(range(n), rng.randint(n - 2, n))
    pairs = []
    for _ in range(rng.randint(5, 15)):
        pairs += [tuple(rng.sample(qubits, 2))] * rng.randint(1, 4)
    c = decompose([RawGate(CNOT, p) for p in pairs], n=n)
    if family == "general":
        return c, make("general", edges=arg)[0]
    return c, make(family, n=n, m_side=arg)[0]


@pytest.mark.parametrize("seed", range(12))
def test_same_pair_runs_match_the_oracles(monkeypatch, seed):
    # a gate on the previous gate's pair keeps its potentials, and the walk
    # back gives that boundary no hop: the same path as both oracles' under
    # every level expander
    c, g = runs_instance(seed)
    q = quotient_graph(c, g)
    assert any(a is b for a, b in zip(q.compliant, q.compliant[1:]))
    ref = replay_oracle(q)
    assert global_01_bfs(q).opt == ref.opt
    for most in WIDTHS:
        allow_tables(monkeypatch, q, most)
        path = solve_reduced(q)[1]
        assert (path.opt, path.entry, path.hops) == (ref.opt, ref.entry, ref.hops)
    assert verify(reconstruct(q, path), c, g)["ok"]


@pytest.mark.parametrize("seed", range(8))
def test_one_level_pass_per_pair_change(monkeypatch, seed):
    # _bfs_level (or _star_level on a star) runs once per gate whose pair
    # differs from the previous gate's, and not for a repeated pair
    c, g = runs_instance(seed)
    q = quotient_graph(c, g)
    name, level = ("_star_level", _star_level) if g.split == 1 else ("_bfs_level", _bfs_level)
    calls = []
    monkeypatch.setattr("nncp.lp." + name,
                        lambda *args: calls.append(args[-1]) or level(*args))
    solve_reduced(q)
    changes = sum(1 for k, gate in enumerate(c.gates) if k == 0 or gate != c.gates[k - 1])
    assert changes < c.m and len(calls) == changes


@pytest.mark.parametrize("n, limit, expander, width", [
    pytest.param(7, None, "_expander", 8, id="7-_expander"),
    pytest.param(8, None, "_expander", 8, id="8-_expander"),
    pytest.param(8, 8 << 20, "_expander", 4, id="8-_expander-4-orbit"),
    pytest.param(8, 1 << 20, "_adjacency_expander", None, id="8-_adjacency_expander"),
])
def test_size_rule_picks_the_expander(monkeypatch, n, limit, expander, width):
    # a chain fixes every qubit: cycle-7 has 360 orbits, 8-orbit tables of
    # about 0.9 MiB, and cycle-8 has 2 520 orbits, 8-orbit tables of about
    # 26 MiB and 4-orbit ones of about 3.4 MiB.  All are under
    # TABLE_BYTES_LIMIT; under an 8 MiB limit cycle-8 keeps 4-orbit tables,
    # and under a 1 MiB limit it expands over adjacency lists
    if limit is not None:
        monkeypatch.setattr("nncp.lp.TABLE_BYTES_LIMIT", limit)
    c = decompose([RawGate(CNOT, (x, x + 1)) for x in range(n - 1)], n=n)
    g, _, _ = make("cycle", n=n)
    q = quotient_graph(c, g)
    assert len(q.nodes) == {7: 360, 8: 2520}[n]
    assert _table_fits(q) == (expander == "_expander")
    assert _table_fits(q, 8) == (width == 8)
    built = []
    for name, f in (("_chunk_tables", _chunk_tables),
                    ("_adjacency_expander", _adjacency_expander)):
        monkeypatch.setattr("nncp.lp." + name, lambda q, *width, name=name, f=f:
                            built.append((name, *width, f(q, *width))) or built[-1][-1])
    for _ in range(2):
        opt, path = solve_reduced(q)
        assert verify(reconstruct(q, path), c, g)["ok"]
    # the shared layer keeps the expander the size rule picked, built once
    assert q.layer is g.trivial_layer and q.layer.expand is not None
    if width is None:
        assert [name for name, _ in built] == ["_adjacency_expander"]
    else:
        [(name, built_width, tables)] = built
        assert (name, built_width) == ("_chunk_tables", width)
        assert len(tables) == -(-len(q.nodes) // width)
        assert {len(table) for table in tables} == {1 << width}


def test_table_limit_splits_the_measured_quotients():
    # the limit reads only the orbit count: biclique:3 n=40 (9 880 orbits)
    # keeps its 4-orbit tables, Petersen (30 240) and the 3×3 grid (45 360)
    # do not; cycle-8 (2 520) keeps 8-orbit tables.  8-orbit tables fit up
    # to 3 840 orbits, 4-orbit tables up to 11 440
    def fits(orbits, width=4):
        return _table_fits(SimpleNamespace(nodes=range(orbits)), width)

    assert fits(9880) and not fits(30240) and not fits(45360)
    assert fits(2520, 8) and not fits(9880, 8)
    assert fits(3840, 8) and not fits(3841, 8)
    assert fits(11440) and not fits(11441)


def agreement_quotient(name):
    """A trivial-pattern quotient for `test_expanders_agree`, and its orbit
    count: on a star only the chain leaves 3 qubits idle."""
    edges = {"K34": [(i, j) for i in range(3) for j in range(3, 7)], "wheel7": WHEEL7}
    family, n, chain, orbits = {
        "K34": ("general", 7, 6, 35),
        "star-idle": ("star", 13, 9, 11),
        "cycle": ("cycle", 7, 6, 360),
        "cycle5": ("cycle", 5, 4, 12),
        "cycle6": ("cycle", 6, 5, 60),
        "cycle8": ("cycle", 8, 7, 2520),
        "wheel7": ("general", 7, 6, 420),
        "biclique": ("biclique", 7, 6, 35),
    }[name]
    if family == "general":
        g, _, _ = make("general", edges=edges[name])
    else:
        g, _, _ = make(family, n=n, m_side=3 if family == "biclique" else None)
    q = quotient_graph(decompose([RawGate(CNOT, (x, x + 1)) for x in range(chain)], n=n), g)
    assert len(q.nodes) == orbits
    return q


@pytest.mark.parametrize("name", ["K34", "star-idle", "cycle", "cycle5", "cycle6", "cycle8",
                                  "wheel7", "biclique"])
def test_expanders_agree(name):
    # the 8-orbit and 4-orbit tables, the adjacency lists and the expander
    # the solver takes give the same successors.  Most orbit counts are not
    # a multiple of 8, so the top chunk is partial; 360 and 2 520 are
    q = agreement_quotient(name)
    orbits = len(q.nodes)
    succ = [0] * orbits
    for ai in q.arcs:
        succ[q.src(ai)] |= 1 << q.dst[ai]

    def reference(mask):
        out = 0
        while mask:
            low = mask & -mask
            out |= succ[low.bit_length() - 1]
            mask ^= low
        return out

    everything = (1 << orbits) - 1
    masks = [0, everything]
    for width in (4, 8):
        top = width * ((orbits - 1) // width)   # the first orbit of the top chunk
        masks.append(everything >> top << top)
    masks += [1 << u for u in range(orbits)]
    rng = random.Random(orbits)
    for density in [0.05, 0.3, 0.7, 0.95] * 12 + [0.5, 0.5]:
        masks.append(sum(1 << u for u in range(orbits) if rng.random() < density))
    expanders = [_table_expander(_chunk_tables(q, 8)), _table_expander(_chunk_tables(q, 4)),
                 _adjacency_expander(q), _expander(q)]
    for mask in masks:
        assert {f(mask) for f in expanders} == {reference(mask)}, hex(mask)

    # the pull's test: every orbit of a set has a successor in the frontier,
    # by each expander's one-orbit successor masks, the top chunk's too
    for f in expanders:
        assert [f.one(u) for u in range(orbits)] == succ
    cases = {True: 0, False: 0}
    pendings = [mask for mask in masks if mask]
    for pending in pendings:
        # the pending set's successors cover it; without those of its
        # lowest orbit they do not; a random frontier mostly does not
        whole = reference(pending)
        for frontier in (whole, whole & ~succ[_lowest(pending)], rng.getrandbits(orbits)):
            covered = all(succ[u] & frontier for u in range(orbits) if pending >> u & 1)
            assert {_pulled(f.one, pending, frontier) for f in expanders} == {covered}
            cases[covered] += 1
    assert min(cases.values()) >= len(pendings), cases


@pytest.mark.parametrize("tables", [True, False], ids=["tables", "adjacency"])
def test_solve_memory_is_linear_in_compliant_orbits(monkeypatch, tables):
    # cycle-7, 1500 gates: 360 orbits, about 120 compliant per gate.  The
    # solve keeps per gate the level masks of its compliant orbits (a few
    # masks of 360 bits) plus its expander: the coupling's 8-orbit tables
    # (about 0.9 MiB, built by this solve and kept on the coupling) or
    # O(orbits + arcs) of adjacency lists; the global BFS kept a dist row
    # and a parent entry per (layer, orbit) state and peaked above 150 MB
    # here.
    c = decompose(random_class_i(7, 1500, 5), n=7)
    g, _, _ = make("cycle", n=7)
    q = quotient_graph(c, g)
    allow_tables(monkeypatch, q, 8 if tables else 0)
    total = sum(len(ids) for ids in q.compliant)
    tracemalloc.start()
    try:
        opt, path = solve_reduced(q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * total + 2**20, (peak, total, q.m * len(q.nodes))
    assert verify(reconstruct(q, path), c, g)["ok"]
