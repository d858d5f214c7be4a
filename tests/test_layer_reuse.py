"""One trivial-pattern layer per coupling, of any family.

`layer_orbits` is the one builder of a layer.  Under a trivial pattern
(every class a singleton) a layer's orbits and orbitals depend on the
coupling alone, so `quotient_graph` builds its `Layer` once per coupling,
into ``g.trivial_layer``, and every later trivial-pattern circuit on that
coupling shares it; on a star or biclique the layer builds its columns on
first read, once.  These tests pin down that the shared layer gives the
same schedules and statistics as a layer built afresh, that every layer
comes through `layer_orbits` (once per coupling for trivial patterns, once
per call otherwise), that only trivial patterns fill the slot, that a
capped build leaves it empty, and that solving never changes its orbits or
columns."""

import gc
import hashlib
import json
import random
import tracemalloc

import pytest

from nncp import symmetry
from nncp.circuit import decompose, fixing_pattern
from nncp.coupling import make
from nncp.errors import CapError
from nncp.generate import random_class_i
from nncp.lp import solve_reduced
from nncp.reconstruct import reconstruct, verify
from nncp.symmetry import Layer, layer_orbits, quotient_graph, reduction_stats
from tests.test_symmetry import GENERAL_GRAPHS, circuit_with_pattern

# (name, coupling builder, n): couplings whose quotients take the worklist,
# then a star and a biclique, whose layers are listed from class vectors
COUPLINGS = [
    ("cycle7", lambda: make("cycle", n=7)[0], 7),
    ("wheel7", lambda: make("general", edges=GENERAL_GRAPHS["wheel7"])[0], 7),
    ("K34-edges", lambda: make("general", edges=GENERAL_GRAPHS["K34"])[0], 7),
    ("ladder", lambda: make("general", edges=GENERAL_GRAPHS["ladder"])[0], 6),
    ("star7", lambda: make("star", n=7)[0], 7),
    ("biclique3-7", lambda: make("biclique", n=7, m_side=3)[0], 7),
]


def trivial_circuits(n, count, seed):
    """``count`` circuits with a trivial pattern on n qubits: a shuffled
    chain through every qubit plus random gates, and, for the second and
    later ones, one qubit left idle (a class of its own, so still trivial)."""
    rng = random.Random(f"trivial/{n}/{seed}")
    out = []
    for k in range(count):
        qs = rng.sample(range(n), n)
        chain = qs[:-1] if k else qs
        gates = list(zip(chain, chain[1:]))
        gates += [tuple(rng.sample(chain, 2)) for _ in range(rng.randint(0, 6))]
        rng.shuffle(gates)
        c = circuit_with_pattern(n, gates)
        assert fixing_pattern(c).trivial
        out.append(c)
    return out


def solved(c, g):
    """sha256 of the verified schedule's JSON and of the reduction stats."""
    q = quotient_graph(c, g)
    _, path = solve_reduced(q)
    schedule = reconstruct(q, path)
    assert verify(schedule, c, g)["ok"]
    stats = json.dumps(reduction_stats(q), sort_keys=True)
    return q, (hashlib.sha256(schedule.to_json().encode()).hexdigest(),
               hashlib.sha256(stats.encode()).hexdigest())


def layer_copy(layer):
    # reading a star's or biclique's columns builds them
    return ([(nd.rep, nd.orbit_size) for nd in layer.nodes],
            [getattr(layer, col).tolist() for col in symmetry._COLUMNS])


@pytest.mark.parametrize("name, build, n", COUPLINGS, ids=[case[0] for case in COUPLINGS])
def test_trivial_patterns_share_one_layer(name, build, n):
    g = build()
    assert g.trivial_layer is None
    c1, c2, c3 = trivial_circuits(n, 3, seed=name)
    q1, digest1 = solved(c1, g)
    assert g.trivial_layer is not None and g.trivial_layer is q1.layer
    for c in (c2, c3):
        q, digest = solved(c, g)
        assert q.layer is q1.layer and q.nodes is q1.nodes and q.fp == q1.fp
        for col in symmetry._COLUMNS:
            # on a star or biclique, built on the layer by the first read
            assert getattr(q, col) is getattr(q1, col)
        # the same circuit on a newly made coupling builds its own layer
        fresh = build()
        q_fresh, digest_fresh = solved(c, fresh)
        assert q_fresh.layer is not q1.layer and q_fresh.nodes is not q1.nodes
        assert digest == digest_fresh
    assert digest1 == solved(c1, build())[1]


def test_each_coupling_keeps_its_own_layer():
    # two cycle-7 couplings, and a 7-wheel: three layers, none shared
    c = trivial_circuits(7, 1, seed="own")[0]
    a, b = make("cycle", n=7)[0], make("cycle", n=7)[0]
    wheel = make("general", edges=GENERAL_GRAPHS["wheel7"])[0]
    qa = quotient_graph(c, a)
    assert b.trivial_layer is None and wheel.trivial_layer is None
    qb, qw = quotient_graph(c, b), quotient_graph(c, wheel)
    assert qb.nodes is not qa.nodes and qw.nodes is not qa.nodes
    assert layer_copy(b.trivial_layer) == layer_copy(a.trivial_layer)
    assert len(qw.nodes) != len(qa.nodes)


@pytest.mark.parametrize("family, m_side, gates", [
    ("cycle", None, [(0, 1), (1, 2), (2, 3)]),                 # qubits 4, 5, 6 idle
    ("cycle", None, [(0, 1), (1, 2), (2, 3), (3, 4), (5, 6)]),  # isolated pair
])
def test_other_quotients_leave_the_slot_empty(family, m_side, gates):
    g = make(family, n=7, m_side=m_side)[0]
    c = circuit_with_pattern(7, gates)
    assert not fixing_pattern(c).trivial
    q = quotient_graph(c, g)
    assert g.trivial_layer is None
    assert quotient_graph(c, g).nodes is not q.nodes


# star, biclique:3, cycle-7 and K_{3,4} as an edge list
DOOR_COUPLINGS = [case for case in COUPLINGS if case[0] not in ("wheel7", "ladder")]


@pytest.mark.parametrize("name, build, n", DOOR_COUPLINGS,
                         ids=[case[0] for case in DOOR_COUPLINGS])
def test_every_layer_comes_through_layer_orbits(name, build, n, monkeypatch):
    # layer_orbits runs once for ten trivial-pattern circuits on one
    # coupling, and once per call under a non-trivial pattern; a star's or
    # biclique's orbits are listed only under it
    real_layer, real_nodes = symmetry.layer_orbits, symmetry._split_nodes
    calls, inside, listed = [], [], []

    def counted(fp, g):
        calls.append(fp.trivial)
        inside.append(g)
        try:
            return real_layer(fp, g)
        finally:
            inside.pop()

    def listed_inside(fp, g):
        assert inside == [g], "_split_nodes ran outside layer_orbits"
        listed.append(fp.trivial)
        return real_nodes(fp, g)

    monkeypatch.setattr(symmetry, "layer_orbits", counted)
    monkeypatch.setattr(symmetry, "_split_nodes", listed_inside)
    g = build()
    for c in trivial_circuits(n, 10, seed=f"door/{name}"):
        q, _ = solved(c, g)
        assert q.layer is g.trivial_layer
    assert calls == [True]
    idle = circuit_with_pattern(n, [(0, 1), (1, 2), (2, 3)])
    for _ in range(3):
        q, _ = solved(idle, g)
        assert q.layer is not g.trivial_layer
    assert calls == [True, False, False, False]
    assert listed == ([] if g.split is None else calls)


def test_a_capped_build_leaves_the_slot_empty(monkeypatch):
    # cycle-7 has 7!/14 = 360 orbits under a trivial pattern
    monkeypatch.setattr(symmetry, "ORBIT_NODE_CAP", 100)
    g = make("cycle", n=7)[0]
    c = trivial_circuits(7, 1, seed="cap")[0]
    for _ in range(2):
        with pytest.raises(CapError, match="orbit count exceeds cap 100"):
            quotient_graph(c, g)
        assert g.trivial_layer is None


def test_solving_never_writes_into_the_shared_layer():
    # a solve keeps its expander on the layer once (none on a star), and
    # never changes the layer's orbits or columns
    circuits = [decompose(random_class_i(7, 24, seed), n=7) for seed in range(20)]
    assert all(fixing_pattern(c).trivial for c in circuits)
    # 7!/14 orbits on cycle-7, one per centre qubit on star-7, and one per
    # small side on biclique:3, C(7, 3)
    for family, m_side, orbits in [("cycle", None, 360), ("star", None, 7), ("biclique", 3, 35)]:
        g = make(family, n=7, m_side=m_side)[0]
        layer = quotient_graph(circuits[0], g).layer
        before = layer_copy(layer)
        expand = None
        for c in circuits:
            q, _ = solved(c, g)
            assert q.layer is layer
            expand = expand or layer.expand
            assert layer.expand is expand
        assert (expand is None) == (family == "star")
        assert layer_copy(layer) == before
        assert layer_copy(quotient_graph(circuits[0], make(family, n=7, m_side=m_side)[0]).layer) \
            == before
        assert len(before[0]) == orbits


def test_the_layer_is_freed_with_its_coupling():
    # the slot holds the layer after every quotient is gone, and only as
    # long as the coupling lives: cycle-8 has 8!/16 = 2 520 orbits; no solve,
    # so the layer holds its orbits and columns and no expander tables
    c = decompose(random_class_i(8, 40, seed=0), n=8)
    quotient_graph(c, make("cycle", n=8)[0])    # warm-up: one-time caches and interning
    gc.collect()
    tracemalloc.start()
    try:
        g = make("cycle", n=8)[0]
        q = quotient_graph(c, g)
        assert q.layer is g.trivial_layer and q.layer.expand is None
        del q
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
        del g
        gc.collect()
        freed, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held > 300_000
    assert freed < held / 10


def test_layer_orbits_builds_afresh_on_every_call():
    g = make("cycle", n=7)[0]
    fp = fixing_pattern(trivial_circuits(7, 1, seed="uncached")[0])
    (n1, cols1), (n2, cols2) = layer_orbits(fp, g), layer_orbits(fp, g)
    assert n1 is not n2
    assert all(a is not b for a, b in zip(cols1, cols2))
    assert layer_copy(Layer(fp, None, n1, cols1)) == layer_copy(Layer(fp, None, n2, cols2))
    assert g.trivial_layer is None
