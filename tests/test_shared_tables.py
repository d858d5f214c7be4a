"""The BFS level expander, kept on the layer it expands.

A layer's successor map depends on the layer alone, so the first solve that
expands a level on a `Layer` keeps its expander there (``Layer.expand``,
`lp._expander`), and every later solve on that layer reuses it.  A
coupling's trivial-pattern layer (``g.trivial_layer``), which every such
circuit on the coupling shares, takes chunk tables of 8 orbits per chunk
where they fit `lp.TABLE_BYTES_LIMIT`; a layer built for one circuit (a
non-trivial pattern) takes 4-orbit tables, built per call and freed with
its quotient; a star builds none.  These tests pin that down, that a star's
or biclique's shared layer builds its columns once too, and that every
choice the size rule can make gives the same schedules."""

import gc
import random
import tracemalloc
import weakref
from types import SimpleNamespace

import pytest

from nncp import lp, symmetry
from nncp.circuit import decompose, fixing_pattern
from nncp.coupling import make
from nncp.generate import random_class_i
from nncp.lp import solve_reduced
from tests.test_layer_reuse import COUPLINGS, solved, trivial_circuits
from tests.test_symmetry import circuit_with_pattern


@pytest.fixture
def built(monkeypatch):
    """The widths of the chunk tables built, one entry per build, and the
    tables themselves."""
    out = SimpleNamespace(widths=[], tables=[])
    real = lp._chunk_tables

    def counted(q, width):
        out.widths.append(width)
        out.tables.append(real(q, width))
        return out.tables[-1]

    monkeypatch.setattr(lp, "_chunk_tables", counted)
    return out


TABLED = [case for case in COUPLINGS if case[0] != "star7"]


@pytest.mark.parametrize("name, build, n", TABLED, ids=[case[0] for case in TABLED])
def test_trivial_patterns_build_the_tables_once(built, name, build, n):
    g = build()
    for c in trivial_circuits(n, 10, seed=f"tables/{name}"):
        q, _ = solved(c, g)
        assert q.layer is g.trivial_layer
    assert built.widths == [8]
    layer = g.trivial_layer
    expand, [tables] = layer.expand, built.tables
    assert len(tables) == -(-len(layer.nodes) // 8)
    assert all(len(table) == 256 for table in tables)
    # a later circuit takes the same expander, and no solve writes into its tables
    before = [list(table) for table in tables]
    solved(trivial_circuits(n, 12, seed=f"tables/{name}/more")[11], g)
    assert layer.expand is expand and tables == before and built.widths == [8]


def test_a_biclique_builds_its_columns_and_tables_once(built, monkeypatch):
    # the shared layer of K_{3,4} builds its columns on the first read and
    # keeps them, with the tables built on them
    columns = []
    real = symmetry._split_columns
    monkeypatch.setattr(symmetry, "_split_columns",
                        lambda *args: columns.append(args) or real(*args))
    g = make("biclique", n=7, m_side=3)[0]
    for c in trivial_circuits(7, 3, seed="tables/biclique"):
        solved(c, g)
    assert len(columns) == 1 and built.widths == [8]
    assert g.trivial_layer.expand is not None


def test_a_shared_layer_builds_its_adjacency_expander_once(built, monkeypatch):
    # under a limit below cycle-7's 4-orbit tables (about 0.12 MB), the
    # shared layer keeps adjacency lists, built by the first solve
    monkeypatch.setattr(lp, "TABLE_BYTES_LIMIT", 20_000)
    layers = []
    real = lp._adjacency_expander
    monkeypatch.setattr(lp, "_adjacency_expander", lambda q: layers.append(q.layer) or real(q))
    g = make("cycle", n=7)[0]
    for c in trivial_circuits(7, 2, seed="tables/adjacency"):
        solved(c, g)
    assert layers == [g.trivial_layer] and built.widths == []


@pytest.mark.parametrize("family, m_side", [("cycle", None), ("general", None),
                                            ("biclique", 3)])
def test_a_layer_of_one_circuit_builds_its_tables_per_solve(built, family, m_side):
    # three qubits idle: a non-trivial pattern, whose layer is built per
    # call, with 4-orbit tables kept on that layer alone
    if family == "general":
        g = dict((name, build) for name, build, _ in COUPLINGS)["wheel7"]()
    else:
        g = make(family, n=7, m_side=m_side)[0]
    c = circuit_with_pattern(7, [(0, 1), (1, 2), (2, 3)])
    for _ in range(3):
        q, _ = solved(c, g)
    assert built.widths == [4, 4, 4]
    assert g.trivial_layer is None
    # solving one quotient again reuses its layer's tables
    expand = q.layer.expand
    solve_reduced(q)
    assert q.layer.expand is expand and built.widths == [4, 4, 4]
    # the coupling's shared layer keeps its own, and no other solve replaces it
    solved(trivial_circuits(7, 1, seed="tables/shared")[0], g)
    kept = g.trivial_layer.expand
    solved(c, g)
    assert g.trivial_layer.expand is kept and built.widths == [4, 4, 4, 8, 4]


def test_a_star_builds_no_tables(built):
    g = make("star", n=30)[0]
    for c in trivial_circuits(30, 5, seed="tables/star") + [
            circuit_with_pattern(30, [(0, 1), (1, 2), (2, 3)])]:
        solved(c, g)
    assert built.widths == [] and g.trivial_layer.expand is None


def test_a_layer_of_one_circuit_is_freed_with_its_quotient():
    # nothing but the quotient holds a non-trivial layer and its expander,
    # so they go with it, with no cycle left for the collector
    g = make("cycle", n=7)[0]
    q, _ = solved(circuit_with_pattern(7, [(0, 1), (1, 2), (2, 3)]), g)
    layer, expand = weakref.ref(q.layer), weakref.ref(q.layer.expand)
    del q
    assert layer() is None and expand() is None


def test_the_tables_are_freed_with_their_coupling():
    # cycle-8: 2 520 orbits, 8-orbit tables of about 26 MiB on the shared
    # layer, kept after every quotient is gone and only as long as the
    # coupling lives; the coupling and its layer hold no cycle, so they go
    # without the collector
    c = decompose(random_class_i(8, 40, seed=0), n=8)
    solved(c, make("cycle", n=8)[0])        # warm-up: one-time caches and interning
    gc.collect()
    tracemalloc.start()
    try:
        g = make("cycle", n=8)[0]
        q, _ = solved(c, g)
        layer = weakref.ref(g.trivial_layer)
        del q
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
        del g
        assert layer() is None
        gc.collect()
        freed, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held > 20 << 20
    assert freed < held / 100


def digests(n, circuits):
    """sha256 of each verified schedule's JSON, solved in order on one newly
    made cycle-n coupling."""
    g = make("cycle", n=n)[0]
    return [solved(c, g)[1][0] for c in circuits]


@pytest.mark.parametrize("n, limits", [
    (7, {8: None, 4: 500_000, 0: 20_000}),
    (8, {8: None, 4: 8 << 20, 0: 100_000}),
], ids=["cycle7", "cycle8"])
def test_every_table_width_gives_the_same_schedules(monkeypatch, built, n, limits):
    # TABLE_BYTES_LIMIT set so that the shared layer takes 8-orbit tables,
    # 4-orbit tables or adjacency lists (the last limit is below the
    # non-trivial layer's 4-orbit tables too); trivial-pattern circuits, one
    # of them with a qubit idle, and a non-trivial one
    rng = random.Random(f"widths/{n}")
    circuits = [decompose(random_class_i(n, rng.randint(30, 120), seed), n=n)
                for seed in range(4)]
    circuits += [trivial_circuits(n, 2, seed=f"widths/{n}")[1],
                 circuit_with_pattern(n, [(0, 1), (1, 2), (2, 3), (3, 4)])]
    assert [fixing_pattern(c).trivial for c in circuits] == [True] * 5 + [False]
    runs = {}
    for width, limit in limits.items():
        if limit is not None:
            monkeypatch.setattr(lp, "TABLE_BYTES_LIMIT", limit)
        built.widths.clear()
        runs[width] = digests(n, circuits)
        # the shared tables once, then the non-trivial layer's
        assert built.widths == {8: [8, 4], 4: [4, 4], 0: []}[width]
    assert runs[8] == runs[4] == runs[0]
    assert len(set(runs[8])) == len(circuits)
