"""Chunk tables kept with the shared trivial-pattern layer.

A coupling's trivial-pattern layer (``g.trivial_layer``) depends on the
coupling alone, and so do the chunk tables the BFS expands its levels
through.  The first solve on that layer that expands a level builds them,
with 8 orbits per chunk where they fit `lp.TABLE_BYTES_LIMIT`, into
``g.trivial_tables``, and every later circuit on the coupling reuses them.
A layer built for one circuit (a non-trivial pattern) and a biclique's
per-quotient columns get 4-orbit tables per solve, never kept; a star
builds none.  These tests pin that down, and that every choice the size
rule can make gives the same schedules."""

import gc
import random
import tracemalloc

import pytest

from nncp import lp
from nncp.circuit import decompose, fixing_pattern
from nncp.coupling import make
from nncp.generate import random_class_i
from tests.test_layer_reuse import COUPLINGS, solved, trivial_circuits
from tests.test_symmetry import circuit_with_pattern


@pytest.fixture
def built(monkeypatch):
    """The widths of the chunk tables built, one entry per build."""
    widths = []
    real = lp._chunk_tables

    def counted(q, width):
        widths.append(width)
        return real(q, width)

    monkeypatch.setattr(lp, "_chunk_tables", counted)
    return widths


WORKLIST = [case for case in COUPLINGS if case[0] not in ("star7", "biclique3-7")]


@pytest.mark.parametrize("name, build, n", WORKLIST, ids=[case[0] for case in WORKLIST])
def test_trivial_patterns_build_the_tables_once(built, name, build, n):
    g = build()
    assert g.trivial_tables is None
    for c in trivial_circuits(n, 10, seed=f"tables/{name}"):
        q, _ = solved(c, g)
        assert q.dst is g.trivial_layer[1][1]
    assert built == [8]
    tables = g.trivial_tables
    assert len(tables) == -(-len(g.trivial_layer[0]) // 8)
    assert all(len(table) == 256 for table in tables)
    # a later circuit takes the same tables, and no solve writes into them
    before = [list(table) for table in tables]
    solved(trivial_circuits(n, 12, seed=f"tables/{name}/more")[11], g)
    assert g.trivial_tables is tables and tables == before and built == [8]


@pytest.mark.parametrize("family, m_side", [("cycle", None), ("general", None),
                                            ("biclique", 3)])
def test_a_layer_of_one_circuit_builds_its_tables_per_solve(built, family, m_side):
    # three qubits idle: a non-trivial pattern, whose layer is built per
    # call; and a biclique's trivial layer, whose columns each quotient
    # builds.  Either way 4-orbit tables, built per solve and never kept
    if family == "general":
        g = dict((name, build) for name, build, _ in COUPLINGS)["wheel7"]()
    else:
        g = make(family, n=7, m_side=m_side)[0]
    circuits = [circuit_with_pattern(7, [(0, 1), (1, 2), (2, 3)])] * 3
    if family == "biclique":
        circuits = trivial_circuits(7, 3, seed="tables/biclique")
    for c in circuits:
        solved(c, g)
    assert built == [4, 4, 4]
    assert g.trivial_tables is None
    # the coupling's shared tables, once built, are not replaced either
    shared = trivial_circuits(7, 1, seed="tables/shared")[0]
    solved(shared, g)
    kept = g.trivial_tables
    solved(circuits[0], g)
    assert g.trivial_tables is kept


def test_a_star_builds_no_tables(built):
    g = make("star", n=30)[0]
    for c in trivial_circuits(30, 5, seed="tables/star") + [
            circuit_with_pattern(30, [(0, 1), (1, 2), (2, 3)])]:
        solved(c, g)
    assert built == [] and g.trivial_tables is None


def test_the_tables_are_freed_with_their_coupling():
    # cycle-8: 2 520 orbits, 8-orbit tables of about 26 MiB, kept after
    # every quotient is gone and only as long as the coupling lives
    c = decompose(random_class_i(8, 40, seed=0), n=8)
    solved(c, make("cycle", n=8)[0])        # warm-up: one-time caches and interning
    gc.collect()
    tracemalloc.start()
    try:
        g = make("cycle", n=8)[0]
        q, _ = solved(c, g)
        del q
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
        del g
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
        built.clear()
        runs[width] = digests(n, circuits)
        # the shared tables once, then the non-trivial layer's per solve
        assert built == {8: [8, 4], 4: [4, 4], 0: []}[width]
    assert runs[8] == runs[4] == runs[0]
    assert len(set(runs[8])) == len(circuits)
