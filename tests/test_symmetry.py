import itertools
import math
import tracemalloc
from collections import Counter

import pytest

from nncp.baseline import brute_automorphisms, brute_pattern_stabilizer
from nncp.circuit import CNOT, FixingPattern, RawGate, decompose, fixing_pattern
from nncp.coupling import coupling_from_descriptor, make
from nncp.errors import CapError
from nncp.generate import random_class_i
from nncp import symmetry
from nncp.perm import compose, inverse, swap
from nncp.symmetry import (b_tau, canonical_form, layer_orbits,
                           quotient_graph, reduction_stats, snf_elements)
from tests.test_stabilizer_chain import patterns


def circuit_with_pattern(n, pairs):
    return decompose([RawGate(CNOT, p) for p in pairs], n=n)


# patterns: chain -> trivial; separate pairs -> 2^p; sparse -> free block
PATTERNS = {
    "trivial": [(0, 1), (1, 2), (2, 3), (3, 4)],
    "pairs": [(0, 1), (2, 3)],
    "mixed": [(0, 1), (1, 2), (3, 4)],
    "idle": [(1, 3)],                   # one pair, qubits 0, 2, 4 idle
}
# (family, biclique small side or general graph name)
FAMILIES = [("cycle", None), ("star", None), ("biclique", 2), ("general", "bowtie")]
# two triangles sharing location 0, given as an edge list: |Aut| = 8;
# the 2×3 ladder on six locations: |Aut| = 4; the 7-wheel, hub 0 joined to
# the 6-cycle 1..6: |Aut| = 12; K_{3,4} as an edge list, so it takes the
# worklist: |Aut| = 144
GENERAL_GRAPHS = {"bowtie": [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)],
                  "ladder": [(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)],
                  "wheel7": [(0, i) for i in range(1, 7)] + [(i, i % 6 + 1) for i in range(1, 7)],
                  "K34": [(i, j) for i in range(3) for j in range(3, 7)]}


def family_graph(family, arg, n):
    if family == "general":
        g, _, _ = make("general", edges=GENERAL_GRAPHS[arg])
        assert g.n == n
        return g
    g, _, _ = make(family, n=n, m_side=arg)
    return g


def listed_graph(family, arg, n):
    """`family_graph`, with a star or biclique given as a general edge list:
    canonical forms and B_τ run on listed groups only."""
    g = family_graph(family, arg, n)
    if family in ("star", "biclique"):
        g, _, _ = make("general", edges=sorted(g.edges))
    return g


def brute_b_tau(tau, fp, g):
    inv = inverse(tau)
    pulled = [frozenset(inv[q] for q in cls) for cls in fp.classes]
    out = []
    for b in brute_automorphisms(g):
        if all({b[x] for x in s} == set(s) for s in pulled):
            out.append(b)
    return out


def brute_edge_orbits(edges, elements):
    seen, orbits = set(), []
    for e in sorted(edges):
        if e in seen:
            continue
        orbit = {tuple(sorted((b[e[0]], b[e[1]]))) for b in elements}
        seen |= orbit
        orbits.append(orbit)
    return orbits


@pytest.mark.parametrize("family, m_side", FAMILIES)
@pytest.mark.parametrize("pattern", sorted(PATTERNS))
def test_b_tau_against_brute_filter(family, m_side, pattern):
    n = 5
    c = circuit_with_pattern(n, PATTERNS[pattern])
    fp = fixing_pattern(c)
    g = listed_graph(family, m_side, n)
    for tau in itertools.islice(itertools.permutations(range(n)), 0, None, 11):
        bt = b_tau(tau, fp, g)
        brute = brute_b_tau(tau, fp, g)
        assert bt.order == len(brute), (family, pattern, tau)
        expected = brute_edge_orbits(g.edges, brute)
        got = [set(o) for o in bt.edge_orbits]
        assert sorted(map(sorted, got)) == sorted(map(sorted, expected))


def test_b_tau_trivial_for_connected_pattern_on_cycle():
    n = 6
    c = circuit_with_pattern(n, PATTERNS["trivial"] + [(4, 5)])
    fp = fixing_pattern(c)
    g, _, _ = make("cycle", n=n)
    for tau in itertools.islice(itertools.permutations(range(n)), 0, None, 97):
        assert b_tau(tau, fp, g).order == 1


@pytest.mark.parametrize("family, m_side", [("star", None), ("biclique", 2)])
def test_b_tau_refuses_split_couplings_under_a_pattern(family, m_side):
    # a star or biclique lists no group elements to filter; a trivial
    # pattern needs none, as its B_τ is the identity alone
    g = family_graph(family, m_side, 5)
    tau = (3, 1, 4, 0, 2)
    fp = fixing_pattern(circuit_with_pattern(5, PATTERNS["pairs"]))
    with pytest.raises(ValueError, match="class vectors"):
        b_tau(tau, fp, g)
    bt = b_tau(tau, fixing_pattern(circuit_with_pattern(5, PATTERNS["trivial"])), g)
    assert bt.order == 1 and bt.edge_orbits == [[e] for e in sorted(g.edges)]


# --- S_n(F) -------------------------------------------------------------------

# hand-made partitions with two multi-member classes, which no circuit's
# fixing pattern has: it holds at most one class, the idle qubits, of more
# than two qubits, and a singleton only beside two more from its component
PARTITIONS = {
    "3-2-1": ((0, 1, 2), (3, 4), (5,)),
    "2-4": ((0, 5), (1, 2, 3, 4)),
    "3-3": ((0, 2, 4), (1, 3, 5)),
}


@pytest.mark.parametrize("pattern", sorted(PATTERNS) + sorted(PARTITIONS))
def test_snf_elements_brute(pattern):
    if pattern in PATTERNS:
        n = 5
        fp = fixing_pattern(circuit_with_pattern(n, PATTERNS[pattern]))
    else:
        n = 6
        fp = FixingPattern(PARTITIONS[pattern])
    elems = snf_elements(fp, n)
    assert len(elems) == fp.group_order == math.prod(
        math.factorial(len(cls)) for cls in fp.classes)
    assert fp.trivial == (fp.group_order == 1)
    sets = [set(cls) for cls in fp.classes]
    brute = [p for p in itertools.permutations(range(n))
             if all({p[v] for v in s} == s for s in sets)]
    assert elems == brute


def test_snf_cap():
    c = circuit_with_pattern(9, [])   # no gates: everything in one free class
    with pytest.raises(CapError, match="cap"):
        snf_elements(fixing_pattern(c), 9)


def test_worklist_orbit_cap(monkeypatch):
    # a chain of gates fixes every qubit: cycle-7 has 7!/14 = 360 orbits
    monkeypatch.setattr(symmetry, "ORBIT_NODE_CAP", 100)
    c = circuit_with_pattern(7, [(i, i + 1) for i in range(6)])
    g, _, _ = make("cycle", n=7)
    with pytest.raises(CapError, match="orbit count exceeds cap 100"):
        quotient_graph(c, g)


def test_quotient_graph_rejects_size_mismatch():
    g, _, _ = make("cycle", n=5)
    with pytest.raises(ValueError, match="circuit has 4 qubits, coupling 5 locations"):
        quotient_graph(circuit_with_pattern(4, [(0, 1)]), g)


def brute_orbits(fp, g):
    """The orbits of S_n(F) × Aut on all n! orders, τ ↦ a·τ·b⁻¹, as
    (smallest member, size) pairs: a walk from each unseen order along the
    transpositions of consecutive members of each class, and along every
    automorphism found by filtering the n! permutations."""
    n = g.n
    left = [swap(tuple(range(n)), x, y) for cls in fp.classes for x, y in zip(cls, cls[1:])]
    right = [inverse(b) for b in brute_automorphisms(g)]
    seen, orbits = set(), []
    for tau in itertools.permutations(range(n)):
        if tau in seen:
            continue
        seen.add(tau)
        orbit = [tau]
        for sigma in orbit:             # grows as the walk finds orders
            for nxt in itertools.chain((compose(a, sigma) for a in left),
                                       (compose(sigma, b) for b in right)):
                if nxt not in seen:
                    seen.add(nxt)
                    orbit.append(nxt)
        orbits.append((min(orbit), len(orbit)))
    return sorted(orbits)


# (coupling, partitions of its locations with two multi-member classes)
PARTITION_COUPLINGS = [
    ("cycle", None, [PARTITIONS["3-2-1"], PARTITIONS["2-4"]]),
    ("star", None, [PARTITIONS["3-2-1"], PARTITIONS["3-3"]]),
    ("biclique", 2, [PARTITIONS["2-4"], PARTITIONS["3-3"]]),
    ("general", "K34", [((0, 1, 2), (3, 4), (5,), (6,)), ((0, 4), (1, 2, 3), (5, 6))]),
]


@pytest.mark.parametrize("family, arg, partitions", PARTITION_COUPLINGS,
                         ids=[case[0] for case in PARTITION_COUPLINGS])
def test_layer_orbits_of_any_partition_match_brute_orbits(family, arg, partitions):
    # the closed form runs on the star and biclique, the worklist on the
    # cycle, on K_{3,4} as an edge list and on the star and biclique given
    # as edge lists
    n = 1 + max(map(max, partitions[0]))
    g = family_graph(family, arg, n)
    for classes in partitions:
        fp = FixingPattern(classes)
        expected = brute_orbits(fp, g)
        assert sum(size for _, size in expected) == math.factorial(n)
        builders = [(g, layer_orbits)]
        if g.split is not None:
            builders.append((listed_graph(family, arg, n), symmetry._worklist_orbits))
        for graph, build in builders:
            nodes, _ = build(fp, graph)
            assert sorted((nd.rep, nd.orbit_size) for nd in nodes) == expected, \
                (family, classes, build.__name__)


def brute_orbit_names(c, g):
    """Every order's orbit under S_n(F) × Aut, τ ↦ a·τ·b⁻¹, named by its
    smallest member, with both groups found by filtering all n!
    permutations."""
    stab = brute_pattern_stabilizer(c)
    right = [inverse(b) for b in brute_automorphisms(g)]
    names = {}
    for tau in itertools.permutations(range(g.n)):
        if tau not in names:
            orbit = {compose(compose(a, tau), b) for a in stab for b in right}
            names.update(dict.fromkeys(orbit, min(orbit)))
    return names


# (family, general graph name, n): the worklist's couplings
ARC_COUPLINGS = [("cycle", None, 5), ("cycle", None, 6), ("cycle", None, 7),
                 ("general", "K34", 7), ("general", "wheel7", 7), ("general", "ladder", 6)]


@pytest.mark.parametrize("pattern", ["trivial", "idle", "pairs", "pairs-idle"])
@pytest.mark.parametrize("family, arg, n", ARC_COUPLINGS)
def test_worklist_arcs_match_brute_moves(family, arg, n, pattern):
    # every concrete move out of a representative, along each coupling edge,
    # lands in the orbit of one of its arcs: counted with d_out, the arcs
    # are the brute orbits of the |E| moved representatives
    c = circuit_with_pattern(n, patterns(n)[pattern])
    g = family_graph(family, arg, n)
    q = quotient_graph(c, g)
    names = brute_orbit_names(c, g)
    id_of = {node.rep: i for i, node in enumerate(q.nodes)}
    assert set(id_of) == set(names.values())
    for i, node in enumerate(q.nodes):
        arcs = range(q.offsets[i], q.offsets[i + 1])
        weighted = Counter()
        for ai in arcs:
            weighted[q.dst[ai]] += q.d_out[ai]
            # the arc's own edge moves the representative into its destination
            assert names[swap(node.rep, q.u[ai], q.v[ai])] == q.nodes[q.dst[ai]].rep
        assert weighted == Counter(id_of[names[swap(node.rep, u, v)]] for u, v in g.edges), i
        edges = [(q.u[ai], q.v[ai]) for ai in arcs]
        assert edges == sorted(set(edges))
    # pairs beside idle qubits leave some orbit a B_τ other than {1}, on
    # every coupling here
    if pattern == "pairs-idle":
        assert max(q.d_out) > 1


# --- canonical forms over the full group --------------------------------------

@pytest.mark.parametrize("family, m_side", FAMILIES)
def test_canonical_form_is_brute_minimum(family, m_side):
    # oracle: both groups found by filtering all n! permutations, never
    # through snf_elements or the structural Aut groups
    n = 5
    g = listed_graph(family, m_side, n)
    auts = brute_automorphisms(g)
    for pattern in sorted(PATTERNS):
        c = circuit_with_pattern(n, PATTERNS[pattern])
        fp = fixing_pattern(c)
        stab = brute_pattern_stabilizer(c)
        for tau in itertools.permutations(range(n)):
            rep, b = canonical_form(tau, fp, g)
            brute = min(compose(compose(a, tau), inverse(bb))
                        for a in stab for bb in auts)
            assert rep == brute, (pattern, tau)
            # the witness is an automorphism mapping the canonical frame
            # back to tau's frame
            assert b in auts
            assert any(compose(compose(a, tau), inverse(b)) == rep for a in stab)


@pytest.mark.parametrize("family, m_side", [("star", None), ("biclique", 2)])
@pytest.mark.parametrize("pattern", sorted(PATTERNS))
def test_canonical_form_refuses_split_couplings(family, m_side, pattern):
    # its orbits are class vectors (`layer_orbits`), so nothing canonicalizes
    g = family_graph(family, m_side, 5)
    fp = fixing_pattern(circuit_with_pattern(5, PATTERNS[pattern]))
    with pytest.raises(ValueError, match="class vectors"):
        canonical_form((3, 1, 4, 0, 2), fp, g)


# --- layer orbits and orbitals -------------------------------------------------

def test_cycle6_orbit_count_matches_brute_canonicalization():
    n = 6
    c = circuit_with_pattern(n, PATTERNS["trivial"] + [(4, 5)])
    g, _, _ = make("cycle", n=n)
    fp = fixing_pattern(c)
    nodes, _ = layer_orbits(fp, g)
    assert len(nodes) == 60          # 720 permutations / dihedral 12

    auts = brute_automorphisms(g)
    reps = {min(compose(tau, inverse(b)) for b in auts)
            for tau in itertools.permutations(range(n))}
    assert {nd.rep for nd in nodes} == reps
    assert all(nd.orbit_size == 12 for nd in nodes)


@pytest.mark.parametrize("family, m_side, pattern", [
    ("cycle", None, "trivial"), ("cycle", None, "pairs"),
    ("star", None, "trivial"), ("star", None, "pairs"),
    ("biclique", 2, "mixed"),
])
def test_orbit_sizes_partition_all_permutations(family, m_side, pattern):
    n = 5
    c = circuit_with_pattern(n, PATTERNS[pattern])
    fp = fixing_pattern(c)
    g, _, _ = make(family, n=n, m_side=m_side)
    nodes, _ = layer_orbits(fp, g)
    assert sum(nd.orbit_size for nd in nodes) == 120    # partition of S_5
    q = quotient_graph(c, g)
    # arc sizes partition the concrete intra-layer arcs
    sizes = [q.nodes[q.src(ai)].orbit_size * q.d_out[ai] for ai in q.arcs]
    assert sum(sizes) == 120 * len(g.edges)
    for ai, size in zip(q.arcs, sizes):
        assert size == q.nodes[q.dst[ai]].orbit_size * q.d_in(ai)
    # every member of an orbit has |E| out-moves and |E| in-moves
    for u in range(len(q.nodes)):
        assert sum(q.d_out[ai] for ai in q.arcs if q.src(ai) == u) == len(g.edges)
        assert sum(q.d_in(ai) for ai in q.arcs if q.dst[ai] == u) == len(g.edges)


@pytest.mark.parametrize("family, arg", FAMILIES + [("general", "ladder")])
@pytest.mark.parametrize("pattern", sorted(PATTERNS))
def test_d_in_matches_witness_oracle(family, arg, pattern):
    # d_in found through the canonicalization witness instead of by
    # orbit–stabilizer: the arc's edge carried into the destination's frame,
    # and the size of that edge's class under the destination's B_τ
    n = 6 if arg == "ladder" else 5     # qubit 5 idles on the ladder
    c = circuit_with_pattern(n, PATTERNS[pattern])
    q = quotient_graph(c, listed_graph(family, arg, n))
    for ai in q.arcs:
        u, v = q.u[ai], q.v[ai]
        rep = q.nodes[q.src(ai)].rep
        dst_rep, b = canonical_form(swap(rep, u, v), q.fp, q.coupling)
        assert dst_rep == q.nodes[q.dst[ai]].rep
        e = tuple(sorted((b[u], b[v])))
        bt = b_tau(dst_rep, q.fp, q.coupling)
        assert q.d_in(ai) == next(len(cl) for cl in bt.edge_orbits if e in cl), ai


def test_quotient_memory_per_arc():
    # the arcs are typed columns, with no stored source or in-degree: 20
    # bytes per arc, and the retained total measured about 30 with the nodes
    # and compliance lists
    c = decompose(random_class_i(16, 40, seed=1), n=16)
    g = coupling_from_descriptor("biclique:3", 16)
    quotient_graph(c, g)                # warm-up: one-time caches and interning
    tracemalloc.start()
    try:
        q = quotient_graph(c, g)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [col.typecode for col in (q.offsets, q.dst, q.u, q.v, q.d_out)] == \
        ["q", "i", "i", "i", "q"]
    assert len(q.arcs) == 21_840
    assert retained / len(q.arcs) <= 40


@pytest.mark.parametrize("family, arg", FAMILIES)
@pytest.mark.parametrize("pattern", ["trivial", "pairs", "idle"])
def test_quotient_canonicalizes_each_orbital_once(family, arg, pattern, monkeypatch):
    # worklist: one call for the start order, one per self-loop and one per
    # pair of reverse arcs, whose witness names the other arc; a split
    # coupling is built from class vectors, with none
    calls = []
    real = symmetry.canonical_form

    def counting(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(symmetry, "canonical_form", counting)
    c = circuit_with_pattern(5, PATTERNS[pattern])
    g = family_graph(family, arg, 5)
    q = quotient_graph(c, g)
    if g.split is not None:
        assert len(calls) == 0
    else:
        loops = sum(q.src(ai) == q.dst[ai] for ai in q.arcs)
        assert len(calls) == 1 + (len(q.arcs) - loops) // 2 + loops


@pytest.mark.parametrize("family, arg, n", [
    ("cycle", None, 5), ("cycle", None, 6), ("cycle", None, 7),
    ("general", "bowtie", 5), ("general", "wheel7", 7), ("general", "K34", 7),
    ("star", None, 5), ("star", None, 7), ("biclique", 2, 5), ("biclique", 3, 7)])
@pytest.mark.parametrize("pattern", ["trivial", "pairs", "idle"])
def test_worklist_orbitals_come_in_reverse_pairs(family, arg, n, pattern):
    # the reverse of an orbital is an orbital holding as many concrete moves,
    # |src|·d_out = |dst|·d_in: a swap undoes itself.  The worklist names
    # half the arcs from the other half's witnesses; on stars and bicliques
    # the closed form must give the same symmetry, which the solver's
    # backward replay relies on
    pairs = {"trivial": [(q, q + 1) for q in range(n - 1)],
             "pairs": [(q, q + 1) for q in range(0, n - 1, 2)],
             "idle": [(1, 3)]}[pattern]
    fp = fixing_pattern(circuit_with_pattern(n, pairs))
    g = family_graph(family, arg, n)
    nodes, columns = symmetry.layer_orbits(fp, g)
    # a star's or biclique's columns, as its quotient builds them
    offsets, dst, _, _, d_out = columns or symmetry._split_columns(fp, g.split, nodes)
    moves = [(src, dst[ai], nodes[src].orbit_size * d_out[ai])
             for src in range(len(nodes)) for ai in range(offsets[src], offsets[src + 1])]
    assert Counter(moves) == Counter((dst, src, size) for src, dst, size in moves)


def test_table_sizes_star_and_cycle_n6():
    n = 6
    c = circuit_with_pattern(n, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    for family, nodes_expect, arcs_expect in [("star", 6, 30), ("cycle", 60, 360)]:
        g, _, _ = make(family, n=n)
        q = quotient_graph(c, g)
        assert len(q.nodes) == nodes_expect
        assert len(q.arcs) == arcs_expect


@pytest.mark.parametrize("family, m_side", FAMILIES)
def test_compliance_is_orbit_invariant(family, m_side):
    n = 5
    c = circuit_with_pattern(n, PATTERNS["pairs"])
    g = family_graph(family, m_side, n)
    q = quotient_graph(c, g)
    snf = snf_elements(q.fp, n)
    auts = brute_automorphisms(g)
    for k, gate in enumerate(c.gates):
        compliant = set(q.compliant[k])
        for u, node in enumerate(q.nodes):
            expected = u in compliant
            for a in snf[::3]:
                for b in auts[::3]:
                    member = compose(compose(a, node.rep), inverse(b))
                    loc = inverse(member)
                    e = tuple(sorted(map(loc.__getitem__, gate)))
                    assert (e in g.edges) == expected


# circuits on the edge lists, by their distinct qubit pairs on n qubits, and
# whether those are more or fewer than the coupling edges (K_{3,4} and the
# 7-wheel have 12, the 2×3 ladder 7)
PAIR_COUNTS = {
    "chain": (lambda n: [(x, x + 1) for x in range(n - 1)], "fewer"),
    "all-pairs": (lambda n: list(itertools.combinations(range(n), 2)), "more"),
    "two-pairs": (lambda n: [(0, 1), (2, 3)], "fewer"),     # the rest idle
}
# (pattern, family, arg): the four families on five qubits under each
# pattern, and the three graph-build edge lists under each PAIR_COUNTS case
COMPLIANCE_CASES = (
    [(pattern, family, arg) for pattern in ("idle", "pairs", "trivial")
     for family, arg in FAMILIES]
    + [(case, "general", graph) for graph in ("K34", "ladder", "wheel7")
       for case in sorted(PAIR_COUNTS)])


@pytest.mark.parametrize("pattern, family, arg", COMPLIANCE_CASES,
                         ids=["-".join(map(str, case)) for case in COMPLIANCE_CASES])
def test_compliance_matches_per_gate_recomputation(pattern, family, arg):
    if pattern in PATTERNS:
        n, pairs = 5, PATTERNS[pattern]
    else:
        n = 1 + max(map(max, GENERAL_GRAPHS[arg]))
        pairs_of, side = PAIR_COUNTS[pattern]
        pairs = pairs_of(n)
        assert (len(pairs) > len(GENERAL_GRAPHS[arg])) == (side == "more")
    # each pair occurs three times, once with its qubits the other way round
    c = circuit_with_pattern(n, pairs + [(b, a) for a, b in pairs][::-1] + pairs)
    g = family_graph(family, arg, n)
    q = quotient_graph(c, g)
    for k, (a, b) in enumerate(c.gates):
        expected = []
        for u, node in enumerate(q.nodes):
            loc = inverse(node.rep)
            if tuple(sorted((loc[a], loc[b]))) in g.edges:
                expected.append(u)
        assert q.compliant[k] == expected, (k, a, b)
        # so no orbit is listed twice
        assert all(x < y for x, y in zip(q.compliant[k], q.compliant[k][1:]))


def test_quotient_lookup_tables():
    n = 5
    c = circuit_with_pattern(n, PATTERNS["mixed"])
    g, _, _ = make("cycle", n=n)
    q = quotient_graph(c, g)
    # orbit u's arcs are offsets[u]:offsets[u + 1], and src finds u from them
    assert q.offsets[0] == 0 and q.offsets[-1] == len(q.arcs) == len(q.dst)
    assert len(q.offsets) == len(q.nodes) + 1
    for u in range(len(q.nodes)):
        assert q.offsets[u] < q.offsets[u + 1]
        assert all(q.src(ai) == u for ai in range(q.offsets[u], q.offsets[u + 1]))
    assert len(q.u) == len(q.v) == len(q.d_out) == len(q.arcs)


def test_reduction_stats_formulas():
    n = 5
    c = circuit_with_pattern(n, PATTERNS["trivial"])
    g, _, _ = make("cycle", n=n)
    q = quotient_graph(c, g)
    st = reduction_stats(q)
    m, ne = q.m, len(g.edges)
    assert st["unreduced_variables"] == m * 120 * ne + 120 + m * 2 * ne * 6
    assert st["unreduced_constraints"] == m * 120 + 2
    assert st["variables"] == m * len(q.arcs) + len(q.nodes) + sum(
        len(ids) for ids in q.compliant)
    assert st["constraints"] == m * len(q.nodes) + 2
    assert 0 <= st["reduction_variables_pct"] <= 100
