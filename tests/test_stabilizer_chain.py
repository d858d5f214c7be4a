"""Canonicalization and B_τ down the stabilizer chain against the Aut
scans they replaced, past the sizes a brute n! search reaches.

The oracles scan a group found by networkx's isomorphism matcher, never
through `nncp.coupling`: every element's coset member (or greedy fill) is
formed, and the first element in image order that reaches the minimum is
the witness; B_τ is the elements that keep τ's class word."""

import functools
import math
import random

import networkx as nx
import pytest
from networkx.algorithms.isomorphism import GraphMatcher

from nncp.circuit import CNOT, FixingPattern, RawGate, decompose, fixing_pattern
from nncp.coupling import canonical_right, make
from nncp.lp import solve_reduced
from nncp.perm import inverse
from nncp.reconstruct import reconstruct, verify
from nncp import symmetry
from nncp.symmetry import b_tau, canonical_form, layer_orbits, quotient_graph


def grid(rows, cols):
    return ([(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
            + [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)])


# outer 5-cycle, spokes i-(i+5), inner pentagram
PETERSEN = ([(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
            + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])
GENERAL = {
    "petersen": PETERSEN,                                               # |Aut| = 120
    "grid3x3": grid(3, 3),                                              # 8
    "cube3": [(a, a ^ (1 << k)) for a in range(8) for k in range(3) if a < a ^ (1 << k)],  # 48
    "k34": [(i, j) for i in range(3) for j in range(3, 7)],             # 144
    "wheel7": [(0, i) for i in range(1, 7)] + [(i, i % 6 + 1) for i in range(1, 7)],  # 12
    "ladder2x4": grid(2, 4),                                            # 4
}
GRAPHS = [("general", name) for name in GENERAL] + [("cycle", n) for n in range(5, 10)]
TAUS_PER_GRAPH = 500


def build(family, arg):
    if family == "general":
        g, _, _ = make("general", edges=GENERAL[arg])
    else:
        g, _, _ = make("cycle", n=arg)
    return g


def networkx_group(g):
    """Aut(g) by networkx's matcher, as sorted image tuples."""
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges)
    return sorted(tuple(iso[x] for x in range(g.n))
                  for iso in GraphMatcher(G, G).isomorphisms_iter())


def with_inverses(group):
    return [(b, inverse(b)) for b in group]


def scan_canonical_right(tau, group):
    """Smallest τ·b⁻¹ over the group, and the first b reaching it."""
    best = best_b = None
    for b, b_inv in group:
        cand = tuple(tau[y] for y in b_inv)
        if best is None or cand < best:
            best, best_b = cand, b
    return best, best_b


def scan_canonical_form(tau, fp, group):
    """Smallest greedy fill of τ·b⁻¹'s class word over the group, and the
    first b reaching it."""
    word = [fp.class_index[q] for q in tau]
    best = best_b = None
    for b, b_inv in group:
        used = [0] * len(fp.classes)
        cand = []
        for y in b_inv:
            c = word[y]
            cand.append(fp.classes[c][used[c]])
            used[c] += 1
        cand = tuple(cand)
        if best is None or cand < best:
            best, best_b = cand, b
    return best, best_b


def patterns(n):
    """Gate pairs giving a trivial pattern, idle qubits, isolated pairs
    (beside a chain or a free qubit), and isolated pairs beside idle qubits."""
    chain = [(i, i + 1) for i in range(n - 1)]
    return {
        "trivial": chain,
        "idle": chain[:2],                                  # n - 3 idle qubits
        "pairs": [(0, 1), (2, 3)] + chain[4:],
        "pairs-idle": [(0, 1), (2, 3)],                     # n - 4 idle qubits
    }


def random_taus(n, seed):
    rng = random.Random(seed)
    out = []
    for _ in range(TAUS_PER_GRAPH):
        im = list(range(n))
        rng.shuffle(im)
        out.append(tuple(im))
    return out


@pytest.mark.parametrize("family, arg", GRAPHS)
def test_elements_are_the_networkx_group(family, arg):
    g = build(family, arg)
    assert g.aut.elements == networkx_group(g)
    assert g.aut.order == len(g.aut.elements)


@pytest.mark.parametrize("family, arg", GRAPHS)
def test_chain_matches_scan_on_trivial_patterns(family, arg):
    g = build(family, arg)
    group = with_inverses(networkx_group(g))
    fp = fixing_pattern(decompose([RawGate(CNOT, p) for p in patterns(g.n)["trivial"]], n=g.n))
    assert fp.trivial
    for tau in random_taus(g.n, seed=g.n):
        rep, b = canonical_right(tau, g)
        assert (rep, b) == scan_canonical_right(tau, group), tau
        form_rep, form_b = canonical_form(tau, fp, g)
        assert (form_rep, form_b) == (rep, b)


@pytest.mark.parametrize("pattern", ["idle", "pairs", "pairs-idle"])
@pytest.mark.parametrize("family, arg", GRAPHS)
def test_chain_matches_scan_on_nontrivial_patterns(family, arg, pattern):
    g = build(family, arg)
    group = with_inverses(networkx_group(g))
    fp = fixing_pattern(decompose([RawGate(CNOT, p) for p in patterns(g.n)[pattern]], n=g.n))
    assert not fp.trivial
    for tau in random_taus(g.n, seed=g.n):
        rep, b = canonical_form(tau, fp, g)
        assert (rep, b) == scan_canonical_form(tau, fp, group), tau


@pytest.mark.parametrize("family, arg", GRAPHS)
def test_group_is_built_whole(family, arg):
    aut = build(family, arg).aut
    assert aut.inverse_images == [inverse(b) for b in aut.elements]
    # every element index sits at exactly one leaf, below the keys of its
    # own inverse images
    leaves = []
    stack = [(aut.chain, ())]
    while stack:
        node, keys = stack.pop()
        if node.__class__ is dict:
            stack.extend((child, keys + (y,)) for y, child in node.items())
        else:
            assert aut.inverse_images[node][:len(keys)] == keys
            leaves.append(node)
    assert sorted(leaves) == list(range(len(aut.elements)))


# --- no call scans Aut ---------------------------------------------------------

class NoScan(list):
    """Indexable like the element list, but iterating it fails."""

    def __iter__(self):
        raise AssertionError("Aut was scanned")


@pytest.mark.parametrize("family, arg", [("general", "wheel7"), ("cycle", 7), ("general", "k34")])
def test_solve_path_never_iterates_aut(family, arg):
    g = build(family, arg)
    n = g.n
    rng = random.Random(5)
    # a trivial pattern, then idle qubits and isolated pairs: under those,
    # every orbit's B_τ is found down the chain too, and its elements are
    # indexed by the walk's leaves
    circuits = [patterns(n)["trivial"] + [tuple(rng.sample(range(n), 2)) for _ in range(12)]]
    circuits += [patterns(n)[p] * 3 for p in ("idle", "pairs", "pairs-idle")]
    # the inverse images and the chain are built with the group, so not
    # even the first canonicalization reads the element list
    g.aut.elements = NoScan(g.aut.elements)
    with pytest.raises(AssertionError, match="scanned"):
        list(g.aut.elements)

    for k, pairs in enumerate(circuits):
        c = decompose([RawGate(CNOT, p) for p in pairs], n=n)
        assert fixing_pattern(c).trivial == (k == 0)
        q = quotient_graph(c, g)
        _, path = solve_reduced(q)
        sol = reconstruct(q, path)
        assert verify(sol, c, g)["ok"]


# --- B_τ down the chain ----------------------------------------------------------

B_TAU_GRAPHS = ([("cycle", n) for n in range(5, 9)]
                + [("general", name) for name in ("k34", "wheel7", "petersen")])
PARTITIONS_PER_GRAPH = 200


def filter_b_tau(tau, fp, group, edges):
    """B_τ by the element filter the chain walk replaced: the order of the
    automorphisms that keep τ's class word, and their edge classes as a
    set of frozensets."""
    word = [fp.class_index[q] for q in tau]
    kept = [b for b in group if [word[x] for x in b] == word]
    classes = {frozenset(tuple(sorted((b[u], b[v]))) for b in kept) for u, v in edges}
    return len(kept), classes


def random_partition(n, rng):
    """A random partition of 0..n-1 into classes of one to five qubits,
    each sorted, in order of their smallest qubit."""
    qubits = list(range(n))
    rng.shuffle(qubits)
    classes = []
    while qubits:
        k = rng.randint(1, 5)
        classes.append(tuple(sorted(qubits[:k])))
        del qubits[:k]
    return FixingPattern(tuple(sorted(classes)))


@pytest.mark.parametrize("family, arg", B_TAU_GRAPHS)
def test_b_tau_walk_matches_element_filter(family, arg):
    g = build(family, arg)
    group = networkx_group(g)
    rng = random.Random(f"b_tau/{family}/{arg}")
    nontrivial = 0
    for _ in range(PARTITIONS_PER_GRAPH):
        fp = random_partition(g.n, rng)
        tau = list(range(g.n))
        rng.shuffle(tau)
        tau = tuple(tau)
        bt = b_tau(tau, fp, g)
        order, classes = filter_b_tau(tau, fp, group, g.edges)
        assert bt.order == order, (fp.classes, tau)
        assert {frozenset(cl) for cl in bt.edge_orbits} == classes, (fp.classes, tau)
        # listed from the smallest edge, classes sorted by it
        assert all(cl == sorted(cl) for cl in bt.edge_orbits)
        assert [cl[0] for cl in bt.edge_orbits] == sorted(cl[0] for cl in bt.edge_orbits)
        nontrivial += order > 1
    assert nontrivial > PARTITIONS_PER_GRAPH // 10


# --- the class-word walk's tied leaves ---------------------------------------------

def scan_least_fill(word, fp, group):
    """The smallest fill of ``word``'s images over the group, the first b
    reaching it, and how many elements reach it."""
    fills = []
    for b, b_inv in group:
        used = [0] * len(fp.classes)
        cand = []
        for y in b_inv:
            c = word[y]
            cand.append(fp.classes[c][used[c]])
            used[c] += 1
        fills.append((tuple(cand), b))
    best = min(fill for fill, _ in fills)
    reaching = [b for fill, b in fills if fill == best]
    return best, reaching[0], len(reaching)


@pytest.mark.parametrize("family, arg", B_TAU_GRAPHS)
def test_least_fill_counts_the_minimizing_elements(family, arg):
    # one pattern class (every qubit idle) ties every element at once
    g = build(family, arg)
    group = with_inverses(networkx_group(g))
    rng = random.Random(f"least/{family}/{arg}")
    fps = [FixingPattern((tuple(range(g.n)),))]
    fps += [fp for fp in (random_partition(g.n, rng) for _ in range(60)) if not fp.trivial]
    for fp in fps:
        tau = list(range(g.n))
        rng.shuffle(tau)
        word = [fp.class_index[q] for q in tau]
        assert symmetry._least_fill(word, fp, g) == scan_least_fill(word, fp, group), \
            (fp.classes, tau)


def random_layer_patterns(g, rng, count, sizes, most_orbits=6000):
    """``count`` random non-trivial partitions of g's qubits into classes
    whose sizes are drawn from ``sizes``, each predicted to give at most
    ``most_orbits`` orbits (n!/(|S_n(F)|·|Aut|) is a lower bound on the
    count)."""
    out = []
    while len(out) < count:
        qubits = list(range(g.n))
        rng.shuffle(qubits)
        classes = []
        while qubits:
            k = rng.choice(sizes)
            classes.append(tuple(sorted(qubits[:k])))
            del qubits[:k]
        fp = FixingPattern(tuple(sorted(classes)))
        if not fp.trivial and math.factorial(g.n) <= most_orbits * fp.group_order * g.aut.order:
            out.append(fp)
    return out


LAYER_GRAPHS = ([("cycle", n) for n in range(5, 10)]
                + [("general", name) for name in ("wheel7", "k34", "grid3x3", "petersen")])


@functools.cache
def random_layers(family, arg):
    g = build(family, arg)
    rng = random.Random(f"layers/{family}/{arg}")
    # mostly singletons, then coarse classes, under which many orbits have
    # |B_τ| > 1
    fps = random_layer_patterns(g, rng, 2, (1, 1, 2, 3))
    fps += random_layer_patterns(g, rng, 1, (2, 3, 4))
    return g, [(fp, symmetry.Layer(fp, None, *layer_orbits(fp, g))) for fp in fps]


@pytest.mark.parametrize("family, arg", LAYER_GRAPHS)
def test_least_fill_ties_are_b_tau_of_every_orbit(family, arg):
    # the walk that finds an orbit counts its tied leaves, which is the
    # orbit's |B_τ|, so the worklist calls `b_tau` only where it is above 1
    g, layers = random_layers(family, arg)
    above_one = 0
    for fp, layer in layers:
        for node in layer.nodes:
            word = [fp.class_index[q] for q in node.rep]
            rep, _, ties = symmetry._least_fill(word, fp, g)
            order = b_tau(node.rep, fp, g).order
            assert (rep, ties) == (node.rep, order), (fp.classes, node.rep)
            assert node.orbit_size * order == fp.group_order * g.aut.order
            above_one += order > 1
    assert above_one > 0


@pytest.mark.parametrize("family, arg", LAYER_GRAPHS)
def test_same_class_edges_are_self_loops(family, arg):
    # swapping two qubits of one class is a relabeling in S_n(F): the arc of
    # that edge's B_τ class leads back to its own orbit
    g, layers = random_layers(family, arg)
    same_class = 0
    for fp, layer in layers:
        cls = fp.class_index
        for i, node in enumerate(layer.nodes):
            for k, cl in enumerate(b_tau(node.rep, fp, g).edge_orbits):
                same = {cls[node.rep[u]] == cls[node.rep[v]] for u, v in cl}
                assert len(same) == 1           # B_τ keeps the class word
                if same == {True}:
                    assert layer.dst[layer.offsets[i] + k] == i, (fp.classes, node.rep, cl)
                    same_class += 1
    assert same_class > 0
