"""The star and biclique quotient, built in closed form from class vectors.

`layer_orbits` lists a split coupling's orbits without canonicalizing, and
`_split_columns` their arcs, as a `Layer` does on first read.  Four
independent checks pin them down: `layer_orbits` on the same graph given
as a general edge list, where the worklist runs on the listed group, must
give the same quotient field by field; so must the worklist run on the split
coupling itself through the test-side oracles of `test_split_canonical.py`,
at sizes whose group is too large to list, and the counts taken before the
build must give its node and arc counts; a brute count of class vectors must
give the node count at n = 1000; and a DP over the set of qubits on the
small side must give the same optimum as `solve_reduced`."""

import itertools
import math
import random

import pytest

from nncp import symmetry
from nncp.circuit import CNOT, RawGate, decompose, fixing_pattern
from nncp.generate import random_class_i, random_class_ii
from nncp.lp import solve_reduced
from nncp.reconstruct import reconstruct, verify
from nncp.symmetry import layer_orbits, quotient_graph
from tests.test_split_canonical import general_form, split_graph, use_split_oracles


def sparse_gates(n, kind, rng):
    """Gate pairs over a shuffled qubit order: a chain through every qubit
    (trivial pattern), or isolated pairs and idle qubits beside a chain."""
    qs = list(range(n))
    rng.shuffle(qs)
    if kind == "trivial":
        return list(zip(qs, qs[1:]))
    n_pairs = rng.randint(0 if kind == "idle" else 1, n // 3)
    gates = [(qs[2 * i], qs[2 * i + 1]) for i in range(n_pairs)]
    rest = qs[2 * n_pairs:]
    chain = rng.randint(0, len(rest) - (2 if kind == "idle" else 0))
    if chain >= 3:
        gates += list(zip(rest[:chain - 1], rest[1:chain]))
    return gates


def as_fields(nodes, columns):
    # the columns compare element by element: offsets, dst, u, v and d_out
    return [(nd.rep, nd.orbit_size) for nd in nodes], columns


def split_layer(fp, g):
    """`layer_orbits` on a star or biclique, whose columns are None, with
    the columns `QuotientGraph` builds from its nodes on first read."""
    nodes, columns = layer_orbits(fp, g)
    assert columns is None
    return nodes, symmetry._split_columns(fp, g.split, nodes)


@pytest.mark.parametrize("kind", ["trivial", "idle", "pairs"])
def test_closed_form_matches_the_general_form(kind):
    # both sides are library code and share no split code: the general form
    # canonicalizes down the chain of its listed group (|Aut| <= 7!)
    rng = random.Random(f"general-form-{kind}")
    for _ in range(40):
        n = rng.randint(5, 8)
        m_side = rng.randint(1, (n - 1) // 2)
        c = decompose([RawGate(CNOT, p) for p in sparse_gates(n, kind, rng)], n=n)
        fp = fixing_pattern(c)
        assert as_fields(*split_layer(fp, split_graph(n, m_side))) == \
            as_fields(*layer_orbits(fp, general_form(n, m_side))), (n, m_side, fp.classes)


@pytest.mark.parametrize("kind", ["trivial", "idle", "pairs"])
def test_closed_form_matches_worklist(kind, monkeypatch):
    use_split_oracles(monkeypatch)
    rng = random.Random(f"closed-form-{kind}")
    for _ in range(40):
        n = rng.randint(5, 12)
        m_side = rng.randint(1, min(3, (n - 1) // 2))
        g = split_graph(n, m_side)
        c = decompose([RawGate(CNOT, p) for p in sparse_gates(n, kind, rng)], n=n)
        fp = fixing_pattern(c)
        nodes, columns = split_layer(fp, g)
        assert as_fields(nodes, columns) == as_fields(*symmetry._worklist_orbits(fp, g)), \
            (n, m_side, fp.classes)
        assert symmetry._split_counts([len(cl) for cl in fp.classes], m_side) \
            == (len(nodes), len(columns[1]))


def test_polynomial_size_at_n1000():
    # classes: singletons 0, 1, 2, the pair (5, 9), and 995 idle qubits
    n, m_side = 1000, 2
    c = decompose([RawGate(CNOT, p) for p in [(0, 1), (1, 2), (5, 9)]], n=n)
    g = split_graph(n, m_side)
    q = quotient_graph(c, g)
    sizes = [len(cl) for cl in q.fp.classes]
    assert sorted(sizes) == [1, 1, 1, 2, 995]
    vectors = [k for k in itertools.product(*(range(min(s, m_side) + 1) for s in sizes))
               if sum(k) == m_side]
    assert len(q.nodes) == len(vectors) == 12
    # one arc per (class on the small side, class on the large side)
    assert len(q.arcs) == sum(sum(1 for t in k if t) * sum(1 for s, t in zip(sizes, k) if t < s)
                              for k in vectors)
    assert sum(nd.orbit_size for nd in q.nodes) == math.factorial(n)
    for u in range(len(q.nodes)):
        assert sum(q.d_out[q.offsets[u]:q.offsets[u + 1]]) == len(g.edges)
    opt, path = solve_reduced(q)
    assert opt == 0 and verify(reconstruct(q, path), c, g)["ok"]


def biclique_set_dp(c, n, m_side):
    """Minimum SWAP count on K_{M,N}, by a DP over the set S of qubits on
    the small side: every small location touches every large one, so a
    gate can run iff exactly one of its operands is in S, and going from S
    to T takes |S \\ T| swaps."""
    sides = [sum(1 << q for q in s) for s in itertools.combinations(range(n), m_side)]

    def compliant(pair):
        a, b = 1 << pair[0], 1 << pair[1]
        return [s for s in sides if bool(s & a) != bool(s & b)]

    cost = dict.fromkeys(compliant(c.gates[0]), 0)
    for gate in c.gates[1:]:
        cost = {t: min(d + bin(s & ~t).count("1") for s, d in cost.items())
                for t in compliant(gate)}
    return min(cost.values())


@pytest.mark.parametrize("seed", range(48))
def test_biclique_set_dp_matches_reduced(seed):
    rng = random.Random(f"biclique-dp-{seed}")
    n = rng.randint(7, 12)
    m_side = rng.randint(2, min(3, (n - 1) // 2))
    if seed % 2:
        raw = random_class_ii(n, rng.randint(2, 4), seed=seed)
    else:
        raw = random_class_i(n, rng.randint(4, 12), seed=seed)
    c = decompose(raw, n=n)
    g = split_graph(n, m_side)
    q = quotient_graph(c, g)
    opt, path = solve_reduced(q)
    assert opt == biclique_set_dp(c, n, m_side), (n, m_side)
    assert verify(reconstruct(q, path), c, g)["ok"]


def test_small_sides_match_the_count_every_tuple_filter():
    # the filter counts a tuple's classes only when it repeats one; it must
    # keep what counting every tuple kept, in the same order, and as many
    # vectors as `_split_counts` counts
    def count_every_tuple(sizes, m):
        return [small for small in itertools.combinations_with_replacement(range(len(sizes)), m)
                if all(small.count(c) <= sizes[c] for c in set(small))]

    rng = random.Random("small-sides")
    cases = [([1] * 12, 3), ([2, 2, 1, 1, 1, 1], 2), ([3], 3), ([1, 1], 2)]
    for _ in range(200):
        sizes = [rng.choice([1, 1, 1, 2, 3, 4]) for _ in range(rng.randint(1, 9))]
        cases.append((sizes, rng.randint(1, min(4, sum(sizes)))))
    for sizes, m in cases:
        got = symmetry._small_sides(sizes, m)
        assert got == count_every_tuple(sizes, m), (sizes, m)
        assert len(got) == symmetry._split_counts(sizes, m)[0], (sizes, m)
