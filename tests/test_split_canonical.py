"""Test-side canonical forms and B_τ on stars and bicliques.

The library never canonicalizes an order on a split coupling: its
quotients are built, and its schedules replayed, from class vectors.  The
worklist and the canonicalizing replay are still worth running on those
couplings, as oracles for the closed form (`test_split_quotient.py`,
`test_reconstruct.py`).  They run through the two oracles here, which read
the structure of K_{M,N} directly:

* `sides_oracle`, the canonical form: the small side takes the smallest
  members of each class it holds, each side is sorted, and the witness
  pairs τ's locations with the representative's locations of the same
  side and class, in order;
* `split_b_tau`, B_τ: every side-preserving relabeling is an automorphism,
  so B_τ is the direct product of the symmetric groups on the (class, side)
  parts.

Each is checked here against brute force at n = 5, and `sides_oracle` also
against `canonical_form` on the same graph given as a general edge list."""

import functools
import itertools
import math
import random
from collections import Counter

import pytest

from nncp import symmetry
from nncp.baseline import brute_automorphisms, brute_pattern_stabilizer
from nncp.circuit import CNOT, RawGate, decompose, fixing_pattern
from nncp.coupling import make
from nncp.perm import compose, inverse
from nncp.symmetry import canonical_form

CASES_PER_KIND = 250


def sides_oracle(tau, fp, g):
    """Representative and witness from the class counts on each side."""
    word = [fp.class_index[q] for q in tau]
    m, n = g.split, g.n
    take = Counter(word[:m])                # class -> its qubits on the small side
    low = sorted(q for c, k in take.items() for q in fp.classes[c][:k])
    low_set = set(low)
    rep = low + [q for q in range(n) if q not in low_set]

    cls = fp.class_index
    off = len(fp.classes)
    key_tau = word[:m] + [c + off for c in word[m:]]
    key_rep = [cls[q] for q in low] + [cls[q] + off for q in rep[m:]]
    b = [0] * n
    for y, x in zip(sorted(range(n), key=key_tau.__getitem__),
                    sorted(range(n), key=key_rep.__getitem__)):
        b[y] = x
    return tuple(rep), tuple(b)


def split_b_tau(tau, fp, g):
    """B_τ on K_{M,N}: the order and edge classes of the product of the
    symmetric groups on the (class, side) parts of τ's class word."""
    part = [(fp.class_index[q], y < g.split) for y, q in enumerate(tau)]
    size = Counter(part)
    groups = {}
    for u, v in sorted(g.edges):
        groups.setdefault((part[u], part[v]), []).append((u, v))
    for (pu, pv), cl in groups.items():
        assert len(cl) == size[pu] * size[pv]
    return symmetry._finish(math.prod(map(math.factorial, size.values())), groups.values())


def use_split_oracles(monkeypatch):
    """Let the worklist run on a star or biclique: `canonical_form` and
    `b_tau` answer from the oracles above on split couplings."""
    for name, oracle in (("canonical_form", sides_oracle), ("b_tau", split_b_tau)):
        real = getattr(symmetry, name)

        def patched(tau, fp, g, real=real, oracle=oracle):
            return (real if g.split is None else oracle)(tau, fp, g)

        monkeypatch.setattr(symmetry, name, patched)


@functools.cache
def split_graph(n, m_side):
    return make("star" if m_side == 1 else "biclique", n=n, m_side=m_side)[0]


@functools.cache
def general_form(n, m_side):
    """The same K_{M,N}, given as an edge list: its group is listed."""
    return make("general", edges=sorted(split_graph(n, m_side).edges))[0]


PATTERNS = {"trivial": [(0, 1), (1, 2), (2, 3), (3, 4)], "pairs": [(0, 1), (2, 3)],
            "mixed": [(0, 1), (1, 2), (3, 4)], "idle": [(1, 3)]}


@pytest.mark.parametrize("m_side", [1, 2])
@pytest.mark.parametrize("pattern", sorted(PATTERNS))
def test_sides_oracle_is_brute_minimum(m_side, pattern):
    n = 5
    g = split_graph(n, m_side)
    c = decompose([RawGate(CNOT, p) for p in PATTERNS[pattern]], n=n)
    fp = fixing_pattern(c)
    auts = brute_automorphisms(g)
    stab = brute_pattern_stabilizer(c)
    for tau in itertools.permutations(range(n)):
        rep, b = sides_oracle(tau, fp, g)
        assert rep == min(compose(compose(a, tau), inverse(bb)) for a in stab for bb in auts)
        assert b in auts
        assert any(compose(compose(a, tau), inverse(b)) == rep for a in stab)


@pytest.mark.parametrize("m_side", [1, 2])
@pytest.mark.parametrize("pattern", sorted(PATTERNS))
def test_split_b_tau_against_brute_filter(m_side, pattern):
    n = 5
    g = split_graph(n, m_side)
    fp = fixing_pattern(decompose([RawGate(CNOT, p) for p in PATTERNS[pattern]], n=n))
    auts = brute_automorphisms(g)
    for tau in itertools.islice(itertools.permutations(range(n)), 0, None, 7):
        word = [fp.class_index[q] for q in tau]
        kept = [b for b in auts if all(word[x] == c for x, c in zip(b, word))]
        bt = split_b_tau(tau, fp, g)
        assert bt.order == len(kept), (pattern, tau)
        orbits = {frozenset(tuple(sorted((b[u], b[v]))) for b in kept) for u, v in g.edges}
        assert {frozenset(cl) for cl in bt.edge_orbits} == orbits
        assert all(cl == sorted(cl) for cl in bt.edge_orbits)


def random_gates(n, kind, rng):
    """Gate pairs for a pattern of the given kind on n qubits, over a
    shuffled qubit order: idle qubits beside a chain, isolated pairs beside
    a chain, isolated pairs beside idle qubits, or a mix of all three."""
    qs = list(range(n))
    rng.shuffle(qs)
    n_pairs = {"idle": 0, "pairs": rng.randint(1, n // 3),
               "pairs-idle": rng.randint(1, n // 3), "mixed": rng.randint(1, n // 4)}[kind]
    gates = [(qs[2 * i], qs[2 * i + 1]) for i in range(n_pairs)]
    rest = qs[2 * n_pairs:]
    chain = {"idle": rng.randint(3, max(3, n - 2)), "pairs": len(rest),
             "pairs-idle": 0, "mixed": rng.randint(0, len(rest))}[kind]
    if chain >= 3:
        gates += [(rest[i], rest[i + 1]) for i in range(chain - 1)]
    return gates


@pytest.mark.parametrize("kind", ["idle", "pairs", "pairs-idle", "mixed"])
def test_split_canonical_form_matches_sides_oracle(kind):
    # `canonical_form` on the star or biclique given as an edge list, n <= 8
    # (|Aut| <= 7! listed), gives the oracle's representative
    rng = random.Random(f"split-{kind}")
    for _ in range(CASES_PER_KIND):
        n = rng.randint(5, 8)
        m_side = 1 if rng.random() < 0.5 else rng.randint(2, (n - 1) // 2)
        g = split_graph(n, m_side)
        fp = fixing_pattern(decompose([RawGate(CNOT, p) for p in random_gates(n, kind, rng)],
                                      n=n))
        assert not fp.trivial
        im = list(range(n))
        rng.shuffle(im)
        tau = tuple(im)
        rep, b = sides_oracle(tau, fp, g)
        assert rep == canonical_form(tau, fp, general_form(n, m_side))[0], (n, m_side, tau)
        # b is an automorphism, and rep and τ·b⁻¹ have the same class word
        assert all(tuple(sorted((b[u], b[v]))) in g.edges for u, v in g.edges)
        moved = compose(tau, inverse(b))
        assert [fp.class_index[q] for q in moved] == [fp.class_index[q] for q in rep]
