"""Canonical forms on stars and bicliques against a side-by-side oracle.

`canonical_form` on a split graph fills τ's class word and lets
`canonical_right` sort each side.  The oracle is the earlier direct
construction: the small side takes the smallest members of each class it
holds, each side is sorted, and the witness pairs τ's locations with the
representative's locations of the same side and class, in order."""

import random
from collections import Counter

import pytest

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


def random_split_graph(n, rng):
    if rng.random() < 0.5:
        return make("star", n=n)[0]
    return make("biclique", n=n, m_side=rng.randint(2, (n - 1) // 2))[0]


@pytest.mark.parametrize("kind", ["idle", "pairs", "pairs-idle", "mixed"])
def test_split_canonical_form_matches_sides_oracle(kind):
    rng = random.Random(f"split-{kind}")
    for _ in range(CASES_PER_KIND):
        n = rng.randint(5, 40)
        g = random_split_graph(n, rng)
        fp = fixing_pattern(decompose([RawGate(CNOT, p) for p in random_gates(n, kind, rng)],
                                      n=n))
        assert not fp.trivial
        im = list(range(n))
        rng.shuffle(im)
        tau = tuple(im)
        rep, b = canonical_form(tau, fp, g)
        assert (rep, b) == sides_oracle(tau, fp, g), (g.family, n, tau)
        # rep and τ·b⁻¹ have the same class word
        moved = compose(tau, inverse(b))
        assert [fp.class_index[q] for q in moved] == [fp.class_index[q] for q in rep]
