"""Exact permutation arithmetic on {0, ..., n-1}.

A permutation is a plain ``tuple[int, ...]`` in one-line notation: ``p[x]``
is the image of ``x``.  A qubit order is a permutation from locations to
qubits, so ``tau[loc]`` reads "the qubit sitting at location ``loc``";
automorphisms, S_n(F) elements and orbit representatives are the same
tuples.  The identity on n points is ``tuple(range(n))``, and S_n in
lexicographic order is ``itertools.permutations(range(n))``.  Tuples built
inside the package are permutations by construction; `check` validates one
that arrives from outside.

Composition convention, fixed once and used everywhere: ``compose(p, q)`` is
*p after q*, i.e. ``compose(p, q)[x] == p[q[x]]``.  Consequently
``compose(tau, sigma)`` for a transposition ``sigma = (i j)`` exchanges the
qubits at locations ``i`` and ``j`` (a SWAP gate as a right action), while
``compose(a, tau)`` relabels qubits (a left action).

An unordered pair of points has one form everywhere: the sorted int tuple
that `pair` returns.  A two-qubit gate is a pair of qubits; a SWAP and a
coupling edge are pairs of locations, and ``swap(tau, *t)`` applies SWAP t.
A list of pairs is a graph on 0..n-1, and `components` splits it into its
connected components: the gate graph into the fixing pattern's classes, and
a coupling into one piece if it is connected.

Everything in this package is 0-based internally; the 1-based convention of
circuit files and CLI output is applied only at the I/O boundary (the
display helpers here emit 1-based text).
"""

from __future__ import annotations

Perm = tuple[int, ...]


def check(images: Perm) -> Perm:
    """``images``, if it is a permutation of 0..n-1; else ValueError."""
    if sorted(images) != list(range(len(images))):
        raise ValueError(f"not a permutation of 0..{len(images) - 1}: {images}")
    return images


def swap(tau: Perm, i: int, j: int) -> Perm:
    """Right-multiply by the transposition (i j): exchange the entries at
    positions i and j (the qubits at locations i and j)."""
    im = list(tau)
    im[i], im[j] = im[j], im[i]
    return tuple(im)


def pair(i: int, j: int) -> tuple[int, int]:
    """The unordered pair {i, j} as the sorted tuple ``(min, max)``: a
    two-qubit gate, a SWAP, or a coupling edge."""
    if i == j:
        raise ValueError(f"a pair needs two distinct points, got ({i}, {j})")
    return (i, j) if i < j else (j, i)


def components(n: int, pairs) -> list[list[int]]:
    """The connected components of the graph on 0..n-1 whose edges are
    ``pairs``, each sorted, in order of their smallest point."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b in pairs:
        adj[a].append(b)
        adj[b].append(a)
    seen = [False] * n
    out = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        comp = [start]
        for x in comp:                  # grows as the walk finds points
            for y in adj[x]:
                if not seen[y]:
                    seen[y] = True
                    comp.append(y)
        comp.sort()
        out.append(comp)
    return out


def compose(p: Perm, q: Perm) -> Perm:
    """Return p∘q, the permutation x ↦ p(q(x))."""
    if len(p) != len(q):
        raise ValueError(f"degree mismatch: {len(p)} vs {len(q)}")
    return tuple(map(p.__getitem__, q))


def inverse(p: Perm) -> Perm:
    im = [0] * len(p)
    for x, y in enumerate(p):
        im[y] = x
    return tuple(im)


def one_line_str(p: Perm) -> str:
    """1-based one-line notation, e.g. (3,1,2)."""
    return "(" + ",".join(str(x + 1) for x in p) + ")"
