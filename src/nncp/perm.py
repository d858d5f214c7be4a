"""Exact permutation arithmetic on {0, ..., n-1}.

Permutations are stored in one-line notation: ``images[x]`` is the image of
``x``.  A qubit order is a permutation from locations to qubits, so
``images[loc]`` reads "the qubit sitting at location ``loc``".

Composition convention, fixed once and used everywhere: ``compose(p, q)`` is
*p after q*, i.e. ``compose(p, q)(x) == p(q(x))``.  Consequently
``compose(tau, sigma)`` for a transposition ``sigma = (i j)`` exchanges the
qubits at locations ``i`` and ``j`` (a SWAP gate as a right action), while
``compose(a, tau)`` relabels qubits (a left action).

An unordered pair of points has one form everywhere: the sorted int tuple
that `pair` returns.  A two-qubit gate is a pair of qubits; a SWAP and a
coupling edge are pairs of locations, and ``tau.swap(*t)`` applies SWAP t.

Everything in this package is 0-based internally; the 1-based convention of
circuit files and CLI output is applied only at the I/O boundary (the
display helpers here emit 1-based text).
"""

from __future__ import annotations

from typing import Iterable, Sequence


class Permutation:
    """An immutable permutation of {0, ..., n-1} in one-line notation."""

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int]):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a permutation of 0..{len(images) - 1}: {images}")
        object.__setattr__(self, "images", images)

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x]

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __lt__(self, other: "Permutation") -> bool:
        return self.images < other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation({list(self.images)})"

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("Permutation is immutable")

    def swap(self, i: int, j: int) -> "Permutation":
        """Right-multiply by the transposition (i j): exchange the entries
        at positions i and j (the qubits at locations i and j)."""
        im = list(self.images)
        im[i], im[j] = im[j], im[i]
        return unchecked(tuple(im))


def pair(i: int, j: int) -> tuple[int, int]:
    """The unordered pair {i, j} as the sorted tuple ``(min, max)``: a
    two-qubit gate, a SWAP, or a coupling edge."""
    if i == j:
        raise ValueError(f"a pair needs two distinct points, got ({i}, {j})")
    return (i, j) if i < j else (j, i)


def unchecked(images: tuple[int, ...]) -> Permutation:
    """Wrap a tuple already known to be a permutation, skipping the
    O(n log n) check of the constructor."""
    p = object.__new__(Permutation)
    object.__setattr__(p, "images", images)
    return p


def identity(n: int) -> Permutation:
    return Permutation(range(n))


def compose(p: Permutation, q: Permutation) -> Permutation:
    """Return p∘q, the permutation x ↦ p(q(x))."""
    if p.n != q.n:
        raise ValueError(f"degree mismatch: {p.n} vs {q.n}")
    pi = p.images
    return unchecked(tuple(pi[x] for x in q.images))


def inverse(p: Permutation) -> Permutation:
    im = [0] * p.n
    for x, y in enumerate(p.images):
        im[y] = x
    return unchecked(tuple(im))


def one_line_str(p: Permutation) -> str:
    """1-based one-line notation, e.g. (3,1,2)."""
    return "(" + ",".join(str(x + 1) for x in p.images) + ")"


def all_permutations(n: int) -> Iterable[Permutation]:
    """Every element of S_n in lexicographic order (test/oracle helper)."""
    import itertools

    for im in itertools.permutations(range(n)):
        yield unchecked(im)
