"""Coupling-graph families and their automorphism groups.  A coupling's SWAP
alphabet is its edge set: each edge is a sorted location pair (see `perm`).

The structured families star and biclique carry their automorphism group
*symbolically* (its order only): `symmetry` builds their quotients and
replays their schedules from class vectors, so no order on them is ever
canonicalized and the (n-1)! group elements of a 100-location star are
never listed.  The cycle group (order 2n) and GENERAL groups (backtracking
search, small n only) are enumerated outright, with the inverse images and
stabilizer chain (`AutGroup.chain`) built alongside, and canonicalization
walks that chain instead of scanning the elements.

Location conventions are fixed once: star center = location 0, biclique
small side = the first M locations, cycle = 0..n-1 in ring order.  Bicliques
require M < N; for M = N the side-swapping symmetry would make the group
larger than the S_M × S_N handled here.  Note that for C_4 (and complete
graphs) the reduction group used downstream is still a valid automorphism
group, just possibly not the largest one.
"""

from __future__ import annotations

import math

from .errors import CapError, ParseError
from .perm import Perm, components, inverse

CYCLE = "cycle"
STAR = "star"
BICLIQUE = "biclique"
GENERAL = "general"

GENERAL_N_CAP = 10
GENERAL_ELEMENT_CAP = 50_000


class AutGroup:
    """Automorphism group of a coupling graph.

    The symbolic factorial-sized families (star, biclique) carry only the
    order.  Enumerated groups (cycle, GENERAL) also carry ``elements``,
    image tuples in sorted order; ``inverse_images[i]``, elements[i]⁻¹;
    and ``chain``, the stabilizer chain (Sims) as a trie of the inverse
    images: level k is a dict keyed by b⁻¹(k), over the elements that agree
    on b⁻¹(0..k-1), and a subtree holding a single element is that
    element's index in ``elements``.  `_enumerated` builds all three."""

    def __init__(self, order: int, elements: list[Perm] | None = None,
                 inverse_images: list[Perm] | None = None,
                 chain: dict | int | None = None):
        self.order = order
        self.elements = elements
        self.inverse_images = inverse_images
        self.chain = chain


def _enumerated(elements: list[Perm]) -> AutGroup:
    """The group of the listed elements, with its inverse images and chain."""
    inv = [inverse(b) for b in elements]

    def build(ids: list[int], k: int) -> dict | int:
        if len(ids) == 1:
            return ids[0]
        groups: dict[int, list[int]] = {}
        for i in ids:
            groups.setdefault(inv[i][k], []).append(i)
        return {y: build(sub, k + 1) for y, sub in groups.items()}

    return AutGroup(order=len(elements), elements=elements, inverse_images=inv,
                    chain=build(list(range(len(inv))), 0))


class CouplingGraph:
    """A connected coupling graph on locations 0..n-1, its family and its
    automorphism group; ``split`` is M for a star (1) or biclique K_{M,N},
    None otherwise.  ``trivial_layer`` is None until `symmetry.quotient_graph`
    builds the `symmetry.Layer` every trivial-pattern circuit shares on the
    coupling; it then holds that layer, with the columns and the BFS
    expander kept on it, for as long as the coupling lives (cycle-8: 26 MiB
    of chunk tables), and the layer is freed with it."""

    def __init__(self, n: int, edges: frozenset[tuple[int, int]], family: str,
                 aut: AutGroup, split: int | None = None):
        if len(components(n, edges)) > 1:
            raise ValueError("coupling graph must be connected")
        self.n = n
        self.edges = edges
        self.family = family
        self.aut = aut
        self.split = split
        self.trivial_layer = None


def _is_automorphism(p: Perm, edges: frozenset) -> bool:
    for a, b in edges:
        x, y = p[a], p[b]
        if ((x, y) if x < y else (y, x)) not in edges:
            return False
    return True


# ---------------------------------------------------------------------------
# family constructors

def make(family: str, n: int | None = None, m_side: int | None = None, edges=None
         ) -> tuple[CouplingGraph, tuple[tuple[int, int], ...], AutGroup]:
    """Build a coupling graph, its sorted edges (the SWAP alphabet) and its
    automorphism group ``g.aut``.  ``family`` is one of
    cycle/star/biclique/general; bicliques take the small-side size
    ``m_side`` (with ``1 <= m_side < n - m_side``); general graphs take an
    explicit 0-based edge list."""
    if family == CYCLE:
        g = _make_cycle(n)
    elif family == STAR:
        g = _make_biclique(n, 1)
    elif family == BICLIQUE:
        g = _make_biclique(n, m_side)
    elif family == GENERAL:
        g = _make_general(edges)
    else:
        raise ValueError(f"unknown coupling family {family!r}")
    return g, tuple(sorted(g.edges)), g.aut


def _make_cycle(n: int) -> CouplingGraph:
    if n is None or n < 3:
        raise ValueError("cycle needs n >= 3")
    edges = frozenset(tuple(sorted((i, (i + 1) % n))) for i in range(n))
    # rotations x ↦ s + x and reflections x ↦ s − x
    elements = sorted(tuple((s + sign * x) % n for x in range(n))
                      for s in range(n) for sign in (1, -1))
    assert all(_is_automorphism(b, edges) for b in elements)
    return CouplingGraph(n=n, edges=edges, family=CYCLE, aut=_enumerated(elements))


def _make_biclique(n: int, m: int) -> CouplingGraph:
    """K_{M,N} with M = ``m`` < N = n - m; m = 1 is the star K_{1,N}."""
    if n is None or m is None:
        raise ValueError("biclique needs n and the small-side size")
    if m == 1 and n - 1 < 2:
        raise ValueError("star needs at least 2 leaves")
    if not 1 <= m < n - m:
        raise ValueError(f"biclique needs 1 <= M < N, got M={m}, N={n - m}")
    edges = frozenset((i, j) for i in range(m) for j in range(m, n))
    family = STAR if m == 1 else BICLIQUE
    aut = AutGroup(order=math.factorial(m) * math.factorial(n - m))
    return CouplingGraph(n=n, edges=edges, family=family, aut=aut, split=m)


def _make_general(edge_list) -> CouplingGraph:
    if not edge_list:
        raise ValueError("general coupling needs a nonempty edge list")
    edges = frozenset(tuple(sorted(e)) for e in edge_list)
    n = max(max(e) for e in edges) + 1
    for a, b in edges:
        if a == b or a < 0:
            raise ValueError(f"bad edge ({a}, {b})")
    if n > GENERAL_N_CAP:
        raise CapError(f"general automorphism search capped at n <= {GENERAL_N_CAP}, got n={n}")
    elements = _enumerate_automorphisms(n, edges)
    elements.sort()
    return CouplingGraph(n=n, edges=edges, family=GENERAL, aut=_enumerated(elements))


def _enumerate_automorphisms(n: int, edges: frozenset) -> list[Perm]:
    """All edge-preserving vertex bijections, by degree-respecting backtracking."""
    adj = [set() for _ in range(n)]
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    deg = [len(a) for a in adj]
    out: list[Perm] = []

    def extend(partial: list[int], used: set[int]):
        v = len(partial)
        if v == n:
            out.append(tuple(partial))
            if len(out) > GENERAL_ELEMENT_CAP:
                raise CapError(
                    f"automorphism group larger than cap {GENERAL_ELEMENT_CAP}")
            return
        for cand in range(n):
            if cand in used or deg[cand] != deg[v]:
                continue
            ok = True
            for u in range(v):
                if (u in adj[v]) != (partial[u] in adj[cand]):
                    ok = False
                    break
            if ok:
                partial.append(cand)
                used.add(cand)
                extend(partial, used)
                partial.pop()
                used.discard(cand)

    extend([], set())
    return out


def coupling_from_descriptor(desc: str, n: int) -> CouplingGraph:
    """CLI descriptor → coupling graph: ``star``, ``cycle``, ``biclique:M``,
    or ``file:PATH`` (1-based "u v" edge lines).  A graph the family rejects
    or an unreadable file raises ParseError."""
    try:
        if desc == STAR:
            return _make_biclique(n, 1)
        if desc == CYCLE:
            return _make_cycle(n)
        if desc.startswith("biclique:"):
            try:
                m = int(desc.split(":", 1)[1])
            except ValueError:
                raise ParseError(f"bad biclique descriptor {desc!r}")
            return _make_biclique(n, m)
        if desc.startswith("file:"):
            path = desc.split(":", 1)[1]
            edge_list = []
            with open(path) as fh:
                for lineno, raw in enumerate(fh, start=1):
                    line = raw.split("#", 1)[0].strip()
                    if not line:
                        continue
                    try:
                        u, v = map(int, line.split())
                    except ValueError:
                        raise ParseError(f"bad edge line {line!r}", line=lineno)
                    if min(u, v) < 1:
                        raise ParseError(f"edge {line!r}: locations are 1-based", line=lineno)
                    edge_list.append((u - 1, v - 1))
            size = max((max(e) + 1 for e in edge_list), default=n)
            if size != n:               # before the automorphism search and its cap
                raise ParseError(
                    f"coupling file covers {size} locations, circuit has {n} qubits")
            return _make_general(edge_list)
    except (ValueError, OSError) as exc:    # ParseError is neither
        raise ParseError(f"coupling {desc!r}: {exc}") from None
    raise ParseError(f"unknown coupling descriptor {desc!r}")


# ---------------------------------------------------------------------------
# canonical coset representatives

def enumerated_aut(g: CouplingGraph) -> AutGroup:
    """``g``'s automorphism group, with its elements and chain listed.  A
    star or biclique stores only the group's order, because its orders are
    handled by class vectors; it raises ValueError."""
    if g.aut.elements is None:
        raise ValueError(f"{g.family} couplings are handled by class vectors, "
                         "not by canonicalizing over a listed automorphism group")
    return g.aut


def canonical_right(tau: Perm, g: CouplingGraph) -> tuple[Perm, Perm]:
    """Lexicographically smallest element of the left coset τ·Aut(Coup(E)),
    plus a witness ``b`` with ``tau_star == compose(tau, inverse(b))``, on a
    cycle or general coupling (a star or biclique raises ValueError).

    It is a greedy walk down the group's stabilizer chain: τ·b⁻¹ puts
    qubit τ(b⁻¹(k)) at location k, and τ is injective, so each level has
    one child y with the smallest τ(y), and the walk ends at the unique
    minimizing element (O(n·depth), not O(|Aut|·n)).
    """
    aut = enumerated_aut(g)
    node = aut.chain
    while node.__class__ is dict:
        node = node[min(node, key=tau.__getitem__)]
    return tuple(map(tau.__getitem__, aut.inverse_images[node])), aut.elements[node]
