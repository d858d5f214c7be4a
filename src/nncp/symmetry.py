"""Orbit and orbital structure of the layered search graph.

The solver never touches the m·n! concrete qubit orders.  A qubit order τ is
identified with every aτb⁻¹ for a in the gate-side stabilizer S_n(F) (qubit
relabelings that fix each fixing-pattern class) and b in Aut(Coup(E))
(location relabelings).  This module computes

  * orbits and orbitals.  On a star/biclique (K_{M,N}, the couplings with a
    ``g.split``; `lp` reads it too, to take a star's level masks in closed
    form) they are built in closed form: an orbit is fixed by its class
    vector, the number of qubits of each pattern class on the small side
    (`_split_nodes`), and a swap trades one class on the small side for one
    on the large side (`_split_columns`).  The vectors and the arcs are
    counted before any is built, so an oversized quotient fails at once.
    `layer_orbits` builds only the orbits there: the arc columns wait for
    their first read, and a star solve never reads them, so a star's arc
    count is capped only when they are built.  A schedule is
    replayed from the same vectors (`_split_step`).  Nothing on these
    couplings is canonicalized, and their group of (n-1)! or M!·N!
    elements is never listed;
  * canonical forms, on cycle/general couplings, whose group is enumerated
    with a stabilizer chain (the ``AutGroup.chain`` field) — the
    lexicographically smallest member of S_n(F)·τ·Aut.  S_n(F) is *every*
    relabeling inside the pattern classes, so the left S_n(F)-orbit of an
    order is exactly the set of orders with the same class word (location
    → class of its qubit), and its smallest member hands out each class's
    qubits in ascending order along the locations.  The canonical form is
    that minimum taken down the chain as well.  S_n(F) = Π_c Sym(c), of
    order Π_c |c|!, is never enumerated, so idle qubits and isolated pairs
    cost nothing extra;
  * B_τ — the stabilizer of τ's class word in Aut(Coup(E)), found by a walk
    down the stabilizer chain that keeps each level's children whose
    location holds the level's class; its order gives the orbit size via
    orbit–stabilizer, and its edge classes give the out-degrees;
  * on cycle/general, the orbits and orbitals come from one worklist pass
    (`_worklist_orbits`): each orbit's representative is moved along the
    first edge of each B_τ edge class, which gives the arc and any new
    orbit; each orbital and its reverse share one canonicalization, and the
    witness names the reverse edge.  One edge per class is enough, because
    τ·b = a·τ (a in S_n(F)) for b in B_τ, so moves along e and b(e) land in
    the same orbit.  The orbits of one B_τ share their arcs' edges and
    out-degrees, so only the destinations are each orbit's own.  Either
    way, an arc stores only its out-degree;
  * the quotient graph: orbit nodes, orbital arcs, and per-gate compliance
    marks.  All layers share one node/arc structure since the layers are
    identical copies; only the compliance marks vary by gate.  A `Layer`
    holds it: the orbits, and the arcs as typed-array columns in CSR form,
    sorted by source (per-orbit offsets and per-arc ``dst``, ``u``, ``v``
    and ``d_out``, no object per arc), which both builders fill orbit by
    orbit.  An orbital holds |src|·d_out concrete moves, which is |dst|·d_in
    counted from its other end, so `Layer.d_in` computes the in-degree on
    demand from the out-degree and the two orbit sizes.  A `QuotientGraph`
    is a layer plus one circuit's compliance lists.  `layer_orbits` builds
    every layer.  Under a trivial pattern the layer depends on the coupling
    alone, so any coupling keeps it (``g.trivial_layer``) for every circuit
    solved there, with its columns and the BFS expander `lp` keeps on it.

`snf_elements` still lists S_n(F) outright, as an enumeration oracle for
tests; nothing on the solve path calls it.
"""

from __future__ import annotations

import itertools
import math
import operator
from array import array
from bisect import bisect_right, insort
from functools import cached_property

from .circuit import Circuit, FixingPattern, fixing_pattern
from .coupling import CouplingGraph, canonical_right, enumerated_aut
from .errors import CapError
from .perm import Perm, pair

ORBIT_NODE_CAP = 5_000_000
SNF_ELEMENT_CAP = 100_000

Edge = tuple[int, int]
# a layer's orbitals as columns: offsets, dst, u, v, d_out (see Layer)
Columns = tuple[array, array, array, array, array]


# ---------------------------------------------------------------------------
# the stabilizer S_n(F) on the qubit side

def snf_elements(fp: FixingPattern, n: int) -> list[Perm]:
    """All qubit relabelings that map every fixing-pattern class onto
    itself: S_n(F) = Π_c Sym(c), Π_c |c|! elements, in sorted order.  An
    enumeration oracle for tests; the solve path works with class words
    instead (see `canonical_form`)."""
    if fp.group_order > SNF_ELEMENT_CAP:
        raise CapError(
            f"stabilizer S_n(F) has {fp.group_order} elements, cap is {SNF_ELEMENT_CAP}")
    out = []
    for images in itertools.product(*map(itertools.permutations, fp.classes)):
        im = [0] * n
        for cl, img in zip(fp.classes, images):
            for q, x in zip(cl, img):
                im[q] = x
        out.append(tuple(im))
    out.sort()
    return out


# ---------------------------------------------------------------------------
# class words

def _class_word(tau: Perm, fp: FixingPattern) -> list[int]:
    """τ's class word: location -> pattern class of the qubit placed there."""
    return list(map(fp.class_index.__getitem__, tau))


# ---------------------------------------------------------------------------
# B_tau and its edge classes

class BTau:
    """Stabilizer (inside Aut(Coup(E))) of τ's class word: its order, and
    its orbit partition of the coupling edges, each class listed from its
    smallest edge.  The class sizes are the out-degrees of τ's orbit."""

    def __init__(self, order: int, edge_orbits: list[list[Edge]]):
        self.order = order
        self.edge_orbits = edge_orbits


def _finish(order, groups) -> BTau:
    """Package edge classes deterministically (sorted by representative)."""
    return BTau(order, sorted((sorted(g) for g in groups), key=lambda cl: cl[0]))


def b_tau(tau: Perm, fp: FixingPattern, g: CouplingGraph) -> BTau:
    """B_τ: the automorphisms b with ``word[b(y)] == word[y]`` for τ's class
    word, i.e. those that map every pattern class pulled back through τ onto
    itself, so that τ·b = a·τ for some a in S_n(F).  Equivalently
    ``word[b⁻¹(k)] == word[k]`` at every location k, which is what a walk
    down Aut's stabilizer chain (``aut.chain``) tests level by level: at
    level k it keeps the children y = b⁻¹(k) with ``word[y] == word[k]``,
    and a collapsed leaf checks its own inverse image.  The surviving leaves
    are B_τ; ``aut.elements`` is indexed by them, never scanned.  A star or
    biclique raises ValueError, unless the pattern is trivial and B_τ is the
    identity alone."""
    if not fp.trivial:
        word = _class_word(tau, fp)
        aut = enumerated_aut(g)
        inv = aut.inverse_images
        frontier = [aut.chain]
        for k, c in enumerate(word):
            survivors = []
            for node in frontier:
                if node.__class__ is dict:
                    survivors += [child for y, child in node.items() if word[y] == c]
                elif word[inv[node][k]] == c:
                    survivors.append(node)
            frontier = survivors
        if len(frontier) > 1:
            kept = list(map(aut.elements.__getitem__, frontier))
            return _finish(len(kept), _edge_orbits_under(kept, sorted(g.edges)))
    return _IdentityBTau(g.edges)


class _IdentityBTau(BTau):
    """B_τ = {1}, always so when every pattern class is a singleton: each
    edge is its own class.  The classes are listed on first read, because
    the worklist reads only the order of a B_τ = {1}."""
    order = 1

    def __init__(self, edges: frozenset[Edge]):
        self.edges = edges

    @cached_property
    def edge_orbits(self) -> list[list[Edge]]:
        return [[e] for e in sorted(self.edges)]


def _edge_orbits_under(group: list[Perm], edges: list[Edge]) -> list[list[Edge]]:
    """Edge orbits under a group listed element by element: each orbit is
    the image set of one of its edges."""
    remaining = set(edges)
    groups = []
    while remaining:
        u, v = min(remaining)
        orb = {(x, y) if x < y else (y, x)
               for x, y in ((b[u], b[v]) for b in group)}
        groups.append(orb)
        remaining -= orb
    return groups


# ---------------------------------------------------------------------------
# orbit enumeration

class OrbitNode:
    __slots__ = ("rep", "orbit_size")

    def __init__(self, rep: Perm, orbit_size: int):
        self.rep = rep              # the orbit's smallest member
        self.orbit_size = orbit_size


def canonical_form(tau: Perm, fp: FixingPattern, g: CouplingGraph
                   ) -> tuple[Perm, Perm]:
    """Canonical representative of the full orbit S_n(F)·τ·Aut(Coup(E)):
    its lexicographically smallest member.  Returns the representative and
    a witness ``b`` with ``rep == compose(a, compose(tau, inverse(b)))`` for
    some qubit relabeling ``a`` in S_n(F) (``a`` never matters downstream:
    it moves qubit labels, not locations).

    The left S_n(F)-orbit of τ·b⁻¹ is the set of orders sharing its class
    word, and the smallest of them is that word's fill: each location takes
    the smallest unused qubit of its class.  The fill is minimized down
    Aut's stabilizer chain (``aut.chain``), keeping every child that ties
    for the smallest next qubit; of the minimizing elements the witness is
    the first in ``aut.elements``.  S_n(F) itself is never listed.  A
    trivial pattern is plain coset canonicalization.  Cycle and general
    couplings only: a star or biclique raises ValueError, as its orbits
    are class vectors (`_split_nodes`)."""
    if fp.trivial:
        return canonical_right(tau, g)
    word = _class_word(tau, fp)

    # Walk the stabilizer chain with the frontier of tied nodes.  Every
    # survivor has put the same qubits on locations 0..k-1, so ``used`` is
    # shared, and child y is worth the next unused qubit of y's class.
    aut = enumerated_aut(g)
    inv = aut.inverse_images
    cls = fp.class_index
    classes = fp.classes
    used = [0] * len(classes)
    rep = []
    frontier = [aut.chain]
    for k in range(g.n):
        best = None
        survivors = []
        for node in frontier:
            # a collapsed leaf holds one element: its next inverse image
            kids = node.items() if node.__class__ is dict else ((inv[node][k], node),)
            for y, child in kids:
                c = word[y]
                q = classes[c][used[c]]
                if best is None or q < best:
                    best = q
                    survivors = [child]
                elif q == best:
                    survivors.append(child)
        rep.append(best)
        used[cls[best]] += 1
        frontier = survivors
    # the survivors are leaves now; the witness is the first in aut.elements
    return tuple(rep), aut.elements[min(frontier)]


def layer_orbits(fp: FixingPattern, g: CouplingGraph
                 ) -> tuple[list[OrbitNode], Columns | None]:
    """Orbits of a layer and their orbitals, the one builder of a layer.
    Nodes come out sorted by representative, arcs by source node and then
    by edge (u, v), the smallest edge of the arc's B_τ edge class, as the
    columns of `Layer`: offsets, dst, u, v and d_out.

    A split coupling (star or biclique) lists its orbits in closed form
    from class vectors, with no canonicalization (`_split_nodes`), and
    returns None for the columns: the `Layer` builds them from the
    nodes on first read (`_split_columns`).  Cycle and general couplings
    are found by the worklist (`_worklist_orbits`).  The two share no code:
    tests check the closed form against the worklist run on the same star
    or biclique given as a general edge list."""
    if g.split is not None:
        return _split_nodes(fp, g), None
    return _worklist_orbits(fp, g)


def _split_counts(sizes: list[int], m: int) -> tuple[int, int]:
    """Node and arc counts of the split quotient.  The nodes are the vectors
    k with Σ k_c = m and 0 <= k_c <= sizes[c], the coefficient of x^m in
    Π_c (1 + x + … + x^sizes[c]).  A vector has one arc per class on the
    small side (k_c > 0) and class with room on the large side
    (k_d < sizes[d]), so the arcs are Σ_k A(k)·B(k) over those two counts."""
    # per small-side total j: the vectors so far and their Σ A, Σ B, Σ A·B
    acc = [(1, 0, 0, 0)] + [(0, 0, 0, 0)] * m
    for s in sizes:
        nxt = []
        for j in range(m + 1):
            vecs = sum_a = sum_b = sum_ab = 0
            for t in range(min(s, j) + 1):
                n0, a0, b0, ab0 = acc[j - t]
                x, y = int(t > 0), int(t < s)
                vecs += n0
                sum_a += a0 + x * n0
                sum_b += b0 + y * n0
                sum_ab += ab0 + x * b0 + y * a0 + x * y * n0
            nxt.append((vecs, sum_a, sum_b, sum_ab))
        acc = nxt
    return acc[m][0], acc[m][3]


def _small_sides(sizes: list[int], m: int) -> list[tuple[int, ...]]:
    """Every class vector k with Σ k_c = m and 0 <= k_c <= sizes[c], as the
    non-decreasing tuple of classes it puts on the small side (class c
    k_c times).  A tuple that repeats no class fits, since every class has
    a qubit, so only the others are counted."""
    out = []
    for small in itertools.combinations_with_replacement(range(len(sizes)), m):
        classes = set(small)
        if len(classes) == m or all(small.count(c) <= sizes[c] for c in classes):
            out.append(small)
    return out


def _check_cap(what: str, count: int):
    if count > ORBIT_NODE_CAP:
        raise CapError(f"{what} count {count} exceeds cap {ORBIT_NODE_CAP}; "
                       "use a more symmetric coupling family or smaller n")


def _split_nodes(fp: FixingPattern, g: CouplingGraph) -> list[OrbitNode]:
    """The orbits of K_{M,N}, sorted by representative.  The caps are
    checked on the counts before any orbit is built: the orbit count always,
    the arc count (`_split_counts`) on a biclique, whose solve reads the
    arcs; a star solve reads none, so `_split_columns` checks it there.

    Aut is every relabeling that keeps each side, so an orbit of
    S_n(F) × Aut is fixed by its class vector k: k_c qubits of pattern class
    c sit on the small side, Σ k_c = M.  Its representative puts the k_c
    smallest qubits of each class on the small side and sorts each side,
    the smallest member of the orbit.  The orbit size is
    |G| / Π_c k_c!·(|c| − k_c)!, that is |Aut|·Π_c C(|c|, k_c), since
    |S_n(F)| = Π_c |c|!.  On a star (M = 1) k is one class, the class of
    the centre qubit, and the representative puts that class's first qubit
    at the centre and the rest in ascending order."""
    m, n = g.split, g.n
    classes = fp.classes
    qubits = tuple(range(n))
    if m == 1:
        # a star's small side is its centre: one orbit per class, the class
        # of the qubit there, of size |Aut|·|c|
        _check_cap("orbit", len(classes))
        return [OrbitNode(rep=(cl[0], *qubits[:cl[0]], *qubits[cl[0] + 1:]),
                          orbit_size=g.aut.order * len(cl)) for cl in classes]
    sizes = [len(cl) for cl in classes]
    count, arc_count = _split_counts(sizes, m)
    _check_cap("orbit", count)
    _check_cap("arc", arc_count)
    found = []          # (rep, Π_c C(|c|, k_c))
    for small in _small_sides(sizes, m):
        k = dict.fromkeys(small, 0)
        for c in small:
            k[c] += 1
        on_small = sorted(q for c, kc in k.items() for q in classes[c][:kc])
        # the large side: the runs of qubits between those on the small side
        runs = zip([0, *[q + 1 for q in on_small]], [*on_small, n])
        rep = sum((qubits[lo:hi] for lo, hi in runs), tuple(on_small))
        found.append((rep, math.prod(math.comb(sizes[c], kc) for c, kc in k.items())))
    found.sort(key=operator.itemgetter(0))
    return [OrbitNode(rep=rep, orbit_size=g.aut.order * ways) for rep, ways in found]


def _split_columns(fp: FixingPattern, m: int, nodes: list[OrbitNode]) -> Columns:
    """The arcs of K_{m,N}'s orbits ``nodes`` (`_split_nodes`), as columns.
    A swap trades a class-c qubit on the small side for a class-d qubit on
    the large side: one arc per such (c, d), along the edge from c's first
    small-side location to d's first large-side location of the
    representative, to k − e_c + e_d, with ``d_out = k_c·(|d| − k_d)``;
    c = d is a self-loop.  The arc cap is checked before any column is
    filled."""
    classes = fp.classes
    sizes = [len(cl) for cl in classes]
    _check_cap("arc", _split_counts(sizes, m)[1])
    cls = fp.class_index
    # a class vector's key is Σ k_c·weight[c], its mixed-radix number
    weight = list(itertools.accumulate([s + 1 for s in sizes[:-1]], operator.mul, initial=1))
    keys = [sum(weight[cls[q]] for q in node.rep[:m]) for node in nodes]
    dst_of = {key: i for i, key in enumerate(keys)}.__getitem__

    columns = offsets, dst, us, vs, d_out = _empty_columns()
    for node, key in zip(nodes, keys):
        rep = node.rep
        k = [0] * len(classes)
        for q in rep[:m]:
            k[cls[q]] += 1
        # each class's first location on either side, in location order: the
        # sides are sorted and every class lists its members in ascending order
        low = [(u, cls[q]) for u, q in enumerate(rep[:m]) if q == classes[cls[q]][0]]
        # the large side holds a qubit of every class with room there, so
        # neither list is empty
        hv, hw, room = zip(*[(v, weight[d], sizes[d] - k[d]) for v, q in enumerate(rep[m:], m)
                             for d in (cls[q],) if q == classes[d][k[d]]])
        for u, c in low:
            dst.fromlist(list(map(dst_of, map((key - weight[c]).__add__, hw))))
            us.fromlist([u] * len(hv))
            vs.fromlist(list(hv))
            d_out.fromlist(list(map(k[c].__mul__, room)))
        offsets.append(len(dst))
    return columns


def _empty_columns() -> Columns:
    """Offsets [0] and empty dst, u, v and d_out columns.  Orbit ids (under
    `ORBIT_NODE_CAP`) and locations are C ints.  An offset counts arcs, up to
    orbits·|E|, and a d_out is at most |E|, which is M·N on K_{M,N}: either
    may pass 2^31 − 1, so those two are 64-bit."""
    return array("q", [0]), array("i"), array("i"), array("i"), array("q")


def replay_step(q: QuotientGraph, entry: Perm):
    """``step(tau, v, w)`` for `reconstruct`'s walk from ``entry``: the swap
    that moves the current order ``tau``, in orbit ``v``, into orbit ``w``,
    or None for a hop it cannot take.  A star or biclique steps by class vectors
    (`_split_step`), a cycle or general coupling along v's first arc into w
    (`_canonical_step`)."""
    if q.coupling.split is None:
        return _canonical_step(q)
    return _split_step(q, entry)


def _split_step(q: QuotientGraph, entry: Perm):
    """`replay_step` on K_{M,N}, with no canonicalization and no arc.

    Per pattern class it keeps the sorted small-side and large-side
    locations of the current order.  The hop trades the one class c that
    the order holds on the small side more often than w's representative
    does for the one class d that w holds more often, so it swaps the
    lowest small-side location of c with the lowest large-side location of
    d: the edge of v's first arc into w (`_split_columns`), moved onto the
    order.  A hop into an orbit with the same class vector is refused: its
    swap is not fixed by the two vectors, and a shortest walk never takes
    one."""
    m = q.coupling.split
    cls = q.fp.class_index
    at = cls.__getitem__
    nodes = q.nodes
    small: list[list[int]] = [[] for _ in q.fp.classes]
    large: list[list[int]] = [[] for _ in q.fp.classes]
    for y, x in enumerate(entry):
        (small if y < m else large)[cls[x]].append(y)   # ascending

    if m == 1:
        def star_step(tau: list[int], v: int, w: int) -> tuple[int, int] | None:
            # trade the centre's class c for w's centre class d; the centre
            # is the only small-side location, so only ``large`` changes
            c, d = cls[tau[0]], cls[nodes[w].rep[0]]
            if c == d:
                return None
            z = large[d].pop(0)
            insort(large[c], z)
            return 0, z

        return star_step

    def step(tau: list[int], v: int, w: int) -> tuple[int, int] | None:
        lost = list(map(at, tau[:m]))
        gained = []
        for d in map(at, nodes[w].rep[:m]):
            if d in lost:
                lost.remove(d)
            else:
                gained.append(d)
        if len(gained) != 1:
            return None
        (c,), (d,) = lost, gained
        y = small[c].pop(0)
        z = large[d].pop(0)
        insort(small[d], y)
        insort(large[c], z)
        return y, z

    return step


def _canonical_step(q: QuotientGraph):
    """`replay_step` on a cycle or general coupling: take v's first arc
    into w, canonicalize the order, τ ↦ (rep, b), and swap along the edge
    b⁻¹ maps onto the arc's edge."""
    offsets, dst, us, vs, fp, g = q.offsets, q.dst, q.u, q.v, q.fp, q.coupling

    def step(tau: list[int], v: int, w: int) -> tuple[int, int] | None:
        try:
            ai = dst.index(w, offsets[v], offsets[v + 1])
        except ValueError:
            return None
        _, b = canonical_form(tuple(tau), fp, g)
        at = b.index                    # b⁻¹ at one point, with no whole inverse
        return pair(at(us[ai]), at(vs[ai]))

    return step


class _Shape:
    """What an orbit's arcs share with every orbit of the same B_τ: the
    orbit size, the class index of each edge (keyed by the edge in either
    orientation), each class's first edge, and the arcs' u, v and d_out
    columns.  Only the destinations are the orbit's own."""
    __slots__ = ("size", "class_of", "firsts", "u", "v", "d_out")

    def __init__(self, bt: BTau, group_order: int):
        size, remainder = divmod(group_order, bt.order)
        assert remainder == 0
        self.size = size
        self.class_of = {}
        for k, cl in enumerate(bt.edge_orbits):
            for u, v in cl:
                self.class_of[u, v] = self.class_of[v, u] = k
        self.firsts = [cl[0] for cl in bt.edge_orbits]
        self.u = array("i", [u for u, _ in self.firsts])
        self.v = array("i", [v for _, v in self.firsts])
        self.d_out = array("q", map(len, bt.edge_orbits))


def _worklist_orbits(fp: FixingPattern, g: CouplingGraph
                     ) -> tuple[list[OrbitNode], Columns]:
    """`layer_orbits` for any coupling, in one worklist pass.

    B_τ is computed when an orbit is found (never under a trivial pattern,
    where every B_τ is {1}), and the orbits of one B_τ share its `_Shape`;
    every B_τ of {1} shares one.  Per B_τ edge class, the representative
    moved along the class's first edge names the destination orbit (new if
    unseen), and the class size is ``d_out``.  Each orbital and its reverse
    share one canonicalization; the witness names the reverse edge.  If
    orbit i's representative ρ moved along (u, v) canonicalizes to
    (ρ_j, b), then ρ_j = a·ρ·(u v)·b⁻¹ for some a in S_n(F), so ρ_j moved
    along (b(u), b(v)) is a·ρ·b⁻¹, in orbit i.  When j comes later, that
    edge's class of B_{ρ_j} takes i as its destination with no
    canonicalization; so there is one call for the start order, one per
    self-loop and one per pair of reverse arcs."""
    group_order = fp.group_order * g.aut.order
    identity = _Shape(_IdentityBTau(g.edges), group_order)
    shapes: dict[tuple, _Shape] = {}        # the others, by order and edge classes

    def shape_of(rep: Perm) -> _Shape:
        if fp.trivial:
            return identity
        bt = b_tau(rep, fp, g)
        if bt.order == 1:
            return identity
        key = (bt.order, *map(tuple, bt.edge_orbits))
        shape = shapes.get(key)
        if shape is None:
            shape = shapes[key] = _Shape(bt, group_order)
        return shape

    start, _ = canonical_form(tuple(range(g.n)), fp, g)
    reps = [start]
    index = {start: 0}
    orbit_shapes = [shape_of(start)]
    # per orbit, the destination of each of its shape's edge classes, in
    # discovery ids; None until a move or a reverse move names it
    dests: list[list[int | None]] = [[None] * len(orbit_shapes[0].firsts)]
    for i, rep in enumerate(reps):          # grows as orbits are found
        dest = dests[i]
        moved = list(rep)                   # rep, with one edge swapped at a time
        for k, (u, v) in enumerate(orbit_shapes[i].firsts):
            if dest[k] is not None:
                continue
            moved[u], moved[v] = moved[v], moved[u]
            dst_rep, b = canonical_form(tuple(moved), fp, g)
            moved[u], moved[v] = moved[v], moved[u]
            j = index.get(dst_rep)
            if j is None:
                if len(reps) >= ORBIT_NODE_CAP:
                    raise CapError(
                        f"orbit count exceeds cap {ORBIT_NODE_CAP}; "
                        "use a more symmetric coupling family or smaller n")
                j = len(reps)
                index[dst_rep] = j
                reps.append(dst_rep)
                orbit_shapes.append(shape_of(dst_rep))
                dests.append([None] * len(orbit_shapes[j].firsts))
            if j > i:
                dests[j][orbit_shapes[j].class_of[b[u], b[v]]] = i
            dest[k] = j

    # renumber the orbits by representative, and fill the columns to match
    order = sorted(range(len(reps)), key=reps.__getitem__)
    new_id = [0] * len(order)
    for k, i in enumerate(order):
        new_id[i] = k
    renumber = new_id.__getitem__
    nodes = []
    offsets, dst, us, vs, d_out = columns = _empty_columns()
    for i in order:
        shape = orbit_shapes[i]
        nodes.append(OrbitNode(rep=reps[i], orbit_size=shape.size))
        dst.fromlist(list(map(renumber, dests[i])))
        us += shape.u
        vs += shape.v
        d_out += shape.d_out
        offsets.append(len(dst))
    return nodes, columns


# perfbench/spans.py wraps this name; nothing calls it
layer_orbitals = layer_orbits


# ---------------------------------------------------------------------------
# the full quotient structure

# a layer's orbital columns, as Layer holds them
_COLUMNS = ("offsets", "dst", "u", "v", "d_out")


class Layer:
    """One layer's orbit/orbital structure, shared by every gate of a
    circuit, and under a trivial pattern by every circuit on the coupling.
    The orbitals are held as columns (typed arrays), one entry per arc and
    sorted by source: arc ``ai`` moves orbit ``src(ai)`` along the B_τ edge
    class of the edge (``u[ai]``, ``v[ai]``), u < v, into orbit ``dst[ai]``,
    ``d_out[ai]`` ways per member of the source.  Orbit i's arcs are
    ``offsets[i]:offsets[i + 1]``, so neither the source nor the in-degree
    (`d_in`) is stored; ``arcs`` is the range of arc ids.  On K_{M,N}
    (``split`` is M) ``columns`` is None: `_split_columns` builds them from
    the class vectors when one is first read, and ``arcs`` is counted
    without them.  ``expand`` holds the BFS level expander (`lp._expander`)."""

    def __init__(self, fp: FixingPattern, split: int | None,
                 nodes: list[OrbitNode], columns: Columns | None):
        self.fp = fp
        self.split = split
        self.nodes = nodes
        if columns is not None:
            self.offsets, self.dst, self.u, self.v, self.d_out = columns
        self.expand = None

    def __getattr__(self, name: str):
        # called only for a missing attribute, so once a split layer's
        # columns are built, reading them costs nothing extra
        if name not in _COLUMNS or "nodes" not in self.__dict__:
            raise AttributeError(name)
        columns = _split_columns(self.fp, self.split, self.nodes)
        for key, col in zip(_COLUMNS, columns):
            setattr(self, key, col)
        return self.__dict__[name]

    @property
    def arcs(self) -> range:
        if "dst" in self.__dict__:
            return range(len(self.dst))
        return range(_split_counts([len(cl) for cl in self.fp.classes], self.split)[1])

    def src(self, ai: int) -> int:
        """The source orbit of arc ``ai``: the last orbit whose arcs start at
        or before it."""
        return bisect_right(self.offsets, ai) - 1

    def d_in(self, ai: int) -> int:
        """Moves of arc ``ai`` per member of its destination, by
        orbit–stabilizer: the orbital's |src|·d_out concrete moves are
        |dst|·d_in."""
        d_in, remainder = divmod(self.nodes[self.src(ai)].orbit_size * self.d_out[ai],
                                 self.nodes[self.dst[ai]].orbit_size)
        assert remainder == 0
        return d_in


class QuotientGraph:
    """A circuit's quotient on ``coupling``: its `Layer`, whose fields it
    reads through, and ``compliant[k]``, the orbit ids whose members put
    gate k's qubits on adjacent locations; gates on one qubit pair share the
    list.  The source arcs (one per orbit, out-degree = orbit size) and sink
    arcs (one per compliant orbit of the last gate, in-degree = orbit size)
    are implicit."""

    def __init__(self, coupling: CouplingGraph, layer: Layer, compliant: list[list[int]]):
        self.coupling = coupling
        self.layer = layer
        self.compliant = compliant

    def __getattr__(self, name: str):
        if name == "layer":             # not set yet: nothing to read through
            raise AttributeError(name)
        return getattr(self.layer, name)

    @property
    def m(self) -> int:
        return len(self.compliant)


def quotient_graph(c: Circuit, g: CouplingGraph) -> QuotientGraph:
    """The quotient of ``c`` on ``g``: the layer from `layer_orbits`, and
    the circuit's own compliance lists.  On any coupling, every circuit
    with a trivial pattern shares one `Layer`, built by the first such call
    and kept in ``g.trivial_layer``; its nodes and columns are read-only.
    A trivial pattern is the same partition for every circuit on n qubits,
    so the layer's ``fp`` serves them all."""
    if c.n != g.n:
        raise ValueError(f"circuit has {c.n} qubits, coupling {g.n} locations")
    fp = fixing_pattern(c)
    layer = g.trivial_layer if fp.trivial else None
    if layer is None:
        layer = Layer(fp, g.split, *layer_orbits(fp, g))
        if fp.trivial:              # every trivial pattern has this layer on g
            g.trivial_layer = layer

    pairs = set(c.gates)
    if g.split is not None:
        # on K_{M,N} a pair is adjacent iff exactly one of its qubits sits on
        # the small side, the representative's first M locations
        on_small: list[set[int]] = [set() for _ in range(g.n)]
        for i, node in enumerate(layer.nodes):
            for x in node.rep[:g.split]:
                on_small[x].add(i)
        by_pair = {(a, b): sorted(on_small[a] ^ on_small[b]) for a, b in pairs}
    else:
        # an orbit is compliant with a pair iff one of its representative's
        # coupling edges holds the pair's two qubits, and at most one edge
        # can.  So walk each representative's edges: the qubits on an edge,
        # in either order, name the pair's list, which takes each orbit at
        # most once and in ascending order (O(orbits·|E|) dict lookups)
        by_pair = {}
        for a, b in pairs:
            by_pair[a, b] = by_pair[b, a] = []
        holding = by_pair.get
        for i, node in enumerate(layer.nodes):
            rep = node.rep
            for u, v in g.edges:
                ids = holding((rep[u], rep[v]))
                if ids is not None:
                    ids.append(i)
    compliant = [by_pair[gate] for gate in c.gates]     # one list per pair

    return QuotientGraph(coupling=g, layer=layer, compliant=compliant)


def reduction_stats(q: QuotientGraph) -> dict:
    """Counts and reduction percentages against the unreduced layered model
    (m·n!·|T| + n! + Σ_k|F^k| variables, m·n! + 2 constraints).

    The source and sink rows are not divided by the group.  So on a group of
    order |G| that acts freely, the constraints shrink by the ratio
    (m·n!/|G| + 2)/(m·n! + 2), slightly above 1/|G|, and the constraint
    reduction falls just short of 1 − 1/|G|."""
    n, m = q.coupling.n, q.m
    n_fact = math.factorial(n)
    n_edges = len(q.coupling.edges)
    cross = [len(ids) for ids in q.compliant]

    red_vars = m * len(q.arcs) + len(q.nodes) + sum(cross)
    red_consts = m * len(q.nodes) + 2
    fk = 2 * n_edges * math.factorial(n - 2)
    unred_vars = m * n_fact * n_edges + n_fact + m * fk
    unred_consts = m * n_fact + 2

    def pct(unred, red):
        # int / int is correctly rounded however large the operands, and the
        # quotient is at most 100, so n! past 1e308 does not overflow
        return (unred - red) * 100 / unred if unred else 0.0

    return {
        "n": n,
        "m": m,
        "family": q.coupling.family,
        "aut_order": q.coupling.aut.order,
        "snf_order": q.fp.group_order,
        "nodes_per_layer": len(q.nodes),
        "arcs_per_layer": len(q.arcs),
        "source_arcs": len(q.nodes),
        "cross_arcs": cross,
        "variables": red_vars,
        "constraints": red_consts,
        "unreduced_variables": unred_vars,
        "unreduced_constraints": unred_consts,
        "reduction_variables_pct": pct(unred_vars, red_vars),
        "reduction_constraints_pct": pct(unred_consts, red_consts),
    }
