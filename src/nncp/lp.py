"""Reduced models over the quotient graph, and the solver.

Variables follow the orbital structure: one λ̄ per (layer, intra-layer
orbital) and one θ̄ per (layer boundary, compliant orbit).  The scaled model
divides the orbital sizes by |Aut(Coup(E))|, which turns every coefficient
into a small rational (at most Π_c |c|!·|E|, c over the pattern classes)
regardless of how factorially large the group is; coefficients are built
exactly as Fractions and only then converted to floats.  Upper bounds are
omitted: the two degree rows bound everything.  `build_gnfp` gives the same
model as a generalized network flow with arc multipliers; `write_lp`
exports either.

`solve_reduced` never builds these models.  The group acts on every layer
by coupling automorphisms and compliance is orbit-invariant, so the
orbit-to-orbit distances of the layered graph are BFS distances in the
quotient, whatever the orbitals' in/out multipliers.  Distance passes
between gates only through compliant orbits.  One solver
(`_shortest_quotient_path`) keeps each gate's potentials as level masks,
one bitmask of compliant orbits per potential, and gets them in one of two
ways.  On a star (a coupling whose ``split`` is 1, the one thing this
module reads of it) any two distinct orbits are one SWAP apart, so they
follow in closed form from the previous gate's (`_star_level`), and no arc
column, chunk table or BFS is built.  Elsewhere each gate gets one
level-synchronous BFS from the previous gate's compliant orbits, injected
at their potentials (`_bfs_level`); it stops once this gate's are settled.
A gate on the same pair as the previous gate (the same compliant list)
keeps its potentials, by the triangle inequality, and gets no pass on
either kind of coupling.  A whole BFS level expands at once, by the
expander the quotient's layer keeps (`_expander`, ``Layer.expand``): the
first solve on the layer picks it, through per-chunk tables of successor
masks (the Four Russians trick; only nonzero chunks are looked up) when
they take at most the fixed `TABLE_BYTES_LIMIT` (`_table_fits`),
otherwise over adjacency lists read from the ``dst`` column
(`_adjacency_expander`).  A coupling's shared trivial-pattern layer takes
8 orbits per chunk where those fit, and every circuit on the coupling
reuses them; a layer built for one circuit takes 4, cheaper to build for
one use.  Once at most `PULL_MOST` compliant orbits are open, a level is
first pulled: each open orbit is tested for a successor in the frontier
by its one-orbit successor mask (``expand.one``), and if all have one the
level settles them without being expanded (Beamer, Asanović and
Patterson's direction-optimizing BFS, exact because the adjacency is
symmetric).  Stars and BFS go through one walk back, which grows
spheres backward from the cheapest orbit of the last gate, exact because
the quotient's adjacency is symmetric, and returns a `ReducedPath`: the
entry orbit and the orbits the walk enters, one per SWAP, which
`reconstruct` replays.
`simplex_solve` solves the LP and flow models with HiGHS (`simplex.py`), which
needs scipy; a failure that HiGHS reports as neither optimal, infeasible,
unbounded nor an iteration limit is a `SolverError`.
"""

from __future__ import annotations

import sys
from collections.abc import Callable
from functools import partial
from itertools import pairwise

from . import simplex
from .circuit import Frozen
from .errors import SolverError
from .symmetry import QuotientGraph

Tag = tuple  # ("lam", layer, arc_id) or ("theta", boundary, orbit_id)

NO_PATH = "no compliant path through the quotient graph"

# the most bytes the chunk tables of `_expander` may take; above it a level
# expands over adjacency lists.  64 MiB holds 8-orbit tables of up to 3 840
# orbits: cycle-7 (360 orbits, 0.9 MiB) and cycle-8 (2 520, 26 MiB) take
# them on their shared layer.  It holds 4-orbit tables of up to 11 440:
# biclique:3 n=40 (9 880 orbits, 48 MiB) takes them, Petersen (30 240,
# 440 MiB) and the 3×3 grid (45 360, 988 MiB) do not.  On cycle-8 the
# 4-orbit tables made the solve about 4× faster than adjacency lists
TABLE_BYTES_LIMIT = 64 << 20

# the most open compliant orbits `_bfs_level` tests one by one for a
# successor in the frontier before it expands a level.  On cycle-7 a BFS
# pass took 2.5% longer at 8, 5% at 32 and 22% with no cap, where 6× as
# many levels were tested and 80% of the tests failed
PULL_MOST = 16


class LinearProgram:
    """Sparse equality-form LP over x >= 0 with upper bounds, each possibly
    absent."""

    def __init__(self, n_vars: int, objective: list[Fraction],
                 rows: list[list[tuple[int, Fraction]]], rhs: list[Fraction],
                 upper: list[Fraction | None], var_tags: list[Tag]):
        self.n_vars = n_vars
        self.objective = objective
        self.rows = rows
        self.rhs = rhs
        self.upper = upper
        self.var_tags = var_tags

    def float_arrays(self):
        cols: list[list[tuple[int, float]]] = [[] for _ in range(self.n_vars)]
        for ri, row in enumerate(self.rows):
            for j, coef in row:
                cols[j].append((ri, float(coef)))
        c = [float(v) for v in self.objective]
        b = [float(v) for v in self.rhs]
        lb = [0.0] * self.n_vars
        ub = [float("inf") if v is None else float(v) for v in self.upper]
        return c, cols, b, lb, ub


class LpSolution:
    def __init__(self, status: str, objective: float, values: list[float],
                 residual: float = 0.0):
        self.status = status
        self.objective = objective
        self.values = values
        self.residual = residual


class ReducedPath:
    """A shortest quotient path: its length, the orbit it crosses gate 1 at,
    and the orbits it enters, one per SWAP, ``hops[k-1]`` between gates k
    and k+1."""

    def __init__(self, opt: int, entry: int, hops: list[list[int]]):
        self.opt = opt
        self.entry = entry
        self.hops = hops


# ---------------------------------------------------------------------------
# model builders

def _ratio(q: QuotientGraph, orbit_size: int) -> Fraction:
    # orbit_size/|Aut| = |S_n(F)|/|B_τ|: small by construction
    from fractions import Fraction
    return Fraction(orbit_size, q.coupling.aut.order)


def build_rspp_scaled(q: QuotientGraph) -> LinearProgram:
    """The scaled reduced shortest-path LP over the quotient graph."""
    from fractions import Fraction
    if q.m == 0:
        raise ValueError("model needs at least one gate")
    m, layer, nodes, arcs = q.m, q.layer, q.nodes, q.arcs
    src_of, d_out = layer.src, layer.d_out

    tags: list[Tag] = []
    for k in range(1, m + 1):
        tags.extend(("lam", k, ai) for ai in arcs)
    tags.extend(("theta", 0, u) for u in range(len(nodes)))
    for k in range(1, m + 1):
        tags.extend(("theta", k, u) for u in q.compliant[k - 1])
    col = {tag: j for j, tag in enumerate(tags)}
    nv = len(tags)

    objective = [Fraction(0)] * nv
    for k in range(1, m + 1):
        for ai in arcs:
            objective[col[("lam", k, ai)]] = _ratio(q, nodes[src_of(ai)].orbit_size) * d_out[ai]

    rows: list[list[tuple[int, Fraction]]] = []
    rhs: list[Fraction] = []

    rows.append([(col[("theta", 0, u)], _ratio(q, nodes[u].orbit_size))
                 for u in range(len(nodes))])
    rhs.append(Fraction(1))
    rows.append([(col[("theta", m, u)], _ratio(q, nodes[u].orbit_size))
                 for u in q.compliant[m - 1]])
    rhs.append(Fraction(1))

    for k in range(1, m + 1):
        acc: list[dict[int, Fraction]] = [{} for _ in range(len(nodes))]
        for u in range(len(nodes)):
            tag = ("theta", k - 1, u)
            if tag in col:                      # always for k=1, else if compliant
                acc[u][col[tag]] = Fraction(1)
            tag = ("theta", k, u)
            if tag in col:
                acc[u][col[tag]] = Fraction(-1)
        for ai in arcs:
            j = col[("lam", k, ai)]
            src, dst = src_of(ai), layer.dst[ai]
            # self-loop orbitals accumulate d_in - d_out on one row
            acc[dst][j] = acc[dst].get(j, Fraction(0)) + layer.d_in(ai)
            acc[src][j] = acc[src].get(j, Fraction(0)) - d_out[ai]
        for u in range(len(nodes)):
            rows.append([(j, cv) for j, cv in acc[u].items() if cv])
            rhs.append(Fraction(0))

    return LinearProgram(n_vars=nv, objective=objective, rows=rows, rhs=rhs,
                         upper=[None] * nv, var_tags=tags)


class GnfpArc(Frozen):
    _fields = ("tail", "head", "cost", "upper", "multiplier", "tag")

    def __init__(self, tail: tuple, head: tuple, cost: Fraction, upper: Fraction,
                 multiplier: Fraction, tag: Tag):
        self._store(tail=tail, head=head, cost=cost, upper=upper,
                    multiplier=multiplier, tag=tag)


class GnfpModel:
    """Generalized-flow view: per-arc cost, capacity and gain multiplier.

    One unit leaves the source; an arc carrying flow f delivers
    multiplier·f at its head.  Source arcs aggregate a whole orbit, so their
    multiplier is 1/(orbit size): one unit spread over the orbit delivers a
    single representative's worth of flow downstream.  Sink arcs aggregate
    the other way (multiplier = orbit size)."""

    def __init__(self, arcs: list[GnfpArc], internal_nodes: list[tuple]):
        self.arcs = arcs
        self.internal_nodes = internal_nodes


def build_gnfp(q: QuotientGraph) -> GnfpModel:
    from fractions import Fraction
    if q.m == 0:
        raise ValueError("model needs at least one gate")
    m, layer, nodes = q.m, q.layer, q.nodes
    arcs: list[GnfpArc] = []
    for u, node in enumerate(nodes):
        arcs.append(GnfpArc(("s",), ("v", 1, u), cost=Fraction(0),
                            upper=Fraction(node.orbit_size),
                            multiplier=Fraction(1, node.orbit_size),
                            tag=("theta", 0, u)))
    for k in range(1, m + 1):
        for ai in layer.arcs:
            src, dst = layer.src(ai), layer.dst[ai]
            # the multiplier d_in/d_out is |src|/|dst| by orbit–stabilizer
            arcs.append(GnfpArc(("v", k, src), ("v", k, dst),
                                cost=Fraction(nodes[src].orbit_size),
                                upper=Fraction(layer.d_out[ai]),
                                multiplier=Fraction(nodes[src].orbit_size,
                                                    nodes[dst].orbit_size),
                                tag=("lam", k, ai)))
    for k in range(1, m):
        for u in q.compliant[k - 1]:
            arcs.append(GnfpArc(("v", k, u), ("v", k + 1, u), cost=Fraction(0),
                                upper=Fraction(1), multiplier=Fraction(1),
                                tag=("theta", k, u)))
    for u in q.compliant[m - 1]:
        arcs.append(GnfpArc(("v", m, u), ("t",), cost=Fraction(0),
                            upper=Fraction(1),
                            multiplier=Fraction(nodes[u].orbit_size),
                            tag=("theta", m, u)))
    internal = [("v", k, u) for k in range(1, m + 1) for u in range(len(nodes))]
    return GnfpModel(arcs=arcs, internal_nodes=internal)


def gnfp_lp(model: GnfpModel) -> LinearProgram:
    """Flatten the flow model into equality form for the simplex."""
    from fractions import Fraction
    nv = len(model.arcs)
    row_of = {v: i + 2 for i, v in enumerate(model.internal_nodes)}
    acc: list[dict[int, Fraction]] = [{} for _ in range(len(row_of) + 2)]
    rhs = [Fraction(1), Fraction(1)] + [Fraction(0)] * len(row_of)
    for j, arc in enumerate(model.arcs):
        ri = 0 if arc.tail == ("s",) else row_of[arc.tail]
        acc[ri][j] = acc[ri].get(j, Fraction(0)) + 1
        if arc.head == ("t",):
            acc[1][j] = acc[1].get(j, Fraction(0)) + arc.multiplier
        else:
            ri = row_of[arc.head]
            acc[ri][j] = acc[ri].get(j, Fraction(0)) - arc.multiplier
    rows = [[(j, cv) for j, cv in row.items() if cv] for row in acc]
    return LinearProgram(n_vars=nv,
                         objective=[arc.cost for arc in model.arcs],
                         rows=rows, rhs=rhs,
                         upper=[arc.upper for arc in model.arcs],
                         var_tags=[arc.tag for arc in model.arcs])


# ---------------------------------------------------------------------------
# solving

def simplex_solve(lp: LinearProgram) -> LpSolution:
    c, cols, b, lb, ub = lp.float_arrays()
    status, x, obj = simplex.solve(c, cols, b, lb, ub)
    residual = 0.0
    if status == simplex.OPTIMAL:
        for row, beta in zip(lp.rows, lp.rhs):
            r = sum(float(coef) * x[j] for j, coef in row) - float(beta)
            residual = max(residual, abs(r))
    return LpSolution(status=status, objective=obj, values=list(x), residual=residual)


# hex digit -> its value: a mask read as hex gives its 4-bit chunks, top first
_NIBBLES = bytes.maketrans(b"0123456789abcdef", bytes(range(16)))


def _table_fits(q: QuotientGraph, width: int = 4) -> bool:
    """Whether chunk tables of ``width`` (4 or 8) orbits per chunk
    (`_chunk_tables`) take at most `TABLE_BYTES_LIMIT`: per chunk a list of
    2**width masks of up to len(q.nodes) bits, about 0.5·orbits² bytes at
    width 4 and 4.3·orbits² at width 8.  It reads only the orbit count, so
    it is checked before any table is built."""
    n, size = len(q.nodes), 1 << width
    return -(-n // width) * (sys.getsizeof([0] * size)
                             + (size - 1) * sys.getsizeof(1 << n)) <= TABLE_BYTES_LIMIT


def _chunk_tables(q: QuotientGraph, width: int) -> list[list[int]]:
    """The Four Russians tables of the quotient's successor map, top chunk
    first.  The orbit ids are cut into chunks of ``width`` (4 or 8) bits; a
    chunk's table holds, for each of its 2**width values, the OR of the
    successor masks of the orbits the value selects.  A table is built per
    4-orbit half from the ``dst`` column, and an 8-orbit table ORs its two
    halves' 16-entry tables, so no list of all successor masks is held."""
    n = len(q.nodes)
    offsets, dst = q.offsets, q.dst

    def half(first: int) -> list[int]:
        # the successor masks of orbits first .. first + 3, none past the last
        succ = [0] * 4
        for i, (lo, hi) in enumerate(pairwise(offsets[first:first + 5])):
            mask = 0
            for w in dst[lo:hi]:
                mask |= 1 << w
            succ[i] = mask
        table = [0] * 16
        for value in range(1, 16):
            low = value & -value        # the entry without its lowest bit, plus that bit's orbit
            table[value] = table[value ^ low] | succ[low.bit_length() - 1]
        return table

    tables = []
    for c in reversed(range(-(-n // width))):
        if width == 4:
            tables.append(half(4 * c))
        else:
            # entry 16·a + b is entry a of the upper half OR entry b of the lower
            lower, upper = half(8 * c), half(8 * c + 4)
            tables.append([a | b for a in upper for b in lower])
    return tables


def _expander(q: QuotientGraph) -> Callable[[int], int]:
    """The map from a set of orbits to the set of their successors, both as
    int bitmasks (bit u for orbit u), kept on the quotient's layer
    (``q.layer.expand``) by the first solve on it.  It reads chunk tables
    (`_table_expander`) where they fit `TABLE_BYTES_LIMIT`, 8 orbits per
    chunk where those fit on a trivial pattern's layer, which the coupling
    shares, else 4; otherwise adjacency lists (`_adjacency_expander`).  Its
    attribute ``one(u)`` gives orbit u's successor mask, which the pull of
    `_bfs_level` reads."""
    layer = q.layer
    if layer.expand is None:
        if not _table_fits(q):
            layer.expand = _adjacency_expander(q)
        else:
            width = 8 if q.fp.trivial and _table_fits(q, 8) else 4
            layer.expand = _table_expander(_chunk_tables(q, width))
    return layer.expand


def _table_expander(tables: list[list[int]]) -> Callable[[int], int]:
    """The successor map of `_chunk_tables`' tables, by the Four Russians
    trick.  Expanding a set cuts its mask into chunks, top chunk first (an
    8-orbit chunk is a byte of ``mask.to_bytes``, a 4-orbit chunk a hex
    digit), and ORs one table entry per nonzero chunk in a plain loop: a
    zero chunk selects no orbit, so its table is skipped.  A set of at most
    four orbits, as the first sphere of every walk back (one orbit), ORs
    their one-orbit entries instead, which costs less than cutting the mask.
    ``expand.one(u)`` is orbit u's one-orbit entry, the successor mask the
    pull of `_bfs_level` reads: one list of references into the tables."""
    width = len(tables[0]).bit_length() - 1
    chunks, top, low_bits = len(tables), len(tables) - 1, width - 1
    shift = low_bits.bit_length()       # log2(width)
    one = [tables[top - (u >> shift)][1 << (u & low_bits)] for u in range(chunks << shift)]
    if width == 8:
        chunk_values = partial(int.to_bytes, length=chunks, byteorder="big")
    else:
        digits = f"%0{chunks}x"

        def chunk_values(mask: int) -> bytes:
            return (digits % mask).encode().translate(_NIBBLES)

    def expand(mask: int) -> int:
        out = 0
        if mask.bit_count() <= 4:       # a few orbits: OR their one-orbit entries
            while mask:
                low = mask & -mask
                out |= one[low.bit_length() - 1]
                mask ^= low
            return out
        for table, value in zip(tables, chunk_values(mask)):
            if value:
                out |= table[value]
        return out

    expand.one = one.__getitem__
    return expand


def _adjacency_expander(q: QuotientGraph) -> Callable[[int], int]:
    """The map of `_expander` over adjacency lists, for quotients whose
    chunk tables would not fit: it reads the mask's set bits as a
    binary string, lowest orbit first, and marks their successors in a
    byte string read back as the result mask.  ``expand.one(u)`` ORs orbit
    u's ``dst`` slice into a mask, so nothing per orbit is kept for it."""
    n = len(q.nodes)
    succ = [q.dst[lo:hi] for lo, hi in pairwise(q.offsets)]
    mark = ord("1")

    def expand(mask: int) -> int:
        bits = format(mask, f"0{n}b")[::-1]
        hit = bytearray(b"0" * n)
        u = bits.find("1")
        while u >= 0:
            for v in succ[u]:
                hit[v] = mark
            u = bits.find("1", u + 1)
        return int(hit[::-1], 2)

    def one(u: int) -> int:
        mask = 0
        for v in succ[u]:
            mask |= 1 << v
        return mask

    expand.one = one
    return expand


def _lowest(mask: int) -> int:
    """The smallest orbit id in a nonempty mask."""
    return (mask & -mask).bit_length() - 1


def _star_level(prev: tuple[int, list[int]], left: int) -> tuple[int, list[int]]:
    """Gate k+1's level masks on a star, in closed form from gate k's.
    Any two distinct orbits are one SWAP apart, so gate k's potentials span
    at most two adjacent values: an orbit of ``left`` (gate k+1's compliant
    orbits) that gate k holds at its lowest potential keeps it, and every
    other one costs one SWAP more."""
    if not left:
        raise SolverError(NO_PATH)
    base, masks = prev
    kept = left & masks[0]
    if not kept:
        return base + 1, [left]
    rest = left ^ kept
    return base, [kept, rest] if rest else [kept]


def _pulled(one: Callable[[int], int], pending: int, frontier: int) -> bool:
    """Whether every orbit of ``pending`` has a successor in ``frontier``,
    by its one-orbit successor mask ``one(u)``."""
    while pending:
        low = pending & -pending
        if not one(low.bit_length() - 1) & frontier:
            return False
        pending ^= low
    return True


def _bfs_level(expand: Callable[[int], int], prev: tuple[int, list[int]],
               left: int) -> tuple[int, list[int]]:
    """Gate k+1's level masks by one level-synchronous BFS over the
    quotient, from gate k's level masks injected at their potentials, that
    stops once every orbit of ``left`` (gate k+1's compliant orbits) is
    settled.

    While at most `PULL_MOST` orbits of ``left`` are open, a level that
    would expand a nonempty frontier is pulled first: every open orbit
    that this level does not inject is tested for a successor in the
    frontier (`_pulled`, by ``expand.one``).  If all pass, this level
    settles them all and the pass ends without expanding it; an orbit with
    a successor in the frontier is a successor of it, since a SWAP undoes
    itself.  Otherwise the level expands as usual."""
    prev_base, injected = prev
    masks: list[int] = []               # from the first level that settles one
    settled = frontier = 0
    j = 0                               # the level is at potential prev_base + j
    while left and (frontier or j < len(injected)):
        inject = injected[j] if j < len(injected) else 0
        if frontier and left.bit_count() <= PULL_MOST and _pulled(
                expand.one, left & ~inject, frontier):
            masks.append(left)          # this level settles every open orbit
            return prev_base + j + 1 - len(masks), masks
        reached = ((expand(frontier) if frontier else 0) | inject) & ~settled
        settled |= reached
        hit = reached & left
        if hit or masks:
            masks.append(hit)
        left ^= hit
        frontier = reached
        j += 1
    if not masks:
        raise SolverError(NO_PATH)
    return prev_base + j - len(masks), masks


def _shortest_quotient_path(q: QuotientGraph) -> ReducedPath:
    """Every gate's potentials as level masks, gate by gate; then the
    cheapest chain is walked back into its entry orbit and, per boundary,
    the orbits it enters.

    Gate k's potentials are kept as level masks: ``levels[k]`` is (base,
    masks), where masks[j] holds the compliant orbits of gate k at potential
    base + j, and ``levels[0]`` holds every orbit at potential 0.  On a star
    they follow in closed form (`_star_level`); elsewhere each gate gets one
    BFS pass (`_bfs_level`) that expands a whole BFS level at once by the
    layer's expander (`_expander`): chunk tables, one lookup per nonzero 8-
    or 4-bit chunk of its mask, on cycles 7 and 8 and the bicliques
    measured; adjacency lists on larger quotients (Petersen, the 3×3 grid).
    A gate whose compliant list is the previous gate's (the same pair;
    `quotient_graph` makes one list per pair) takes the previous (base,
    masks) as they are, on a star too: an orbit's potential at gate k is
    at most any other's plus their distance, by the triangle inequality,
    so another BFS would give the same masks.

    The walk goes backward from the cheapest orbit t of the last gate, at
    potential P: spheres around t grow until sphere r meets the previous
    gate's level at P − r, then the walk down the spheres gives that
    boundary's hops, one orbit per sphere.  Spheres grown along out-arcs
    measure the distance *to* t because the quotient's adjacency is
    symmetric: a swap undoes itself.  On a star the expander is the
    constant "every orbit", since any two distinct orbits are one SWAP
    apart.  A hop from v enters the destination of v's first out-arc, in
    ``dst`` order, that lies in the next sphere, the arc the replay takes;
    the last hop always enters t, so a star, whose spheres reach one SWAP
    at most, reads no arc column.  At a same-pair boundary t lies in the
    previous gate's level at P, so sphere 0 meets it and the boundary gets
    an empty hop list."""
    every = (1 << len(q.nodes)) - 1
    if q.coupling.split == 1:
        level, expand = _star_level, lambda mask: every
    else:
        expand = _expander(q)
        level = partial(_bfs_level, expand)
        offsets, dst = q.offsets, q.dst     # a star's walk reads no column
    mask_of: dict[int, int] = {}        # per compliant list (shared per pair), its mask
    for ids in q.compliant:
        if id(ids) not in mask_of:
            mask = 0                    # a plain loop: about twice as fast as sum()
            for u in ids:
                mask |= 1 << u
            mask_of[id(ids)] = mask
    # gate 0 stands for the source: every orbit, at potential 0
    levels = [(0, [every])]
    last = None
    for ids in q.compliant:
        # the same pair as the previous gate: the same potentials
        levels.append(levels[-1] if ids is last else level(levels[-1], mask_of[id(ids)]))
        last = ids

    base, masks = levels[-1]
    t = _lowest(masks[0])
    opt = potential = base
    hops: list[list[int]] = []          # per gate boundary, last first
    for k in range(q.m, 1, -1):
        prev_base, prev = levels[k - 1]
        sphere = seen = 1 << t          # sphere r: the orbits r swaps from t
        inner: list[int] = []           # spheres 0 .. r − 1
        j = potential - prev_base       # the level of prev that sphere r must meet
        while not (j < len(prev) and sphere & prev[j]):
            assert j > 0
            inner.append(sphere)
            sphere = expand(sphere) & ~seen
            seen |= sphere
            j -= 1
        s = v = _lowest(sphere & prev[j])
        walk = []
        for sphere in inner[:0:-1]:     # one hop down per sphere but t's
            lo, hi = offsets[v], offsets[v + 1]
            v = next(w for w in dst[lo:hi] if sphere >> w & 1)
            walk.append(v)
        if inner:
            walk.append(t)              # the last hop enters t
        hops.append(walk)
        t, potential = s, prev_base + j
    hops.reverse()
    return ReducedPath(opt=opt, entry=t, hops=hops)


def solve_reduced(q: QuotientGraph) -> tuple[int, ReducedPath]:
    """Solve the reduced model (`_shortest_quotient_path`).  Returns (opt,
    path); `reconstruct` replays the path as a schedule."""
    path = _shortest_quotient_path(q)
    return path.opt, path


# ---------------------------------------------------------------------------
# export

def write_lp(lp: LinearProgram, name: str = "nncp") -> str:
    """Render in LP text format (12 significant digits) for cross-checks
    with external solvers."""

    def vname(tag: Tag) -> str:
        return f"{tag[0]}_{tag[1]}_{tag[2]}"

    def num(v) -> str:
        return f"{float(v):.12g}"

    out = [f"\\ {name}", "Minimize", " obj:"]
    terms = [f" {num(cv)} {vname(tag)}" for cv, tag in zip(lp.objective, lp.var_tags)
             if cv != 0]
    out[-1] += "".join(terms) if terms else " 0 " + vname(lp.var_tags[0])
    out.append("Subject To")
    for ri, (row, beta) in enumerate(zip(lp.rows, lp.rhs)):
        lhs = " + ".join(f"{num(coef)} {vname(lp.var_tags[j])}" for j, coef in row)
        out.append(f" c{ri}: {lhs} = {num(beta)}")
    out.append("Bounds")
    for tag, hi in zip(lp.var_tags, lp.upper):
        nm = vname(tag)
        if hi is None:
            out.append(f" 0 <= {nm}")
        else:
            out.append(f" 0 <= {nm} <= {num(hi)}")
    out.append("End")
    return "\n".join(out) + "\n"
