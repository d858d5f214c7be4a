"""Linear-time dynamic program for star couplings.

On a star every gate must touch the centre location, so the only state that
matters is which qubit currently sits there.  Moving any other qubit to the
centre costs exactly one SWAP (centre and leaf are adjacent), hence the
per-gate recurrence over at most two live states: keep the centre, or pay
one swap to bring the other operand in.  Ties retain the current centre so
schedules do not thrash."""

from __future__ import annotations

from .circuit import Circuit
from .perm import swap
from .reconstruct import NncpSolution

INF = float("inf")


class DpTable:
    """The optimal SWAP count and the centre qubit at each gate."""

    def __init__(self, opt: int, centers: list[int]):
        self.opt = opt
        self.centers = centers


def solve_star_dp(circuit: Circuit) -> DpTable:
    """Minimum SWAP count on a star, independent of the reduced pipeline."""
    m = circuit.m
    if m == 0:
        return DpTable(opt=0, centers=[])

    back: list[dict[int, int]] = []
    prev: dict[int, int] = {q: 0 for q in circuit.gates[0]}
    back.append({q: q for q in prev})

    for k in range(1, m):
        cur: dict[int, int] = {}
        bp: dict[int, int] = {}
        for q in circuit.gates[k]:
            stay = prev.get(q, INF)
            move, via = INF, None
            for qh in sorted(prev):
                if qh != q and prev[qh] + 1 < move:
                    move, via = prev[qh] + 1, qh
            if stay <= move:
                cur[q], bp[q] = stay, q
            else:
                cur[q], bp[q] = move, via
        back.append(bp)
        prev = cur

    center = min(prev, key=lambda q: (prev[q], q))
    opt = prev[center]
    centers = [0] * m
    for k in range(m - 1, -1, -1):
        centers[k] = center
        center = back[k][center]
    return DpTable(opt=int(opt), centers=centers)


def star_solution(circuit: Circuit, table: DpTable) -> NncpSolution:
    """Concrete schedule for the centre sequence, centre at location 0."""
    n, m = circuit.n, circuit.m
    if m == 0:
        return NncpSolution(opt=0, orders=[], swaps=[])
    first = table.centers[0]
    cur = (first, *sorted(set(range(n)) - {first}))
    orders = [cur]
    swaps: list[tuple[int, tuple[int, int]]] = []
    for k in range(1, m):
        c = table.centers[k]
        if c != table.centers[k - 1]:
            j = cur.index(c)
            swaps.append((k, (0, j)))
            cur = swap(cur, 0, j)
        orders.append(cur)
    return NncpSolution(opt=table.opt, orders=orders, swaps=swaps)
