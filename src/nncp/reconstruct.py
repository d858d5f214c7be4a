"""Turn quotient-level shortest paths back into concrete SWAP schedules.

`solve_reduced` returns a shortest quotient path as plain data: the orbit
it enters gate 1 at, and per gate boundary the orbits it enters, one per
SWAP.  `reconstruct` replays them on concrete qubit orders.  It starts at
the entry orbit's representative and records one order per gate.  Each hop
from orbit v into w becomes one SWAP by the step `symmetry.replay_step`
picks for the coupling, and a hop into an orbit no SWAP reaches is a
`SolverError`.  On cycle/general couplings the step takes v's first arc
into w, canonicalizes the order, τ ↦ (rep, b), and applies the coupling
edge b⁻¹ maps onto the arc's representative edge.  On a star/biclique an
orbit is its class vector: the two vectors differ by a class c on the
small side traded for a class d on the large side, and the step swaps the
lowest small-side location of c with the lowest large-side location of d,
with no canonicalization and no arc; on a star c is the class of the
centre qubit and d that of w's, so the step swaps the centre with d's
lowest leaf.  It sits beside `symmetry._split_nodes`, which fixes the
representatives it depends on.  The moved order lies in w, because the
group acts by automorphisms, so the walk stays on the path and every order
it records is compliant.

`verify` re-checks a finished schedule against nothing but the problem
statement: that the first order is a permutation of the qubits, gate-by-gate
compliance of the qubit orders, and that the listed SWAPs are coupling edges
transforming each order into the next.  It does so in one pass, carrying
the current order and its inverse through the swaps, so a gate costs two
lookups, a SWAP O(1) and each order one comparison.
"""

from __future__ import annotations

from .circuit import Circuit
from .coupling import CouplingGraph
from .errors import SolverError
from .lp import ReducedPath
from .perm import Perm, check, pair
from .symmetry import QuotientGraph, replay_step

SCHEMA_VERSION = 1


class NncpSolution:
    """A concrete optimum: per-gate qubit orders plus the SWAPs between them.

    ``orders[k-1]`` maps locations to qubits while gate k executes (an int
    tuple: ``orders[k-1][loc]`` is the qubit at ``loc``); a swap
    ``(after_gate=k, (i, j))`` exchanges the qubits at locations i and j
    between gates k and k+1.  Everything is 0-based in memory and 1-based in
    the JSON form."""

    def __init__(self, opt: int, orders: list[Perm],
                 swaps: list[tuple[int, tuple[int, int]]]):
        self.opt = opt
        self.orders = orders
        self.swaps = swaps

    def to_json_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "opt": self.opt,
            "orders": [[x + 1 for x in tau] for tau in self.orders],
            "swaps": [{"after_gate": k, "swap": [i + 1, j + 1]}
                      for k, (i, j) in self.swaps],
        }

    def to_json(self) -> str:
        return dumps_rows(self.to_json_dict()) + "\n"

    @classmethod
    def from_json_dict(cls, data: dict) -> "NncpSolution":
        """Inverse of `to_json_dict`; raises ValueError on any malformed
        shape (a missing key, a list where a number belongs, ...)."""
        if not isinstance(data, dict):
            raise ValueError(f"solution must be a JSON object, not {type(data).__name__}")
        schema = data.get("schema", SCHEMA_VERSION)
        if type(schema) is not int or schema != SCHEMA_VERSION:     # True == 1 == 1.0
            raise ValueError(f"unsupported solution schema {schema!r}")
        try:
            orders = [check(tuple(map(_location, tau))) for tau in data["orders"]]
            swaps = []
            for entry in data["swaps"]:
                i, j = entry["swap"]
                swaps.append((_integer(entry["after_gate"]),
                              pair(_location(i), _location(j))))
            opt = _integer(data["opt"])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed solution: {type(exc).__name__}: {exc}") from None
        return cls(opt=opt, orders=orders, swaps=swaps)

    @classmethod
    def from_json(cls, text: str) -> "NncpSolution":
        import json
        return cls.from_json_dict(json.loads(text))


def dumps_rows(payload: dict) -> str:
    """``payload`` as JSON text, one top-level key per line at indent 2, and
    a nonempty list value one element per line (an order or a swap on one
    row).  Each value and row goes through ``json.dumps`` without indent,
    the C encoder; ``json.loads`` reads back the same data as from
    ``json.dumps(payload, indent=2)``.  `json` is imported here and in
    `NncpSolution.from_json`, so ``import nncp`` loads neither it nor `re`."""
    import json
    lines = []
    for key, value in payload.items():
        if isinstance(value, list) and value:
            text = "[\n    " + ",\n    ".join(map(json.dumps, value)) + "\n  ]"
        else:
            text = json.dumps(value)
        lines.append(f"  {json.dumps(key)}: {text}")
    return "{\n" + ",\n".join(lines) + "\n}"


def _integer(x) -> int:
    if type(x) is not int:      # int() would truncate a float, and bool is an int
        raise ValueError(f"expected an integer, got {x!r}")
    return x


def _location(x) -> int:
    """A 1-based location or qubit number from the JSON, as a 0-based index."""
    if _integer(x) < 1:
        raise ValueError(f"expected a 1-based number, got {x!r}")
    return x - 1


def reconstruct(q: QuotientGraph, path: ReducedPath) -> NncpSolution:
    """Replay a quotient shortest path as a concrete schedule."""
    if q.m == 0:
        return NncpSolution(opt=0, orders=[], swaps=[])
    hop_count = sum(map(len, path.hops))
    if len(path.hops) != q.m - 1 or hop_count != path.opt:
        raise SolverError(
            f"path has {len(path.hops)} hop lists and {hop_count} hops, "
            f"expected {q.m - 1} and {path.opt}")
    v = path.entry
    entry = q.nodes[v].rep
    step = replay_step(q, entry)
    tau = list(entry)
    orders = [entry]
    swaps: list[tuple[int, tuple[int, int]]] = []
    for k, hop in enumerate(path.hops, start=1):
        for w in hop:
            t = step(tau, v, w)
            if t is None:
                raise SolverError(
                    f"orbit {w} after gate {k} is not one SWAP from orbit {v}")
            swaps.append((k, t))
            i, j = t
            tau[i], tau[j] = tau[j], tau[i]
            v = w
        orders.append(tuple(tau))
    return NncpSolution(opt=path.opt, orders=orders, swaps=swaps)


def verify(solution: NncpSolution, circuit: Circuit, coupling: CouplingGraph) -> dict:
    """Check a schedule against the problem statement alone.

    Returns ``{"ok": bool, "violations": [...], "gates": m, "swaps": ...}``;
    a populated ``violations`` list pinpoints the first failure of each
    kind rather than every instance.

    One pass over the gates carries the current order ``cur`` and its
    inverse ``where`` (qubit -> location): a gate's locations are two
    lookups, a SWAP exchanges two entries of each, and each given order is
    compared once with the carried one.  Once they differ, or if order 1 is
    no permutation or a swap fails the range or edge check, a gate reads
    its given order itself; such swaps are never applied."""
    violations: list[str] = []
    m, n = circuit.m, circuit.n
    orders = solution.orders

    if len(orders) != m:
        violations.append(
            f"expected {m} qubit orders, got {len(orders)}")
    for idx, tau in enumerate(orders):
        if len(tau) != n:
            violations.append(
                f"order {idx + 1} permutes {len(tau)} items, expected {n}")
            break

    if not violations:
        if m and set(orders[0]) != set(range(n)):
            violations.append(f"order 1 is not a permutation of the {n} qubits")

        edges = coupling.edges
        by_layer: dict[int, list[tuple[int, int]]] = {}
        swap_violation = edge_violation = None
        for after_gate, t in solution.swaps:
            if not 1 <= after_gate <= m - 1:
                swap_violation = (
                    f"swap scheduled after gate {after_gate}, outside 1..{m - 1}")
                break
            by_layer.setdefault(after_gate, []).append(t)
            i, j = t                    # a hand-built swap may list either end first
            if edge_violation is None and ((i, j) if i < j else (j, i)) not in edges:
                edge_violation = (
                    f"swap ({min(t) + 1},{max(t) + 1}) is not a coupling edge")
        else:
            swap_violation = edge_violation
        # each later order is checked against the one before moved by its
        # swaps; while that holds, cur is the current order and where its
        # inverse (None if cur is no permutation)
        chain = swap_violation is None
        gate_violation = chain_violation = None
        cur = list(orders[0]) if m else []
        where = _where(cur, n) if chain else None
        for k, (a, b) in enumerate(circuit.gates, start=1):
            if gate_violation is None:
                if where is not None:
                    i, j = where[a], where[b]
                if where is None or ((i, j) if i < j else (j, i)) not in edges:
                    gate_violation = _gate_violation(k, (a, b), orders[k - 1], edges)
            if not chain:
                if gate_violation is not None:
                    break
                continue
            if k == m:
                break
            if where is None:
                for i, j in by_layer.get(k, ()):
                    cur[i], cur[j] = cur[j], cur[i]
            else:
                for i, j in by_layer.get(k, ()):
                    x, y = cur[i], cur[j]
                    cur[i], cur[j] = y, x
                    where[x], where[y] = j, i
            if tuple(cur) != orders[k]:
                chain_violation = (
                    f"swaps after gate {k} do not transform order {k} "
                    f"into order {k + 1}")
                chain, where = False, None
        violations += filter(None, (gate_violation, swap_violation, chain_violation))

    if len(solution.swaps) != solution.opt:
        violations.append(
            f"solution lists {len(solution.swaps)} swaps but claims "
            f"opt={solution.opt}")

    return {
        "ok": not violations,
        "violations": violations,
        "gates": m,
        "swaps": len(solution.swaps),
        "opt": solution.opt,
    }


def _where(tau: list[int], n: int) -> list[int] | None:
    """qubit -> location in ``tau``, if it permutes 0..n-1; else None."""
    where = [-1] * n
    for loc, x in enumerate(tau):
        if type(x) is not int or not 0 <= x < n or where[x] >= 0:
            return None
        where[x] = loc
    return where


def _gate_violation(k: int, gate: tuple[int, int], tau: Perm,
                    edges: frozenset[tuple[int, int]]) -> str | None:
    """Why gate k does not act on a coupling edge of order ``tau``, or None."""
    try:
        i, j = map(tau.index, gate)
    except ValueError:
        missing = next(x for x in gate if x not in tau)
        return f"gate {k} acts on qubit {missing + 1}, which order {k} does not place"
    edge = (i, j) if i < j else (j, i)
    if edge not in edges:
        return (f"gate {k} acts on locations {edge[0] + 1},{edge[1] + 1}, "
                f"not a coupling edge")
    return None
