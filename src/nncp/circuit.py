"""Circuit model: RevLib-style ``.real`` parsing, decomposition of multi-qubit
gates into two-qubit gates, the gate graph, and the fixing pattern.

Only the *unordered pair of qubits* a two-qubit gate acts on matters for
SWAP-insertion: control/target orientation and the specific unitary are
irrelevant downstream, so the decomposition step erases everything else and
keeps each gate as a sorted int tuple ``(a, b)``, ``a < b`` (see `perm`).
Multi-controlled gates are expanded with the usual controlled-V / V† ladder
construction, hard-coded as fixed position tables (one deterministic strategy,
no decomposition search).
"""

from __future__ import annotations

import math
from functools import cached_property

from .errors import ParseError
from .perm import components, pair

# ---------------------------------------------------------------------------
# gate kinds

NOT = "NOT"
CNOT = "CNOT"
SWAP = "SWAP"
CV = "CV"
CVDAG = "CVDAG"
TOFFOLI3 = "TOFFOLI3"
TOFFOLI4 = "TOFFOLI4"
TOFFOLI5 = "TOFFOLI5"
FREDKIN3 = "FREDKIN3"
FREDKIN4 = "FREDKIN4"
PERES = "PERES"

ARITY = {
    NOT: 1,
    CNOT: 2,
    SWAP: 2,
    CV: 2,
    CVDAG: 2,
    TOFFOLI3: 3,
    FREDKIN3: 3,
    PERES: 3,
    TOFFOLI4: 4,
    FREDKIN4: 4,
    TOFFOLI5: 5,
}

#: ``.real`` gate tokens
GATE_TOKENS = {
    "t1": NOT,
    "t2": CNOT,
    "t3": TOFFOLI3,
    "t4": TOFFOLI4,
    "t5": TOFFOLI5,
    "f2": SWAP,
    "f3": FREDKIN3,
    "f4": FREDKIN4,
    "p3": PERES,
    "v": CV,
    "v+": CVDAG,
}

DIRECTIVES = {
    ".version",
    ".numvars",
    ".variables",
    ".inputs",
    ".outputs",
    ".constants",
    ".garbage",
    ".begin",
    ".end",
}


class Frozen:
    """Base of the immutable records (`RawGate`, `FixingPattern`,
    `lp.GnfpArc`).  Two records are equal, and hash alike, when they are of
    one class and their ``_fields`` agree.  ``__init__`` stores the fields
    with `_store`; assigning or deleting an attribute afterwards raises
    AttributeError.  `functools.cached_property` still works, as it writes
    ``__dict__`` directly (`FixingPattern.group_order`, Π_c |c|!)."""

    _fields: tuple[str, ...] = ()

    def _store(self, **fields):
        self.__dict__.update(fields)

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class RawGate(Frozen):
    """A named gate as read from a file: controls first, target(s) last."""

    _fields = ("kind", "qubits")

    def __init__(self, kind: str, qubits: tuple[int, ...]):
        if kind not in ARITY:
            raise ParseError(f"unknown gate kind {kind!r}")
        if len(qubits) != ARITY[kind]:
            raise ParseError(f"{kind} expects {ARITY[kind]} qubits, got {len(qubits)}")
        if len(set(qubits)) != len(qubits):
            raise ParseError(f"{kind} acts on repeated qubits {qubits}")
        self._store(kind=kind, qubits=qubits)


class Circuit:
    """A preprocessed circuit: n qubits and an ordered list of two-qubit
    gates, each the sorted pair ``(a, b)`` with ``0 <= a < b < n``.  Empty
    or absent ``qubit_names`` name the qubits q1..qn.  Circuits compare by
    value and are unhashable."""

    def __init__(self, n: int, gates: list[tuple[int, int]],
                 qubit_names: list[str] | None = None):
        if not qubit_names:
            qubit_names = [f"q{i + 1}" for i in range(n)]
        if len(qubit_names) != n:
            raise ValueError(f"{len(qubit_names)} names for {n} qubits")
        for a, b in gates:
            if not 0 <= a < b < n:
                raise ValueError(f"gate ({a}, {b}) is not a sorted pair in 0..{n - 1}")
        self.n = n
        self.gates = gates
        self.qubit_names = qubit_names

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.gates, self.qubit_names) == \
            (other.n, other.gates, other.qubit_names)

    __hash__ = None

    @property
    def m(self) -> int:
        return len(self.gates)


# ---------------------------------------------------------------------------
# .real parsing

def parse_real(text: str):
    """Parse a ``.real``-style circuit file.

    Returns ``(gates, meta)`` where ``gates`` is the ordered list of RawGate
    and ``meta`` carries the directive values (``numvars``, ``variables``,
    ...).
    """
    meta: dict = {"variables": []}
    var_index: dict[str, int] = {}
    gates: list[RawGate] = []
    in_body = False
    ended = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        head = parts[0]

        if head.startswith("."):
            directive = head.lower()
            if directive not in DIRECTIVES:
                raise ParseError(f"unknown directive {head!r}", line=lineno)
            if directive == ".begin":
                if in_body or ended:
                    raise ParseError("misplaced .begin", line=lineno)
                in_body = True
            elif directive == ".end":
                if not in_body:
                    raise ParseError(".end without .begin", line=lineno)
                in_body = False
                ended = True
            elif in_body:
                raise ParseError(f"directive {head!r} inside .begin/.end", line=lineno)
            elif directive == ".numvars":
                try:
                    meta["numvars"] = int(parts[1])
                except (IndexError, ValueError):
                    raise ParseError(".numvars expects an integer", line=lineno)
                if meta["numvars"] < 0:
                    raise ParseError(".numvars must not be negative", line=lineno)
            elif directive == ".variables":
                meta["variables"] = parts[1:]
                var_index = {name: i for i, name in enumerate(parts[1:])}
                if len(var_index) != len(parts[1:]):
                    raise ParseError("duplicate variable name", line=lineno)
            else:
                meta[directive[1:]] = " ".join(parts[1:])
            continue

        if not in_body:
            raise ParseError(f"gate line outside .begin/.end: {line!r}", line=lineno)
        kind = GATE_TOKENS.get(head.lower())
        if kind is None:
            raise ParseError(f"unknown gate token {head!r}", line=lineno)
        qubits = []
        for name in parts[1:]:
            if name not in var_index:
                raise ParseError(f"undeclared variable {name!r}", line=lineno)
            qubits.append(var_index[name])
        try:
            gates.append(RawGate(kind, tuple(qubits)))
        except ParseError as exc:
            raise ParseError(str(exc), line=lineno) from None

    if in_body:
        raise ParseError(".begin without matching .end")
    if "numvars" in meta and meta["variables"] and meta["numvars"] != len(meta["variables"]):
        raise ParseError(
            f".numvars {meta['numvars']} != {len(meta['variables'])} declared variables"
        )
    if "numvars" not in meta and meta["variables"]:
        meta["numvars"] = len(meta["variables"])
    return gates, meta


# ---------------------------------------------------------------------------
# decomposition tables
#
# Each entry is a sequence of (position, position) pairs into the gate's
# qubit tuple (controls first, target last).  Transcribed once from the fixed
# V/V†-ladder construction; the per-kind lengths (5, 4, 7, 13, 15, 29) are
# frozen by tests.

_TOFFOLI4_TABLE = [
    (0, 3), (0, 1), (1, 3), (0, 1), (1, 3), (1, 2), (2, 3),
    (0, 2), (2, 3), (1, 2), (2, 3), (0, 2), (2, 3),
]

DECOMPOSE_TABLE: dict[str, list[tuple[int, int]]] = {
    NOT: [],
    CNOT: [(0, 1)],
    SWAP: [(0, 1)],
    CV: [(0, 1)],
    CVDAG: [(0, 1)],
    TOFFOLI3: [(1, 2), (0, 1), (1, 2), (0, 1), (0, 2)],
    PERES: [(1, 2), (0, 2), (0, 1), (1, 2)],
    FREDKIN3: [(1, 2), (0, 2), (1, 2), (0, 1), (1, 2), (1, 2), (0, 1)],
    TOFFOLI4: list(_TOFFOLI4_TABLE),
    FREDKIN4: [(2, 3)] + _TOFFOLI4_TABLE + [(2, 3)],
    TOFFOLI5: [
        (0, 4), (0, 1), (1, 4), (0, 1), (1, 4), (1, 2), (2, 4),
        (0, 2), (2, 4), (1, 2), (2, 4), (0, 2), (2, 4), (2, 3),
        (3, 4), (0, 3), (3, 4), (1, 3), (3, 4), (0, 3), (3, 4),
        (2, 3), (3, 4), (0, 3), (3, 4), (1, 3), (3, 4), (0, 3), (3, 4),
    ],
}


def decompose(gates: list[RawGate], n: int | None = None,
              qubit_names: list[str] | None = None) -> Circuit:
    """Expand every multi-qubit gate into its fixed two-qubit sequence and
    drop single-qubit gates.  ``n`` defaults to the smallest count covering
    all referenced qubits (or ``len(qubit_names)`` when names are given)."""
    out: list[tuple[int, int]] = []
    top = -1
    for g in gates:
        table = DECOMPOSE_TABLE.get(g.kind)
        if table is None:
            raise ParseError(f"cannot decompose unsupported gate kind {g.kind!r}")
        top = max(top, *g.qubits) if g.qubits else top
        for a, b in table:
            out.append(pair(g.qubits[a], g.qubits[b]))
    if n is None:
        n = len(qubit_names) if qubit_names else top + 1
    return Circuit(n=n, gates=out, qubit_names=list(qubit_names or []))


# ---------------------------------------------------------------------------
# gate graph and fixing pattern

def gate_graph(c: Circuit) -> set[tuple[int, int]]:
    """Edge set of the gate graph on qubits (parallel gates collapse)."""
    return set(c.gates)


class FixingPattern(Frozen):
    """A partition of the qubits 0..n-1 into classes, each listing its
    qubits in ascending order.  S_n(F), the qubit relabelings that map every
    class onto itself, is Π_c Sym(c), of order Π_c |c|!.  `fixing_pattern`
    builds the paper's partition from the gate graph; the solver accepts
    any partition.
    """

    _fields = ("classes",)

    def __init__(self, classes: tuple[tuple[int, ...], ...]):
        self._store(classes=classes)

    @cached_property
    def group_order(self) -> int:
        return math.prod(math.factorial(len(cl)) for cl in self.classes)

    @cached_property
    def trivial(self) -> bool:
        """True iff every class is a singleton: S_n(F) is the identity."""
        return all(len(cl) == 1 for cl in self.classes)

    @cached_property
    def class_index(self) -> tuple[int, ...]:
        """``class_index[q]`` is the position in ``classes`` of qubit q's
        class.  Built once per pattern."""
        index = [0] * sum(len(cl) for cl in self.classes)
        for ci, cl in enumerate(self.classes):
            for q in cl:
                index[q] = ci
        return tuple(index)


def fixing_pattern(c: Circuit) -> FixingPattern:
    """The paper's partition, from the gate-graph components: a singleton
    per qubit of a component of size ≥ 3, each 2-qubit component as one
    class, and the idle qubits together as one class."""
    classes: list[tuple[int, ...]] = []
    idle: list[int] = []
    for comp in components(c.n, gate_graph(c)):
        if len(comp) == 1:
            idle.extend(comp)
        elif len(comp) == 2:
            classes.append(tuple(comp))
        else:
            classes.extend((q,) for q in comp)
    if idle:
        classes.append(tuple(idle))
    classes.sort()
    return FixingPattern(tuple(classes))
