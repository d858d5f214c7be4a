"""The record classes are plain classes: their constructor signatures and
defaults, which of them compare by value and which by identity, and
`OrbitNode`'s slots."""

import inspect
from fractions import Fraction

import pytest

from nncp.circuit import CNOT, Circuit, FixingPattern, RawGate, decompose, fixing_pattern
from nncp.coupling import AutGroup, CouplingGraph, make
from nncp.dp import DpTable
from nncp.lp import GnfpArc, GnfpModel, LinearProgram, LpSolution, ReducedPath
from nncp.reconstruct import NncpSolution
from nncp.symmetry import BTau, Layer, OrbitNode, QuotientGraph, quotient_graph

EMPTY = inspect.Parameter.empty


def quotient():
    c = decompose([RawGate(CNOT, p) for p in [(0, 1), (2, 3), (1, 2)]], n=4)
    g, _, _ = make("cycle", n=4)
    return quotient_graph(c, g)


def arc(cost):
    return GnfpArc(("s",), ("v", 1, 0), cost=Fraction(cost), upper=Fraction(2),
                   multiplier=Fraction(1, 2), tag=("theta", 0, 0))


# class: (parameters with their defaults, builder, equality) where the
# builder makes a fresh record of one value for ``0`` and of another for ``1``
CASES = {
    RawGate: ([("kind", EMPTY), ("qubits", EMPTY)],
              lambda x: RawGate(CNOT, (x, 2)), "value"),
    FixingPattern: ([("classes", EMPTY)],
                    lambda x: fixing_pattern(Circuit(3, [(0, 1 + x)])), "value"),
    GnfpArc: ([(name, EMPTY) for name in ("tail", "head", "cost", "upper",
                                          "multiplier", "tag")],
              arc, "value"),
    Circuit: ([("n", EMPTY), ("gates", EMPTY), ("qubit_names", None)],
              lambda x: Circuit(3, [(0, 1 + x)]), "unhashable value"),
    AutGroup: ([("order", EMPTY), ("elements", None), ("inverse_images", None),
                ("chain", None)],
               lambda x: AutGroup(2), "identity"),
    CouplingGraph: ([("n", EMPTY), ("edges", EMPTY), ("family", EMPTY), ("aut", EMPTY),
                     ("split", None)],
                    lambda x: make("star", n=4)[0], "identity"),
    DpTable: ([("opt", EMPTY), ("centers", EMPTY)],
              lambda x: DpTable(0, []), "identity"),
    LinearProgram: ([(name, EMPTY) for name in ("n_vars", "objective", "rows", "rhs",
                                                "upper", "var_tags")],
                    lambda x: LinearProgram(0, [], [], [], [], []), "identity"),
    LpSolution: ([("status", EMPTY), ("objective", EMPTY), ("values", EMPTY),
                  ("residual", 0.0)],
                 lambda x: LpSolution("optimal", 0.0, []), "identity"),
    ReducedPath: ([("opt", EMPTY), ("entry", EMPTY), ("hops", EMPTY)],
                  lambda x: ReducedPath(0, 0, []), "identity"),
    GnfpModel: ([("arcs", EMPTY), ("internal_nodes", EMPTY)],
                lambda x: GnfpModel([arc(0)], []), "identity"),
    NncpSolution: ([("opt", EMPTY), ("orders", EMPTY), ("swaps", EMPTY)],
                   lambda x: NncpSolution(0, [], []), "identity"),
    BTau: ([("order", EMPTY), ("edge_orbits", EMPTY)],
           lambda x: BTau(1, [[(0, 1)]]), "identity"),
    OrbitNode: ([("rep", EMPTY), ("orbit_size", EMPTY)],
                lambda x: OrbitNode((0, 1, 2), 6), "identity"),
    Layer: ([(name, EMPTY) for name in ("fp", "split", "nodes", "columns")],
            lambda x: quotient().layer, "identity"),
    QuotientGraph: ([(name, EMPTY) for name in ("coupling", "layer", "compliant")],
                    lambda x: quotient(), "identity"),
}


@pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)
def test_record_signature_and_equality(cls):
    params, build, equality = CASES[cls]
    sig = inspect.signature(cls)
    assert [(p.name, p.default) for p in sig.parameters.values()] == params
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in sig.parameters.values())
    a, b = build(0), build(0)
    assert a == a
    if equality == "identity":
        assert a != b
        assert hash(a) != hash(b)
        return
    assert a == b and a != build(1)
    if equality == "unhashable value":
        with pytest.raises(TypeError):
            hash(a)
        return
    assert hash(a) == hash(b)
    assert len({a, b, build(1)}) == 2
    name = params[0][0]
    with pytest.raises(AttributeError):
        setattr(a, name, getattr(b, name))
    with pytest.raises(AttributeError):
        delattr(a, name)


@pytest.mark.parametrize("family", ["cycle", "star"])
def test_a_quotient_counts_its_gates_by_their_compliance_lists(family):
    # a quotient keeps no circuit: m is the number of compliance lists
    g, _, _ = make(family, n=4)
    for gates in ([], [(0, 1), (2, 3), (1, 2)]):
        q = quotient_graph(Circuit(4, gates), g)
        assert q.m == len(q.compliant) == len(gates)
        assert not hasattr(q, "circuit")


def test_defaults_and_slots():
    assert Circuit(3, []).qubit_names == ["q1", "q2", "q3"]
    assert CouplingGraph(2, frozenset({(0, 1)}), "general", AutGroup(2)).split is None
    node = OrbitNode((1, 0), 2)
    assert OrbitNode.__slots__ == ("rep", "orbit_size")
    assert not hasattr(node, "__dict__")
    with pytest.raises(AttributeError):
        node.label = "x"
