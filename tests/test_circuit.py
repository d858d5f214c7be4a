import itertools

import pytest

from nncp.circuit import (CNOT, CVDAG, FREDKIN3, FREDKIN4, NOT, PERES, SWAP,
                          TOFFOLI3, TOFFOLI4, TOFFOLI5, Circuit, RawGate,
                          decompose, fixing_pattern, gate_graph, parse_real)
from nncp.errors import ParseError

GOOD = """\
# tiny example
.version 2.0
.numvars 4
.variables a b c d
.begin
t2 a c
T3 a b d
v+ c d
.end
"""


def test_parse_good():
    gates, meta = parse_real(GOOD)
    assert meta["numvars"] == 4
    assert meta["variables"] == ["a", "b", "c", "d"]
    assert [g.kind for g in gates] == [CNOT, TOFFOLI3, CVDAG]
    assert gates[1].qubits == (0, 1, 3)


@pytest.mark.parametrize("mutation, lineno, fragment", [
    (("t2 a c", "t9 a c"), 6, "unknown gate token"),
    (("t2 a c", "t2 a z"), 6, "undeclared variable"),
    (("t2 a c", "t2 a a"), 6, "repeated qubits"),
    ((".numvars 4", ".numvars x"), 3, "expects an integer"),
    ((".variables a b c d", ".variables a a c d"), 4, "duplicate variable"),
    ((".begin", ".bogus"), 5, "unknown directive"),
    ((".numvars 4", ".numvars -1"), 3, "must not be negative"),
])
def test_parse_errors_carry_line_numbers(mutation, lineno, fragment):
    with pytest.raises(ParseError) as err:
        parse_real(GOOD.replace(*mutation))
    assert fragment in str(err.value)
    assert f"line {lineno}:" in str(err.value)


def test_parse_failures_without_line():
    with pytest.raises(ParseError, match="numvars 5 != 4"):
        parse_real(GOOD.replace(".numvars 4", ".numvars 5"))
    with pytest.raises(ParseError, match="without matching .end"):
        parse_real(GOOD.replace(".end", ""))


def test_rawgate_validation():
    with pytest.raises(ParseError, match="unknown gate kind"):
        RawGate("XX", (0, 1))
    with pytest.raises(ParseError, match="expects 3 qubits"):
        RawGate(TOFFOLI3, (0, 1))


# --- decomposition -----------------------------------------------------------
# Expected two-qubit sequences, written out by hand so the frozen tables in
# the implementation are checked against an independent transcription.

def pairs_of(kind, qubits):
    c = decompose([RawGate(kind, qubits)], n=max(qubits) + 1)
    return c.gates


def test_toffoli3_sequence():
    assert pairs_of(TOFFOLI3, (0, 1, 2)) == [(1, 2), (0, 1), (1, 2), (0, 1), (0, 2)]


def test_peres_sequence():
    assert pairs_of(PERES, (0, 1, 2)) == [(1, 2), (0, 2), (0, 1), (1, 2)]


def test_fredkin3_sequence():
    assert pairs_of(FREDKIN3, (0, 1, 2)) == [
        (1, 2), (0, 2), (1, 2), (0, 1), (1, 2), (1, 2), (0, 1)]


@pytest.mark.parametrize("kind, count", [
    (TOFFOLI3, 5), (PERES, 4), (FREDKIN3, 7),
    (TOFFOLI4, 13), (FREDKIN4, 15), (TOFFOLI5, 29),
])
def test_decomposition_counts(kind, count):
    arity = {TOFFOLI3: 3, PERES: 3, FREDKIN3: 3, TOFFOLI4: 4,
             FREDKIN4: 4, TOFFOLI5: 5}[kind]
    # descending qubits: each table entry names its qubits high to low, and
    # decompose must still yield sorted pairs
    qubits = tuple(reversed(range(arity)))
    pairs = pairs_of(kind, qubits)
    assert len(pairs) == count
    assert all(0 <= a < b < arity for a, b in pairs)


def test_decompose_respects_gate_qubits():
    # positions in the table index into the gate's qubit tuple
    pairs = pairs_of(TOFFOLI3, (4, 0, 2))
    assert pairs == [(0, 2), (0, 4), (0, 2), (0, 4), (2, 4)]


@pytest.mark.parametrize("gate", [(2, 0), (1, 1), (0, 4)])
def test_circuit_rejects_gates_that_are_not_sorted_pairs(gate):
    with pytest.raises(ValueError, match="sorted pair"):
        Circuit(n=4, gates=[(0, 1), gate])


def test_decompose_drops_single_qubit_gates():
    c = decompose([RawGate(NOT, (1,)), RawGate(CNOT, (0, 1))], n=3)
    assert c.m == 1 and c.n == 3


def test_decompose_passthrough_two_qubit():
    c = decompose([RawGate(SWAP, (2, 0))], n=3)
    assert c.gates == [(0, 2)]


def test_circuit_names_default():
    c = decompose([RawGate(CNOT, (0, 1))], n=3)
    assert list(c.qubit_names) == ["q1", "q2", "q3"]


# --- fixing pattern ----------------------------------------------------------

def components_by_union_find(n, edges):
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        parent[find(a)] = find(b)
    comps = {}
    for v in range(n):
        comps.setdefault(find(v), set()).add(v)
    return sorted(comps.values(), key=min)


@pytest.mark.parametrize("n, raw_pairs", [
    (6, [(0, 1), (1, 2)]),                       # one triple, one pair missing
    (6, [(0, 1), (2, 3), (4, 5)]),               # three pairs
    (7, [(0, 1), (1, 2), (2, 0), (4, 5)]),       # triangle + pair + 2 isolated
    (5, []),                                     # everything isolated
    (8, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 3)]),
])
def test_fixing_pattern_against_union_find(n, raw_pairs):
    c = decompose([RawGate(CNOT, p) for p in raw_pairs], n=n)
    fp = fixing_pattern(c)
    comps = components_by_union_find(n, gate_graph(c))

    # expected partition: big components split into singletons, pair
    # components kept whole, and all isolated vertices pooled into one class
    expected = [(v,) for comp in comps if len(comp) >= 3 for v in comp]
    expected += [tuple(sorted(comp)) for comp in comps if len(comp) == 2]
    idle = sorted(v for comp in comps if len(comp) == 1 for v in comp)
    if idle:
        expected.append(tuple(idle))

    assert fp.classes == tuple(sorted(expected))

    # group order equals the brute-force count of pattern-preserving perms
    if n <= 6:
        sets = [set(cls) for cls in fp.classes]
        count = sum(
            all({p[v] for v in s} == s for s in sets)
            for p in itertools.permutations(range(n)))
        assert count == fp.group_order


def test_trivial_pattern():
    c = decompose([RawGate(CNOT, (0, 1)), RawGate(CNOT, (1, 2)),
                   RawGate(CNOT, (2, 3))], n=4)
    fp = fixing_pattern(c)
    assert fp.trivial and fp.group_order == 1


def test_gate_graph():
    c = decompose([RawGate(CNOT, (1, 0)), RawGate(CNOT, (0, 1)),
                   RawGate(CNOT, (2, 1))], n=4)
    assert gate_graph(c) == {(0, 1), (1, 2)}
