import pytest

from nncp.circuit import ARITY, CNOT, GATE_TOKENS, parse_real
from nncp.generate import random_class_i, random_class_ii, to_real


def test_class_i_shape():
    gates = random_class_i(n=7, m=40, seed=3)
    assert len(gates) == 40
    for g in gates:
        assert g.kind == CNOT
        assert len(g.qubits) == 2 and len(set(g.qubits)) == 2
        assert all(0 <= q < 7 for q in g.qubits)


def test_class_ii_shape():
    gates = random_class_ii(n=9, m=120, seed=11)
    assert len(gates) == 120
    kinds = set()
    for g in gates:
        assert len(g.qubits) == ARITY[g.kind]
        assert len(set(g.qubits)) == len(g.qubits)
        assert all(0 <= q < 9 for q in g.qubits)
        kinds.add(g.kind)
    # 120 draws over 7 buckets: expect to see both small and large gates
    assert len(kinds) >= 4
    assert any(ARITY[k] >= 3 for k in kinds)


def test_seed_determinism():
    a = random_class_ii(n=6, m=25, seed=42)
    b = random_class_ii(n=6, m=25, seed=42)
    assert a == b
    assert random_class_i(5, 10, seed=1) != random_class_i(5, 10, seed=2)


def test_size_guards():
    with pytest.raises(ValueError):
        random_class_i(n=1, m=3, seed=0)
    with pytest.raises(ValueError):
        random_class_ii(n=4, m=3, seed=0)


@pytest.mark.parametrize("gen, n", [(random_class_i, 3), (random_class_ii, 5)])
def test_negative_gate_count_is_rejected(gen, n):
    with pytest.raises(ValueError, match="m=-1"):
        gen(n=n, m=-1, seed=0)
    assert gen(n=n, m=0, seed=0) == []


def test_to_real_round_trip():
    gates = random_class_ii(n=8, m=30, seed=7)
    text = to_real(gates, n=8, comment="round trip")
    parsed, meta = parse_real(text)
    assert parsed == gates
    assert meta["numvars"] == 8
    assert len(meta["variables"]) == 8


def test_to_real_tokens_are_canonical():
    text = to_real(random_class_i(n=4, m=6, seed=5), n=4)
    body = text.split(".begin")[1].split(".end")[0].strip().splitlines()
    tokens = {GATE_TOKENS[line.split()[0]] for line in body}
    assert tokens == {CNOT}
