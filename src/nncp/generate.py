"""Seeded random benchmark instances.

Class I is the plain stress test: m two-qubit gates on uniformly random
distinct pairs.  Class II draws each gate uniformly from the reversible
library (Toffoli on 3/4/5 lines, Fredkin on 3/4, Peres, or a two-qubit
gate), so the two-qubit count after decomposition grows well past m.  All
randomness flows from a single `random.Random(seed)`.
"""

from __future__ import annotations

from .circuit import (ARITY, CNOT, CV, CVDAG, FREDKIN3, FREDKIN4, GATE_TOKENS,
                      PERES, SWAP, TOFFOLI3, TOFFOLI4, TOFFOLI5, RawGate)

TOKEN_OF = {kind: token for token, kind in GATE_TOKENS.items()}

TWO_QUBIT_KINDS = (CNOT, SWAP, CV, CVDAG)
CLASS_II_BUCKETS = (TOFFOLI3, TOFFOLI4, TOFFOLI5, FREDKIN3, FREDKIN4,
                    PERES, "two-qubit")


def random_class_i(n: int, m: int, seed: int) -> list[RawGate]:
    """m CNOTs on uniformly random distinct qubit pairs."""
    if n < 2:
        raise ValueError("class I needs n >= 2")
    if m < 0:
        raise ValueError(f"gate count must be >= 0, got m={m}")
    import random
    rng = random.Random(seed)
    return [RawGate(CNOT, tuple(rng.sample(range(n), 2))) for _ in range(m)]


def random_class_ii(n: int, m: int, seed: int) -> list[RawGate]:
    """m gates drawn uniformly from the reversible library."""
    if n < 5:
        raise ValueError("class II needs n >= 5 (largest gate uses 5 lines)")
    if m < 0:
        raise ValueError(f"gate count must be >= 0, got m={m}")
    import random
    rng = random.Random(seed)
    gates = []
    for _ in range(m):
        bucket = rng.choice(CLASS_II_BUCKETS)
        kind = rng.choice(TWO_QUBIT_KINDS) if bucket == "two-qubit" else bucket
        gates.append(RawGate(kind, tuple(rng.sample(range(n), ARITY[kind]))))
    return gates


def to_real(gates: list[RawGate], n: int, comment: str | None = None) -> str:
    """Emit gates in the ``.real`` format that `parse_real` reads back."""
    names = [f"q{i + 1}" for i in range(n)]
    lines = []
    if comment:
        lines.append(f"# {comment}")
    lines += [".version 2.0",
              f".numvars {n}",
              ".variables " + " ".join(names),
              ".begin"]
    for g in gates:
        lines.append(TOKEN_OF[g.kind] + " " + " ".join(names[q] for q in g.qubits))
    lines.append(".end")
    return "\n".join(lines) + "\n"
