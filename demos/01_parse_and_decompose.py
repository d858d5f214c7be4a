# Read a reversible-logic circuit in .real format, rewrite the library gates
# (Toffoli, Fredkin, Peres, ...) into the equivalent two-qubit sequence, and
# look at the structure the solver will exploit: the gate graph and the
# partition of qubits it pins down.

from nncp import decompose, fixing_pattern, gate_graph, parse_real

TEXT = """\
# 1-bit full adder, hand-written for the demo
.version 2.0
.numvars 5
.variables cin a b sum cout
.begin
t3 a b cout
t2 a b
t3 cin b cout
t2 cin b
t2 b sum
.end
"""

gates, meta = parse_real(TEXT)
print(f"parsed {len(gates)} library gates over {meta['numvars']} qubits")
for g in gates:
    print(f"  {g.kind:10} on {g.qubits}")

circuit = decompose(gates, n=meta["numvars"], qubit_names=meta["variables"])
print(f"\ndecomposed into m = {circuit.m} two-qubit gates:")
for k, (a, b) in enumerate(circuit.gates, start=1):
    print(f"  gate {k:2}: {circuit.qubit_names[a]} -- {circuit.qubit_names[b]}")

# Qubits in a gate-graph component of size >= 3 can be told apart by the
# solver; components of size 2 only up to swapping; untouched qubits are
# interchangeable.  That partition is what shrinks the search space.
edges = gate_graph(circuit)
fp = fixing_pattern(circuit)
print(f"\ngate graph has {len(edges)} distinct edges")
print(f"pattern classes: {[sorted(cl) for cl in fp.classes]}")
sizes = [len(cl) for cl in fp.classes]
print(f"class sizes {sizes}, stabilizer order prod |c|! = {fp.group_order}")
