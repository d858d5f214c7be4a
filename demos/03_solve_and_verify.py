# Solve one instance end to end: minimum SWAP count, an explicit schedule
# (initial qubit order + timed SWAPs), and an independent re-check of that
# schedule against the circuit and the coupling graph.

from nncp import (RawGate, decompose, make, one_line_str, quotient_graph,
                  reconstruct, solve_reduced, verify)
from nncp.circuit import CNOT

pairs = [(0, 2), (2, 4), (1, 3), (0, 4), (1, 2)]
circuit = decompose([RawGate(CNOT, p) for p in pairs], n=5)

for family, m_side in [("cycle", None), ("star", None), ("biclique", 2)]:
    coupling, _, _ = make(family, n=5, m_side=m_side)
    q = quotient_graph(circuit, coupling)
    opt, solution = solve_reduced(q)
    schedule = reconstruct(q, solution)

    label = family if m_side is None else f"{family}(2,3)"
    print(f"--- {label}: optimum = {opt} SWAPs")
    print(f"    start order {one_line_str(schedule.orders[0])}"
          "   (location -> qubit, 1-based)")
    for k, (i, j) in schedule.swaps:
        print(f"    after gate {k}: swap locations ({i + 1},{j + 1})")

    report = verify(schedule, circuit, coupling)
    print(f"    verified: {report['ok']}"
          f" ({report['gates']} gates, {report['swaps']} swaps)")

# The schedule serializes to JSON (and back) for hand-off to other tools.
print("\nJSON form of the last schedule (compacted):")
data = schedule.to_json_dict()
print({"opt": data["opt"], "swaps": data["swaps"], "orders": data["orders"]})
