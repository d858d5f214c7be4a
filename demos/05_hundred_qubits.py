# Scale run: 100 qubits, 400 random CNOTs, star coupling.  The automorphism
# group of the star has order 99!, so the plain layered graph (100! orders
# per layer) is far out of reach -- the quotient has 100 orbit nodes per
# layer, and as any two of them are one SWAP apart the solve is one pass
# over each gate's compliant orbits, with no orbital arc built: the whole
# thing takes a few milliseconds.  The O(m) center-tracking recurrence
# gives an independent check of the optimum.

import time

from nncp import (decompose, make, quotient_graph, random_class_i,
                  reconstruct, solve_reduced, solve_star_dp, verify)

t0 = time.perf_counter()
circuit = decompose(random_class_i(n=100, m=400, seed=7), n=100)
coupling, _, _ = make("star", n=100)

q = quotient_graph(circuit, coupling)
t_build = time.perf_counter() - t0
print(f"quotient built in {t_build:.2f}s: "
      f"{len(q.nodes)} orbit nodes/layer, {len(q.arcs)} orbital arcs/layer")

opt, solution = solve_reduced(q)
t_solve = time.perf_counter() - t0 - t_build
print(f"solved in {t_solve:.2f}s: optimum = {opt} SWAPs for {circuit.m} gates")

schedule = reconstruct(q, solution)
report = verify(schedule, circuit, coupling)
print(f"schedule reconstructed and verified: {report['ok']}"
      f" ({len(schedule.swaps)} swaps)")

dp = solve_star_dp(circuit)
print(f"independent recurrence agrees: {dp.opt == opt} (opt {dp.opt})")
print(f"total {time.perf_counter() - t0:.2f}s")
