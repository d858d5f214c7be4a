"""Workloads and metric definitions of the nncp benchmark.

A workload turns a seed into a fixed list of instances.  An instance is a
coupling graph, a qubit count and a list of CNOT gates on qubit pairs; the
program sees nothing else.  The generators here are the benchmark's own
(plain `random.Random(seed)`), so a change to `nncp.generate` can never
change what the benchmark measures.

Every instance names the independent oracle that pins its expected optimum:
star DP on stars, the layered BFS `solve_spp` where n <= 8.  The reduced
solver is never used to pin anything.
"""

from __future__ import annotations

import hashlib
import json
import random

DEFAULT_SEED = 0

# K_{3,4} as a plain edge list, so it takes the general (enumerated) path
# instead of the structural biclique one.  |Aut| = 3! * 4! = 144.
K34_EDGES = [(i, j) for i in range(3) for j in range(3, 7)]
# wheel: hub 0 joined to the 6-cycle 1..6.  |Aut| = 12.
WHEEL7_EDGES = [(0, i) for i in range(1, 7)] + [(i, i % 6 + 1) for i in range(1, 7)]


def ladder(k: int) -> list[tuple[int, int]]:
    """2 x k ladder: rails 0..k-1 and k..2k-1, rungs i-(i+k).  |Aut| = 4."""
    return ([(i, i + 1) for i in range(k - 1)] + [(i, i + 1) for i in range(k, 2 * k - 1)]
            + [(i, i + k) for i in range(k)])


# ---------------------------------------------------------------------------
# circuit generators (gate lists of qubit pairs)

def _connected(n: int, gates) -> bool:
    adj = {q: set() for q in range(n)}
    for a, b in gates:
        adj[a].add(b)
        adj[b].add(a)
    seen, stack = {0}, [0]
    while stack:
        for w in adj[stack.pop()] - seen:
            seen.add(w)
            stack.append(w)
    return len(seen) == n


def class_i_connected(rng: random.Random, n: int, m: int) -> list[tuple[int, int]]:
    """Class I (m CNOTs on uniformly random distinct pairs), redrawn until the
    gate graph connects all n qubits, so the qubit-side stabilizer is trivial."""
    while True:
        gates = [tuple(rng.sample(range(n), 2)) for _ in range(m)]
        if _connected(n, gates):
            return gates


def sparse_circuit(rng: random.Random, n: int, core: int, pairs: int,
                   m: int) -> list[tuple[int, int]]:
    """m gates that leave qubits idle or as isolated pairs: a random tree
    plus random extra gates on `core` qubits, one gate on each of `pairs`
    isolated pairs, and the other n - core - 2*pairs qubits idle.  Gate order
    and qubit labels are shuffled."""
    labels = list(range(n))
    rng.shuffle(labels)
    cq = labels[:core]
    gates = [(cq[i], cq[rng.randrange(i)]) for i in range(1, core)]
    while len(gates) < m - pairs:
        gates.append(tuple(rng.sample(cq, 2)))
    rest = labels[core:]
    gates += [(rest[2 * p], rest[2 * p + 1]) for p in range(pairs)]
    rng.shuffle(gates)
    return gates


def _instance(name, coupling, n, gates, oracle):
    return {"name": name, "coupling": coupling, "n": n,
            "gates": [list(p) for p in gates], "oracle": oracle}


def star(n):
    return {"family": "star", "n": n}


def cycle(n):
    return {"family": "cycle", "n": n}


def biclique(n, split):
    return {"family": "biclique", "n": n, "split": split}


def general(edges):
    return {"family": "general", "edges": [list(e) for e in edges]}


# ---------------------------------------------------------------------------
# workloads

def _star_wide(rng):
    return [_instance(f"star100-m400-{i}", star(100), 100,
                      class_i_connected(rng, 100, 400), "star_dp")
            for i in range(3)]


def _ring_deep(rng):
    return [_instance(f"cycle7-m240-{i}", cycle(7), 7,
                      class_i_connected(rng, 7, 240), "spp")
            for i in range(3)]


def _graph_build(rng):
    # Seven-vertex graphs: the quotient build costs ~2 * n! * |E| element
    # compositions whatever |Aut| is, so the 8-vertex 3-cube or 2x4 ladder
    # take 2-3 s per instance on a 2-vCPU cloud host, too few samples per
    # run for a steady median.  The first instance is small, so the CLI metric reads a
    # `file:` coupling without taking seconds per sample.
    insts = [_instance("ladder2x3-m12", general(ladder(3)), 6,
                       class_i_connected(rng, 6, 12), "spp")]
    for i in range(2):
        insts += [_instance(f"k34-edges-m20-{i}", general(K34_EDGES), 7,
                            class_i_connected(rng, 7, 20), "spp"),
                  _instance(f"wheel7-m20-{i}", general(WHEEL7_EDGES), 7,
                            class_i_connected(rng, 7, 20), "spp")]
    return insts


def _sparse_qubits(rng):
    # Many cheap instances, so that the per-instance median rests on many draws.
    insts = [_instance("cycle7-1pair-1idle-m30", cycle(7), 7,
                       sparse_circuit(rng, 7, 4, 1, 30), "spp")]
    for i in range(4):
        insts += [
            _instance(f"star14-1pair-3idle-m10-{i}", star(14), 14,
                      sparse_circuit(rng, 14, 9, 1, 10), "star_dp"),
            _instance(f"star16-2pair-3idle-m10-{i}", star(16), 16,
                      sparse_circuit(rng, 16, 9, 2, 10), "star_dp"),
            _instance(f"biclique2x6-1pair-2idle-m8-{i}", biclique(8, 2), 8,
                      sparse_circuit(rng, 8, 4, 1, 8), "spp")]
    insts += [_instance(f"star18-1pair-5idle-m10-{i}", star(18), 18,
                        sparse_circuit(rng, 18, 11, 1, 10), "star_dp")
              for i in range(2)]
    # fail today on the S_n(F) enumeration cap (17 and >= 10 idle qubits)
    a, b, c = rng.sample(range(20), 3)
    insts += [_instance("star20-triangle", star(20), 20, [(a, b), (b, c), (a, c)], "star_dp"),
              _instance("star18-m4", star(18), 18,
                        [tuple(rng.sample(range(18), 2)) for _ in range(4)], "star_dp")]
    return insts


# name -> (why, instance builder).  The first instance of each workload is
# also the one the CLI metric solves, so it must be one that solves.
WORKLOADS = {
    "star-wide": (
        "star n=100, connected class-I m=400: sort-based canonicalization and "
        "a 100-node BFS, no S_n(F) enumeration, no simplex, no Aut scan",
        _star_wide),
    "ring-deep": (
        "cycle-7, class-I m=240, trivial S_n(F): the 0-1 BFS over m x orbits "
        "states and per-gate compliance marking do most of the work",
        _ring_deep),
    "graph-build": (
        "K_{3,4} (|Aut|=144), 7-wheel and 2x3 ladder given as edge lists, m=20: scanning "
        "enumerated Aut elements in canonical_right dominates, the solve is a small share",
        _graph_build),
    "sparse-qubits": (
        "idle qubits and isolated pairs on stars n=14-20, a biclique and "
        "cycle-7: S_n(F) enumeration and the dense simplex, plus two cap cases",
        _sparse_qubits),
}


def instances(workload: str, seed: int) -> list[dict]:
    """The workload's instance list for this seed; same seed, same list."""
    _, build = WORKLOADS[workload]
    rng = random.Random(f"{workload}/{seed}")
    return build(rng)


def instance_key(inst: dict) -> str:
    """Content hash that pins an expected optimum to exactly this input."""
    body = json.dumps({k: inst[k] for k in ("coupling", "n", "gates")},
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(body.encode()).hexdigest()[:24]


# ---------------------------------------------------------------------------
# metrics

# (name, unit, better, bound) — bound is the share of the parent's median by
# which a metric may worsen before a change counts as a regression.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.2),
    ("instance_s.p50", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("cli_s", "s", "lower", 0.2),
    ("solved_share", "share", "higher", 0.1),
]

# (name, unit, better, end-to-end metric it should move, workloads it mainly
# shows on).
# Times are per pass over the instance set: the self time of the spans named,
# averaged over traced passes.  "self" is a span minus its child spans.
PER_LAYER = [
    ("coupling.make_s", "s", "lower", "setup_s", "graph-build"),
    ("coupling.canonical_right_s", "s", "lower", "wall_s", "graph-build; star-wide (sort path)"),
    ("coupling.canonical_right_calls", "count", "lower", "wall_s", "graph-build; star-wide"),
    ("coupling.aut_scan_elems", "count", "lower", "wall_s", "graph-build (calls x |Aut|, enumerated groups)"),
    ("symmetry.canonical_form_s", "s", "lower", "wall_s, fail_share", "sparse-qubits"),
    ("symmetry.canonical_form_calls", "count", "lower", "wall_s, fail_share", "sparse-qubits"),
    ("symmetry.snf_per_canonical", "ratio", "lower", "wall_s, fail_share", "sparse-qubits (canonical_right calls / canonical_form calls)"),
    ("symmetry.snf_elements_s", "s", "lower", "wall_s, fail_share", "sparse-qubits"),
    ("symmetry.b_tau_s", "s", "lower", "wall_s", "graph-build, sparse-qubits"),
    ("symmetry.layer_orbits_s", "s", "lower", "wall_s", "graph-build, star-wide"),
    ("symmetry.layer_orbitals_s", "s", "lower", "wall_s", "graph-build, star-wide"),
    ("symmetry.orbit_yield", "ratio", "higher", "wall_s", "graph-build, star-wide (new orbits / DFS canonicalizations)"),
    ("symmetry.compliance_s", "s", "lower", "wall_s", "ring-deep (self time of quotient_graph)"),
    ("symmetry.nodes", "count", "lower", "wall_s", "ring-deep"),
    ("symmetry.arcs", "count", "lower", "wall_s", "ring-deep"),
    ("symmetry.compliant", "count", "lower", "wall_s", "ring-deep (compliant orbit marks over all gates)"),
    ("lp.bfs_s", "s", "lower", "wall_s, peak_rss_mb", "ring-deep, star-wide"),
    ("lp.bfs_states", "count", "lower", "wall_s, peak_rss_mb", "ring-deep, star-wide (m x nodes)"),
    ("lp.build_s", "s", "lower", "wall_s, peak_rss_mb", "sparse-qubits"),
    ("lp.other_s", "s", "lower", "wall_s", "sparse-qubits (self time of solve_reduced and simplex_solve)"),
    ("lp.vars", "count", "lower", "wall_s, peak_rss_mb", "sparse-qubits (LP path only)"),
    ("lp.rows", "count", "lower", "wall_s, peak_rss_mb", "sparse-qubits (LP path only)"),
    ("lp.simplex_path_share", "share", "lower", "wall_s", "sparse-qubits"),
    ("simplex.solve_s", "s", "lower", "wall_s, peak_rss_mb, fail_share", "sparse-qubits"),
    ("simplex.basis_bytes", "bytes", "lower", "peak_rss_mb, fail_share", "sparse-qubits (8 x rows^2, largest LP)"),
    ("reconstruct.reconstruct_s", "s", "lower", "wall_s", "ring-deep"),
    ("reconstruct.verify_s", "s", "lower", "wall_s", "ring-deep"),
    ("reconstruct.swaps", "count", "lower", "wall_s", "ring-deep"),
    ("circuit.decompose_s", "s", "lower", "wall_s", "all (small everywhere)"),
    ("circuit.fixing_pattern_s", "s", "lower", "wall_s", "all (small everywhere)"),
    ("fail_share", "share", "lower", "solved_share", "sparse-qubits (cap cases)"),
    ("instance_s.samples", "count", "higher", "instance_s.p50", "all (sample count behind the median)"),
    ("trace.wall_s", "s", "lower", "-", "all (traced pass time, failures at their real time)"),
    ("trace.other_s", "s", "lower", "-", "all (traced pass time outside every span)"),
    ("trace.overhead_s", "s", "lower", "-", "all (traced minus untraced pass time)"),
]
