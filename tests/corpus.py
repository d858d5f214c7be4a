"""The differential corpus: instances made from seeds, with pinned results.

Each coupling carries six circuits: two with a trivial pattern (a chain
through every qubit, and one leaving a single qubit idle), one with three
idle qubits, one with an isolated pair, the empty circuit, and the first
circuit with each gate repeated 1-3 times back to back (same-pair runs).
Every instance of the benchmark's workloads (`perfbench/workloads.py`, read by
path) for seeds 0 and 1 is a row too, named by its workload, seed and
coupling, with the instance's name as its kind.  A row pins
what the reduced pipeline gives for one of them: ``opt``, checked at pin
time against an independent oracle (`solve_spp` for n <= 8, `solve_star_dp`
on stars); the orbit and arc counts of the quotient; the sha256 of its five
arc columns; and the sha256 of the verified schedule's
`NncpSolution.to_json()`.  `tests/test_corpus.py` checks every fast row.

    PYTHONPATH=src python tests/corpus.py            # check every row, slow ones too
    PYTHONPATH=src python tests/corpus.py --repin    # rewrite tests/corpus.json

A re-pin may change schedule digests only when a new solve path breaks
ties differently, and never an ``opt``; say which rows changed and why.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import random
import sys
import time

from nncp.baseline import solve_spp
from nncp.circuit import CNOT, Circuit, RawGate, decompose, fixing_pattern
from nncp.coupling import make
from nncp.dp import solve_star_dp
from nncp.lp import solve_reduced
from nncp.reconstruct import reconstruct, verify
from nncp.symmetry import _COLUMNS, quotient_graph

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PATH = os.path.join(ROOT, "tests", "corpus.json")
SLOW_S = 1.0        # a row whose reduced solve takes longer stays out of tier-1

EDGE_LISTS = {
    "K34": [(i, j) for i in range(3) for j in range(3, 7)],
    "wheel7": [(0, i) for i in range(1, 7)] + [(i, i % 6 + 1) for i in range(1, 7)],
    "ladder": [(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)],
    "star8": [(0, i) for i in range(1, 8)],
}

# name -> make() arguments; each coupling's rows are solved on one object
COUPLINGS = {
    "star-8": dict(family="star", n=8),
    "star-100": dict(family="star", n=100),
    "biclique2-8": dict(family="biclique", n=8, m_side=2),
    "biclique3-7": dict(family="biclique", n=7, m_side=3),
    **{f"cycle-{n}": dict(family="cycle", n=n) for n in range(5, 9)},
    **{f"{name}-edges": dict(family="general", edges=edges)
       for name, edges in EDGE_LISTS.items()},
}

KINDS = ("connected", "one-idle", "idle", "pair", "empty", "runs")

BENCHMARK_SEEDS = (0, 1)


def circuit(name: str, kind: str, n: int) -> Circuit:
    """The ``kind`` circuit on n qubits, from a seed named after the
    instance: a shuffled chain through its active qubits plus random gates
    among them, so its gate graph is connected there.  The ``runs`` circuit
    repeats each gate of the ``connected`` one 1-3 times back to back."""
    rng = random.Random(f"corpus/{name}/{kind}")
    if kind == "runs":
        gates = circuit(name, "connected", n).gates
        return Circuit(n, [gate for gate in gates for _ in range(rng.randint(1, 3))])
    if kind == "empty":
        return Circuit(n, [])
    qs = rng.sample(range(n), n)
    active = {"connected": n, "one-idle": n - 1, "idle": n - 3, "pair": n - 2}[kind]
    chain = qs[:active]
    gates = list(zip(chain, chain[1:]))
    gates += [tuple(rng.sample(chain, 2)) for _ in range(rng.randint(2, 8))]
    if kind == "pair":
        gates += [tuple(qs[active:])] * rng.randint(1, 3)
    rng.shuffle(gates)
    return Circuit(n, [(a, b) if a < b else (b, a) for a, b in gates])


def workloads():
    """The benchmark's `perfbench/workloads.py`, loaded by path."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(ROOT, "perfbench", "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _label(spec: dict) -> str:
    if spec["family"] == "general":
        edges = [tuple(e) for e in spec["edges"]]
        return next(f"{name}-edges" for name, known in EDGE_LISTS.items() if known == edges)
    if spec["family"] == "biclique":
        return f"biclique{spec['split']}-{spec['n']}"
    return f"{spec['family']}-{spec['n']}"


def benchmark_instances():
    """(coupling name, [benchmark instance]) for every workload and seed of
    `BENCHMARK_SEEDS`, one name per coupling the seed's instances use, in
    their order."""
    bench = workloads()
    for workload in bench.WORKLOADS:
        for seed in BENCHMARK_SEEDS:
            groups: dict[str, list[dict]] = {}
            for inst in bench.instances(workload, seed):
                groups.setdefault(_label(inst["coupling"]), []).append(inst)
            for label, insts in groups.items():
                yield f"{workload}/{seed}/{label}", insts


def _benchmark_coupling(spec: dict):
    if spec["family"] == "general":
        return make("general", edges=[tuple(e) for e in spec["edges"]])[0]
    return make(spec["family"], spec["n"], spec.get("split"))[0]


def instances():
    """(coupling name, a newly made coupling, [(kind, circuit)]) in corpus
    order."""
    for name, args in COUPLINGS.items():
        g = make(**args)[0]
        yield name, g, [(kind, circuit(name, kind, g.n)) for kind in KINDS]
    for name, insts in benchmark_instances():
        g = _benchmark_coupling(insts[0]["coupling"])
        yield name, g, [(inst["name"], decompose([RawGate(CNOT, tuple(p)) for p in inst["gates"]],
                                                 n=inst["n"]))
                        for inst in insts]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def result(c: Circuit, g) -> dict:
    """The reduced pipeline's pinned fields for ``c`` on ``g``.  The arc
    columns are read after the schedule, so a star's solve reads none."""
    q = quotient_graph(c, g)
    opt, path = solve_reduced(q)
    solution = reconstruct(q, path)
    report = verify(solution, c, g)
    assert report["ok"], report
    columns = json.dumps([getattr(q, col).tolist() for col in _COLUMNS])
    return {"opt": opt, "orbits": len(q.nodes), "arcs": len(q.arcs),
            "columns_sha256": digest(columns), "json_sha256": digest(solution.to_json())}


def oracle(c: Circuit, g) -> tuple[str, int]:
    if g.family == "star":
        return "solve_star_dp", solve_star_dp(c).opt
    return "solve_spp", solve_spp(c, g).opt


def repin() -> list[dict]:
    rows = []
    for name, g, circuits in instances():
        for kind, c in circuits:
            start = time.perf_counter()
            row = result(c, g)
            seconds = time.perf_counter() - start
            which, opt = oracle(c, g)
            assert opt == row["opt"], (name, kind, which, opt, row["opt"])
            rows.append({"coupling": name, "kind": kind, "n": c.n, "m": c.m,
                         "trivial": fixing_pattern(c).trivial, "oracle": which,
                         **row, "slow": seconds > SLOW_S})
    return rows


def load() -> list[dict]:
    with open(PATH) as f:
        return json.load(f)


def check(rows: list[dict], couplings, slow: bool = True) -> list[str]:
    """Solve the rows on the named couplings, one coupling object each, in
    corpus order (the slow rows too if ``slow``); return a line per field
    that differs from its pin."""
    pinned = {(row["coupling"], row["kind"]): row for row in rows}
    diffs = []
    for name, g, circuits in instances():
        if name not in couplings:
            continue
        for kind, c in circuits:
            row = pinned[name, kind]
            if row["slow"] and not slow:
                continue
            got = result(c, g)
            diffs += [f"{name}/{kind} {key}: pinned {row[key]}, got {value}"
                      for key, value in got.items() if row[key] != value]
    return diffs


def main(argv: list[str]) -> int:
    if argv == ["--repin"]:
        rows = repin()
        with open(PATH, "w") as f:
            json.dump(rows, f, indent=1)
            f.write("\n")
        print(f"pinned {len(rows)} rows, {sum(r['slow'] for r in rows)} slow")
        return 0
    if argv:
        print(__doc__, file=sys.stderr)
        return 2
    rows = load()
    diffs = check(rows, {row["coupling"] for row in rows})
    print(*diffs, sep="\n")
    print(f"{len(diffs)} fields differ")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
