"""Command-line interface.

Subcommands: ``solve`` (reduced / baseline / dp / all with cross-check),
``stats`` (model sizes and reduction factors), ``decompose`` (library gates
to two-qubit form), ``verify`` (re-check a saved schedule) and ``random``
(seeded benchmark instances).  Exit codes: 1 parse/usage, 2 a size cap was
hit or memory ran out, 3 the solver failed, 4 verification failed, 141
(128 + SIGPIPE) the reader closed stdout early, as ``| head`` does; then
nothing is printed to stderr.

``--circuit`` accepts a ``.real`` file path or a generator descriptor
``classI:N:M`` / ``classII:N:M`` (combined with ``--seed``)."""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

from .baseline import BASELINE_N_CAP, solve_spp
from .circuit import Circuit, decompose, parse_real
from .coupling import STAR, CouplingGraph, coupling_from_descriptor
from .dp import solve_star_dp, star_solution
from .errors import NncpError, ParseError, VerificationError
from .generate import random_class_i, random_class_ii, to_real
from .lp import solve_reduced
from .perm import one_line_str
from .reconstruct import SCHEMA_VERSION, NncpSolution, dumps_rows, reconstruct, verify
from .symmetry import quotient_graph, reduction_stats


def _load_circuit(desc: str, seed: int) -> Circuit:
    for prefix, gen in (("classI:", random_class_i), ("classII:", random_class_ii)):
        if desc.startswith(prefix):
            try:
                n, m = (int(v) for v in desc[len(prefix):].split(":"))
            except ValueError:
                raise ParseError(f"expected {prefix}N:M, got {desc!r}")
            try:
                return decompose(gen(n, m, seed), n=n)
            except ValueError as exc:
                raise ParseError(str(exc))
    if not os.path.isfile(desc):
        raise ParseError(f"no such circuit file: {desc}")
    try:
        with open(desc, encoding="utf-8") as f:
            text = f.read()
    except (OSError, ValueError) as exc:
        raise ParseError(f"cannot read circuit file {desc}: {exc}")
    gates, meta = parse_real(text)
    return decompose(gates, n=meta.get("numvars"),
                     qubit_names=meta["variables"] or None)


def _solve_one(method: str, circuit: Circuit, coupling: CouplingGraph) -> NncpSolution:
    if method == "reduced":
        q = quotient_graph(circuit, coupling)
        _, sol = solve_reduced(q)
        return reconstruct(q, sol)
    if method == "baseline":
        return solve_spp(circuit, coupling)
    if method == "dp":
        if coupling.family != STAR:
            raise ParseError("--method dp needs a star coupling; "
                             "use --method reduced otherwise")
        return star_solution(circuit, solve_star_dp(circuit))
    raise ParseError(f"unknown method {method!r}")


def cmd_solve(args) -> int:
    circuit = _load_circuit(args.circuit, args.seed)
    coupling = coupling_from_descriptor(args.coupling, circuit.n)

    methods = ["reduced"]
    skipped = []
    if args.method == "all":
        if circuit.n <= BASELINE_N_CAP:
            methods.append("baseline")
        else:
            skipped.append("baseline")
        if coupling.family == STAR:
            methods.append("dp")
        else:
            skipped.append("dp")
    else:
        methods = [args.method]

    solutions: dict[str, NncpSolution] = {}
    for method in methods:
        sol = _solve_one(method, circuit, coupling)
        report = verify(sol, circuit, coupling)
        if not report["ok"]:
            raise VerificationError(
                f"{method} schedule failed verification: {report['violations'][0]}")
        solutions[method] = sol

    opts = {method: sol.opt for method, sol in solutions.items()}
    if len(set(opts.values())) > 1:
        raise VerificationError(f"methods disagree on the optimum: {opts}")

    chosen = solutions[methods[0]]
    if args.out == "json":
        payload = chosen.to_json_dict()
        payload.update({"n": circuit.n, "m": circuit.m,
                        "coupling": args.coupling, "methods": opts})
        print(dumps_rows(payload))
    elif args.out == "csv":
        print("n,m,coupling,method,opt,swap_count")
        for method in methods:
            sol = solutions[method]
            print(f"{circuit.n},{circuit.m},{args.coupling},{method},"
                  f"{sol.opt},{len(sol.swaps)}")
    else:
        head = f"n={circuit.n} m={circuit.m} coupling={args.coupling}"
        if skipped:
            head += f" (skipped: {', '.join(skipped)})"
        print(head)
        for method in methods:
            print(f"{method}: opt={solutions[method].opt}")
        for k, (i, j) in chosen.swaps:
            print(f"swap after gate {k}: locations ({i + 1},{j + 1})")
        for idx, tau in enumerate(chosen.orders, start=1):
            print(f"order at gate {idx}: {one_line_str(tau)}")
    return 0


@contextlib.contextmanager
def _exact_integers():
    """Lift the interpreter's cap on int-to-str digits (4 300 by default;
    n! passes it at n = 1 559) and restore it afterwards: `parse_real`
    relies on the cap to reject an oversized ``.numvars``."""
    set_cap = getattr(sys, "set_int_max_str_digits", None)
    if set_cap is None:         # an interpreter without the cap
        yield
        return
    old = sys.get_int_max_str_digits()
    set_cap(0)
    try:
        yield
    finally:
        set_cap(old)


def cmd_stats(args) -> int:
    circuit = _load_circuit(args.circuit, args.seed)
    coupling = coupling_from_descriptor(args.coupling, circuit.n)
    stats = reduction_stats(quotient_graph(circuit, coupling))
    with _exact_integers():     # |Aut| and the unreduced sizes are exact
        if args.out == "json":
            print(dumps_rows({"schema": SCHEMA_VERSION, **stats}))
        elif args.out == "csv":
            def cell(v):  # per-boundary counts are lists; keep the row comma-safe
                return ";".join(map(str, v)) if isinstance(v, list) else str(v)
            print(",".join(stats))
            print(",".join(cell(v) for v in stats.values()))
        else:
            width = max(len(k) for k in stats)
            for k, v in stats.items():
                print(f"{k:<{width}}  {v}")
    return 0


def cmd_decompose(args) -> int:
    """Emit the two-qubit form; pairs come out as t2 lines since only the
    acted-on pair matters downstream."""
    circuit = _load_circuit(args.circuit, args.seed)
    lines = [f"# two-qubit decomposition: {circuit.m} gates",
             ".version 2.0",
             f".numvars {circuit.n}",
             ".variables " + " ".join(circuit.qubit_names),
             ".begin"]
    for a, b in circuit.gates:
        lines.append(f"t2 {circuit.qubit_names[a]} {circuit.qubit_names[b]}")
    lines.append(".end")
    print("\n".join(lines))
    return 0


def cmd_verify(args) -> int:
    circuit = _load_circuit(args.circuit, args.seed)
    coupling = coupling_from_descriptor(args.coupling, circuit.n)
    try:
        with open(args.solution) as f:
            sol = NncpSolution.from_json(f.read())
    except (OSError, ValueError) as exc:
        raise ParseError(f"cannot read solution file: {exc}")
    report = verify(sol, circuit, coupling)
    print(dumps_rows({"schema": SCHEMA_VERSION, **report}))
    if not report["ok"]:
        raise VerificationError(report["violations"][0])
    return 0


def cmd_random(args) -> int:
    klass, n, m, seed = args.klass, args.n, args.m, args.seed
    try:
        gates = (random_class_i if klass == "I" else random_class_ii)(n, m, seed)
    except ValueError as exc:
        raise ParseError(str(exc))
    sys.stdout.write(to_real(gates, n, comment=f"class {klass} n={n} m={m} seed={seed}"))
    return 0


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="nncp",
                                 description="SWAP-minimal nearest-neighbour "
                                             "compliance solver")
    sub = ap.add_subparsers(dest="command", required=True)

    def instance_args(p):
        p.add_argument("--circuit", required=True,
                       help=".real file or classI:N:M / classII:N:M")
        p.add_argument("--coupling", required=True,
                       help="star | cycle | biclique:M | file:PATH")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", choices=["json", "csv", "human"], default="human")

    p = sub.add_parser("solve", help="compute a SWAP-minimal schedule")
    instance_args(p)
    p.add_argument("--method", choices=["reduced", "baseline", "dp", "all"],
                   default="reduced")
    p.set_defaults(run=cmd_solve)

    p = sub.add_parser(
        "stats", help="model sizes before/after reduction",
        description="Model sizes before and after the symmetry reduction.  "
        "aut_order, unreduced_variables and unreduced_constraints are exact "
        "integers; from about 1559 locations they pass 4300 digits, and a "
        "Python reader must call sys.set_int_max_str_digits(0) before json.loads.")
    instance_args(p)
    p.set_defaults(run=cmd_stats)

    p = sub.add_parser("decompose", help="rewrite a circuit into two-qubit gates")
    p.add_argument("--circuit", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(run=cmd_decompose)

    p = sub.add_parser("verify", help="re-check a saved schedule")
    p.add_argument("--solution", required=True)
    p.add_argument("--circuit", required=True)
    p.add_argument("--coupling", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(run=cmd_verify)

    p = sub.add_parser("random", help="emit a seeded benchmark circuit")
    p.add_argument("--class", dest="klass", choices=["I", "II"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(run=cmd_random)

    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = args.run(args)
        sys.stdout.flush()          # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader went away; point stdout at devnull so that the
        # interpreter's final flush of what is still buffered cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except NncpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except MemoryError as exc:
        # the instance outgrew the machine; a bare MemoryError has no message
        print(f"error: out of memory: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
