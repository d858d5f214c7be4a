"""Benchmark child process.  Run by run.py, never by hand:

    python3 worker.py ROOT INSTANCES_JSON

It imports nncp from ROOT/src (and refuses any other copy), builds the
workload's coupling graphs, and reports that set-up time.  Then it serves
one request per stdin line and answers one JSON line on stdout:

    {"op": "solve", "i": 3, "trace": false}   solve instance 3 end to end
    {"op": "oracle", "i": 3}                  expected optimum by the oracle
    {"op": "quit"}                            report peak memory and exit
"""

from __future__ import annotations

import gzip
import json
import os
import resource
import sys
import time
import traceback

from calib import kernel_seconds


def _send(obj):
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    root, inst_path = sys.argv[1], sys.argv[2]
    with open(inst_path) as fh:
        insts = json.load(fh)
    src = os.path.realpath(os.path.join(root, "src"))

    cal_before = kernel_seconds()
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import nncp
    nncp_file = os.path.realpath(nncp.__file__)
    if not nncp_file.startswith(src + os.sep):
        print(f"worker: nncp imported from {nncp_file}, outside {src}", file=sys.stderr)
        return 3
    t_import = time.perf_counter()
    make = sys.modules["nncp.coupling"].make
    couplings: dict[str, object] = {}
    for inst in insts:
        spec = inst["coupling"]
        key = json.dumps(spec, sort_keys=True)
        if key not in couplings:
            if spec["family"] == "general":
                couplings[key] = make("general", edges=[tuple(e) for e in spec["edges"]])[0]
            else:
                couplings[key] = make(spec["family"], spec["n"], spec.get("split"))[0]
    t_done = time.perf_counter()
    cal_after = kernel_seconds()
    _send({"setup_s": t_done - t0, "make_s": t_done - t_import,
           "cal": [cal_before, cal_after], "nncp_file": nncp_file})

    circuit = sys.modules["nncp.circuit"]
    symmetry = sys.modules["nncp.symmetry"]
    lp = sys.modules["nncp.lp"]
    recon = sys.modules["nncp.reconstruct"]     # nncp.reconstruct is the function
    CapError = sys.modules["nncp.errors"].CapError

    graphs = [couplings[json.dumps(i["coupling"], sort_keys=True)] for i in insts]
    raw = [[circuit.RawGate(circuit.CNOT, tuple(p)) for p in i["gates"]] for i in insts]
    tracer = None
    span_file = None

    for line in sys.stdin:
        req = json.loads(line)
        op = req["op"]
        if op == "quit":
            if span_file is not None:
                span_file.close()
            _send({"maxrss_kb": _maxrss_kb()})
            return 0
        i = req["i"]
        n, g = insts[i]["n"], graphs[i]
        if op == "oracle":
            c = circuit.decompose(raw[i], n=n)
            if insts[i]["oracle"] == "star_dp":
                opt = sys.modules["nncp.dp"].solve_star_dp(c).opt
            else:
                opt = sys.modules["nncp.baseline"].solve_spp(c, g).opt
            _send({"opt": opt})
            continue

        traced = req.get("trace", False)
        if traced:
            if tracer is None:
                from spans import Tracer
                tracer = Tracer()
                span_file = gzip.open(req["span_file"], "wt", compresslevel=1)
            tracer.instance = i
            tracer.install()
        reply = {"status": "ok"}
        q = None
        cal_before = cal_after           # the kernel ran right after the last request
        t = time.perf_counter()
        try:
            c = circuit.decompose(raw[i], n=n)
            q = symmetry.quotient_graph(c, g)
            opt, sol = lp.solve_reduced(q)
            sched = recon.reconstruct(q, sol)
            report = recon.verify(sched, c, g)
            elapsed = time.perf_counter() - t
            reply.update(opt=opt, verified=report["ok"])
        except CapError as exc:
            elapsed = time.perf_counter() - t
            reply.update(status="cap", detail=str(exc))
        except MemoryError as exc:
            elapsed = time.perf_counter() - t
            reply.update(status="memory", detail=repr(exc))
        except Exception:
            elapsed = time.perf_counter() - t
            reply.update(status="error", detail=traceback.format_exc(limit=4))
        finally:
            if traced:
                tracer.uninstall()
        reply["elapsed"] = elapsed
        cal_after = kernel_seconds()
        reply["cal"] = [cal_before, cal_after]
        reply["maxrss_kb"] = _maxrss_kb()
        if q is not None:
            reply.update(nodes=len(q.nodes), arcs=len(q.arcs),
                         compliant=sum(len(ids) for ids in q.compliant))
        q = sol = sched = None
        if traced:
            self_s, counts, spans = tracer.take()
            reply.update(self_s=self_s, counts=counts)
            span_file.write(json.dumps(spans, separators=(",", ":")) + "\n")
        _send(reply)
    return 0


if __name__ == "__main__":
    sys.exit(main())
