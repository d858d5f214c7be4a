"""nncp benchmark: seeded workloads solved end to end, checked against
independent oracles.

    python3 perfbench/run.py --workload ring-deep --seed 0 --seconds 15 --trace 0

It measures the checkout it lives in (ROOT/src first on the path, never an
installed nncp).  One client, closed loop, pinned to one CPU: a child
process solves the workload's instances one at a time, in passes over the
instance set, until --seconds have passed (at least MIN_PASSES passes).
Each instance goes decompose -> quotient_graph -> solve_reduced ->
reconstruct -> verify, and its optimum must equal the one pinned by its
oracle (perfbench/pins.json, or computed once into .bench_cache/).  Spread
over the run, PROBES fresh children time their set-up and PROBES CLI
subprocesses solve the first instance.

--trace 0 prints the end-to-end metrics, --trace 1 alternates untraced and
traced passes and prints the per-layer metrics (workloads.py says what
each one should move).  End-to-end times are rescaled to a reference host
speed (calib.py); per-layer times are raw.  The last stdout line is the
JSON result; the full record (status of every attempt, raw times,
nncp.__file__, commit, source digest) goes to .bench_out/.  Exit codes:
0 measured, 2 bad arguments or no checkout to measure, 3 a benchmark child
failed outside an instance (for example an oracle could not pin an optimum).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from calib import kernel_seconds, rescale  # noqa: E402
from workloads import (DEFAULT_SEED, END_TO_END, PER_LAYER, WORKLOADS,  # noqa: E402
                       instance_key, instances)

ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
CACHE = ROOT / ".bench_cache" / "oracles.json"
PINS = HERE / "pins.json"

INSTANCE_LIMIT_S = 30.0          # wall-time limit per instance; failures are charged this
MEMORY_LIMIT = 2 << 30           # RLIMIT_AS of every solving child (bytes)
ORACLE_MEMORY_LIMIT = 4 << 30
ORACLE_LIMIT_S = 150.0
START_LIMIT_S = 60.0
PROBES = 6                       # set-up samples and CLI solves per run
MIN_PASSES = 2
# single-threaded BLAS: nproc is 2 and one client runs at a time
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class Died(Exception):
    """The child ended without answering."""


class TimedOut(Exception):
    """The child did not answer within its limit."""


def _limit(nbytes):
    def apply():
        resource.setrlimit(resource.RLIMIT_AS, (nbytes, nbytes))
    return apply


class Worker:
    """One worker.py child: set-up on start, then one request at a time."""

    def __init__(self, inst_path: Path, memory: int):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(ROOT), str(inst_path)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT,
            env={**os.environ, **CHILD_ENV}, preexec_fn=_limit(memory))
        self.maxrss_kb = 0
        self._buf = b""
        self.hello = self.recv(START_LIMIT_S)

    def recv(self, timeout: float) -> dict:
        fd = self.proc.stdout.fileno()
        deadline = time.monotonic() + timeout
        while b"\n" not in self._buf:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                self.kill()
                raise TimedOut
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                self.proc.wait()
                raise Died(self.proc.returncode)
            self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        reply = json.loads(line)
        self.maxrss_kb = max(self.maxrss_kb, reply.get("maxrss_kb", 0))
        return reply

    def ask(self, req: dict, timeout: float) -> dict:
        try:
            self.proc.stdin.write((json.dumps(req) + "\n").encode())
            self.proc.stdin.flush()
        except BrokenPipeError:
            self.proc.wait()
            raise Died(self.proc.returncode)
        return self.recv(timeout)

    def close(self):
        if self.proc.poll() is None:
            try:
                self.ask({"op": "quit"}, START_LIMIT_S)
            except (Died, TimedOut):
                pass
        self.kill()

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            try:
                pipe.close()
            except BrokenPipeError:
                pass


def _death_status(code) -> str:
    # a kill we did not send is how the kernel ends a process out of memory
    return "memory" if code == -signal.SIGKILL else "error"


# ---------------------------------------------------------------------------
# expected optima

def _load_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        return {}


def _store_json(path: Path, data: dict):
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    tmp.replace(path)


def compute_oracles(insts: list[dict], inst_path: Path, todo: list[int], label: str) -> dict:
    """Expected optimum of each instance in `todo`, from its oracle."""
    out = {}
    worker = Worker(inst_path, ORACLE_MEMORY_LIMIT)
    try:
        for i in todo:
            out[instance_key(insts[i])] = {
                "opt": worker.ask({"op": "oracle", "i": i}, ORACLE_LIMIT_S)["opt"],
                "oracle": insts[i]["oracle"], "instance": f"{label}/{insts[i]['name']}"}
    finally:
        worker.close()
    return out


def expected_optima(insts: list[dict], inst_path: Path, label: str) -> list[int]:
    pins = {**_load_json(CACHE), **_load_json(PINS)}
    todo = [i for i, inst in enumerate(insts) if instance_key(inst) not in pins]
    if todo:
        new = compute_oracles(insts, inst_path, todo, label)
        _store_json(CACHE, {**_load_json(CACHE), **new})
        pins.update(new)
    return [pins[instance_key(inst)]["opt"] for inst in insts]


# ---------------------------------------------------------------------------
# the measured run

def write_real(inst: dict, path: Path) -> str:
    """Write the instance as a .real file and return the CLI coupling
    descriptor (general couplings as a 1-based `file:` edge list)."""
    n = inst["n"]
    names = [f"q{i + 1}" for i in range(n)]
    lines = [".version 2.0", f".numvars {n}", ".variables " + " ".join(names), ".begin"]
    lines += [f"t2 {names[a]} {names[b]}" for a, b in inst["gates"]]
    path.write_text("\n".join(lines + [".end"]) + "\n")
    spec = inst["coupling"]
    if spec["family"] == "general":
        edge_path = path.with_suffix(".edges")
        edge_path.write_text("".join(f"{u + 1} {v + 1}\n" for u, v in spec["edges"]))
        return f"file:{edge_path}"
    if spec["family"] == "biclique":
        return f"biclique:{spec['split']}"
    return spec["family"]


def run_cli(inst: dict, expected: int, tag: str) -> dict:
    real = OUT_DIR / f"{tag}.real"
    coupling = write_real(inst, real)
    env = {**os.environ, **CHILD_ENV,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                       os.environ.get("PYTHONPATH")]))}
    cmd = [sys.executable, "-m", "nncp.cli", "solve", "--circuit", str(real),
           "--coupling", coupling, "--out", "json"]
    cal_before = kernel_seconds()
    t = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              timeout=INSTANCE_LIMIT_S, preexec_fn=_limit(MEMORY_LIMIT))
    except subprocess.TimeoutExpired:
        return {"status": "timeout", "elapsed": INSTANCE_LIMIT_S, "time": INSTANCE_LIMIT_S}
    elapsed = time.perf_counter() - t
    rec = {"elapsed": elapsed, "time": rescale(elapsed, cal_before, kernel_seconds())}
    if proc.returncode != 0:
        return {**rec, "status": "error", "exit": proc.returncode,
                "detail": proc.stderr.decode(errors="replace")[-400:]}
    opt = json.loads(proc.stdout)["opt"]
    return {**rec, "status": "ok" if opt == expected else "wrong", "opt": opt}


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.tag = f"{workload}_s{seed}_t{int(trace)}"
        self.insts = instances(workload, seed)
        OUT_DIR.mkdir(exist_ok=True)
        self.inst_path = OUT_DIR / f"{self.tag}.instances.json"
        self.inst_path.write_text(json.dumps(self.insts))
        self.span_path = OUT_DIR / f"{self.tag}.spans.jsonl.gz"
        self.setups: list[dict] = []
        self.maxrss_kb = 0
        self.attempts: list[dict] = []
        self.nncp_file = None

    def start_worker(self) -> Worker:
        w = Worker(self.inst_path, MEMORY_LIMIT)
        hello = w.hello
        self.setups.append({"time": rescale(hello["setup_s"], *hello["cal"]),
                            "elapsed": hello["setup_s"], "make_s": hello["make_s"]})
        self.nncp_file = hello["nncp_file"]
        return w

    def end_worker(self, w: Worker):
        w.close()
        self.maxrss_kb = max(self.maxrss_kb, w.maxrss_kb)

    def solve(self, w: Worker, i: int, traced: bool) -> tuple[Worker, dict]:
        """One attempt at instance i; returns the worker to use next."""
        req = {"op": "solve", "i": i, "trace": traced, "span_file": str(self.span_path)}
        try:
            rec = w.ask(req, INSTANCE_LIMIT_S)
        except TimedOut:
            rec = {"status": "timeout", "elapsed": INSTANCE_LIMIT_S}
        except Died as exc:
            rec = {"status": _death_status(exc.args[0]), "elapsed": INSTANCE_LIMIT_S,
                   "detail": f"child exited with {exc.args[0]}"}
        if rec["status"] == "ok":
            if not rec["verified"]:
                rec["status"] = "wrong"
                rec["detail"] = "schedule failed verify"
            elif rec["opt"] != self.expected[i]:
                rec["status"] = "wrong"
                rec["detail"] = f"opt {rec['opt']} != oracle {self.expected[i]}"
        if rec["status"] == "memory" or w.proc.poll() is not None:
            self.end_worker(w)
            w = self.start_worker()
        rec.update(i=i, traced=traced)
        rec["charged"] = (rescale(rec["elapsed"], *rec["cal"]) if rec["status"] == "ok"
                          else INSTANCE_LIMIT_S)
        return w, rec

    def probe(self):
        """A set-up sample in a fresh child and, untraced, one CLI solve.
        Spread over the run, so that a slow spell of the host hits few."""
        self.end_worker(self.start_worker())
        if not self.trace:
            self.cli.append(run_cli(self.insts[0], self.expected[0], f"{self.tag}.cli"))

    def execute(self):
        self.expected = expected_optima(self.insts, self.inst_path,
                                        f"{self.workload}/{self.seed}")
        self.passes, self.cli = [], []
        w = self.start_worker()
        try:
            w, _ = self.solve(w, 0, False)              # warm-up, not recorded
            start = time.perf_counter()
            probes = 0
            while (len(self.passes) < MIN_PASSES * (1 + self.trace)
                   or time.perf_counter() - start < self.seconds):
                traced = self.trace and len(self.passes) % 2 == 1
                recs = []
                for i in range(len(self.insts)):
                    w, rec = self.solve(w, i, traced)
                    recs.append(rec)
                    if (probes < PROBES
                            and time.perf_counter() - start >= probes * self.seconds / PROBES):
                        self.probe()
                        probes += 1
                self.passes.append(recs)
                self.attempts.extend(recs)
            for _ in range(probes, PROBES):
                self.probe()
        finally:
            self.end_worker(w)

    # -- metrics ----------------------------------------------------------

    def end_to_end(self) -> dict:
        untraced = [p for p in self.passes if not p[0]["traced"]]
        solves = [r for p in untraced for r in p]
        ok = sum(r["status"] == "ok" for r in solves)
        # the instance set's total, each instance at its median over the passes
        wall = sum(statistics.median(r["charged"] for r in attempts) for attempts in zip(*untraced))
        return {
            "setup_s": statistics.median(s["time"] for s in self.setups),
            "wall_s": wall,
            "instance_s.p50": statistics.median(r["charged"] for r in solves),
            "peak_rss_mb": self.maxrss_kb / 1024,
            "cli_s": statistics.median(c["time"] for c in self.cli),
            "solved_share": ok / len(solves),
        }

    def per_layer(self) -> dict:
        traced = [p for p in self.passes if p[0]["traced"]]
        untraced = [p for p in self.passes if not p[0]["traced"]]
        k = len(traced)
        self_s, counts = {}, {}
        for rec in (r for p in traced for r in p):
            for name, v in rec.get("self_s", {}).items():
                self_s[name] = self_s.get(name, 0.0) + v / k
            for name, v in rec.get("counts", {}).items():
                if name == "basis_bytes":
                    counts[name] = max(counts.get(name, 0), v)
                else:
                    counts[name] = counts.get(name, 0) + v / k
            for name in ("nodes", "arcs", "compliant"):
                counts["q_" + name] = counts.get("q_" + name, 0) + rec.get(name, 0) / k

        def s(name):
            return self_s.get(name, 0.0)

        def c(name):
            return counts.get(name, 0.0)

        def ratio(a, b):
            return a / b if b else 0.0

        traced_wall = statistics.mean(sum(r["elapsed"] for r in p) for p in traced)
        untraced_wall = statistics.mean(sum(r["elapsed"] for r in p) for p in untraced)
        solves = [r for p in self.passes for r in p]
        return {
            "coupling.make_s": statistics.median(x["make_s"] for x in self.setups),
            "coupling.canonical_right_s": s("coupling.canonical_right"),
            "coupling.canonical_right_calls": c("coupling.canonical_right.calls"),
            "coupling.aut_scan_elems": c("aut_scan_elems"),
            "symmetry.canonical_form_s": s("symmetry.canonical_form"),
            "symmetry.canonical_form_calls": c("symmetry.canonical_form.calls"),
            "symmetry.snf_per_canonical": ratio(
                c("coupling.canonical_right.calls_under.symmetry.canonical_form"),
                c("symmetry.canonical_form.calls")),
            "symmetry.snf_elements_s": s("symmetry.snf_elements"),
            "symmetry.b_tau_s": s("symmetry.b_tau"),
            "symmetry.layer_orbits_s": s("symmetry.layer_orbits"),
            "symmetry.layer_orbitals_s": s("symmetry.layer_orbitals"),
            "symmetry.orbit_yield": ratio(
                c("orbits_found"),
                c("symmetry.canonical_form.calls_under.symmetry.layer_orbits")),
            "symmetry.compliance_s": s("symmetry.quotient_graph"),
            "symmetry.nodes": c("q_nodes"),
            "symmetry.arcs": c("q_arcs"),
            "symmetry.compliant": c("q_compliant"),
            "lp.bfs_s": s("lp.bfs"),
            "lp.bfs_states": c("bfs_states"),
            "lp.build_s": s("lp.build_rspp_scaled"),
            "lp.other_s": s("lp.solve_reduced") + s("lp.simplex_solve"),
            "lp.vars": c("lp_vars"),
            "lp.rows": c("lp_rows"),
            "lp.simplex_path_share": ratio(c("lp.build_rspp_scaled.calls"),
                                           c("lp.solve_reduced.calls")),
            "simplex.solve_s": s("simplex.solve"),
            "simplex.basis_bytes": c("basis_bytes"),
            "reconstruct.reconstruct_s": s("reconstruct.reconstruct"),
            "reconstruct.verify_s": s("reconstruct.verify"),
            "reconstruct.swaps": c("swaps"),
            "circuit.decompose_s": s("circuit.decompose"),
            "circuit.fixing_pattern_s": s("circuit.fixing_pattern"),
            "fail_share": sum(r["status"] != "ok" for r in solves) / len(solves),
            "instance_s.samples": sum(len(p) for p in untraced),
            "trace.wall_s": traced_wall,
            "trace.other_s": traced_wall - sum(self_s.values()),
            "trace.overhead_s": traced_wall - untraced_wall,
        }

    def result(self) -> dict:
        if self.trace:
            values, spec = self.per_layer(), {n: u for n, u, *_ in PER_LAYER}
        else:
            values, spec = self.end_to_end(), {n: u for n, u, *_ in END_TO_END}
        ops = self.attempts + self.cli
        return {
            "correct": not any(r["status"] == "wrong" for r in ops),
            "attempted": len(ops),
            "failed": sum(r["status"] != "ok" for r in ops),
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in spec.items()},
        }


def provenance() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "nncp").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=30).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "nncp" / "__init__.py").is_file():
        print(f"error: no nncp checkout at {ROOT} (src/nncp missing)", file=sys.stderr)
        return 2

    # one CPU for the whole run, so the calibration kernel and the timed work
    # see the same core
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        run.execute()
    except (Died, TimedOut) as exc:
        print(f"error: benchmark child failed outside an instance: {exc!r}", file=sys.stderr)
        return 3
    result = run.result()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "why": WORKLOADS[args.workload][0],
              "nncp_file": run.nncp_file, **provenance(),
              "instances": [{"name": inst["name"], "expected_opt": opt}
                            for inst, opt in zip(run.insts, run.expected)],
              "setups": run.setups, "attempts": run.attempts, "cli": run.cli,
              "result": result}
    (OUT_DIR / f"BENCH_{run.tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    statuses = {}
    for r in run.attempts + run.cli:
        statuses[r["status"]] = statuses.get(r["status"], 0) + 1
    samples = sum(not r["traced"] for r in run.attempts)
    print(f"{args.workload} seed {args.seed}: {len(run.passes)} passes, {samples} untraced "
          f"instance samples, statuses {statuses}, nncp from {run.nncp_file}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
