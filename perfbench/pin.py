"""Pin expected optima into perfbench/pins.json, once, by the oracles.

    python3 perfbench/pin.py --workload ring-deep --seeds 0-31

Each instance's optimum comes from its independent oracle (star DP, or the
layered BFS `solve_spp` for n <= 8), keyed by a hash of the instance's
content.  run.py computes any missing pin itself (into .bench_cache/), so
pinning only saves that time on the seeds listed here.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import OUT_DIR, PINS, WORKLOADS, _load_json, _store_json, compute_oracles
from workloads import instance_key, instances


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seeds", required=True, help="FIRST-LAST, inclusive")
    args = ap.parse_args(argv)
    first, last = (int(v) for v in args.seeds.split("-"))
    OUT_DIR.mkdir(exist_ok=True)
    for seed in range(first, last + 1):
        insts = instances(args.workload, seed)
        pins = _load_json(PINS)
        todo = [i for i, inst in enumerate(insts) if instance_key(inst) not in pins]
        if not todo:
            continue
        path = OUT_DIR / f"pin_{args.workload}_s{seed}.instances.json"
        path.write_text(json.dumps(insts))
        new = compute_oracles(insts, path, todo, f"{args.workload}/{seed}")
        _store_json(PINS, {**_load_json(PINS), **new})
        print(f"{args.workload} seed {seed}: pinned {len(new)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
