"""Run every workload untraced and traced, and report tracing overhead.

    python3 perfbench/suite.py --seed 1 --seconds 20

Each run is its own process (so peak RSS is per workload), one at a time.
Reports go to --out-dir as <workload>.trace<0|1>.json.  For each workload
the summary gives the traced run's end-to-end values minus the untraced
ones, and the share of the traced loop's wall time that no span covers.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import compare

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--out-dir", default=os.path.join(HERE, "results"))
    args = ap.parse_args(argv)
    os.makedirs(args.out_dir, exist_ok=True)
    units = compare.layer_units()
    with open(compare.BENCHMARK_JSON) as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]

    ok = True
    summary = []
    for name in names:
        reports = []
        for trace in (0, 1):
            out = os.path.join(args.out_dir, f"{name}.trace{trace}.json")
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace), "--out", out])
            if proc.returncode != 0:
                print(f"error: {name} trace={trace} exited {proc.returncode}", file=sys.stderr)
                ok = False
                break
            with open(out) as fh:
                reports.append(json.load(fh))
            ok = ok and reports[-1]["correct"]
        if len(reports) == 2:
            summary.append(f"tracing overhead, {name} (traced minus untraced):")
            summary += compare.compare(reports[0], reports[1], units)
            summary.append(f"  unaccounted share of traced loop time: "
                           f"{reports[1]['unaccounted_share']:.4%}")
    print("\n".join(summary))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
