"""Run one GabKron benchmark workload and print its metrics.

    python3 perfbench/run.py --workload session-new128 --seed 1 --seconds 20 --trace 0

Runs from a source checkout (the package is imported from ./src).  Prints
one line per metric with its unit and sample count, then, as the last line
of standard output, one JSON object with `correct`, `attempted`, `failed`
and `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
metrics with `--trace 1`.  `--out` also writes the full report: metrics
with sample counts, environment, work fingerprint and exact counts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

import compare

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# repeated set-ups whose median is setup_s; a traced run sets up once
SETUPS = {"session-new128": 3, "cli-new128": 3, "cli-rep128": 2}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "git_commit": _git_commit(),
        "workload_seed": seed,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the full report as JSON to this path")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "gabkron", "__init__.py")):
        print(f"error: no gabkron sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads  # needs the source tree on sys.path

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]()
    work_root = os.path.join(HERE, ".work")
    os.makedirs(work_root, exist_ok=True)
    report = workloads.run_workload(
        workload, args.seed, args.seconds, bool(args.trace),
        setups=1 if args.trace else SETUPS[args.workload], workdir_root=work_root)
    report["env"] = environment(args.seed)

    print(f"# {report['workload']} seed={args.seed} trace={args.trace} "
          f"attempted={report['attempted']} failed={report['failed']}")
    for name, m in report["e2e"].items():
        print(f"{name:<24} {m['value']:>14.6g} {m['unit']:<5} samples={m['samples']}")
    if args.trace:
        metrics = {}
        for name, unit in compare.layer_units().items():
            value = report["layers"][name]
            metrics[name] = {"value": value, "unit": unit}
            print(f"{name:<46} {value:>14.6g} {unit}")
        print(f"{'unaccounted_share':<46} {report['unaccounted_share']:>14.6g} ratio")
    else:
        metrics = {name: {"value": report["e2e"][name]["value"], "unit": unit}
                   for name, unit in workloads.E2E}
    for failure in report["failures"]:
        print(f"failure: {failure}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
    print(json.dumps({"correct": report["correct"], "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
