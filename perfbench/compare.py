"""Compare two benchmark reports written by `run.py --out`.

    python3 perfbench/compare.py BASE.json NEW.json

Timings are compared only when both reports did the same work: the same
workload, the same set-up key files, and the same ciphertexts (and
per-cycle keys) on every operation both runs made.  Otherwise the reports
are "different work" and no timing is compared.  Count metrics of two
traced runs are compared exactly.
"""

from __future__ import annotations

import json
import os
import sys

BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                              "BENCHMARK.json")


def layer_units() -> dict:
    """Per-layer metric name -> unit, from BENCHMARK.json."""
    with open(BENCHMARK_JSON) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def same_work(a: dict, b: dict) -> bool:
    fa, fb = a["fingerprint"], b["fingerprint"]
    n = min(len(fa["ops"]), len(fb["ops"]))
    return (a["workload"] == b["workload"] and fa["keys"] == fb["keys"]
            and n > 0 and fa["ops"][:n] == fb["ops"][:n])


def compare(a: dict, b: dict, units: dict | None = None) -> list[str]:
    """Lines describing b relative to a; `units` maps per-layer metric
    names to units, so count metrics of traced runs can be checked exactly."""
    head = f"{a['workload']} seed {a['seed']} (trace {int(a['trace'])}) -> " \
           f"{b['workload']} seed {b['seed']} (trace {int(b['trace'])})"
    if not same_work(a, b):
        return [f"{head}: different work (fingerprints differ); timings not compared"]
    lines = [f"{head}: same work"]
    for name, ma in a["e2e"].items():
        mb = b["e2e"].get(name)
        if mb is None:
            continue
        delta = mb["value"] - ma["value"]
        share = f"{delta / ma['value']:+.1%}" if ma["value"] else "n/a"
        lines.append(f"  {name:<22} {ma['value']:>12.6g} -> {mb['value']:>12.6g} {ma['unit']:<5}"
                     f" delta {delta:+.6g} ({share}); samples {ma['samples']} / {mb['samples']}")
    if units and "layers" in a and "layers" in b:
        differing = [n for n, unit in units.items()
                     if unit == "count" and a["layers"][n] != b["layers"][n]]
        lines.append("  count metrics: " + (f"differ: {', '.join(differing)}"
                                            if differing else "identical"))
    return lines


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    reports = []
    for path in args:
        with open(path) as fh:
            reports.append(json.load(fh))
    print("\n".join(compare(*reports, layer_units())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
