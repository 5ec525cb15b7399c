"""Run the benchmark once per seed and report each metric's spread.

The spread is the distance between the first and third quartile of the
per-run values, as a share of their median; ``BENCHMARK.json`` bounds
it per metric.  Run from the repository root::

    python3 perfbench/spread.py --workload figures --seeds 1 2 3 4 5

Each run is a separate untraced ``perfbench/run.py`` process (``--trace
0``), one after another.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

from summary import quartile_spread

HERE = Path(__file__).resolve().parent

#: ``run.py`` prints each timing with its host seconds in brackets.
_RAW = re.compile(r"^\s+(\w+)\s+median [\d.]+ \[([\d.]+)\]", re.M)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--seconds", type=int, default=None,
                   help="default: BENCHMARK.json's run_seconds")
    args = p.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values = {}
    ok = True
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"],
            capture_output=True, text=True, timeout=900)
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        ok &= proc.returncode == 0 and doc["correct"]
        line = {k: round(v["value"], 4) for k, v in doc["metrics"].items()}
        print(f"seed {seed}: exit {proc.returncode} correct "
              f"{doc['correct']} failed {doc['failed']}/{doc['attempted']} "
              f"{line}", flush=True)
        for name, metric in doc["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        for name, host_s in _RAW.findall(proc.stdout):
            values.setdefault(f"{name} (host)", []).append(float(host_s))
    if len(args.seeds) >= 2:
        for name, series in values.items():
            spread = quartile_spread(series)
            bound = bounds.get(name)
            note = "" if bound is None else (
                f" bound {bound} ({spread / bound:.0%} of it)")
            print(f"{name:<12} median {statistics.median(series):.4f} "
                  f"spread {spread:.4f}{note}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
