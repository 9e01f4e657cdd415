"""Run every workload repeatedly and print each metric's median and quartiles.

    python3 perfbench/sweep.py [--runs 10] [--first-seed 1] [--trace 0|1]
                               [--workloads a,b]

Run ``i`` of a workload uses seed ``first-seed + i``. The run length and the
bounds come from ``BENCHMARK.json``. For each metric the table gives the
median, the first and third quartiles (``statistics.quantiles(n=4)``) and
their distance as a share of the median, the spread the bounds are set
against; ``!`` marks a spread above a third of the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workloads", default=",".join(names))
    a = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    for workload in a.workloads.split(","):
        values: dict[str, list[float]] = {}
        units = {}
        attempted = failed = 0
        walls = []
        for seed in range(a.first_seed, a.first_seed + a.runs):
            t0 = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                 "--trace", str(a.trace)],
                cwd=ROOT, capture_output=True, text=True)
            walls.append(time.monotonic() - t0)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            attempted += result["attempted"]
            failed += result["failed"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            rounds = proc.stdout.strip().splitlines()[-2].partition("round run_s = ")[2]
            print(f"{workload} seed {seed}: {walls[-1]:.1f} s, rounds [{rounds}], " + ", ".join(
                f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()
                if n in bounds or a.trace), file=sys.stderr)
        print(f"\n{workload}: {len(walls)} runs, {sum(walls):.0f} s in all, "
              f"operations attempted {attempted}, failed {failed}")
        print(f"  {'metric':28} {'unit':7} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        summary[workload] = {"attempted": attempted, "failed": failed, "metrics": {}}
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med,) * 3
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            flag = "!" if bound is not None and spread > bound / 3 else ""
            print(f"  {name:28} {units[name]:7} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f} {'' if bound is None else bound:>6}{flag}")
            summary[workload]["metrics"][name] = {
                "unit": units[name], "median": med, "q1": q1, "q3": q3,
                "spread": spread, "values": vals}
    out = HERE / "_out"
    out.mkdir(exist_ok=True)
    (out / f"sweep-trace{a.trace}.json").write_text(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
