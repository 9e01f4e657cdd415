"""pathlab benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each round is one fresh process (``child.py``) that imports ``pathlab.cli``
and calls ``cli.main`` once with the workload's ``validate`` arguments. A run
makes as many whole rounds as fit in ``--seconds``, at least one: after each
round it starts another only if a round as long as the longest so far would
end within them. Every round runs the same arguments, so every report must
be the same bytes; the first one is checked against computations made apart
from the program (``check.py``). Each (size, trial) pair of a round is one
operation; an operation fails when its round fails, its report differs from
the first, or a check that covers it fails.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--trace 0`` gives the
end-to-end metrics (medians over the run's rounds); ``--trace 1`` runs one
plain round, then traced rounds for ``--seconds``, and gives the per-layer
metrics, with the tracing overhead as traced minus plain ``run_s``. The
traced rounds' spans are written to ``perfbench/_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"
# Import-only processes started per run, besides the rounds, for setup_s.
SETUP_PROBES = 10
# A run must end within 180 s; no round is let run past this many seconds.
DEADLINE_S = 165

WORKLOADS = {
    # The paper's config: what users run to reproduce the tables.
    "validate-paper": {"sizes": [100, 1_000, 10_000, 100_000], "trials": 10,
                       "mode": "uniform", "jobs": 1, "allow_large": False},
    # Key derivation dominates; the only workload with trials in parallel.
    "crypto-jobs2": {"sizes": [1_000], "trials": 4, "mode": "crypto",
                     "jobs": 2, "allow_large": False},
    # One large trie: per-key build cost and memory at scale.
    "large-1m": {"sizes": [1_000_000], "trials": 1, "mode": "uniform",
                 "jobs": 1, "allow_large": True},
}

# Per-layer metric -> traced name whose self time (LAYER_TIMES) or number of
# calls (LAYER_CALLS) it reports; LAYER_COUNTERS are counted on results.
LAYER_TIMES = {
    "trie.insert_s": "trie.insert",
    "trie.leaf_metrics_s": "trie.leaf_metrics",
    "trie.level_census_s": "trie.level_census",
    "keyspace.to_nibbles_s": "keyspace.to_nibbles",
    "keyspace.from_nibbles_s": "keyspace.from_nibbles",
    "addrgen.generate_s": "addrgen.generate",
    "addrgen.crypto_derive_s": "addrgen.crypto_derive",
    "keccak.keccak256_s": "keccak.keccak256",
    "harness.run_experiment_s": "harness.run_experiment",
    "harness.run_trial_s": "harness.run_trial",
    "harness.aggregate_s": "harness.aggregate",
    "stats.from_depths_s": "stats.from_depths",
    "stats.compare_s": "stats.compare",
    "stats.chi_square_counts_s": "stats.chi_square_counts",
    "model.distribution_s": "model.distribution",
    "report.render_report_s": "report.render_report",
}
LAYER_CALLS = {
    "trie.insert_calls": "trie.insert",
    "keccak.calls": "keccak.keccak256",
    "harness.trials": "harness.run_trial",
}
LAYER_COUNTERS = ["trie.nodes", "addrgen.keys", "report.bytes"]


def cli_args(w: dict, seed: int, report: Path) -> list[str]:
    args = ["validate", "--sizes", ",".join(map(str, w["sizes"])),
            "--trials", str(w["trials"]), "--seed", str(seed),
            "--mode", w["mode"], "--jobs", str(w["jobs"]),
            "--format", "json", "--out", str(report)]
    return args + (["--allow-large"] if w["allow_large"] else [])


def start_child(mode: str, tag: str, args: list[str], deadline: float) -> dict:
    """Run child.py once and return its measurements (``error`` on failure)."""
    result = OUT / f"{tag}.json"
    result.unlink(missing_ok=True)
    spawn_t = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), repr(spawn_t), mode,
             str(result), *args],
            cwd=ROOT, capture_output=True, text=True,
            timeout=max(deadline - spawn_t, 1))
    except subprocess.TimeoutExpired:
        return {"error": f"{mode} round stopped at the run's {DEADLINE_S} s deadline"}
    if proc.returncode != 0 or not result.exists():
        return {"error": f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    data = json.loads(result.read_text())
    if data.get("exit_code", 0) != 0:
        data["error"] = f"pathlab exited {data['exit_code']}: {proc.stderr.strip()[-2000:]}"
    return data


def reference_pmf(sizes) -> dict:
    """Six-decimal theoretical columns published in ``pathlab.refdata``."""
    from pathlab import refdata

    ref = {}
    for size in sizes:
        table = dict(refdata.REFERENCE_PMF.get(size, {}))
        table.update((k, theo) for k, theo, _ in
                     refdata.REFERENCE_DISTRIBUTIONS.get(size, []))
        if table:
            ref[size] = table
    return ref


def verify(w: dict, seed: int, report_text: str) -> tuple[set, list[str]]:
    """Failed (size, trial) operations and messages for the run's report."""
    import check
    from pathlab.addrgen import crypto_derive
    from pathlab.keccak import keccak256

    config = dict(w, seed=seed, reference_pmf=reference_pmf(w["sizes"]))
    findings = check.Findings(w["sizes"], w["trials"])
    try:
        findings = check.check_report(json.loads(report_text), config)
    except Exception as exc:  # noqa: BLE001 - a malformed report fails every operation
        findings.fail(f"report could not be checked: {exc!r}")
    if w["mode"] == "crypto":
        for message in check.check_vectors(crypto_derive, keccak256):
            findings.fail(message)
    return findings.failed, findings.messages


def layer_metrics(rounds: list[dict], plain_run_s: float) -> dict:
    """Per-layer values of each traced round, then their medians."""
    per_round = []
    for r in rounds:
        trace = r["trace"]
        tally, counters = trace["tally"], trace["counters"]
        root = tally["cli.main"]
        v = {name: tally.get(t, {}).get("self_s", 0.0) for name, t in LAYER_TIMES.items()}
        v.update({name: tally.get(t, {}).get("calls", 0) for name, t in LAYER_CALLS.items()})
        v.update({name: counters.get(name, 0) for name in LAYER_COUNTERS})
        run_exp = next(s for s in trace["spans"] if s["name"] == "harness.run_experiment")
        v["harness.cores_used"] = run_exp["cpu"] / (run_exp["end"] - run_exp["start"])
        v["trace.run_s"] = root["total_s"]
        v["trace.remainder_s"] = root["self_s"]
        v["trace.overlap_s"] = trace["overlap_s"]
        v["trace.call_cost_us"] = trace["call_cost_us"]
        calls = sum(t["calls"] for name, t in tally.items() if name != "cli.main")
        v["trace.call_cost_s"] = trace["call_cost_us"] * 1e-6 * calls
        per_round.append(v)
    out = {name: statistics.median(v[name] for v in per_round) for name in per_round[0]}
    out["trace.overhead_s"] = out["trace.run_s"] - plain_run_s
    return out


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us"):
        return "us"
    return {"harness.cores_used": "cores", "report.bytes": "bytes"}.get(name, "count")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args(argv)
    if not (ROOT / "src" / "pathlab" / "cli.py").is_file():
        print(f"error: no pathlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    OUT.mkdir(exist_ok=True)
    w = WORKLOADS[a.workload]
    tag = f"{a.workload}-seed{a.seed}-trace{a.trace}-pid{os.getpid()}"
    report = OUT / f"{tag}-report.json"
    args = cli_args(w, a.seed, report)
    deadline = time.monotonic() + DEADLINE_S

    setup = []
    for _ in range(SETUP_PROBES):
        probe = start_child("probe", f"{tag}-probe", [], deadline)
        if "error" in probe:
            print(f"error: {probe['error']}", file=sys.stderr)
            return 2
        setup.append(probe["setup_s"])

    def rounds_for(mode: str, seconds: float) -> list[dict]:
        """One round, then more while the longest so far would end in time."""
        out, start, longest = [], time.monotonic(), 0.0
        while True:
            t0 = time.monotonic()
            report.unlink(missing_ok=True)
            r = start_child(mode, f"{tag}-{mode}", args, deadline)
            r["report"] = report.read_text() if report.exists() else None
            out.append(r)
            now = time.monotonic()
            longest = max(longest, now - t0)
            if now - start + longest > seconds or now + longest > deadline:
                return out

    plain = rounds_for("plain", 0 if a.trace else a.seconds)
    traced = rounds_for("trace", a.seconds) if a.trace else []
    rounds = plain + traced
    messages = []
    for r in rounds:
        r["ok"] = "error" not in r and r["report"] is not None
        if not r["ok"]:
            messages.append(f"round failed: {r.get('error', 'no report written')}")
    ok = [r for r in rounds if r["ok"]]
    if not ok:
        print("error: no round completed; " + "; ".join(messages), file=sys.stderr)
        return 2

    failed_ops, check_messages = verify(w, a.seed, ok[0]["report"])
    messages += check_messages
    ops = len(w["sizes"]) * w["trials"]
    failed = 0
    for r in rounds:
        if r["ok"] and r["report"] == ok[0]["report"]:
            failed += len(failed_ops)
        else:
            failed += ops
            if r["ok"]:
                messages.append("report differs from the first round's")
    for message in messages:
        print(f"failed: {message}", file=sys.stderr)

    keys = sum(w["sizes"]) * w["trials"]
    plain_ok = [r for r in plain if r["ok"]]
    if a.trace:
        traced_ok = [r for r in traced if r["ok"]]
        if not plain_ok or not traced_ok:
            print("error: no plain or no traced round completed", file=sys.stderr)
            return 2
        values = layer_metrics(traced_ok, plain_ok[0]["run_s"])
        (OUT / f"trace-{a.workload}-seed{a.seed}.json").write_text(json.dumps(
            [r["trace"] for r in traced_ok]))
        metrics = {n: {"value": v, "unit": unit_of(n)} for n, v in sorted(values.items())}
    else:
        run_s = statistics.median(r["run_s"] for r in plain_ok)
        metrics = {
            "run_s": {"value": run_s, "unit": "s"},
            "keys_per_s": {"value": statistics.median(keys / r["run_s"] for r in plain_ok),
                           "unit": "keys/s"},
            "setup_s": {"value": statistics.median(setup + [r["setup_s"] for r in ok]),
                        "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in plain_ok),
                            "unit": "MB"},
        }
    for name, m in metrics.items():
        print(f"{a.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{a.workload} rounds = {len(rounds)}, operations attempted = "
          f"{ops * len(rounds)}, failed = {failed}, round run_s = "
          + " ".join(f"{r['run_s']:.3f}" for r in ok))
    for stale in OUT.glob(f"{tag}*"):
        stale.unlink()
    print(json.dumps({"correct": failed == 0 and not messages, "attempted": ops * len(rounds),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
