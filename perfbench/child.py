"""One benchmark round in a fresh process.

    python3 perfbench/child.py SPAWN_T MODE RESULT_JSON [PATHLAB ARGS...]

SPAWN_T is the parent's ``time.monotonic()`` just before it started this
process (CLOCK_MONOTONIC is system-wide on Linux). MODE is ``probe``
(import ``pathlab.cli`` and stop), ``plain`` (one timed ``cli.main`` call)
or ``trace`` (the same call with pathlab's layers wrapped by
``spans.Tracer``). The measurements go to RESULT_JSON.

Only modules the interpreter has loaded at start are imported before
``pathlab.cli``, so ``setup_s`` is interpreter start plus the program's own
import cost.
"""

import os
import sys
import time


def _install(tracer):
    from pathlab import addrgen, cli, harness, model, stats, trie

    tracer.patch(cli, "run_experiment", "harness.run_experiment")
    tracer.patch(cli, "render_report", "report.render_report",
                 count=lambda text: ("report.bytes", len(text.encode())))
    tracer.patch(harness, "run_trial", "harness.run_trial")
    tracer.patch(harness, "_aggregate", "harness.aggregate")
    tracer.patch(addrgen, "generate", "addrgen.generate",
                 count=lambda keys: ("addrgen.keys", len(keys)))
    tracer.patch(addrgen, "crypto_derive", "addrgen.crypto_derive", per_key=True)
    tracer.patch(addrgen, "keccak256", "keccak.keccak256", per_key=True)
    tracer.patch(trie.Trie, "insert", "trie.insert", per_key=True)
    tracer.patch(trie.Trie, "leaf_metrics", "trie.leaf_metrics")
    tracer.patch(trie.Trie, "level_census", "trie.level_census",
                 count=lambda census: ("trie.nodes",
                                       sum(c.total for c in census.values())))
    tracer.patch(trie, "to_nibbles", "keyspace.to_nibbles", per_key=True)
    tracer.patch(trie, "from_nibbles", "keyspace.from_nibbles", per_key=True)
    tracer.patch(stats.PathLengthHistogram, "from_depths", "stats.from_depths")
    tracer.patch(stats, "compare", "stats.compare")
    tracer.patch(stats, "chi_square_counts", "stats.chi_square_counts")
    tracer.patch(model, "distribution", "model.distribution")


def main() -> int:
    spawn_t = float(sys.argv[1])
    mode, result_path, argv = sys.argv[2], sys.argv[3], sys.argv[4:]
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    sys.path.insert(0, src)
    import pathlab.cli

    setup_s = time.monotonic() - spawn_t

    import json
    import resource

    if not os.path.realpath(pathlab.cli.__file__).startswith(os.path.realpath(src) + os.sep):
        print(f"pathlab was imported from {pathlab.cli.__file__}, not {src}",
              file=sys.stderr)
        return 2
    result = {"setup_s": setup_s}
    if mode != "probe":
        call = pathlab.cli.main
        tracer = None
        if mode == "trace":
            from spans import Tracer

            tracer = Tracer()
            _install(tracer)
            call = tracer.span("cli.main", call)
        t0 = time.perf_counter()
        result["exit_code"] = call(argv)
        result["run_s"] = time.perf_counter() - t0
        # ru_maxrss is in KiB on Linux.
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            from spans import call_cost_us

            result["trace"] = dict(tracer.report(), call_cost_us=call_cost_us())
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
