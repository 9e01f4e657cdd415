"""``tools/bench_layers.py`` still runs against this checkout.

The tool times the kernel's steps through private names (``kernel._fill_prefixes``,
``_prefix_lcps``, ``_sweep``) and the scalar draw through ``addrgen._draw_scalars``,
and sets ``harness._cpu_count``; a rename of any of them would break it without
an error anywhere else. Each measurement here is one small call in this process.
"""

import importlib.util
import json
import platform
import subprocess
from pathlib import Path

import pytest

import pathlab
from pathlab import harness

ROOT = Path(__file__).resolve().parent.parent


def load_tool():
    spec = importlib.util.spec_from_file_location(
        "bench_layers", ROOT / "tools" / "bench_layers.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def assert_row(row, keys):
    assert set(row) == set(keys)
    assert all(isinstance(v, (int, float)) and v >= 0 for v in row.values()), row


def test_kernel_bench_gives_every_step():
    row = load_tool().measure_kernel(2_000, 1)
    assert_row(row, ["streamed_shape_s", "fill_s", "sort_s", "lcp_s", "sweep_s",
                     "kernel_peak_bytes_per_key", "ru_maxrss_mb"])


def test_kernel_bench_validates_in_a_fresh_process():
    src = str(Path(pathlab.__file__).resolve().parent.parent)
    row = load_tool().measure_validate(1_000, src)
    assert_row(row, ["validate_s", "validate_run_s", "validate_maxrss_mb"])
    # the run alone, timed in the child, leaves out the process start
    assert row["validate_run_s"] < row["validate_s"]


def test_each_fresh_process_gets_a_bytecode_cache_of_its_own(monkeypatch):
    """The ``--one`` runs and the ``validate`` child each get
    ``PYTHONPYCACHEPREFIX``, a new empty directory removed after, so no
    ``__pycache__`` in a checkout is read or written."""
    tool = load_tool()
    envs = []

    def run(args, env, **kwargs):
        cache = Path(env["PYTHONPYCACHEPREFIX"])
        assert cache.is_dir() and not any(cache.iterdir())
        envs.append(env)
        return subprocess.CompletedProcess(args, 0, '{"x": 1}' if "--one" in args else "0.5")

    monkeypatch.setattr(subprocess, "run", run)
    src = str(ROOT / "src")
    assert tool.fresh("kernel", "a", src, "10") == {"x": 1}
    assert tool.measure_validate(10, src)["validate_run_s"] == 0.5
    caches = [Path(env["PYTHONPYCACHEPREFIX"]) for env in envs]
    assert len(set(caches)) == 2
    assert not any(cache.exists() for cache in caches)
    assert envs[1]["PYTHONPATH"] == src


def test_crypto_bench_gives_every_step():
    from pathlab import addrgen

    derive = addrgen.public_keys, addrgen.keccak256_rows
    row = load_tool().measure_crypto(8, 1)
    assert_row(row, ["window_table_s", "draw_s", "public_keys_s", "keccak256_rows_s",
                     "generate_s", "ru_maxrss_mb"])
    # the bench leaves the derivation steps as they were
    assert (addrgen.public_keys, addrgen.keccak256_rows) == derive


def test_pool_bench_configs_are_valid():
    for config in load_tool().POOL_CONFIGS.values():
        harness.ExperimentConfig(**config)


@pytest.mark.parametrize("way", ["serial", "pooled"])
def test_pool_bench_runs_each_way(monkeypatch, way):
    # the bench sets this on the harness; the test puts it back
    monkeypatch.setattr(harness, "_cpu_count", harness._cpu_count)
    config = {"sizes": (100,), "trials": 2, "master_seed": 1, "mode": "uniform"}
    assert_row(load_tool().measure_experiment(config, way),
               ["run_s", "parent_maxrss_mb", "children_maxrss_mb"])
    assert (harness._cpu_count() == 1) == (way == "serial")


def test_pool_bench_compares_the_alternated_pairs():
    def call(run_s):
        return {"run_s": run_s, "parent_maxrss_mb": 30.0, "children_maxrss_mb": 0.0}

    summary = load_tool().summarize_ways({
        "serial": [call(0.2), call(0.1), call(0.3)],
        "pooled": [call(0.1), call(0.2), call(0.15)],
    })
    assert summary["serial"]["run_s"] == 0.2
    assert summary["pooled"]["run_s_each"] == [0.1, 0.2, 0.15]
    assert summary["pooled_over_serial"] == 0.75
    assert summary["pooled_faster"] == 2


def test_kernel_bench_leaves_the_steps_as_they_were():
    from pathlab import kernel

    steps = kernel._fill_prefixes, kernel._prefix_lcps, kernel._sweep
    row = load_tool().measure_kernel(2_000, 2)
    assert (kernel._fill_prefixes, kernel._prefix_lcps, kernel._sweep) == steps
    # timed within the same two calls, so their medians, the means of two,
    # add up to no more than the whole call's (each is rounded to 0.1 ms)
    assert row["fill_s"] + row["lcp_s"] + row["sweep_s"] <= row["streamed_shape_s"] + 2e-4


def run_without_processes(tool, monkeypatch, tmp_path, argv, result):
    """``tool.main(argv)`` with ``fresh`` giving ``result(name, item)`` and
    the bench's file in ``tmp_path``: the calls in order, and the file."""
    calls = []

    def fresh(bench, name, src, item):
        calls.append((item, name, src))
        return result(name, item)

    def no_process(*args, **kwargs):
        raise AssertionError("a process was started")

    monkeypatch.setattr(tool, "fresh", fresh)
    # the machine's description asks ``uname -p`` for the processor
    monkeypatch.setattr(platform, "platform", lambda: "a machine")
    monkeypatch.setattr(subprocess, "run", no_process)
    monkeypatch.setattr(subprocess, "Popen", no_process)
    out = tmp_path / "BENCH.json"
    out.write_text(json.dumps({"runs": {
        "other": {"sizes": {"7": {"fill_s": 1.0}}},
        "a": {"sizes": {"5": {"fill_s": 5.0}, "10": {"fill_s": 0.0}}},
    }}))
    monkeypatch.setitem(tool.BENCHES[argv[0]], "out", out)
    assert tool.main(argv) == 0
    return calls, json.loads(out.read_text())["runs"]


def test_kernel_bench_alternates_the_labels_per_size(monkeypatch, tmp_path):
    tool = load_tool()
    here = str(ROOT / "src")
    calls, runs = run_without_processes(
        tool, monkeypatch, tmp_path,
        ["kernel", "--label", "a", "--label", f"b={tmp_path}", "--sizes", "10,20,30"],
        lambda name, item: {"fill_s": float(item), "label": name})
    assert calls == [("10", "a", here), ("10", "b", str(tmp_path)),
                     ("20", "b", str(tmp_path)), ("20", "a", here),
                     ("30", "a", here), ("30", "b", str(tmp_path))]
    # each label's rows under its own name; the other label and a's row at
    # a size not measured are kept, and a's row at a measured size replaced
    assert runs["other"] == {"sizes": {"7": {"fill_s": 1.0}}}
    assert runs["a"]["sizes"] == {"5": {"fill_s": 5.0},
                                  **{s: {"fill_s": float(s), "label": "a"}
                                     for s in ("10", "20", "30")}}
    assert runs["b"]["sizes"] == {s: {"fill_s": float(s), "label": "b"}
                                  for s in ("10", "20", "30")}
    assert runs["a"]["repeats"] == runs["b"]["repeats"] == 3


def test_pool_bench_alternates_the_labels_and_the_ways(monkeypatch, tmp_path):
    tool = load_tool()
    configs = {name: tool.POOL_CONFIGS[name] for name in ("crypto-jobs2", "uniform-1e3x10")}
    monkeypatch.setattr(tool, "POOL_CONFIGS", configs)
    monkeypatch.setitem(tool.BENCHES["pool"], "repeats", 2)
    runs_s = iter(range(1, 100))
    calls, runs = run_without_processes(
        tool, monkeypatch, tmp_path, ["pool", "--label", "a", "--label", "b"],
        lambda name, item: {"run_s": float(next(runs_s)), "parent_maxrss_mb": 30.0,
                            "children_maxrss_mb": 0.0})
    order = [(name, item) for item, name, _ in calls]
    first_pair = [("a", "serial"), ("a", "pooled"), ("b", "serial"), ("b", "pooled")]
    expected = []
    for config in configs:
        for pair in (first_pair, first_pair[::-1]):
            expected += [(name, f"{config}:{way}") for name, way in pair]
    assert order == expected
    assert runs["other"] == {"sizes": {"7": {"fill_s": 1.0}}}
    # the file's runs are each label's own: a's first crypto-jobs2 pair ran
    # first (1, 2), its second after b's (7, 8), pooled first
    crypto = runs["a"]["configs"]["crypto-jobs2"]
    assert crypto["serial"]["run_s_each"] == [1.0, 8.0]
    assert crypto["pooled"]["run_s_each"] == [2.0, 7.0]
    assert crypto["pooled_faster"] == 1
    assert set(runs["b"]["configs"]) == set(configs)
