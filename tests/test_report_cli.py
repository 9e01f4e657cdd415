import hashlib
import json
import os
import subprocess
import sys

import pytest

import pathlab
from pathlab import cli as cli_module
from pathlab import harness
from pathlab.cli import main
from pathlab.harness import ExperimentConfig, report_to_json, run_experiment
from pathlab.report import (
    PUBLISHED_FORMULA_NOTE,
    FormatError,
    model_query,
    render_report,
    reproduce_tables,
)


def test_model_query_ethereum_scale():
    text = model_query(300_000_000, fmt="md")
    assert "7.717012" in text
    assert "| 8 | 0.585884 |" in text


def test_model_query_large_trie():
    payload = json.loads(model_query(10**6, fmt="json"))
    assert payload["mode"] == 6
    assert payload["expected_path_length"] == pytest.approx(5.649078, abs=5e-7)


def test_model_query_boundary_n1():
    text = model_query(1, fmt="md")
    assert "exact per-leaf law" in text
    payload = json.loads(model_query(1, fmt="json"))
    assert payload["asymptotic_ratio"] is None
    assert "note" in payload


def test_model_query_small_table_values():
    text = model_query(100, fmt="csv")
    for k, p in [(1, "0.002386"), (2, "0.690504"), (3, "0.284479"),
                 (4, "0.021201"), (5, "0.001340"), (6, "0.000084")]:
        assert f"{k},{p}" in text


@pytest.mark.parametrize("render", [
    lambda fmt: model_query(100, fmt),
    lambda fmt: render_report(
        run_experiment(ExperimentConfig(sizes=(100,), trials=2)), fmt),
], ids=["model_query", "render_report"])
@pytest.mark.parametrize("fmt", ["xml", "markdown"])
def test_model_query_unknown_format(render, fmt):
    """Both renderers refuse a name outside ``FORMATS``, the long name
    ``markdown`` included: ``md`` is the only name of that format."""
    with pytest.raises(FormatError):
        render(fmt)


@pytest.mark.parametrize("n, fmt, sha256", [
    (1, "md", "10822a346fbe536507f1222099ca061e926d3af93df084a59eed128579881b0f"),
    (1, "csv", "eac4bb80e9b7014406c6df649c6bd41fc916ea412b13c275f9d82b66b895f782"),
    (1, "json", "24045c02600b7889adb0bc63bf5c6606acf88f96d415314170076a7c4f5c351a"),
    (2, "md", "27170b78e006101f71f420dd34916b9477bb1bc1261001d915dad97ac15bbf49"),
    (2, "csv", "ce747369d0aacea88f0ed2721ea85b1b667f81ccb571dd866001e78e223f2dc9"),
    (2, "json", "b5aa3216e2259af9131e3318436b5c04f7b7b6f16b53b7b46907059544fd62be"),
    (1_000, "md", "9e5eb8e51768719fbba87854af1e5e4b710987ece9c655f49c93bf3b0539f827"),
    (1_000, "csv", "6dc9b526d254db62331bb8be22907db2d0c0e7ae58aa04f09f4ad77c17f3ae10"),
    (1_000, "json", "b4890450e0aebc2670de3825edc3139c2977a99d1356959c3ce4d5be90b32590"),
    (1_000_000, "md",
     "96e2c03b45b4c84914f6966a77974cb8e66b72d72c1e4a282a8c2a1ca3319773"),
    (1_000_000, "csv", "bf007015ea157b546d25d8a164a501486012ba1d540f7504b29cc69e46bc2032"),
    (1_000_000, "json", "cb4b295611b3f92de239b0d6dcf8f500f0f73c6adbf7c0105aa71735de4ae392"),
])
def test_model_query_bytes_pinned(n, fmt, sha256):
    """Every rendering of the model query is byte-identical across versions
    of the program, from the one-key trie to a million keys."""
    assert hashlib.sha256(model_query(n, fmt).encode()).hexdigest() == sha256


def test_render_report_formats():
    report = run_experiment(ExperimentConfig(sizes=(100,), trials=2, master_seed=1))
    md = render_report(report, "md")
    assert "| Path Length | Theoretical Prob. | Experimental Prob. | Difference |" in md
    csv_text = render_report(report, "csv")
    assert "path_length,theoretical_prob,experimental_prob,difference" in csv_text
    parsed = json.loads(render_report(report, "json"))
    assert parsed["results"][0]["size"] == 100


@pytest.mark.parametrize("fmt, sha256", [
    ("md", "aefa6a3b383928f471ef128a707cc3691e612129972c75ced9711ab24dce0435"),
    ("csv", "7d2220cd07e740047c15c118776b423373ebf9547f4d5ddc6f14c0909cdaac93"),
])
def test_render_report_bytes_pinned(fmt, sha256):
    """The markdown and CSV renderings of the benchmark's validate-paper
    config are byte-identical across versions of the program."""
    cfg = ExperimentConfig(sizes=(100, 1_000, 10_000, 100_000), trials=10, master_seed=1)
    text = render_report(run_experiment(cfg), fmt).encode()
    assert hashlib.sha256(text).hexdigest() == sha256


def test_reproduce_tables_writes_six_files(tmp_path):
    paths = reproduce_tables(tmp_path / "tables", trials=2)
    assert len(paths) == 6
    names = sorted(p.name for p in paths)
    assert names == [
        "table1_path_lengths_100.csv",
        "table2_path_lengths_1000.csv",
        "table3_path_lengths_10000.csv",
        "table4_path_lengths_100000.csv",
        "table5_average_path_lengths.csv",
        "table6_chi_square.csv",
    ]
    table1 = (tmp_path / "tables" / "table1_path_lengths_100.csv").read_text()
    assert table1.splitlines()[0] == (
        "path_length,theoretical_prob,experimental_prob,difference"
    )
    assert table1.splitlines()[1].startswith("1,0.002386,")


def test_reproduce_tables_deterministic(tmp_path):
    a_paths = reproduce_tables(tmp_path / "a", trials=2)
    b_paths = reproduce_tables(tmp_path / "b", trials=2)
    for a, b in zip(a_paths, b_paths):
        assert a.read_bytes() == b.read_bytes()


def test_reproduce_tables_bytes_pinned(tmp_path):
    """The six tables at the CLI's defaults are byte-identical across
    versions of the program."""
    digest = hashlib.sha256()
    for path in reproduce_tables(tmp_path, master_seed=0, trials=10):
        digest.update(path.name.encode() + b"\n" + path.read_bytes())
    assert digest.hexdigest() == (
        "42985e85602a94902ab46d6df9a561361b194a519b307bef65ff2fb66caed96d"
    )


def test_cli_model_markdown(capsys):
    assert main(["model", "--n", "100"]) == 0
    assert "0.690504" in capsys.readouterr().out


def test_cli_model_json(capsys):
    main(["model", "--n", "100", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["mode"] == 2


def test_cli_model_notes_the_published_formula_at_every_n(capsys):
    """The published formula is no closer to the exact per-leaf law at large
    n (per-bin gap 0.024 at 10**6), so the note is not for small n alone."""
    runs = {fmt: (main(["model", "--n", "1000000", "--format", fmt]), capsys.readouterr().out)
            for fmt in ("md", "csv", "json")}
    assert all(code == 0 for code, _ in runs.values())
    assert f"- {PUBLISHED_FORMULA_NOTE}\n" in runs["md"][1]
    assert f"\nnote,{PUBLISHED_FORMULA_NOTE}\n" in runs["csv"][1]
    assert json.loads(runs["json"][1])["note"] == PUBLISHED_FORMULA_NOTE


def test_cli_usage_error_exit_code():
    assert main([]) == 1  # no command
    assert main(["model"]) == 1  # missing --n
    assert main(["model", "--n", "0"]) == 1
    assert main(["nonsense"]) == 1
    assert main(["validate", "--siz", "100"]) == 1  # no abbreviated options


def test_cli_config_error_exit_code(capsys):
    assert main(["simulate", "--sizes", "1", "--trials", "1"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("argv, name, make", [
    (["validate", "--sizes", "100"], "missing/report.json", None),
    (["validate", "--sizes", "100"], "report_dir", "dir"),
    (["tables"], "tables.csv", "file"),
], ids=["missing-parent", "directory-as-report", "file-as-tables-dir"])
def test_cli_unwritable_out_fails_before_any_trial(tmp_path, monkeypatch, capsys, argv,
                                                   name, make):
    """An ``--out`` the OS will not open is a runtime error (exit 2) that
    names the path, raised before any trial runs."""
    calls = []
    monkeypatch.setattr(cli_module, "run_experiment", calls.append)
    monkeypatch.setattr(harness, "run_trial", lambda *args: calls.append(args))
    out = tmp_path / name
    if make == "dir":
        out.mkdir()
    elif make == "file":
        out.write_bytes(b"keep")
    assert main(argv + ["--trials", "2", "--out", str(out)]) == 2
    assert capsys.readouterr().err.count(str(out)) == 1
    assert calls == []


def test_cli_refused_config_keeps_existing_out_file(tmp_path):
    """A config refused as too small for two chi-square bins fails before
    ``--out`` is opened, so an existing file is left as it was."""
    keep = tmp_path / "keep.json"
    keep.write_bytes(b"keep")
    assert main(["validate", "--sizes", "2", "--trials", "1", "--out", str(keep)]) == 1
    assert keep.read_bytes() == b"keep"


def test_cli_bad_sizes_string():
    assert main(["simulate", "--sizes", "abc"]) == 1


def test_cli_simulate_json(tmp_path):
    out = tmp_path / "report.json"
    code = main([
        "simulate", "--sizes", "100", "--trials", "2", "--seed", "7",
        "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["config"]["master_seed"] == 7
    assert payload["results"][0]["histogram"]


def test_cli_validate_markdown(capsys):
    assert main(["validate", "--sizes", "100", "--trials", "2", "--seed", "3"]) == 0
    assert "Chi-square" in capsys.readouterr().out


def test_cli_seed_from_environment(monkeypatch, capsys):
    monkeypatch.setenv("PATHLAB_SEED", "31337")
    assert main(["simulate", "--sizes", "100", "--trials", "1", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["master_seed"] == 31337


def test_cli_bad_seed_environment_is_a_usage_error(monkeypatch, capsys):
    """``PATHLAB_SEED`` that is not an integer is refused like a bad
    ``--seed``, and an explicit ``--seed`` overrides it."""
    monkeypatch.setenv("PATHLAB_SEED", "abc")
    argv = ["simulate", "--sizes", "100", "--trials", "1"]
    assert main(argv) == 1
    capsys.readouterr()
    assert main(argv + ["--seed", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["master_seed"] == 3


def test_cli_out_dash_is_stdout(tmp_path, monkeypatch, capsys):
    """``--out -`` writes the report to stdout and makes no file named ``-``."""
    monkeypatch.chdir(tmp_path)
    argv = ["validate", "--sizes", "100", "--trials", "2", "--seed", "1"]
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    assert main(argv + ["--out", "-"]) == 0
    assert capsys.readouterr().out == stdout
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["model", "simulate", "validate", "tables"])
def test_cli_help_of_each_command(capsys, command):
    """Every command has ``--help`` (exit 0); the ignored ``--jobs`` is not
    listed in it."""
    assert main([command, "--help"]) == 0
    text = capsys.readouterr().out
    assert "usage:" in text.lower()
    assert "--jobs" not in text


def test_cli_tables(tmp_path):
    out_dir = tmp_path / "t"
    code = main(["tables", "--out", str(out_dir), "--trials", "2"])
    assert code == 0
    assert len(list(out_dir.glob("*.csv"))) == 6


def test_cli_large_size_refusal_names_the_flag(monkeypatch, capsys):
    """A size above the threshold is refused before any trial runs, and the
    message names the command-line flag that permits it."""
    calls = []

    def fail(*args):
        calls.append(args)
        raise AssertionError("a trial ran")

    monkeypatch.setattr(harness, "run_trial", fail)
    assert main(["validate", "--sizes", "200000", "--trials", "1"]) == 1
    assert "--allow-large" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("fmt", ["md", "csv", "json"])
def test_cli_stdout_and_out_file_get_the_same_bytes(tmp_path, capsys, fmt):
    argv = ["validate", "--sizes", "100,1000", "--trials", "2", "--seed", "1",
            "--format", fmt]
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    out = tmp_path / f"report.{fmt}"
    assert main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text() == stdout


@pytest.mark.parametrize("sizes, trials, mode, jobs, allow_large", [
    ((50,), 2, "crypto", 2, False),
    ((100_001,), 1, "uniform", 1, True),
])
def test_cli_benchmark_argv_writes_the_report(tmp_path, capsys, sizes, trials, mode, jobs,
                                              allow_large):
    """The benchmark's argv shape, hidden and ignored ``--jobs`` included,
    writes exactly the report of the config it names."""
    out = tmp_path / "report.json"
    argv = [
        "validate", "--sizes", ",".join(map(str, sizes)), "--trials", str(trials),
        "--seed", "1", "--mode", mode, "--jobs", str(jobs),
        "--format", "json", "--out", str(out),
    ] + (["--allow-large"] if allow_large else [])
    assert main(argv) == 0
    cfg = ExperimentConfig(sizes=sizes, trials=trials, master_seed=1, mode=mode,
                           allow_large=allow_large)
    assert out.read_text() == report_to_json(run_experiment(cfg))
    assert main(["validate", "--help"]) == 0
    assert "--jobs" not in capsys.readouterr().out


def test_cli_pooled_validate_prints_the_report_once():
    """A ``validate`` whose trials run on forked workers writes to stdout
    the bytes of a one-CPU run: the line printed before the trials, still
    in this process's stdout buffer at the fork, and the report each come
    out once, as no worker flushes the buffer it was forked with."""
    script = """
import sys
from pathlab import cli, harness
harness._cpu_count = lambda: int(sys.argv[1])
print("before the trials")
sys.exit(cli.main(sys.argv[2:]))
"""
    argv = ["validate", "--sizes", "100,100000", "--trials", "3", "--seed", "2"]
    assert 100_100 * 3 >= harness.POOL_FROM_KEYS["uniform"]
    src = os.path.dirname(os.path.dirname(pathlab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    env.pop("PYTHONUNBUFFERED", None)  # so that stdout, a pipe, is block-buffered

    def stdout(cpus):
        return subprocess.run(
            [sys.executable, "-c", script, str(cpus), *argv], env=env,
            capture_output=True, timeout=120, check=True).stdout

    pooled = stdout(2)
    assert pooled == stdout(1)
    assert pooled.count(b"before the trials") == 1
    assert pooled.count(b"## 100 addresses") == pooled.count(b"## 100000 addresses") == 1
