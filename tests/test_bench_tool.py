"""``tools/bench_layers.py`` still runs against this checkout.

The tool times the kernel's steps through private names (``trie._fill_prefixes``,
``_prefix_lcps``, ``_sweep``) and stubs ``addrgen.public_keys`` and
``keccak256_rows``; a rename of any of them would break it without an error
anywhere else. Each measurement here is one small call in this process.
"""

import importlib.util
from pathlib import Path

import pathlab

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
    assert_row(load_tool().measure_validate(1_000, src),
               ["validate_s", "validate_maxrss_mb"])


def test_crypto_bench_gives_every_step():
    from pathlab import addrgen

    derive = addrgen.public_keys, addrgen.keccak256_rows
    row = load_tool().measure_crypto(8, 1)
    assert_row(row, ["window_table_s", "draw_s", "public_keys_s", "keccak256_rows_s",
                     "generate_s", "ru_maxrss_mb"])
    # the scalar draw's stubs are taken out again
    assert (addrgen.public_keys, addrgen.keccak256_rows) == derive
