"""Differential tests of the sorted-LCP kernel against the Trie oracle."""

import os
import re
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pathlab
from pathlab import addrgen, kernel
from pathlab.keyspace import from_nibbles, to_nibbles
from pathlab.stats import PathLengthHistogram
from pathlab.kernel import TrieShape, leading_zero_nibbles, sorted_shape, streamed_shape
from pathlab.trie import Trie
from test_acceptance import _random_key_batch


def oracle_shape(keys) -> TrieShape:
    """Build the pointer trie and read off what the kernel reports."""
    trie = Trie()
    for k in keys:
        trie.insert(k, b"")
    metrics = trie.leaf_metrics().values()
    return TrieShape(PathLengthHistogram.from_depths(m.divergence_depth for m in metrics),
                     PathLengthHistogram.from_depths(m.node_count for m in metrics),
                     trie.level_census())


def kernel_shape(keys) -> TrieShape:
    return sorted_shape(np.frombuffer(b"".join(keys), np.uint8).reshape(-1, 20))


def assert_same_shape(keys):
    got, want = kernel_shape(keys), oracle_shape(keys)
    assert got.divergence_histogram == want.divergence_histogram
    assert got.node_count_histogram == want.node_count_histogram
    assert got.level_census == want.level_census
    # insertion order of the census is part of the report's pooled census
    assert list(got.level_census) == sorted(got.level_census)
    # the report is serialised with json, which takes no numpy scalars
    numbers = [*got.divergence_histogram.counts.items(),
               *got.node_count_histogram.counts.items(),
               *((d, *level.values()) for d, level in got.level_census.items())]
    assert all(type(x) is int for row in numbers for x in row)


def test_kernel_matches_trie_on_criterion_7_batches():
    rng = np.random.default_rng(1234)
    keys_seen = 0
    while keys_seen < 10_000:
        keys = _random_key_batch(rng, int(rng.integers(1, 65)))
        assert_same_shape(keys)
        keys_seen += len(keys)


# A shared base key; each key keeps the base's first ``shared`` nibbles and
# takes the rest from its own random bytes, so long common prefixes (and the
# extensions they make) are common rather than vanishingly rare.
prefix_batches = st.tuples(
    st.binary(min_size=20, max_size=20),
    st.lists(
        st.tuples(st.integers(0, 39), st.binary(min_size=20, max_size=20)),
        min_size=1,
        max_size=40,
    ),
).map(
    lambda t: [
        from_nibbles(to_nibbles(t[0])[:shared] + to_nibbles(tail)[shared:])
        for shared, tail in t[1]
    ]
)


@settings(max_examples=300, deadline=None)
@given(prefix_batches)
def test_kernel_matches_trie_on_shared_prefixes(keys):
    assert_same_shape(keys)


@settings(max_examples=100, deadline=None)
@given(st.binary(min_size=20, max_size=20), st.sets(st.integers(0, 15), min_size=1))
def test_kernel_matches_trie_on_last_nibble_siblings(base, last_nibbles):
    path = to_nibbles(base)[:39]
    assert_same_shape([from_nibbles(path + bytes([v])) for v in sorted(last_nibbles)])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.binary(min_size=20, max_size=20), min_size=1, max_size=2))
def test_kernel_matches_trie_on_one_or_two_keys(keys):
    assert_same_shape(keys)


def test_single_key_is_a_root_leaf():
    shape = kernel_shape([bytes(range(20))])
    assert shape == TrieShape(PathLengthHistogram({0: 1}), PathLengthHistogram({1: 1}),
                              {0: {"branches": 0, "extensions": 0, "leaves": 1}})


def test_empty_key_set():
    empty = TrieShape(PathLengthHistogram({}), PathLengthHistogram({}), {})
    assert sorted_shape(np.zeros((0, 20), np.uint8)) == oracle_shape([]) == empty


@pytest.mark.parametrize(
    "tails",
    [
        [b"\x00\x00", b"\x00\x01", b"\x01\x00", b"\x10\x00"],
        [b"\x00\x00", b"\xff\xff"],
        [b"\x80\x00", b"\x7f\xff", b"\x00\x80"],
    ],
)
def test_kernel_orders_bytes_unsigned_and_keeps_trailing_zeros(tails):
    assert_same_shape([b"\xab" * 18 + t for t in tails])


def test_duplicate_keys_count_once_like_trie_overwrite():
    rng = np.random.default_rng(7)
    unique = _random_key_batch(rng, 30)
    with_repeats = unique + unique[:10] + [unique[0]] * 3
    assert kernel_shape(with_repeats).divergence_histogram.total == 30
    assert kernel_shape(with_repeats) == kernel_shape(unique) == oracle_shape(with_repeats)
    assert kernel_shape([unique[0]] * 4) == kernel_shape([unique[0]])


def test_kernel_rejects_wrong_key_width():
    with pytest.raises(ValueError, match=r"\(n, 20\)"):
        sorted_shape(np.zeros((3, 32), np.uint8))
    with pytest.raises(ValueError, match=r"\(n, 20\)"):
        sorted_shape(np.zeros(20, np.uint8))


def test_run_trial_imports_nothing_beyond_key_generation():
    """Measuring a trial loads no module that ``pathlab.cli`` and the key
    generator have not: a lazily imported numpy submodule would cost every
    run set-up time and resident memory. ``pathlab.cli`` itself loads no
    process-pool module; only a run that starts the pool pays for them. Nor
    does it or a trial load the oracle, ``pathlab.trie``."""
    script = """
import sys
import pathlab.cli
oracle = ["pathlab.trie" in sys.modules]
print(" ".join(m for m in sys.modules
               if m.split(".")[0] in ("multiprocessing", "concurrent")) or "-")
from pathlab import addrgen
from pathlab.harness import ExperimentConfig, run_trial
for mode in ("uniform", "crypto"):
    addrgen.generate(2, 1, mode)
before = set(sys.modules)
run_trial(1_000, 0, ExperimentConfig(sizes=(1_000,), trials=1))
run_trial(2, 0, ExperimentConfig(sizes=(20,), trials=1, mode="crypto"))
print(" ".join(sorted(set(sys.modules) - before)))
print(oracle + ["pathlab.trie" in sys.modules])
"""
    src = os.path.dirname(os.path.dirname(pathlab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    pool_modules, trial_modules, oracle = out.stdout.split("\n")[:3]
    assert pool_modules == "-"
    assert trial_modules.split() == []
    assert oracle == "[False, False]"


# -- the 8-byte prefix front end: ties, the 16-nibble boundary, byte order --


def diverging_at(key: bytes, lcp: int, tail: bytes) -> bytes:
    """A key sharing exactly ``lcp`` leading nibbles with ``key``; its
    nibbles past the divergence come from ``tail``."""
    path = to_nibbles(key)
    return from_nibbles(path[:lcp] + bytes([path[lcp] ^ 1]) + to_nibbles(tail)[lcp + 1:])


@pytest.mark.parametrize("lcp", [15, 16, 17])
def test_adjacent_lcp_at_the_prefix_boundary(lcp):
    rng = np.random.default_rng(lcp)
    base, tail = (rng.bytes(20) for _ in range(2))
    pair = [base, diverging_at(base, lcp, tail)]
    assert kernel_shape(pair).divergence_histogram.counts == {lcp + 1: 2}
    assert_same_shape(pair + _random_key_batch(rng, 40))


def test_every_key_shares_the_first_16_nibbles():
    rng = np.random.default_rng(16)
    prefix = rng.bytes(8)
    keys = [prefix + rng.bytes(12) for _ in range(300)]
    keys += [diverging_at(keys[0], lcp, rng.bytes(20)) for lcp in range(16, 40)]
    assert_same_shape(keys)


def test_two_tied_groups_among_untied_keys():
    rng = np.random.default_rng(2)
    groups = [rng.bytes(8) for _ in range(2)]
    keys = [g + rng.bytes(12) for g in groups for _ in range(5)]
    keys += [diverging_at(keys[0], 17, rng.bytes(20)), diverging_at(keys[5], 30, rng.bytes(20))]
    keys += _random_key_batch(rng, 50)
    assert_same_shape(keys)


def test_duplicates_inside_a_tied_group_count_once():
    rng = np.random.default_rng(3)
    prefix = rng.bytes(8)
    group = [prefix + rng.bytes(12) for _ in range(4)]
    others = _random_key_batch(rng, 20)
    keys = others + group + [group[1]] * 3 + [group[0], group[3]]
    assert kernel_shape(keys).divergence_histogram.total == 24
    assert kernel_shape(keys) == kernel_shape(others + group)
    assert_same_shape(keys)


def test_prefixes_order_unsigned_across_the_top_bit():
    """Tied groups of different sizes and LCPs under the prefixes 0x7fff..,
    0x8000.. and 0xffff..: a signed view would put the last two first, out
    of step with the full keys' byte order that resolves the ties."""
    rng = np.random.default_rng(4)
    groups = {b"\x7f" + b"\xff" * 7: [30], b"\x80" + bytes(7): [17, 20],
              b"\xff" * 8: [16, 25, 39], bytes(8): []}
    keys = []
    for head, lcps in groups.items():
        base = head + rng.bytes(12)
        keys += [base] + [diverging_at(base, lcp, rng.bytes(20)) for lcp in lcps]
    assert_same_shape(keys)


def tied_key(prefix: bytes, base_tail: bytes, shared: int, tail: bytes) -> bytes:
    """``prefix`` and a 12-byte tail whose first ``shared`` nibbles are
    ``base_tail``'s and the rest ``tail``'s."""
    base, own = to_nibbles(prefix + base_tail), to_nibbles(prefix + tail)
    return from_nibbles(base[:16 + shared] + own[16 + shared:])


# Keys over one to three 8-byte prefixes, so every batch has tied prefixes,
# with tails sharing 0-24 nibbles (24: a duplicate key).
tied_prefix_batches = st.tuples(
    st.lists(st.binary(min_size=8, max_size=8), min_size=1, max_size=3),
    st.binary(min_size=12, max_size=12),
    st.lists(st.tuples(st.integers(0, 2), st.integers(0, 24),
                       st.binary(min_size=12, max_size=12)), min_size=1, max_size=40),
).map(
    lambda t: [tied_key(t[0][g % len(t[0])], t[1], shared, tail) for g, shared, tail in t[2]]
)


@settings(max_examples=300, deadline=None)
@given(tied_prefix_batches)
def test_kernel_matches_trie_on_tied_prefix_groups(keys):
    assert_same_shape(keys)


def test_leading_zero_nibbles_at_powers_of_16():
    values = [x for k in range(16) for x in (16**k, 16**k - 1)] + [2**64 - 1]
    want = [16 - len(f"{x:x}") if x else 16 for x in values]
    got = leading_zero_nibbles(np.array(values, np.uint64))
    assert got.tolist() == want
    assert [15 - k for k in range(16)] == want[0:32:2]


def test_kernel_memory_stays_within_a_small_multiple_of_the_keys():
    keys = np.random.default_rng(5).integers(0, 256, (200_000, 20), dtype=np.uint8)
    tracemalloc.start()
    try:
        sorted_shape(keys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * keys.nbytes, peak / keys.nbytes


def uniform_reader(seed: int):
    """Reads of a ``uniform`` trial's keys, as the harness gives them."""
    return lambda lo, hi: addrgen.generate(hi - lo, seed, "uniform", lo)


def test_streamed_uniform_trial_peak_memory_per_key():
    """A streamed trial keeps 8-byte prefixes and 1-byte LCPs, not its
    20-byte keys: 14.6 bytes a key at 200,000 keys, where a block of
    ``kernel._BLOCK`` drawn keys (1.3 MB) is still a seventh of the peak."""
    streamed_shape(uniform_reader(5), 1_000)  # numpy.random loads lazily
    n = 200_000
    tracemalloc.start()
    try:
        streamed_shape(uniform_reader(5), n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 17 * n, peak / n


def test_kernel_peak_memory_stays_within_1_1_times_the_keys():
    """The sweep keeps no per-key array wider than a byte, and the LCP step
    no index beside the sorted prefixes and their xor."""
    keys = np.random.default_rng(5).integers(0, 256, (200_000, 20), dtype=np.uint8)
    tracemalloc.start()
    try:
        sorted_shape(keys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * keys.nbytes, peak / keys.nbytes


def test_kernel_peak_memory_is_the_prefixes_plus_blocks(monkeypatch):
    """The LCPs are written over the sorted prefixes, so no per-key array
    sits beside them: the peak is 8 bytes a key plus block temporaries (the
    LCP step's xor and nibble counts, about 10 bytes an entry; the sweep's,
    beside its 3 bytes a key). Blocks of 2**14 entries keep those near one
    byte a key at 200,000 keys, so the per-key term decides: 8 bytes a key
    plus 10.9 blocks here, 9 bytes a key plus 16.2 blocks with a separate
    LCP array."""
    monkeypatch.setattr(kernel, "_BLOCK", 1 << 14)
    keys = np.random.default_rng(5).integers(0, 256, (200_000, 20), dtype=np.uint8)
    sorted_shape(keys[:1_000])
    tracemalloc.start()
    try:
        sorted_shape(keys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * len(keys) + 16 * kernel._BLOCK, (peak - 8 * len(keys)) / kernel._BLOCK


def sweep_peak(keys: np.ndarray) -> int:
    """The tracemalloc peak of the sweep of ``keys``, beside its LCPs."""
    padded = kernel._prefix_lcps(np.sort(kernel._prefixes(keys)))[0]
    tracemalloc.start()
    try:
        kernel._sweep(padded)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sweep_peak_memory_is_one_byte_a_key_plus_blocks(monkeypatch):
    """Beside its 1-byte LCPs, the sweep holds one per-key array of a byte
    (``nodes_above``) and temporaries of a few blocks: 20.9 blocks of 2**14
    entries at 200,000 keys (25.9 beside two bytes a key when ``reach`` was
    taken over the whole array)."""
    monkeypatch.setattr(kernel, "_BLOCK", 1 << 14)
    keys = np.random.default_rng(5).integers(0, 256, (200_000, 20), dtype=np.uint8)
    peak = sweep_peak(keys)
    assert peak <= len(keys) + 30 * kernel._BLOCK, (peak - len(keys)) / kernel._BLOCK


def test_sweep_temporaries_follow_the_largest_first_byte_group(monkeypatch):
    """A block of the sweep ends where the first byte changes, so it holds
    a whole first byte's keys where those are more than ``_BLOCK``: over 4
    first bytes, about 50,000 keys each, the temporaries are 15.9 entries
    of the largest group (48.7 blocks of 2**14), not of the whole array."""
    monkeypatch.setattr(kernel, "_BLOCK", 1 << 14)
    rng = np.random.default_rng(5)
    keys = rng.integers(0, 256, (200_000, 20), dtype=np.uint8)
    keys[:, 0] = 64 * rng.integers(0, 4, len(keys)) + 3
    largest = np.bincount(keys[:, 0]).max()
    assert largest > kernel._BLOCK
    peak = sweep_peak(keys)
    assert peak <= len(keys) + 18 * largest, (peak - len(keys)) / largest


# -- LCP sequences that random keys never reach --


def keys_with_lcps(lcps) -> list[bytes]:
    """Sorted distinct keys, each the previous one with nibble ``l``
    incremented and the nibbles after it zeroed, so that adjacent keys
    share exactly ``l`` nibbles. An ``l`` whose nibble is already 15 is
    skipped."""
    path = bytearray(40)
    keys = [from_nibbles(bytes(path))]
    for lcp in lcps:
        if path[lcp] < 15:
            path[lcp] += 1
            path[lcp + 1:] = bytes(39 - lcp)
            keys.append(from_nibbles(bytes(path)))
    return keys


lcp_segments = st.one_of(
    st.lists(st.integers(0, 39), max_size=20),
    # ramps up or down, up to 39 levels deep
    st.tuples(st.integers(0, 39), st.integers(0, 39)).map(
        lambda t: list(range(t[0], t[1] + 1)) or list(range(t[0], t[1] - 1, -1))
    ),
    st.integers(1, 20).map(lambda k: [39] * k),
)
lcp_sequences = st.lists(lcp_segments, max_size=8).map(lambda s: [lcp for seg in s for lcp in seg])


@settings(max_examples=300, deadline=None)
@given(lcp_sequences)
def test_kernel_matches_trie_on_constructed_lcp_sequences(lcps):
    assert_same_shape(keys_with_lcps(lcps))


# branches at nibble depths 2 and 3 over the multiples of 4 from position 1 to 12
ACROSS_BLOCKS = [3, 2, 3, 3, 2, 3, 3, 3, 2, 3, 3, 2]


def low_at(position: int, lcp: int) -> list[int]:
    """``ACROSS_BLOCKS`` with ``lcp``, 0 or 1, at ``position``."""
    lcps = list(ACROSS_BLOCKS)
    lcps[position - 1] = lcp
    return lcps


@pytest.mark.parametrize("lcps", [
    # all 16 keys share their first byte: one block of 17 positions, over
    # which depth 5 branches from position 0 to 15
    [5] + [39] * 12 + [5, 2],
    # the LCP of 1 at position 4, a multiple of 4, ends the first block and
    # the depth-3 branch over positions 0 to 4
    [3, 3, 3, 1, 2],
    # the LCP of 1 at position 5 ends the first block, one past 4
    [3, 3, 3, 3, 1],
    # the first LCP below 2 at or after 4 is at 6, so the block that holds
    # the one at 3 ends there
    [5, 5, 1, 3, 3, 0],
    # one first byte's 13 keys, longer than a block, in one block
    ACROSS_BLOCKS,
    # an LCP of 0 or 1 one before, at and one after the multiple 8
    *(low_at(p, lcp) for p in (7, 8, 9) for lcp in (0, 1)),
])
def test_kernel_matches_trie_on_branches_carried_across_blocks(monkeypatch, lcps):
    """Blocks of 4 positions, each carried on to the first LCP below 2 at
    or after a multiple of 4, so that no branch at depth 2 or deeper
    crosses a block's end; position ``j`` holds the LCP of keys ``j - 1``
    and ``j``."""
    monkeypatch.setattr(kernel, "_BLOCK", 4)
    assert_same_shape(keys_with_lcps(lcps))


def test_kernel_matches_trie_on_a_nest_39_levels_deep():
    ramp = list(range(40))
    lcps = ramp + ramp[::-1] + [39] * 15 + ramp[::2]
    keys = keys_with_lcps(lcps)
    paths = [to_nibbles(k) for k in keys]
    assert [next(i for i in range(40) if a[i] != b[i]) for a, b in zip(paths, paths[1:])] == lcps
    assert_same_shape(keys)


# -- range readers and blocked passes --


def reader_of(rows: np.ndarray):
    return lambda lo, hi: rows[lo:hi]


@pytest.mark.parametrize("size", [kernel._BLOCK - 1, kernel._BLOCK, kernel._BLOCK + 1,
                                  2 * kernel._BLOCK + 1])
def test_streamed_trial_matches_the_whole_key_array(size):
    keys = addrgen.generate(size, 3)
    assert streamed_shape(uniform_reader(3), size) == sorted_shape(keys)


@pytest.mark.parametrize("base, block", [(64, 1 << 16), (64, 16), (50, 7)])
@pytest.mark.parametrize("offset", [-1, 0, 1, "2x+1"])
def test_streamed_trial_matches_trie_around_the_chunk_size(monkeypatch, base, block, offset):
    """Sizes one short of, at, one past and twice ``base`` plus one, small
    enough for the oracle, read in one block or in blocks of 16 or 7 keys:
    the sizes end a key before, at or after a block edge."""
    size = 2 * base + 1 if offset == "2x+1" else base + offset
    monkeypatch.setattr(kernel, "_BLOCK", block)
    keys = addrgen.generate(size, size)
    got = streamed_shape(uniform_reader(size), size)
    assert got == sorted_shape(keys) == oracle_shape([bytes(k) for k in keys])


def tied_group_among(rng, others: int):
    """Random keys and a group over one 8-byte prefix, with a duplicate,
    shuffled together; the group's prefix."""
    prefix = rng.bytes(8)
    group = [prefix + rng.bytes(12) for _ in range(6)]
    group += [diverging_at(group[0], lcp, rng.bytes(20)) for lcp in (16, 23, 39)]
    group.append(group[3])
    keys = _random_key_batch(rng, others) + group
    rng.shuffle(keys)
    return keys, prefix


def test_tied_prefixes_split_across_two_chunks(monkeypatch):
    """A tied group, half of it in each block: the second read of the
    blocks finds every one of them."""
    keys, prefix = tied_group_among(np.random.default_rng(9), 30)
    rows = np.frombuffer(b"".join(keys), np.uint8).reshape(-1, 20)
    monkeypatch.setattr(kernel, "_BLOCK", len(rows) // 2)
    first = rows[:kernel._BLOCK]
    assert 0 < sum(bytes(k[:8]) == prefix for k in first) < 10  # the group's 10 keys
    assert streamed_shape(reader_of(rows), len(rows)) == oracle_shape(keys)


@pytest.mark.parametrize("tied", [True, False])
def test_blocks_are_read_again_only_for_ties(monkeypatch, tied):
    """The fill reads each block once; with tied prefixes the tie pass reads
    the same ranges again, and without them nothing is read twice."""
    rng = np.random.default_rng(10)
    keys = tied_group_among(rng, 30)[0] if tied else [rng.bytes(20) for _ in range(40)]
    rows = np.frombuffer(b"".join(keys), np.uint8).reshape(-1, 20)
    monkeypatch.setattr(kernel, "_BLOCK", 16)
    reads = []

    def read(lo, hi):
        reads.append((lo, hi))
        return rows[lo:hi]

    assert streamed_shape(read, len(rows)) == oracle_shape(keys)
    fill = [(0, 16), (16, 32), (32, 40)]
    assert reads == (fill * 2 if tied else fill)


def test_streamed_shape_rejects_a_short_source():
    with pytest.raises(ValueError, match=r"read\(0, 4\) gave shape \(3, 20\)"):
        streamed_shape(lambda lo, hi: np.zeros((3, 20), np.uint8), 4)


def test_streamed_shape_rejects_a_one_row_read():
    """numpy would broadcast the row's prefix over the whole block."""
    with pytest.raises(ValueError, match=r"read\(0, 4\) gave shape \(1, 20\)"):
        streamed_shape(lambda lo, hi: np.zeros((1, 20), np.uint8), 4)


@pytest.mark.parametrize("dtype", [np.float32, np.int64])
def test_streamed_shape_rejects_keys_of_another_dtype(dtype):
    """Unchecked, float32 keys give a wrong shape with no error and int64
    keys fail inside the tie pass with numpy's own message."""
    keys = addrgen.generate(1_000, 3, "uniform").astype(dtype)
    with pytest.raises(ValueError, match=re.escape(
            f"read(0, 1000) gave shape (1000, 20), not (1000, 20), of {np.dtype(dtype)}")):
        streamed_shape(reader_of(keys), len(keys))


@pytest.mark.parametrize("rows_given, shape", [
    (lambda lo, hi: slice(lo, hi - 1), "(11, 20)"),
    (lambda lo, hi: slice(lo, lo + 1), "(1, 20)"),
], ids=["short", "one-row"])
def test_streamed_shape_checks_the_reads_of_the_tie_pass(rows_given, shape):
    """Three keys over one 8-byte prefix, two of them at an LCP of 18
    nibbles and the third at 16, the last row one of the two: the fill
    reads whole blocks, and the tie pass gets a short or a one-row read.
    Unchecked, the short read gives depths ``{17: 3}`` for the tied keys
    in place of ``{17: 1, 19: 2}``."""
    rng = np.random.default_rng(11)
    base = rng.bytes(20)
    keys = [rng.bytes(20) for _ in range(9)]
    keys += [diverging_at(base, 16, rng.bytes(20)), base, diverging_at(base, 18, rng.bytes(20))]
    rows = np.frombuffer(b"".join(keys), np.uint8).reshape(-1, 20)
    reads = []

    def read(lo, hi):
        reads.append((lo, hi))
        return rows[rows_given(lo, hi) if len(reads) > 1 else slice(lo, hi)]

    assert streamed_shape(reader_of(rows), len(rows)) == oracle_shape(keys)
    with pytest.raises(ValueError, match=re.escape(f"read(0, 12) gave shape {shape}, "
                                                   "not (12, 20)")):
        streamed_shape(read, len(rows))
    assert reads == [(0, 12), (0, 12)]


@settings(max_examples=60, deadline=None)
@given(lcp_sequences, st.integers(1, 9))
def test_kernel_matches_trie_across_chunks_and_blocks(lcps, block):
    """LCP runs, branches and tied groups that straddle the kernel's
    blocks, read from keys in reverse order."""
    keys = keys_with_lcps(lcps)
    rows = np.frombuffer(b"".join(keys), np.uint8).reshape(-1, 20)[::-1]
    with mock.patch.object(kernel, "_BLOCK", block):
        assert streamed_shape(reader_of(rows), len(rows)) == oracle_shape(keys)


# -- the TrieShape sum ---------------------------------------------------------


def random_batches(seed: int, count: int) -> list[list[bytes]]:
    rng = np.random.default_rng(seed)
    return [_random_key_batch(rng, int(rng.integers(1, 65))) for _ in range(count)]


def test_zero_key_shape_is_the_sum_identity():
    zero = sorted_shape(np.zeros((0, 20), np.uint8))
    assert zero == kernel.EMPTY_SHAPE == oracle_shape([])
    assert zero + zero == zero
    for keys in random_batches(11, 20):
        shape = kernel_shape(keys)
        assert zero + shape == shape == shape + zero


@settings(max_examples=100, deadline=None)
@given(st.lists(prefix_batches, min_size=3, max_size=3))
def test_sum_is_commutative_and_associative(batches):
    a, b, c = map(kernel_shape, batches)
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    # ascending, as the report lists the census
    assert list((c + a).level_census) == sorted((c + a).level_census)


def test_sum_is_commutative_and_associative_on_random_batches():
    shapes = [kernel_shape(keys) for keys in random_batches(12, 30)]
    for a, b, c in zip(shapes, shapes[1:], shapes[2:]):
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)


def test_summed_kernel_shapes_equal_summed_oracle_shapes():
    batches = random_batches(13, 12)
    kernel_sum = oracle_sum = kernel.EMPTY_SHAPE
    for keys in batches:
        kernel_sum += kernel_shape(keys)
        oracle_sum += oracle_shape(keys)
    assert kernel_sum == oracle_sum
    assert kernel_sum.divergence_histogram.total == sum(len(set(keys)) for keys in batches)
    assert sum(level["leaves"] for level in kernel_sum.level_census.values()) == \
        kernel_sum.divergence_histogram.total


def test_kernel_reads_keys_of_any_memory_layout():
    """The kernel's prefix view needs each key's bytes contiguous; a
    Fortran-ordered or column-strided key array is read as its C-ordered
    copy would be."""
    keys = np.random.default_rng(14).integers(0, 256, (1_000, 20), dtype=np.uint8)
    want = sorted_shape(keys)
    assert sorted_shape(np.asfortranarray(keys)) == want
    assert sorted_shape(np.repeat(keys, 2, axis=1)[:, ::2]) == want
    strided = np.concatenate([keys, keys], 1)[:, ::2]
    assert sorted_shape(strided) == sorted_shape(strided.copy())
