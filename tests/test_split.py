"""Differential tests of the split kernel against the serial one and the
Trie oracle: the cuts, the ties and duplicates each part resolves, the
keys each process reads, the parts' processes and memory."""

import mmap
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pathlab
from pathlab import addrgen, harness, kernel
from pathlab.harness import ExperimentConfig, run_trial
from test_harness import assert_no_child_left, open_fds
from test_sorted_shape import diverging_at, oracle_shape, reader_of


def assert_split_matches(rows: np.ndarray, parts: int, read=None):
    """The split of ``rows``, read by ``read`` (their slices by default),
    equals the serial kernel's and the oracle's shape."""
    got = kernel.split_shape(read or reader_of(rows), len(rows), parts, harness._fork_map)
    assert_no_child_left()
    assert got == kernel.streamed_shape(reader_of(rows), len(rows))
    assert got == oracle_shape([bytes(k) for k in rows])
    assert list(got.level_census) == sorted(got.level_census)
    assert list(got.divergence_histogram.counts) == sorted(got.divergence_histogram.counts)


def grouped(seed: int, counts: dict[int, int]) -> np.ndarray:
    """Random keys, ``counts[b]`` of them with first byte ``b``, shuffled."""
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, 256, (sum(counts.values()), 20), dtype=np.uint8)
    rows[:, 0] = np.repeat(list(counts), list(counts.values()))
    rng.shuffle(rows)
    return rows


def cuts_of(rows: np.ndarray, parts: int):
    """The plan's cuts, and the LCPs there."""
    ranges = kernel._plan(np.sort(kernel._prefixes(rows)), parts)[1]
    return ([r[0] for r in ranges] + [ranges[-1][1]],
            [r[2][0] for r in ranges] + [ranges[-1][2][1]])


def counted_reader(rows: np.ndarray):
    """A reader of ``rows``, the times each row was read in any process (a
    mapping forked parts share), and the ``(lo, hi)`` reads made in this one."""
    hits = np.frombuffer(mmap.mmap(-1, len(rows) * 8), np.int64)
    here = []

    def read(lo, hi):
        hits[lo:hi] += 1
        if os.getpid() == caller:
            here.append((lo, hi))
        return rows[lo:hi]

    caller = os.getpid()
    return read, hits, here


# Keys whose prefixes end 8 bytes before a page edge (3,583 with 4 KB
# pages): the rows of the plan after them straddle the page where the last
# range's MADV_REMOVE stops.
PAGE_EDGE = 7 * mmap.PAGESIZE // 8 - 1


@pytest.mark.parametrize("count, parts", [
    *(pytest.param(3_000, parts, id=str(parts)) for parts in (2, 3, 4, 7)),
    *(pytest.param(PAGE_EDGE, parts, id=f"page-edge-{parts}") for parts in (2, 3, 4, 7)),
])
def test_split_matches_serial_and_oracle_on_random_keys(count, parts):
    assert_split_matches(addrgen.generate(count, parts), parts)


@pytest.mark.parametrize("first", [15, 16, 17, 31, 32, 33])
@pytest.mark.parametrize("second", [0x1F, 0x20])
def test_cuts_next_to_block_edges(monkeypatch, first, second):
    """Blocks of 16 entries; the one cut, at ``first``, falls a position
    before, at or after a block edge, with an LCP of 1 (``0x1f``, sharing
    the first nibble of ``0x10``) or 0 (``0x20``)."""
    monkeypatch.setattr(kernel, "_BLOCK", 16)
    rows = grouped(first, {0x10: first, second: 48 - first})
    assert cuts_of(rows, 2) == ([0, first, 48], [-1, int(second == 0x1F), -1])
    assert_split_matches(rows, 2)


@pytest.mark.parametrize("counts, cut", [
    ({0x00: 1, 0xAB: 40}, 1),
    ({0xAB: 40, 0xFF: 1}, 40),
    ({0xA0: 1, 0xAB: 40}, 1),
])
@pytest.mark.parametrize("parts", [2, 3])
def test_cuts_at_the_array_ends(counts, cut, parts):
    """The only LCP below 2 is next to an end, so a part holds one key; with
    three parts the plan has two ranges and the third part measures none."""
    rows = grouped(cut, counts)
    assert cuts_of(rows, parts)[0] == [0, cut, 41]
    assert_split_matches(rows, parts)


def test_one_key_parts():
    rows = grouped(4, {0x01: 1, 0x02: 1, 0x13: 1, 0xF4: 1})
    assert cuts_of(rows, 4)[0] == [0, 1, 2, 3, 4]
    assert_split_matches(rows, 4)


@pytest.mark.parametrize("parts", [2, 3])
def test_keys_without_an_lcp_below_2_are_one_range_read_once(parts):
    """Every key shares its first byte, so there is nowhere to cut: part 0
    measures all of them as one range, swept from depth 2, whose root
    extension it counts, and no key is read a second time."""
    rows = grouped(5, {0x42: 50})
    assert cuts_of(rows, parts) == ([0, 50], [-1, -1])
    read, hits, _ = counted_reader(rows)
    assert_split_matches(rows, parts, read)
    assert (hits == 1).all()


def with_keys(rows: np.ndarray, extra: list[bytes]) -> np.ndarray:
    keys = np.frombuffer(b"".join(extra), np.uint8).reshape(-1, 20)
    return np.concatenate([rows, keys])


def tied_next_to_a_cut(before: int, after: int) -> np.ndarray:
    """Keys with first bytes 0x10 and 0x20, 20 each, then ``before`` keys
    over one 8-byte prefix that sort last before the cut between them and
    ``after`` over one that sorts first after it."""
    rng = np.random.default_rng(6)
    return with_keys(grouped(6, {0x10: 20, 0x20: 20}),
                     [b"\x10" + b"\xff" * 7 + rng.bytes(12) for _ in range(before)]
                     + [b"\x20" + b"\x00" * 7 + rng.bytes(12) for _ in range(after)])


def test_tied_prefixes_on_both_sides_of_a_cut():
    """A tied group as the last keys before the cut and one as the first
    after it: each part resolves its own, with the true LCPs at the cut."""
    rows = tied_next_to_a_cut(3, 3)
    assert cuts_of(rows, 2)[0] == [0, 23, 46]
    assert_split_matches(rows, 2)


def test_tied_prefixes_in_a_forked_part_are_resolved_there():
    """The one tied group sorts into part 1's range: that forked part reads
    every key again for it, and this process reads only the keys it fills."""
    rows = tied_next_to_a_cut(0, 6)
    assert cuts_of(rows, 2)[0] == [0, 20, 46]
    read, hits, here = counted_reader(rows)
    assert_split_matches(rows, 2, read)
    assert (hits == 2).all()
    assert here == [(0, 23)]


def test_duplicate_keys_ahead_of_a_change_in_shallow_weight():
    """Three copies of one key in part 0's range, ahead of the first key of
    0x20, where the nodes above fall from a branch at 1 and the root (2) to
    the root alone (1): the part reads that change off its own LCPs, after
    the two copies are dropped."""
    rows = grouped(8, dict.fromkeys([0x10, 0x1F, 0x20, 0x30, 0x41, 0x48], 20))
    rows = with_keys(rows, [b"\x10" + bytes(range(1, 20))] * 3)
    assert cuts_of(rows, 2)[0] == [0, 63, 123]
    assert_split_matches(rows, 2)


def test_duplicate_keys_on_both_sides_of_a_cut_count_once():
    rows = grouped(7, {0x10: 20, 0x20: 20})
    last = b"\x10" + b"\xff" * 19
    first = b"\x20" + b"\x00" * 19
    rows = with_keys(rows, [last, last, first, first, diverging_at(first, 30, b"\1" * 20)])
    assert_split_matches(rows, 2)


@pytest.mark.parametrize("counts", [
    {0x10: 10, 0x14: 10, 0x18: 10},
    {0x05: 10, 0x10: 10, 0x14: 10, 0x18: 10, 0x30: 10},
], ids=["one-first-nibble", "several-first-nibbles"])
def test_a_depth_1_branch_across_both_cuts_of_a_part(counts):
    """The part that holds the keys of 0x14 alone has an LCP of 1 at both
    of its cuts: the branch at depth 1 above them crosses both, and the
    part counts it, with the root above it, as two nodes above each key,
    whether the root is an extension (one first nibble) or a branch."""
    rows = grouped(9, counts)
    ends = cuts_of(rows, len(counts))[1]
    assert [1, 1] in [ends[i:i + 2] for i in range(len(ends) - 1)]
    assert_split_matches(rows, len(counts))


@pytest.mark.parametrize("parts", [2, 3])
def test_no_keys_in_parts_is_the_empty_shape(parts):
    assert_split_matches(np.empty((0, 20), np.uint8), parts)


@st.composite
def key_sets(draw) -> np.ndarray:
    """Random keys over up to 8 first bytes, drawn from all 16 first nibbles
    or clustered in 1-3 of them, with copies of some keys' first 8 bytes
    (ties) or of whole keys (duplicates), shuffled."""
    nibbles = draw(st.just(range(16))
                   | st.lists(st.integers(0, 15), min_size=1, max_size=3, unique=True))
    first = st.builds(lambda high, low: 16 * high + low, st.sampled_from(nibbles),
                      st.integers(0, 15))
    counts = draw(st.dictionaries(first, st.integers(1, 12), min_size=1, max_size=8))
    seed = draw(st.integers(0, 2**32))
    rows = grouped(seed, counts)
    rng = np.random.default_rng(seed)
    copies = []
    for i, tie in draw(st.lists(st.tuples(st.integers(0, len(rows) - 1), st.booleans()),
                                max_size=6)):
        copies.append(rows[i].copy())
        if tie:
            copies[-1][8:] = rng.integers(0, 256, 12, dtype=np.uint8)
    rows = np.concatenate([rows, np.array(copies, np.uint8).reshape(-1, 20)])
    rng.shuffle(rows)
    return rows


@settings(max_examples=40, deadline=None)
@given(key_sets(), st.integers(2, 6), st.sampled_from([4, 16, 1 << 16]))
def test_split_matches_on_grouped_keys(rows, parts, block):
    original = kernel._BLOCK
    kernel._BLOCK = block  # forked parts read the module's value
    try:
        assert_split_matches(rows, parts)
    finally:
        kernel._BLOCK = original


@settings(max_examples=300, deadline=None)
@given(key_sets(), st.integers(2, 6), st.sampled_from([4, 16, 1 << 16]))
def test_plan_ranges_measured_in_process_match_serial_and_oracle(rows, parts, block):
    """The split without its processes: each of ``_plan``'s ranges measured
    on a copy of the sorted prefixes by the call that measures a whole
    trial, plus the plan's census of depths 0 and 1."""
    original = kernel._BLOCK
    kernel._BLOCK = block
    try:
        ordered = np.sort(kernel._prefixes(rows))
        shallow, ranges = kernel._plan(ordered, parts)
        read = reader_of(rows)
        got = sum((kernel._range_shape(read, len(rows), ordered[start:stop].copy(), ends)
                   for start, stop, ends in ranges), shallow)
        assert got == kernel.streamed_shape(read, len(rows))
        assert got == oracle_shape([bytes(k) for k in rows])
    finally:
        kernel._BLOCK = original


def test_crypto_trial_in_parts_matches_the_serial_trial(monkeypatch):
    """A ``crypto`` trial split over three processes, each deriving its own
    range of keys: the serial trial's shape."""
    monkeypatch.setattr(harness, "SPLIT_FROM_KEYS", 100)
    cfg = ExperimentConfig(sizes=(600,), trials=1, master_seed=2, mode="crypto")
    parts = run_trial(600, 0, cfg, 3)
    assert_no_child_left()
    assert parts == run_trial(600, 0, cfg)


@pytest.mark.parametrize("cpus, trials, forks", [(2, 1, 1), (3, 1, 2), (4, 2, 2)])
def test_uniform_report_in_parts_matches_the_serial_report(monkeypatch, cpus, trials, forks):
    """Fewer pairs than CPUs: each trial is measured in ``cpus // pairs``
    parts, by this process or by the worker running its share (whose own
    forks this process does not count), and the report is the same bytes
    as one CPU's."""
    monkeypatch.setattr(harness, "SPLIT_FROM_KEYS", 1_000)
    cfg = ExperimentConfig(sizes=(20_000,), trials=trials, master_seed=4)
    caller, forked, fork = os.getpid(), [], os.fork
    monkeypatch.setattr(harness.os, "fork",
                        lambda: (os.getpid() == caller and forked.append(1)) or fork())
    monkeypatch.setattr(harness, "_cpu_count", lambda: cpus)
    pooled = harness.report_to_json(harness.run_experiment(cfg))
    assert_no_child_left()
    assert len(forked) == forks
    monkeypatch.setattr(harness, "_cpu_count", lambda: 1)
    assert harness.report_to_json(harness.run_experiment(cfg)) == pooled


@pytest.mark.parametrize("where", ["part", "caller", "last part", "plan", "measure"])
def test_a_failing_part_fails_the_trial_and_leaves_no_child(monkeypatch, where):
    """An error in a part is raised here, every part is reaped and every
    pipe closed: while a forked part or this process reads its keys (the
    last of three parts: part 1, filled, waits for rows never written), in
    this process's plan, after the sort and before the rows are written, or
    in a forked part's measure."""
    caller = os.getpid()
    generate, range_shape = addrgen.generate, kernel._range_shape
    parts = 3 if where == "last part" else 2
    # the first key of the part whose read fails
    first = {"caller": 0, "part": 2_500, "last part": 3_333}.get(where)

    def failing(count, seed, mode, start):
        if start == first:
            raise KeyError(f"no keys in the {where}")
        if where == "caller":
            time.sleep(60)
        return generate(count, seed, mode, start)

    def fail(*args):
        raise KeyError(f"no keys in the {where}")

    monkeypatch.setattr(harness, "SPLIT_FROM_KEYS", 1_000)
    if where == "plan":
        monkeypatch.setattr(kernel, "_plan", fail)
    elif where == "measure":
        monkeypatch.setattr(kernel, "_range_shape",
                            lambda *args: (range_shape if os.getpid() == caller else fail)(*args))
    else:
        monkeypatch.setattr(addrgen, "generate", failing)
    before = open_fds()
    start = time.monotonic()
    with pytest.raises(KeyError, match=f"no keys in the {where}"):
        run_trial(5_000, 0, ExperimentConfig(sizes=(5_000,), trials=1), parts)
    assert time.monotonic() - start < 30
    assert_no_child_left()
    assert open_fds() == before


MEMORY_SCRIPT = """
import resource, sys
from pathlab import harness

def rss_kb():
    return int(next(line.split()[1] for line in open("/proc/self/status")
                    if line.startswith("VmRSS:")))

n, parts = 1_000_000, int(sys.argv[1])
cfg = harness.ExperimentConfig(sizes=(n,), trials=1, allow_large=True)
harness.run_trial(1_000, 0, cfg)  # numpy.random loads lazily
before = rss_kb()
harness.run_trial(n, 0, cfg, parts)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads /proc")
def test_split_trial_holds_no_more_memory_than_the_serial_one():
    """The memory tracemalloc cannot see, the shared mapping's pages, read
    as the caller's peak RSS over its RSS before the trial, in a fresh
    process: a 1e6-key trial in two parts holds the prefixes, 8 MB, and
    blocks, as the serial trial does (8.6 MB here; 8.9 MB split). Keeping
    the mapping through the sweep beside an LCP array of its own cost
    about 3 MB more."""
    src = os.path.dirname(os.path.dirname(pathlab.__file__))
    env = dict(os.environ, PYTHONPATH=src)

    def extra_kb(parts):
        out = subprocess.run([sys.executable, "-c", MEMORY_SCRIPT, str(parts)], env=env,
                             capture_output=True, text=True, timeout=120, check=True)
        return int(out.stdout)

    serial = extra_kb(1)
    assert serial > 7_800, serial  # the 8 MB of prefixes show
    assert extra_kb(2) <= serial + 1_000, serial
