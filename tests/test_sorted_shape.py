"""Differential tests of the sorted-LCP kernel against the Trie oracle."""

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pathlab
from pathlab.keyspace import from_nibbles, to_nibbles
from pathlab.trie import Trie, TrieShape, leading_zero_nibbles, sorted_shape
from test_acceptance import _random_key_batch


def oracle_shape(keys) -> TrieShape:
    """Build the pointer trie and read off what the kernel reports."""
    trie = Trie()
    for k in keys:
        trie.insert(k, b"")
    depths, node_counts = {}, {}
    for m in trie.leaf_metrics().values():
        depths[m.divergence_depth] = depths.get(m.divergence_depth, 0) + 1
        node_counts[m.node_count] = node_counts.get(m.node_count, 0) + 1
    return TrieShape(depths, node_counts, trie.level_census())


def kernel_shape(keys) -> TrieShape:
    return sorted_shape(np.frombuffer(b"".join(keys), np.uint8).reshape(-1, 20))


def assert_same_shape(keys):
    got, want = kernel_shape(keys), oracle_shape(keys)
    assert got.depths == want.depths
    assert got.node_counts == want.node_counts
    assert got.census == want.census
    # insertion order of the census is part of the report's pooled census
    assert list(got.census) == sorted(got.census)
    # the report is serialised with json, which takes no numpy scalars
    numbers = [*got.depths.items(), *got.node_counts.items(),
               *((d, *level.values()) for d, level in got.census.items())]
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
    assert shape == TrieShape({0: 1}, {1: 1}, {0: {"branches": 0, "extensions": 0, "leaves": 1}})


def test_empty_key_set():
    assert sorted_shape(np.zeros((0, 20), np.uint8)) == oracle_shape([]) == TrieShape({}, {}, {})


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
    assert sum(kernel_shape(with_repeats).depths.values()) == 30
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
    process-pool module; only a run that starts the pool pays for them."""
    script = """
import sys
import pathlab.cli
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
"""
    src = os.path.dirname(os.path.dirname(pathlab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    pool_modules, trial_modules = out.stdout.split("\n")[:2]
    assert pool_modules == "-"
    assert trial_modules.split() == []


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
    assert kernel_shape(pair).depths == {lcp + 1: 2}
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
    assert sum(kernel_shape(keys).depths.values()) == 24
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


def test_kernel_matches_trie_on_a_nest_39_levels_deep():
    ramp = list(range(40))
    lcps = ramp + ramp[::-1] + [39] * 15 + ramp[::2]
    keys = keys_with_lcps(lcps)
    paths = [to_nibbles(k) for k in keys]
    assert [next(i for i in range(40) if a[i] != b[i]) for a, b in zip(paths, paths[1:])] == lcps
    assert_same_shape(keys)
