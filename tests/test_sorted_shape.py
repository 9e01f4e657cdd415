"""Differential tests of the sorted-LCP kernel against the Trie oracle."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pathlab
from pathlab.keyspace import from_nibbles, to_nibbles
from pathlab.trie import Trie, TrieShape, sorted_shape
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
    census = {
        d: {"branches": lc.branches, "extensions": lc.extensions, "leaves": lc.leaves}
        for d, lc in sorted(trie.level_census().items())
    }
    return TrieShape(depths, node_counts, census)


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
    run set-up time and resident memory."""
    script = """
import sys
import pathlab.cli
from pathlab import addrgen
from pathlab.harness import ExperimentConfig, run_trial
for mode in ("uniform", "crypto"):
    addrgen.generate(addrgen.GeneratorConfig(mode=mode, seed=1, count=2))
before = set(sys.modules)
run_trial(1_000, 0, ExperimentConfig(sizes=(1_000,), trials=1))
run_trial(2, 0, ExperimentConfig(sizes=(2,), trials=1, mode="crypto"))
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
    assert out.stdout.split() == []
