import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathlab.keyspace import longest_common_prefix, to_nibbles
from pathlab.trie import Branch, Extension, Leaf, Trie, check_invariants


def build(keys, value=b""):
    t = Trie()
    for k in keys:
        t.insert(k, value)
    return t


def brute_divergence(key, others):
    """Independent oracle: 1 + max LCP with any other stored key."""
    if not others:
        return 0
    kp = to_nibbles(key)
    return 1 + max(longest_common_prefix(kp, to_nibbles(o)) for o in others)


# biased key strategy: long shared prefixes appear far more often than
# they would under uniform sampling, to exercise deep splits
shared_prefix_keys = st.lists(
    st.tuples(st.integers(0, 3), st.binary(min_size=20, max_size=20)).map(
        lambda t: b"\xde\xad" * t[0] + t[1][t[0] * 2 :]
    ),
    min_size=0,
    max_size=40,
    unique=True,
)


def test_insert_into_empty(addr):
    t = build([addr("aa")])
    assert isinstance(t.root, Leaf)
    assert len(t.root.path) == 40
    assert t.key_count == 1


def test_insert_two_divergent_keys(addr):
    t = build([addr("aa"), addr("cc")])
    assert isinstance(t.root, Branch)
    assert isinstance(t.root.children[0xA], Leaf)
    assert isinstance(t.root.children[0xC], Leaf)
    metrics = t.leaf_metrics()
    assert all(m.divergence_depth == 1 for m in metrics.values())


def test_reinsert_overwrites(addr):
    t = build([addr("aa")])
    t.insert(addr("aa"), b"new")
    assert t.key_count == 1
    assert t.lookup(addr("aa")) == b"new"


def test_lookup_empty(addr):
    assert Trie().lookup(addr("aa")) is None


def test_lookup_after_delete(addr):
    t = build([addr("aa"), addr("ab")])
    assert t.delete(addr("ab"))
    assert t.lookup(addr("ab")) is None
    assert t.lookup(addr("aa")) == b""


def test_delete_collapses_to_full_leaf(addr):
    t = build([addr("aa"), addr("ab")])
    t.delete(addr("ab"))
    assert isinstance(t.root, Leaf)
    assert len(t.root.path) == 40
    check_invariants(t)


def test_delete_from_empty(addr):
    t = Trie()
    assert not t.delete(addr("aa"))
    assert t.root is None and t.key_count == 0


def test_delete_absent_is_noop(addr):
    t = build([addr("aa"), addr("cc")])
    before = build([addr("aa"), addr("cc")])
    assert not t.delete(addr("bb"))
    assert t == before


def test_delete_random_half_matches_fresh_build():
    rng = np.random.default_rng(7)
    keys = [rng.integers(0, 256, size=20, dtype=np.uint8).tobytes() for _ in range(500)]
    t = build(keys)
    removed = rng.choice(500, size=250, replace=False)
    removed_set = {keys[i] for i in removed}
    for k in removed_set:
        assert t.delete(k)
        check_invariants(t)
    survivors = [k for k in keys if k not in removed_set]
    assert t == build(survivors)


def test_leaf_metrics_hand_case(addr):
    t = build([addr("aa"), addr("ab"), addr("cc")])
    m = t.leaf_metrics()
    assert m[addr("aa")].divergence_depth == 2
    assert m[addr("ab")].divergence_depth == 2
    assert m[addr("cc")].divergence_depth == 1


def test_singleton_metrics(addr):
    m = build([addr("aa")]).leaf_metrics()
    assert m[addr("aa")].divergence_depth == 0
    assert m[addr("aa")].node_count == 1


def test_level_census_two_keys(addr):
    census = build([addr("aa"), addr("cc")]).level_census()
    assert census == {0: {"branches": 1, "extensions": 0, "leaves": 0},
                      1: {"branches": 0, "extensions": 0, "leaves": 2}}


def test_level_census_singleton(addr):
    census = build([addr("aa")]).level_census()
    assert census == {0: {"branches": 0, "extensions": 0, "leaves": 1}}


def test_level_census_hand_case(addr):
    census = build([addr("aa"), addr("ab"), addr("cc")]).level_census()
    assert census == {0: {"branches": 1, "extensions": 0, "leaves": 0},
                      1: {"branches": 1, "extensions": 0, "leaves": 1},
                      2: {"branches": 0, "extensions": 0, "leaves": 2}}
    assert list(census) == [0, 1, 2]


def test_census_totals_match_node_walk():
    rng = np.random.default_rng(3)
    keys = [rng.integers(0, 256, size=20, dtype=np.uint8).tobytes() for _ in range(300)]
    t = build(keys)
    census = t.level_census()
    leaves = sum(level["leaves"] for level in census.values())
    assert leaves == t.key_count


@settings(max_examples=200, deadline=None)
@given(shared_prefix_keys)
def test_insert_lookup_roundtrip(keys):
    t = Trie()
    for i, k in enumerate(keys):
        t.insert(k, str(i).encode())
        check_invariants(t)
    for i, k in enumerate(keys):
        assert t.lookup(k) == str(i).encode()


@settings(max_examples=150, deadline=None)
@given(shared_prefix_keys, st.randoms(use_true_random=False))
def test_order_independence(keys, rnd):
    shuffled = list(keys)
    rnd.shuffle(shuffled)
    assert build(keys) == build(shuffled)


@settings(max_examples=150, deadline=None)
@given(shared_prefix_keys)
def test_divergence_matches_brute_force(keys):
    t = build(keys)
    metrics = t.leaf_metrics()
    for k in keys:
        expected = brute_divergence(k, [o for o in keys if o != k])
        m = metrics[k]
        assert m.divergence_depth == expected
        assert m.node_count <= m.divergence_depth + 1
        if len(keys) >= 2:
            assert 1 <= m.divergence_depth <= 40
            assert m.node_count >= 2


@settings(max_examples=100, deadline=None)
@given(shared_prefix_keys, st.data())
def test_interleaved_delete_keeps_invariants(keys, data):
    t = build(keys)
    remaining = list(keys)
    while remaining:
        k = data.draw(st.sampled_from(remaining))
        remaining.remove(k)
        assert t.delete(k)
        check_invariants(t)
    assert t.root is None


def test_extension_nodes_appear(addr):
    # three keys sharing a 4-nibble prefix force an extension above the split
    t = build([addr("aaaa1"), addr("aaaa2"), addr("bb")])
    assert isinstance(t.root, Branch)
    under_a = t.root.children[0xA]
    assert isinstance(under_a, Extension)
    assert under_a.path == bytes([0xA, 0xA, 0xA])
    check_invariants(t)


def _leaf(consumed):
    return Leaf(bytes(40 - consumed), b"")


def _branch(*children, value=None):
    branch = Branch()
    branch.children[:len(children)] = children
    branch.value = value
    return branch


def _trie(root, key_count):
    t = Trie()
    t.root, t.key_count = root, key_count
    return t


@pytest.mark.parametrize("trie, message", [
    (_trie(_branch(_leaf(1)), 1), "single-child branch"),
    (_trie(Extension(bytes(2), _leaf(2)), 1), "child must be a branch"),
    (_trie(Extension(b"", _branch(_leaf(1), _leaf(1))), 2), "empty extension fragment"),
    (_trie(_branch(_leaf(1), _leaf(1), value=b"v"), 2), "value slot must stay empty"),
    (_trie(_branch(_leaf(1), _leaf(2)), 2), "key length != 40"),
    (_trie(_branch(_leaf(1), _leaf(1)), 3), "key_count out of sync"),
    (_trie(_branch(_leaf(1), object()), 2), "unknown node type"),
], ids=["single-child-branch", "extension-to-leaf", "empty-extension",
        "branch-value", "short-leaf-path", "key-count", "unknown-node"])
def test_check_invariants_rejects_broken_trie(trie, message):
    with pytest.raises(AssertionError, match=message):
        check_invariants(trie)
