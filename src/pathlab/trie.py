"""In-memory Patricia trie over 40-nibble keys with structural measurement.

Node kinds follow the usual compressed-radix convention: a branch fans
out on one nibble (16 slots plus a value slot), an extension carries a
shared multi-nibble fragment and always points at a branch, and a leaf
holds the unconsumed key remainder. Single-child valueless branches and
extension-to-extension chains are never reachable.

All stored keys are full 40-nibble paths (20-byte addresses), so branch
value slots stay empty; the slot exists only for structural fidelity.
``Trie._walk`` is the one traversal of a whole trie: ``leaf_metrics``,
``level_census`` and :func:`check_invariants` are loops over it.

:func:`sorted_shape` measures the same depths, node counts and census
for a whole key set without building the trie; :class:`Trie` is the
paper's instrument and the oracle the kernel is tested against. Both
give the census in one format: nibble depth -> ``{"branches": …,
"extensions": …, "leaves": …}`` (``CENSUS_KINDS``), ascending. The
kernel sorts each key's first 8 bytes as an unsigned 64-bit integer and
turns to the full 20-byte keys only for the rare groups whose prefixes
tie, so its temporaries stay near the size of the keys themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import zip_longest
from typing import NamedTuple

import numpy as np

from .keyspace import (
    ADDRESS_BYTES,
    ADDRESS_NIBBLES,
    from_nibbles,
    longest_common_prefix,
    to_nibbles,
)


@dataclass(slots=True)
class Leaf:
    path: bytes
    value: bytes


@dataclass(slots=True)
class Extension:
    path: bytes
    child: Branch


@dataclass(slots=True)
class Branch:
    children: list = field(default_factory=lambda: [None] * 16)
    value: bytes | None = None


@dataclass(frozen=True)
class LeafMetrics:
    """Per-key depth measurements.

    divergence_depth: nibbles consumed from the root to the leaf node
        (40 minus the leaf's key remainder); the quantity the analytic
        model describes.
    node_count: nodes on the root-to-leaf path, inclusive of both ends;
        always <= divergence_depth + 1 because extensions compress runs.
    """

    divergence_depth: int
    node_count: int


# The node kinds a level census counts, in the order each depth's dict
# lists them.
CENSUS_KINDS = ("branches", "extensions", "leaves")


@dataclass
class Trie:
    """Mutable Patricia trie keyed by 20-byte addresses; single-writer."""

    root: Leaf | Extension | Branch | None = None
    key_count: int = 0

    # -- mutation ---------------------------------------------------------

    def insert(self, key: bytes, value: bytes = b"") -> None:
        path = to_nibbles(key)
        self.root, added = self._insert(self.root, path, value)
        if added:
            self.key_count += 1

    def _insert(self, node, path: bytes, value: bytes):
        if node is None:
            return Leaf(path, value), True
        kind = type(node)
        if kind is Leaf:
            c = longest_common_prefix(node.path, path)
            if c == len(path) and c == len(node.path):
                node.value = value
                return node, False
            below = Leaf(node.path[c + 1 :], node.value)
            return self._split(path, value, c, node.path[c], below), True
        if kind is Extension:
            c = longest_common_prefix(node.path, path)
            if c == len(node.path):
                node.child, added = self._insert(node.child, path[c:], value)
                return node, added
            rest = node.path[c + 1 :]
            below = Extension(rest, node.child) if rest else node.child
            return self._split(path, value, c, node.path[c], below), True
        # Branch; equal-length keys guarantee path is non-empty here.
        slot = path[0]
        node.children[slot], added = self._insert(node.children[slot], path[1:], value)
        return node, added

    @staticmethod
    def _split(path: bytes, value: bytes, c: int, slot: int, below):
        """Where ``path`` leaves a node after ``c`` shared nibbles: a branch
        holding ``below``, the node's remainder, at ``slot`` and the new
        leaf at ``path[c]``, under an extension over the shared nibbles."""
        branch = Branch()
        branch.children[slot] = below
        branch.children[path[c]] = Leaf(path[c + 1 :], value)
        return Extension(path[:c], branch) if c else branch

    def delete(self, key: bytes) -> bool:
        """Remove ``key``; returns False (trie unchanged) when absent."""
        path = to_nibbles(key)
        new_root, found = self._delete(self.root, path)
        if found:
            self.root = new_root
            self.key_count -= 1
        return found

    def _delete(self, node, path: bytes):
        if node is None:
            return None, False
        kind = type(node)
        if kind is Leaf:
            if node.path == path:
                return None, True
            return node, False
        if kind is Extension:
            n = len(node.path)
            if path[:n] != node.path:
                return node, False
            child, found = self._delete(node.child, path[n:])
            if not found:
                return node, False
            return self._attach_extension(node.path, child), True
        slot = path[0]
        child, found = self._delete(node.children[slot], path[1:])
        if not found:
            return node, False
        node.children[slot] = child
        return self._collapse_branch(node), True

    @staticmethod
    def _attach_extension(prefix: bytes, child):
        # Re-glue an extension fragment onto the (possibly collapsed) child.
        if child is None:
            return None
        kind = type(child)
        if kind is Leaf:
            return Leaf(prefix + child.path, child.value)
        if kind is Extension:
            return Extension(prefix + child.path, child.child)
        return Extension(prefix, child)

    @classmethod
    def _collapse_branch(cls, branch):
        live = [(i, c) for i, c in enumerate(branch.children) if c is not None]
        if len(live) >= 2 or branch.value is not None:
            return branch
        if not live:
            return None
        slot, child = live[0]
        return cls._attach_extension(bytes([slot]), child)

    # -- queries ----------------------------------------------------------

    def lookup(self, key: bytes):
        """Return the stored value for ``key``, or None when absent."""
        node = self.root
        path = to_nibbles(key)
        while node is not None:
            kind = type(node)
            if kind is Leaf:
                return node.value if node.path == path else None
            if kind is Extension:
                n = len(node.path)
                if path[:n] != node.path:
                    return None
                path = path[n:]
                node = node.child
                continue
            node = node.children[path[0]]
            path = path[1:]
        return None

    def _walk(self):
        """Yield ``(node, prefix, above)`` for every node, parents before
        children: the nibbles consumed on the path to the node and the
        number of nodes above it. The one traversal of the whole trie."""
        stack = [(self.root, b"", 0)] if self.root is not None else []
        while stack:
            node, prefix, above = stack.pop()
            yield node, prefix, above
            kind = type(node)
            if kind is Extension:
                stack.append((node.child, prefix + node.path, above + 1))
            elif kind is Branch:
                for i, child in enumerate(node.children):
                    if child is not None:
                        stack.append((child, prefix + bytes([i]), above + 1))

    def leaf_metrics(self) -> dict:
        """Map each stored address to its :class:`LeafMetrics`."""
        return {
            from_nibbles(prefix + node.path): LeafMetrics(len(prefix), above + 1)
            for node, prefix, above in self._walk()
            if type(node) is Leaf
        }

    def level_census(self) -> dict[int, dict[str, int]]:
        """Per nibble-depth counts of node kinds, as
        ``{depth: {"branches": …, "extensions": …, "leaves": …}}`` in
        ascending depth, depths without nodes left out.

        Depth of a node is the number of nibbles consumed on the path
        before reaching it (the root sits at depth 0).
        """
        kind_name = dict(zip((Branch, Extension, Leaf), CENSUS_KINDS))
        census: dict[int, dict[str, int]] = {}
        for node, prefix, _ in self._walk():
            level = census.setdefault(len(prefix), dict.fromkeys(CENSUS_KINDS, 0))
            level[kind_name[type(node)]] += 1
        return {d: census[d] for d in sorted(census)}


def check_invariants(trie: Trie) -> None:
    """Assert every structural invariant; used after mutations in tests."""
    leaves = 0
    for node, prefix, _ in trie._walk():
        kind = type(node)
        if kind is Leaf:
            leaves += 1
            assert len(prefix) + len(node.path) == ADDRESS_NIBBLES, "key length != 40"
        elif kind is Extension:
            assert len(node.path) >= 1, "empty extension fragment"
            assert type(node.child) is Branch, "extension child must be a branch"
        elif kind is Branch:
            assert node.value is None, "branch value slot must stay empty"
            live = [c for c in node.children if c is not None]
            assert len(live) >= 2, "degenerate single-child branch"
        else:
            raise AssertionError(f"unknown node type {kind}")
    assert leaves == trie.key_count, "key_count out of sync with leaves"


class TrieShape(NamedTuple):
    """What :class:`Trie` measures on a key set, without the trie.

    depths: divergence depth -> number of keys (``leaf_metrics``).
    node_counts: root-to-leaf node count -> number of keys.
    census: nibble depth -> ``CENSUS_KINDS`` counts, ascending, depths
        without nodes left out (``level_census``).
    """

    depths: dict[int, int]
    node_counts: dict[int, int]
    census: dict[int, dict[str, int]]


def _histogram(values: np.ndarray) -> dict[int, int]:
    return {k: c for k, c in enumerate(np.bincount(values).tolist()) if c}


def sorted_shape(keys: np.ndarray) -> TrieShape:
    """Measure the trie of ``keys``, an ``(n, 20)`` uint8 array, from the
    longest common prefixes (LCPs) of lexicographically adjacent keys.

    Keys are put in order by their first 8 bytes as unsigned 64-bit
    integers; the nibble LCP of two adjacent prefixes is the count of
    leading zero nibbles of their xor. Adjacent prefixes that tie (an LCP
    of 16 nibbles or more, about n**2 / 2 * 16**-16 pairs for random keys)
    are resolved on the full keys of the tied groups alone.

    In sorted order a key's leaf hangs one nibble below its deepest
    divergence from either neighbour, so its divergence depth is
    ``1 + max(left LCP, right LCP)`` (Kasai et al., CPM 2001). The nodes
    above the leaves are the lcp-interval tree (Abouelhoda, Kurtz &
    Ohlebusch, J. Discrete Algorithms 2004), read here one nibble depth
    ``d`` at a time. An LCP below ``d`` is a boundary, and the keys between
    two boundaries share ``d`` nibbles; a run of them that holds a
    separator, an LCP equal to ``d``, is a branch at ``d``. Each depth
    visits only the boundaries and separators of runs of two or more keys.
    A branch's parent sits at the larger of its two boundary LCPs; when
    that is below ``d - 1``, an extension starts one nibble under the
    parent and leads to the branch.

    Duplicate keys count once, as :meth:`Trie.insert` overwrites them.
    """
    keys = np.ascontiguousarray(keys, dtype=np.uint8)
    if keys.ndim != 2 or keys.shape[1] != ADDRESS_BYTES:
        raise ValueError(f"keys must be an (n, {ADDRESS_BYTES}) array, got {keys.shape}")
    if not len(keys):
        return TrieShape({}, {}, {})
    ordered = _prefixes(keys)
    ordered.sort()
    lcp = _adjacent_lcps(keys, ordered)
    # The sweep does not read the prefixes; alive, their 8 bytes a key
    # would add to the sweep's peak memory.
    del ordered
    return _shape_from_lcps(lcp)


PREFIX_BYTES = 8
PREFIX_NIBBLES = 2 * PREFIX_BYTES
# 16**0 .. 16**15: an integer is at least as many of these as it has hex
# digits (none for zero).
_NIBBLE_POWERS = np.array([16**k for k in range(PREFIX_NIBBLES)], np.uint64)
# Values per block of leading_zero_nibbles, small enough that its sixteen
# passes over a block read it from cache: about twice as fast as whole-
# array passes at 1e7 values.
_LZN_BLOCK = 1 << 16


def leading_zero_nibbles(x: np.ndarray) -> np.ndarray:
    """Exact count of leading zero nibbles of each uint64 in ``x`` (16 for
    zero), from integer comparisons only."""
    zeros = np.full(len(x), PREFIX_NIBBLES, np.int8)
    for i in range(0, len(x), _LZN_BLOCK):
        block, out = x[i:i + _LZN_BLOCK], zeros[i:i + _LZN_BLOCK]
        for power in _NIBBLE_POWERS:
            np.subtract(out, block >= power, out=out)
    return zeros


def _prefixes(keys: np.ndarray) -> np.ndarray:
    """Each key's first 8 bytes as an unsigned integer, read big-endian so
    that integer order is the keys' byte order."""
    return keys[:, :PREFIX_BYTES].view(">u8")[:, 0].astype(np.uint64)


def _full_key_lcps(rows: np.ndarray) -> np.ndarray:
    """Nibble LCPs of adjacent rows of a sorted ``(m, 20)`` uint8 array;
    equal rows have an LCP of 40."""
    diff = rows[1:] ^ rows[:-1]
    first = (diff != 0).argmax(axis=1)
    byte = diff[np.arange(len(diff)), first]
    lcp = (2 * first + (byte < 16)).astype(np.int8)
    lcp[byte == 0] = ADDRESS_NIBBLES
    return lcp


def _adjacent_lcps(keys: np.ndarray, ordered: np.ndarray) -> np.ndarray:
    """Nibble LCPs of the adjacent distinct keys in sorted order, given
    ``ordered``, the keys' sorted prefixes.

    Adjacent prefixes that differ give the LCP by themselves. Prefixes
    that tie mean an LCP of at least 16 nibbles; only the keys of tied
    prefix groups are sorted on all 20 bytes to measure it. Equal keys
    give no LCP, so each counts once.
    """
    xor = ordered[1:] ^ ordered[:-1]
    tie = np.flatnonzero(xor == 0)
    lcp = leading_zero_nibbles(xor)
    if not len(tie):
        return lcp
    # Rows whose prefix is one of the tied ones, in full-key order: each
    # tied group is a run there, and its adjacent pairs are the ties in
    # order, the only adjacent rows sharing 16 nibbles or more.
    values = ordered[tie]
    prefixes = _prefixes(keys)
    at = np.searchsorted(values, prefixes).clip(max=len(values) - 1)
    rows = np.sort(keys[values[at] == prefixes].view(f"S{ADDRESS_BYTES}").ravel())
    full = _full_key_lcps(rows.view(np.uint8).reshape(-1, ADDRESS_BYTES))
    lcp[tie] = full[full >= PREFIX_NIBBLES]
    return lcp[lcp != ADDRESS_NIBBLES]


def _branch_ranges(padded: np.ndarray, reach: np.ndarray, d: int):
    """Key ranges ``[start, stop)`` of the branches at depth ``d``.

    Only the positions whose LCP is at most ``d`` and which sit at or next
    to an LCP of at least ``d`` are visited: the boundaries (LCP < d) of
    runs of two or more keys and the separators (LCP == d) inside them. A
    boundary followed by a separator opens a branch; a separator followed
    by a boundary closes it.
    """
    at = np.flatnonzero((padded <= d) & (reach >= d))
    split = padded[at] == d
    return at[:-1][~split[:-1] & split[1:]], at[1:][split[:-1] & ~split[1:]]


def _shape_from_lcps(lcp: np.ndarray) -> TrieShape:
    """The lcp-interval sweep: read the trie off adjacent distinct keys'
    LCPs (see :func:`sorted_shape`)."""
    n = len(lcp) + 1
    # padded[j] is the LCP between keys j - 1 and j, -1 past either end.
    padded = np.full(n + 1, -1, np.int8)
    padded[1:-1] = lcp
    depth = np.maximum(padded[:-1], padded[1:]) + 1
    # The largest LCP at or next to each position: a position bounds a run
    # of two or more keys at depth d only if this reaches d.
    reach = padded.copy()
    np.maximum(reach[1:], padded[:-1], out=reach[1:])
    np.maximum(reach[:-1], padded[1:], out=reach[:-1])

    top = int(lcp.max(initial=-1)) + 1
    branches = []
    extensions = np.zeros(top, np.int64)
    # Nodes above each key's leaf, as +w at the first key of a branch's
    # range and -w past its last: w = 1, or 2 when an extension leads to it.
    nodes_above = np.zeros(n + 1, np.int8)
    for d in range(top):
        start, stop = _branch_ranges(padded, reach, d)
        parent = np.maximum(padded[start], padded[stop])
        extended = parent < d - 1
        branches.append(len(start))
        extensions += np.bincount(parent[extended] + 1, minlength=top)
        weight = extended.astype(np.int8) + 1
        nodes_above[start] += weight
        nodes_above[stop] -= weight
    node_counts = np.cumsum(nodes_above[:-1], dtype=np.int8) + 1

    census = {}
    levels = zip_longest(branches, extensions.tolist(), np.bincount(depth).tolist(),
                         fillvalue=0)
    for d, counts in enumerate(levels):
        if any(counts):
            census[d] = dict(zip(CENSUS_KINDS, counts))
    return TrieShape(_histogram(depth), _histogram(node_counts), census)
