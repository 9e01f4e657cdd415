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

:func:`streamed_shape` measures the same depths, node counts and
census for a key set, as a :class:`TrieShape`, without building the trie
and without holding the keys: it reads them a block at a time and keeps
each key's first 8 bytes, sorted as unsigned 64-bit integers, turning to
full 20-byte keys only for the rare groups whose prefixes tie.
:func:`sorted_shape` is its call on one key array, and
:func:`pathlab.split.split_shape` its run in parts. :class:`Trie` is the
paper's instrument and the oracle the kernel is tested against. Both
give the census in one format: nibble depth -> ``{"branches": …,
"extensions": …, "leaves": …}`` (``CENSUS_KINDS``), ascending. Shapes of
separately measured key sets pool by ``+``, the one merge of a census.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass, field
from collections.abc import Callable
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
from .stats import PathLengthHistogram, merge


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
    """What :class:`Trie` measures on a key set, without the trie: a
    trial's result.

    divergence_histogram: keys per divergence depth (``leaf_metrics``).
    node_count_histogram: keys per root-to-leaf node count.
    level_census: nibble depth -> ``CENSUS_KINDS`` counts, ascending,
        depths without nodes left out (``level_census``).
    """

    divergence_histogram: PathLengthHistogram
    node_count_histogram: PathLengthHistogram
    level_census: dict[int, dict[str, int]]

    def __add__(self, other: TrieShape) -> TrieShape:
        """The pooled counts of two separately measured key sets, histograms
        bin by bin and the census by depth and kind; not the shape of their
        union's trie. ``EMPTY_SHAPE``, of no keys, is its identity."""
        none = dict.fromkeys(CENSUS_KINDS, 0)
        census = {d: {kind: self.level_census.get(d, none)[kind]
                      + other.level_census.get(d, none)[kind] for kind in CENSUS_KINDS}
                  for d in sorted(self.level_census.keys() | other.level_census.keys())}
        return TrieShape(merge(self.divergence_histogram, other.divergence_histogram),
                         merge(self.node_count_histogram, other.node_count_histogram), census)


EMPTY_SHAPE = TrieShape(PathLengthHistogram({}), PathLengthHistogram({}), {})


def sorted_shape(keys: np.ndarray) -> TrieShape:
    """Measure the trie of ``keys``, an ``(n, 20)`` uint8 array, through a
    reader of its slices."""
    return streamed_shape(lambda lo, hi: keys[lo:hi], len(keys))


def streamed_shape(read: Callable[[int, int], np.ndarray], count: int) -> TrieShape:
    """Measure the trie of ``count`` keys, in any order, from the longest
    common prefixes (LCPs) of lexicographically adjacent keys. ``read(lo,
    hi)`` gives keys ``lo`` to ``hi - 1`` as an ``(hi - lo, 20)`` uint8
    array, and the same keys on every call; a read of another shape or
    dtype, in either pass, raises ``ValueError``.

    The kernel keeps each key's first 8 bytes, an unsigned 64-bit integer,
    and no full key: it reads the keys ``_BLOCK`` at a time into one prefix
    array and sorts it, and the nibble LCP of two adjacent prefixes is the
    count of leading zero nibbles of their xor. Adjacent prefixes that tie
    (an LCP of 16 nibbles or more, about n**2 / 2 * 16**-16 pairs for
    random keys) are resolved on full keys: the blocks are read again and
    only the rows whose prefix is tied are kept. Without ties each key is
    read once.

    In sorted order a key's leaf hangs one nibble below its deepest
    divergence from either neighbour, so its divergence depth is
    ``1 + max(left LCP, right LCP)`` (Kasai et al., CPM 2001). The nodes
    above the leaves are the lcp-interval tree (Abouelhoda, Kurtz &
    Ohlebusch, J. Discrete Algorithms 2004), read here one nibble depth
    ``d`` at a time. An LCP below ``d`` is a boundary, and the keys between
    two boundaries share ``d`` nibbles; a run of them that holds a
    separator, an LCP equal to ``d``, is a branch at ``d``. Each depth
    visits only the boundaries and separators of runs of two or more keys,
    a block of positions at a time. A branch opens where the visited
    positions turn from a boundary to a separator and closes where they
    turn back, so one pass over each block's turns pairs every open with
    its close; between blocks only the last visited position and at most
    one open branch's start are carried. A branch's parent sits at the
    larger of its two boundary LCPs; when that is below ``d - 1``, an
    extension starts one nibble under the parent and leads to the branch.

    Memory: 8 bytes a key, the prefixes, while they are filled, sorted and
    their LCPs taken (the LCPs are written over the prefixes' buffer, which
    then shrinks to them), then 3 bytes a key for the sweep, plus blocks of
    ``_BLOCK`` entries: one block of keys while the prefixes are filled,
    and temporaries of a few blocks in each step. Duplicate keys count
    once, as :meth:`Trie.insert` overwrites them.

    The harness measures a trial of 1,000,000 keys or more in parts where
    CPUs would idle (:func:`pathlab.split.split_shape`): the fill runs in
    parts and the sort once, on one prefix buffer the parts share, so the
    memory is the same 8 bytes a key in all of them together. Each part
    measures a range of the sorted prefixes with the function this one
    ends in, :func:`_range_shape`, its ties included.
    """
    ordered = _fill_prefixes(read, count)
    ordered.sort()
    return _range_shape(read, count, ordered)


def _range_shape(read: Callable[[int, int], np.ndarray], count: int, ordered: np.ndarray,
                 ends: tuple[int, int] = (-1, -1), first: int = 0,
                 above: np.ndarray | None = None) -> TrieShape:
    """The shape of ``ordered``, consumed, a range of the sorted prefixes of
    the ``count`` keys that ``read`` gives, or all of them: the one measure
    of sorted prefixes, for a whole trial and for each part of a split one.
    Its LCPs, with ``ends`` at its ends, its ties resolved on the full keys,
    and the sweep from depth ``first``, with ``above[v]`` nodes at shallower
    depths above each key whose first nibble is ``v``, or none.
    """
    if not len(ordered):
        return EMPTY_SHAPE
    if above is not None:
        # where each first nibble's keys begin, read before the LCPs overwrite them
        starts = np.searchsorted(ordered, np.arange(16, dtype=np.uint64) << np.uint64(60))
    padded, tied = _prefix_lcps(ordered, ends)
    padded, dropped = _resolve_ties(read, count, padded, tied) if len(tied) else (padded, [])
    steps = None
    if above is not None:
        steps = np.zeros(len(padded), np.int8)
        # a nibble's first key, never dropped, moves back past those dropped before it
        np.add.at(steps, starts - np.searchsorted(dropped, starts), np.diff(above, prepend=0))
    return _sweep(padded, first, steps)


PREFIX_BYTES = 8
PREFIX_NIBBLES = 2 * PREFIX_BYTES
# 16**0 .. 16**15: an integer is at least as many of these as it has hex
# digits (none for zero).
_NIBBLE_POWERS = np.array([16**k for k in range(PREFIX_NIBBLES)], np.uint64)
# Keys the kernel reads at a time, and entries per block of its per-key
# passes. A block's temporaries stay in cache (the sixteen passes of
# leading_zero_nibbles are about twice as fast over blocks as over whole
# arrays at 1e7 values) and add a fixed amount, not bytes a key, to the
# kernel's peak memory: a block of keys is 1.3 MB.
_BLOCK = 1 << 16


def _blocks(length: int):
    """``(lo, hi)`` bounds of the ``_BLOCK``-entry blocks of ``length`` entries."""
    return ((lo, min(lo + _BLOCK, length)) for lo in range(0, length, _BLOCK))


def leading_zero_nibbles(x: np.ndarray) -> np.ndarray:
    """Exact count of leading zero nibbles of each uint64 in ``x`` (16 for
    zero), from integer comparisons only."""
    zeros = np.full(len(x), PREFIX_NIBBLES, np.int8)
    for power in _NIBBLE_POWERS:
        np.subtract(zeros, x >= power, out=zeros)
    return zeros


def _prefixes(keys: np.ndarray) -> np.ndarray:
    """Each key's first 8 bytes as an unsigned integer, read big-endian so
    that integer order is the keys' byte order: a view of ``keys``."""
    return keys[:, :PREFIX_BYTES].view(">u8")[:, 0]


def _read_block(read: Callable[[int, int], np.ndarray], lo: int, hi: int) -> np.ndarray:
    """``read(lo, hi)``, refused unless it is one uint8 row of 20 bytes per
    key: the one check of the keys the kernel reads. numpy would broadcast a
    single row into the block, and read another dtype's bytes as keys. The
    block comes back C-ordered, as ``_prefixes`` needs, copied only if not."""
    block = read(lo, hi)
    if block.shape != (hi - lo, ADDRESS_BYTES) or block.dtype != np.uint8:
        raise ValueError(f"read({lo}, {hi}) gave shape {block.shape}, not "
                         f"{(hi - lo, ADDRESS_BYTES)}, of {block.dtype}: keys are "
                         f"an (n, {ADDRESS_BYTES}) uint8 array")
    return np.ascontiguousarray(block)


def _fill_prefixes(read: Callable[[int, int], np.ndarray], count: int,
                   prefixes: np.ndarray | None = None, start: int = 0) -> np.ndarray:
    """The prefixes of keys ``start`` .. ``start + count - 1``, read a block
    at a time, into ``prefixes`` (``count`` entries) or a new array."""
    if prefixes is None:
        prefixes = np.empty(count, np.uint64)
    for lo, hi in _blocks(count):
        # no name holds the block, so it is freed before the next is read
        prefixes[lo:hi] = _prefixes(_read_block(read, start + lo, start + hi))
    return prefixes


def _prefix_lcps(ordered: np.ndarray, ends: tuple[int, int] = (-1, -1)
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Nibble LCPs of adjacent sorted prefixes, taken a block at a time and
    written over the front of ``ordered``, a contiguous ``uint64`` array
    that no view reads: it is consumed.

    Returns ``padded``, whose entry ``j`` is the LCP between keys ``j - 1``
    and ``j`` (``ends`` before the first and past the last: -1 for a whole
    key set), held in the first ``n + 1`` bytes of ``ordered``'s buffer;
    and the prefixes that tie with the next one, one entry per such pair.
    A tie is an LCP of 16 in ``padded``, the count for a zero xor only, and
    at least 16 on the full keys. The rest of the buffer is freed: shrunk
    away if ``ordered`` owns it, or its pages removed, in every process
    that maps them, if ``ordered`` is a view of an ``mmap``.
    """
    n = len(ordered)
    out = ordered.view(np.int8)
    tied = [np.empty(0, np.uint64)]
    block = np.empty(min(_BLOCK, n), np.uint64)
    for i, j in _blocks(n - 1):
        # Block [i, j) writes bytes i+1..j, which lie in prefixes below j:
        # no later block reads them, and this one has read them into xor.
        xor = np.bitwise_xor(ordered[i + 1:j + 1], ordered[i:j], out=block[:j - i])
        tied.append(ordered[i:j][xor == 0])
        out[i + 1:j + 1] = leading_zero_nibbles(xor)
    out[0], out[n] = ends
    del out
    if ordered.flags.owndata:
        # No view of the buffer is alive, so a shrink that moves it leaves
        # nothing pointing at the old one.
        ordered.resize(-(-(n + 1) // PREFIX_BYTES), refcheck=False)
    elif isinstance(getattr(ordered.base, "obj", None), mmap.mmap):
        # a view of a mapping: Linux removes its pages in every process
        page = mmap.PAGESIZE
        start = ordered.ctypes.data - np.frombuffer(ordered.base, np.uint8).ctypes.data
        free, end = -(-(start + n + 1) // page) * page, (start + n * PREFIX_BYTES) // page * page
        if end > free and hasattr(mmap, "MADV_REMOVE"):
            ordered.base.obj.madvise(mmap.MADV_REMOVE, free, end - free)
    return ordered.view(np.int8)[:n + 1], np.concatenate(tied)


def _full_key_lcps(rows: np.ndarray) -> np.ndarray:
    """Nibble LCPs of adjacent rows of a sorted ``(m, 20)`` uint8 array;
    equal rows have an LCP of 40."""
    diff = rows[1:] ^ rows[:-1]
    first = (diff != 0).argmax(axis=1)
    byte = diff[np.arange(len(diff)), first]
    lcp = (2 * first + (byte < 16)).astype(np.int8)
    lcp[byte == 0] = ADDRESS_NIBBLES
    return lcp


def _resolve_ties(read: Callable[[int, int], np.ndarray], count: int, padded: np.ndarray,
                  tied: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``padded`` with its ties, the LCPs of ``PREFIX_NIBBLES``, taken on
    the full keys, and without the LCPs of equal keys, so that each counts
    once; and the positions in ``padded`` of those dropped, ascending.
    ``tied`` holds the prefixes of the ties.

    Only the rows whose prefix is one of the tied ones are kept from all
    ``count`` keys, read again by :func:`_read_block`; every such row sorts
    into ``padded``'s range. In full-key order each tied group is a run of
    them, and its adjacent pairs are the ties in order, the only adjacent
    rows sharing 16 nibbles or more.
    """
    rows = []
    for lo, hi in _blocks(count):
        block = _read_block(read, lo, hi)
        rows.append(block[np.isin(_prefixes(block), tied)])
    rows = np.sort(np.concatenate(rows).view(f"S{ADDRESS_BYTES}").ravel())
    full = _full_key_lcps(rows.view(np.uint8).reshape(-1, ADDRESS_BYTES))
    padded[padded == PREFIX_NIBBLES] = full[full >= PREFIX_NIBBLES]
    equal = padded == ADDRESS_NIBBLES
    return padded[~equal], np.flatnonzero(equal)


def _counts(blocks) -> list[int]:
    """How often each value 0..41 occurs in ``blocks``, int8 arrays; counted
    a block at a time, so that bincount's cast to the platform integer
    stays block-sized."""
    counts = np.zeros(ADDRESS_NIBBLES + 2, np.int64)
    for block in blocks:
        counts += np.bincount(block, minlength=len(counts))
    return counts.tolist()


def _histogram(counts: list[int]) -> PathLengthHistogram:
    return PathLengthHistogram({k: c for k, c in enumerate(counts) if c})


def _branch_ranges(padded: np.ndarray, reach: np.ndarray, d: int):
    """Yield the key ranges ``[start, stop)`` of the branches at depth
    ``d``, a block of positions at a time: those that close in the block.

    Only the positions whose LCP is at most ``d`` and which sit at or next
    to an LCP of at least ``d`` are visited: the boundaries (LCP < d) of
    runs of two or more keys and the separators (LCP == d) inside them. A
    boundary followed by a separator opens a branch; a separator followed
    by a boundary closes it. So the branch edges are where the visited
    positions turn from boundaries to separators or back, found by one
    ``flatnonzero`` a block, and they alternate: opens and closes are every
    other edge, starting with an open when the block's first visited
    position is a boundary. Only two things are carried from block to
    block: the last position visited, whose edge with the next block's
    first one is checked apart, and the start of a branch still open at a
    block's end. A block that visits nothing carries them on unchanged.
    """
    last = pending = None
    last_sep = False
    for lo, hi in _blocks(len(padded)):
        here = np.flatnonzero((padded[lo:hi] <= d) & (reach[lo:hi] >= d))
        if not len(here):
            continue
        here += lo
        sep = padded[here] == d
        edges = np.flatnonzero(sep[1:] != sep[:-1])
        if sep[0]:
            start = np.concatenate(([pending if last_sep else last], here[edges[1::2]]))
            stop = here[edges[::2] + 1]
        else:
            start, stop = here[edges[::2]], here[edges[1::2] + 1]
            if last_sep:
                start = np.concatenate(([pending], start))
                stop = np.concatenate((here[:1], stop))
        last, last_sep = here[-1], sep[-1]
        if last_sep:
            pending, start = start[-1], start[:-1]
        yield start, stop


def _sweep(padded: np.ndarray, first: int = 0,
           nodes_above: np.ndarray | None = None) -> TrieShape:
    """The lcp-interval sweep: read the trie off adjacent distinct keys'
    LCPs, ``padded`` as :func:`_prefix_lcps` gives them (see
    :func:`streamed_shape`), for the branches at depths ``first`` and
    deeper. ``nodes_above``, consumed, gives the nodes above each key at
    shallower depths as steps, each entry the change from the key before;
    None when there are none."""
    n = len(padded) - 1
    leaves = _counts(np.maximum(padded[lo:hi], padded[lo + 1:hi + 1]) + 1
                     for lo, hi in _blocks(n))
    # The largest LCP at or next to each position: a position bounds a run
    # of two or more keys at depth d only if this reaches d.
    reach = padded.copy()
    np.maximum(reach[1:], padded[:-1], out=reach[1:])
    np.maximum(reach[:-1], padded[1:], out=reach[:-1])

    top = int(padded.max()) + 1
    branches = [0] * top
    extensions = np.zeros(top, np.int64)
    # Nodes above each key's leaf, as +w at the first key of a branch's
    # range and -w past its last: w = 1, or 2 when an extension leads to it.
    if nodes_above is None:
        nodes_above = np.zeros(n + 1, np.int8)
    for d in range(first, top):
        for start, stop in _branch_ranges(padded, reach, d):
            parent = np.maximum(padded[start], padded[stop])
            extended = parent < d - 1
            branches[d] += len(start)
            extensions += np.bincount(parent[extended] + 1, minlength=top)
            weight = extended.astype(np.int8) + 1
            nodes_above[start] += weight
            nodes_above[stop] -= weight
    np.cumsum(nodes_above, dtype=np.int8, out=nodes_above)
    node_counts = _counts(nodes_above[lo:hi] + 1 for lo, hi in _blocks(n))

    census = {}
    # the deepest leaves hang one nibble below the largest LCP, at ``top``
    for d, counts in enumerate(zip_longest(branches, extensions.tolist(),
                                           leaves[:top + 1], fillvalue=0)):
        if any(counts):
            census[d] = dict(zip(CENSUS_KINDS, counts))
    return TrieShape(_histogram(leaves), _histogram(node_counts), census)
