"""The sorted-LCP kernel: every trial's measure, in one process or in parts.

:func:`streamed_shape` gives the depths, node counts and level census of
the pointer :class:`pathlab.trie.Trie` of a key set, as a
:class:`TrieShape`, without building the trie or holding the keys: it
keeps each key's first 8 bytes, sorted as unsigned 64-bit integers, and
reads the trie off their lcp-interval tree (Abouelhoda, Kurtz & Ohlebusch,
J. Discrete Algorithms 2004), turning to full 20-byte keys only for the
rare groups whose prefixes tie. :func:`sorted_shape` is its call on one key
array, and :func:`split_shape` its run in parts, a range of the sorted
prefixes each, on one shared mapping that holds the prefixes and, in a row
after them, each part's range. The census is in ``Trie.level_census``'s format: nibble
depth -> ``{"branches": …, "extensions": …, "leaves": …}``
(``CENSUS_KINDS``), ascending. Shapes of separately measured key sets pool
by ``+``, the one merge of a census.
"""

from __future__ import annotations

import mmap
import os
from bisect import bisect_left
from collections.abc import Callable
from functools import partial
from itertools import zip_longest
from typing import NamedTuple

import numpy as np

from .keyspace import ADDRESS_BYTES, ADDRESS_NIBBLES
from .stats import PathLengthHistogram, merge

# The node kinds a level census counts, in the order each depth's dict
# lists them.
CENSUS_KINDS = ("branches", "extensions", "leaves")


class TrieShape(NamedTuple):
    """What :class:`pathlab.trie.Trie` measures on a key set, without the
    trie: a trial's result.

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
    visits only the boundaries and separators of runs of two or more keys.
    A branch opens where the visited positions turn from a boundary to a
    separator and closes where they turn back, so one pass over the turns
    pairs every open with its close. The positions where the first byte
    changes, LCPs below 2, are boundaries at every depth from 2: depths 0
    and 1 are read off them alone, and depths 2 and deeper a block at a
    time between two of them, nothing carried from one block to the next.
    A branch's parent sits at the larger of its two boundary LCPs; when
    that is below ``d - 1``, an extension starts one nibble under the
    parent and leads to the branch.

    Memory: 8 bytes a key, the prefixes, while they are filled, sorted and
    their LCPs taken (the LCPs are written over the prefixes' buffer, which
    then shrinks to them), then 2 bytes a key for the sweep, plus blocks:
    one block of ``_BLOCK`` keys while the prefixes are filled, and
    temporaries of a few blocks in each step. A block of the sweep is
    ``_BLOCK`` positions, or one first byte's keys where those are more:
    about n / 256 for random keys, all of them for keys that share one
    first byte, which neither key mode draws. Duplicate keys count once,
    as :meth:`pathlab.trie.Trie.insert` overwrites them.

    The harness measures a trial of 1,000,000 keys or more in parts where
    CPUs would idle (:func:`split_shape`): the fill runs in parts and the
    sort once, on one prefix buffer the parts share, so the memory is the
    same 8 bytes a key in all of them together. The caller writes each
    part's range into a row after the prefixes, and two pipes carry no data,
    only wake the parts. Each part measures its range of the sorted prefixes
    with the function this one ends in, :func:`_range_shape`, its ties and
    the nodes above its keys included.
    """
    ordered = np.empty(count, np.uint64)
    _fill_prefixes(read, ordered)
    ordered.sort()
    return _range_shape(read, count, ordered)


def _range_shape(read: Callable[[int, int], np.ndarray], count: int, ordered: np.ndarray,
                 ends: tuple[int, int] = (-1, -1)) -> TrieShape:
    """The shape of ``ordered``, consumed, a range of the sorted prefixes of
    the ``count`` keys that ``read`` gives, or all of them: the one measure
    of sorted prefixes, for a whole trial and for each part of a split one.
    Its LCPs, with ``ends`` at its ends, its ties resolved on the full keys,
    and the sweep.
    """
    if not len(ordered):
        return EMPTY_SHAPE
    padded, tied = _prefix_lcps(ordered, ends)
    if len(tied):
        padded = _resolve_ties(read, count, padded, tied)
    return _sweep(padded)


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


def _fill_prefixes(read: Callable[[int, int], np.ndarray], prefixes: np.ndarray,
                   start: int = 0) -> None:
    """Fill ``prefixes`` with those of keys ``start`` onward, one entry a
    key, read a block at a time."""
    for lo, hi in _blocks(len(prefixes)):
        # no name holds the block, so it is freed before the next is read
        prefixes[lo:hi] = _prefixes(_read_block(read, start + lo, start + hi))


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
                  tied: np.ndarray) -> np.ndarray:
    """``padded`` with its ties, the LCPs of ``PREFIX_NIBBLES``, taken on
    the full keys, and without the LCPs of equal keys, so that each counts
    once. ``tied`` holds the prefixes of the ties.

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
    return padded[padded != ADDRESS_NIBBLES]


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


def _levels(padded: np.ndarray, here: np.ndarray, d: int, branches: list[int],
            extensions: np.ndarray, nodes_above: np.ndarray) -> None:
    """Count the branches at depth ``d`` over the visited positions
    ``here`` of ``padded`` (see :func:`streamed_shape`), which begin and
    end with a boundary and may hold any boundary: into ``branches[d]``,
    the extensions above them into ``extensions``, and the nodes above
    each key into ``nodes_above`` as steps, ``+w`` at a branch's first key
    and ``-w`` past its last, ``w`` 2 if an extension leads to it, else 1.
    """
    sep = padded[here] == d
    edges = np.flatnonzero(sep[1:] != sep[:-1])
    start, stop = here[edges[::2]], here[edges[1::2] + 1]
    parent = np.maximum(padded[start], padded[stop])
    extended = parent < d - 1
    branches[d] += len(start)
    extensions += np.bincount(parent[extended] + 1, minlength=len(extensions))
    weight = extended.astype(np.int8) + 1
    nodes_above[start] += weight
    nodes_above[stop] -= weight


def _census(*columns) -> dict[int, dict[str, int]]:
    """The census of per-depth counts, a column per ``CENSUS_KINDS`` kind."""
    return {d: dict(zip(CENSUS_KINDS, counts))
            for d, counts in enumerate(zip_longest(*columns, fillvalue=0)) if any(counts)}


def _sweep(padded: np.ndarray) -> TrieShape:
    """The lcp-interval sweep: read the trie off adjacent distinct keys'
    LCPs, ``padded`` as :func:`_prefix_lcps` gives them (see
    :func:`streamed_shape`), of a whole key set or of a range of one.

    The positions whose LCP is below 2, where the first byte changes, are
    boundaries at every depth from 2, so no branch there crosses them:
    depths 0 and 1 are read off these positions alone, and depths 2 and
    deeper a block at a time, between two of them. A block ends at the
    first such position at or after a multiple of ``_BLOCK``, so it holds
    ``_BLOCK`` positions, or one first byte's keys where those are more,
    and the sweep's temporaries follow the largest block: all keys, when
    they share one first byte.

    Depths 0 and 1 are read with one more boundary, an LCP of -1, past
    each end, so a branch there that crosses an end of a range closes at
    it, and each key gets the nodes above it that it has in the whole trie:
    a depth-1 branch bounded by these alone weighs 2, whether the root
    above it is a branch or an extension. Such a branch is in the ranges on
    both sides, and its kind depends on keys outside, so only a whole key
    set, -1 at both ends, counts depths 0 and 1 in its census; :func:`_plan`
    counts a split trial's.
    """
    n = len(padded) - 1
    leaves = _counts(np.maximum(padded[lo:hi], padded[lo + 1:hi + 1]) + 1
                     for lo, hi in _blocks(n))
    # every end is below 2, so these begin at 0 and end at n
    lows = np.concatenate([np.flatnonzero(padded[lo:hi] < 2) + lo for lo, hi in _blocks(n + 1)])
    top = int(padded.max()) + 1
    branches = [0] * top
    extensions = np.zeros(top, np.int64)
    counted = ((branches, extensions) if padded[0] == padded[n] == -1
               else ([0, 0], np.zeros(2, np.int64)))
    shallow = np.concatenate(([-1], padded[lows], [-1]))
    above = np.zeros(len(shallow), np.int8)
    for d in range(min(2, top)):
        _levels(shallow, np.flatnonzero(shallow <= d), d, *counted, above)
    nodes_above = np.zeros(n + 1, np.int8)
    # the boundary before the ends sits at 0; the one past them, at n, follows every key
    nodes_above[lows] = above[1:-1]
    nodes_above[0] += above[0]
    # blocks end at the first of ``lows`` at or after each multiple of _BLOCK
    at = lows.tolist()
    cuts = list(dict.fromkeys([0, *(at[bisect_left(at, m)] for m in range(_BLOCK, n, _BLOCK)), n]))
    for a, b in zip(cuts, cuts[1:]):
        block = padded[a:b + 1]
        # The largest LCP at or next to each position: a position bounds a
        # run of two or more keys at depth d only if this reaches d.
        reach = block.copy()
        np.maximum(reach[1:], block[:-1], out=reach[1:])
        np.maximum(reach[:-1], block[1:], out=reach[:-1])
        for d in range(2, int(reach.max()) + 1):
            here = np.flatnonzero((block <= d) & (reach >= d))
            _levels(block, here, d, branches, extensions, nodes_above[a:b + 1])
    np.cumsum(nodes_above, dtype=np.int8, out=nodes_above)
    node_counts = _counts(nodes_above[lo:hi] + 1 for lo, hi in _blocks(n))
    # the deepest leaves hang one nibble below the largest LCP, at ``top``
    census = _census(branches, extensions.tolist(), leaves[:top + 1])
    return TrieShape(_histogram(leaves), _histogram(node_counts), census)


def split_shape(read: Callable[[int, int], np.ndarray], count: int, parts: int,
                run: Callable[[list], list]) -> TrieShape:
    """:func:`streamed_shape` of the same keys, measured in up to ``parts``
    parts at once. ``run(tasks)`` calls each function of no argument in
    ``tasks``, the first in this process and each other in a process forked
    for it, all at the same time, and returns their results in order
    (``pathlab.harness`` has the runner).

    One anonymous shared mapping, made before the fork, holds the 8-byte
    prefixes of all ``count`` keys and, after them, a row of four int64 per
    part: its range's start, stop and the LCPs at its two ends. Each part
    reads about ``count / parts`` of the keys into it (:func:`_part`).
    Once every part has, this process sorts the prefixes in place and cuts
    the sorted order into ranges at the adjacent LCPs below 2 nearest equal
    parts: where the first byte changes, found by ``searchsorted``. It
    writes the ranges into the rows, and each part reads its own. Two pipes
    carry no data, only the ends of the two waits: ``filled``, a byte from
    each forked part, and ``planned``, closed by this process once the rows
    are written.

    Below nibble depth 2 the lcp-interval tree is 256 independent
    sub-tries, so each part measures its range on its own, with the true
    LCPs at its cuts, as a whole trial is measured: its sweep reads every
    node above its keys, and the shapes add with ``+``. The census of
    depths 0 and 1 is counted here, once, off the positions whose LCP is
    below 2, by the sweep's reading of a level. A part resolves the ties in
    its range itself; keys that all share their first byte are one range,
    one part's. No key, or one part, is :func:`streamed_shape`.

    Memory: the mapping, 8 bytes a key, until the parts have their LCPs;
    each writes them over the front of its range, as the serial kernel
    does, frees the rest of its range, then sweeps at 1 more byte a key of
    its range. So the processes together hold about what one serial
    trial does, with the blocks of each part.
    """
    if parts < 2 or not count:
        return streamed_shape(read, count)
    buffer = mmap.mmap(-1, (count + 4 * parts) * PREFIX_BYTES)
    filled, planned = _pipe(), _pipe()
    try:
        shapes = run([partial(_part, read, buffer, count, parts, p, filled, planned)
                      for p in range(parts)])
    finally:
        for end in (*filled, *planned):
            end.close()
    # unmapped with its last view; a close would raise while an error's
    # traceback still holds one
    del buffer
    return sum(shapes[1:], shapes[0])


def _pipe():
    """An unbuffered pipe's ``(reader, writer)`` files."""
    reader, writer = os.pipe()
    return open(reader, "rb", buffering=0), open(writer, "wb", buffering=0)


def _part(read, buffer: mmap.mmap, count: int, parts: int, p: int, filled, planned
          ) -> TrieShape:
    """Part ``p`` of :func:`split_shape`: fill its share of the prefixes in
    ``buffer``, then measure the range in its row, after the ``count``
    prefixes. The pipes carry no data. A forked part writes a byte on
    ``filled`` and waits for the end of ``planned``. Part 0, in the calling
    process, waits for the end of ``filled``, sorts, writes the plan's
    ranges into the rows and closes ``planned``, on an error too, so that no
    part waits on; it adds the plan's census of depths 0 and 1. A zero row,
    of a part past the plan's ranges or never written, measures no keys;
    part 0 measures none where a part sent no byte: it failed, and the
    runner raises its error."""
    prefixes = np.frombuffer(buffer, np.uint64, count)
    rows = np.frombuffer(buffer, np.int64, offset=count * PREFIX_BYTES).reshape(parts, 4)
    lo, hi = count * p // parts, count * (p + 1) // parts
    shallow = EMPTY_SHAPE
    if p:
        # every copy of the writer must close for this part to see the end
        planned[1].close()
        _fill_prefixes(read, prefixes[lo:hi], lo)
        filled[1].write(b"\0")
        filled[1].close()
        planned[0].read()
    else:
        try:
            filled[1].close()
            _fill_prefixes(read, prefixes[lo:hi], lo)
            if len(filled[0].read()) < parts - 1:
                return EMPTY_SHAPE
            prefixes.sort()
            shallow, ranges = _plan(prefixes, parts)
            rows[:len(ranges)] = [(start, stop, *ends) for start, stop, ends in ranges]
        finally:
            planned[1].close()
    start, stop, first, last = rows[p].tolist()
    return shallow + _range_shape(read, count, np.frombuffer(
        buffer, np.uint64, stop - start, start * PREFIX_BYTES), (first, last))


def _plan(ordered: np.ndarray, parts: int) -> tuple[TrieShape, list]:
    """How to split sorted prefixes ``ordered``: ``(shallow, ranges)``.

    The positions where the first byte changes, with LCPs of 0 or 1, and
    the two ends, with -1, bound every branch at depth 2 or deeper.
    ``shallow`` is the shape of the trie's nodes at depths 0 and 1, counted
    off these positions alone by the sweep's :func:`_levels`: a census no
    range's sweep counts. The ranges, ``(start, stop, ends)``, up to ``parts`` of
    them, are cut at the positions nearest equal parts, an earlier one on a
    tie, with ``ends`` the LCPs at their cuts. One range holds all keys
    when they share their first byte: a whole key set, with no nodes at
    depths 0 and 1.
    """
    n = len(ordered)
    starts = np.searchsorted(ordered, np.arange(1, 256, dtype=np.uint64) << np.uint64(56))
    # ascending, so each position's first entry is where it rises
    starts = starts[(np.diff(starts, prepend=0) > 0) & (starts < n)]
    at = np.concatenate(([0], starts, [n]))
    lows = np.concatenate(([-1], ordered[starts - 1] >> np.uint64(60)
                           == ordered[starts] >> np.uint64(60), [-1])).astype(np.int8)
    branches, extensions, above = [0, 0], np.zeros(2, np.int64), np.zeros(len(at), np.int8)
    for d in (0, 1):
        _levels(lows, np.flatnonzero(lows <= d), d, branches, extensions, above)
    # Cut at each start nearest a target, the earlier on a tie: a start
    # takes the targets between its midpoints to its neighbours, the upper
    # one included, and the first and last take every target beyond them
    # (all doubled, to stay in integers).
    bounds = at[:-1] + at[1:]
    bounds[0], bounds[-1] = -1, 2 * n
    targets = 2 * (np.arange(1, parts) * n // parts)
    cuts = [0, *(np.flatnonzero(np.diff(np.searchsorted(targets, bounds, "right"))) + 1),
            len(at) - 1]
    return (EMPTY_SHAPE._replace(level_census=_census(branches, extensions.tolist(), [0, 0])),
            [(int(at[i]), int(at[j]), (int(lows[i]), int(lows[j])))
             for i, j in zip(cuts, cuts[1:])])
