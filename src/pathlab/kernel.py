"""The sorted-LCP kernel: every trial's measure, in one process or in parts.

:func:`streamed_shape` gives the depths, node counts and level census of
the pointer :class:`pathlab.trie.Trie` of a key set, as a
:class:`TrieShape`, without building the trie or holding the keys: it
keeps each key's first 8 bytes, sorted as unsigned 64-bit integers, and
reads the trie off their lcp-interval tree (Abouelhoda, Kurtz & Ohlebusch,
J. Discrete Algorithms 2004), turning to full 20-byte keys only for the
rare groups whose prefixes tie. :func:`sorted_shape` is its call on one key
array, and :func:`split_shape` its run in parts, a range of the sorted
prefixes each. The census is in ``Trie.level_census``'s format: nibble
depth -> ``{"branches": …, "extensions": …, "leaves": …}``
(``CENSUS_KINDS``), ascending. Shapes of separately measured key sets pool
by ``+``, the one merge of a census.
"""

from __future__ import annotations

import mmap
import os
import pickle
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
    once, as :meth:`pathlab.trie.Trie.insert` overwrites them.

    The harness measures a trial of 1,000,000 keys or more in parts where
    CPUs would idle (:func:`split_shape`): the fill runs in parts and the
    sort once, on one prefix buffer the parts share, so the memory is the
    same 8 bytes a key in all of them together. Each part measures a range
    of the sorted prefixes with the function this one ends in,
    :func:`_range_shape`, its ties included.
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


def split_shape(read: Callable[[int, int], np.ndarray], count: int, parts: int,
                run: Callable[[list], list]) -> TrieShape:
    """:func:`streamed_shape` of the same keys, measured in up to ``parts``
    parts at once. ``run(tasks)`` calls each function of no argument in
    ``tasks``, the first in this process and each other in a process forked
    for it, all at the same time, and returns their results in order
    (``pathlab.harness`` has the runner). One part is
    :func:`streamed_shape`.

    Each part reads about ``count / parts`` of the keys into one anonymous
    shared mapping of 8 bytes a key, made before the fork, and waits. Once
    every part has, this process sorts the prefixes in place and cuts the
    sorted order into ranges at the adjacent LCPs below 2 nearest equal
    parts: where the first byte changes, found by ``searchsorted``. Below
    nibble depth 2 the lcp-interval tree is 256 independent sub-tries, so
    each part measures its range for depths 2 and deeper on its own, with
    the true LCPs at its cuts; the shapes add with ``+``. The nodes at
    depths 0 and 1 are read here, once, off the positions whose LCP is
    below 2, and each part adds their weights to its keys' nodes above
    before counting them. A part resolves the ties in its range itself;
    keys that all share their first byte are one range, one part's.

    Memory: the mapping, 8 bytes a key, until the parts have their LCPs;
    each writes them over the front of its range, as the serial kernel
    does, frees the rest of its range, then sweeps at 2 more bytes a key
    of its range. So the processes together hold about what one serial
    trial does, with the blocks of each part.
    """
    if parts < 2:
        return streamed_shape(read, count)
    buffer = mmap.mmap(-1, count * PREFIX_BYTES)
    bounds = [count * p // parts for p in range(parts + 1)]
    filled = _pipe()
    plans = [_pipe() for _ in range(parts - 1)]
    try:
        shapes = run([partial(_lead, read, buffer, bounds, filled, plans)]
                     + [partial(_follow, read, buffer, bounds, p, filled, plans)
                        for p in range(1, parts)])
    finally:
        for end in (*filled, *(end for plan in plans for end in plan)):
            end.close()
    # unmapped with its last view; a close would raise while an error's
    # traceback still holds one
    del buffer
    return sum(shapes[1:], shapes[0])


def _pipe():
    """An unbuffered pipe's ``(reader, writer)`` files."""
    reader, writer = os.pipe()
    return open(reader, "rb", buffering=0), open(writer, "wb", buffering=0)


def _lead(read, buffer: mmap.mmap, bounds: list[int], filled, plans) -> TrieShape:
    """Part 0 of :func:`split_shape`, in the calling process: fill its keys,
    wait for every other part's byte on ``filled``, sort, send each part
    its range down its pipe in ``plans``, then measure its own range. No
    shape, and no range sent, where a part sent no byte: it failed, and the
    runner raises its error."""
    reader, writer = filled
    try:
        writer.close()
        prefixes = np.frombuffer(buffer, np.uint64)
        _fill_prefixes(read, bounds[1], prefixes)
        waiting = len(plans)
        while waiting and (got := reader.read(waiting)):
            waiting -= len(got)
        if waiting:
            return EMPTY_SHAPE
        prefixes.sort()
        shallow, above, ranges = _plan(prefixes, len(bounds) - 1)
        del prefixes
        # a part past the plan's ranges gets none
        for (_, sender), part in zip(plans, ranges[1:]):
            sender.write(pickle.dumps((part, above)))
    finally:
        for _, sender in plans:
            sender.close()
    return shallow + _measure(read, buffer, bounds[-1], ranges[0], above)


def _follow(read, buffer: mmap.mmap, bounds: list[int], p: int, filled, plans) -> TrieShape:
    """Part ``p`` of :func:`split_shape`, in a forked process: fill its
    keys, send a byte on ``filled``, then measure the range read from its
    pipe. No shape if the pipe closes without one: the plan has fewer
    ranges than parts, or a part failed and the runner raises its error."""
    reader, writer = filled
    reader.close()
    for i, (receiver, sender) in enumerate(plans):
        # every copy of a sender must close for its part to see the end
        sender.close()
        if i != p - 1:
            receiver.close()
    _fill_prefixes(read, bounds[p + 1] - bounds[p],
                   np.frombuffer(buffer, np.uint64)[bounds[p]:bounds[p + 1]], bounds[p])
    writer.write(b"\0")
    writer.close()
    message = plans[p - 1][0].read()
    if not message:
        return EMPTY_SHAPE
    # the range comes from the process that forked this one
    return _measure(read, buffer, bounds[-1], *pickle.loads(message))


def _measure(read, buffer: mmap.mmap, count: int, part, above) -> TrieShape:
    """The shape of :func:`_plan`'s range ``part`` of the ``count`` keys' sorted ``buffer``."""
    start, stop, ends = part
    return _range_shape(read, count, np.frombuffer(buffer, np.uint64, stop - start,
                                                   start * PREFIX_BYTES), ends, 2, above)


def _plan(ordered: np.ndarray, parts: int) -> tuple[TrieShape, np.ndarray | None, list]:
    """How to split sorted prefixes ``ordered``: ``(shallow, above,
    ranges)``. The ranges, ``(start, stop, ends)``, up to ``parts`` of
    them, are cut at the LCPs below 2 nearest equal parts, with ``ends``
    the LCPs at their cuts (-1 at either end of ``ordered``); one range
    holds all keys where no LCP is below 2. ``shallow`` is the shape of the
    trie's nodes at depths 0 and 1: a branch at 0 if two first nibbles
    occur, and one at 1 over each first nibble followed by two second
    ones, with an extension at 0 above it when there is no branch at 0.
    ``above[v]`` of them are above each key whose first nibble is ``v``."""
    n = len(ordered)
    starts = np.searchsorted(ordered, np.arange(1, 256, dtype=np.uint64) << np.uint64(56))
    # ascending, so each position's first entry is where it rises
    starts = starts[(np.diff(starts, prepend=0) > 0) & (starts < n)]
    if not len(starts):
        # one first byte: no nodes at depths 0 and 1, and the sweep from 2
        # counts the extension at the root, over a parent LCP of -1
        return EMPTY_SHAPE, None, [(0, n, (-1, -1))]
    nibbles = ordered[starts] >> np.uint64(60)
    lcps = (ordered[starts - 1] >> np.uint64(60) == nibbles).astype(np.int8)
    targets = np.arange(1, parts) * n // parts
    right = np.searchsorted(starts, targets).clip(max=len(starts) - 1)
    left = (right - 1).clip(min=0)
    nearer = np.abs(starts[left] - targets) <= np.abs(starts[right] - targets)
    picks = np.where(nearer, left, right)
    picks = picks[np.diff(picks, prepend=-1) > 0]
    cuts = [0, *starts[picks].tolist(), n]
    cut_lcps = [-1, *lcps[picks].tolist(), -1]

    root = int((lcps == 0).any())
    branched = np.zeros(16, bool)
    branched[nibbles[lcps == 1]] = True
    census = {0: dict(zip(CENSUS_KINDS, (root, 1 - root, 0)))}
    if branched.any():
        census[1] = dict(zip(CENSUS_KINDS, (int(branched.sum()), 0, 0)))
    above = (root + branched * (2 - root)).astype(np.int8)
    return (EMPTY_SHAPE._replace(level_census=census), above,
            list(zip(cuts, cuts[1:], zip(cut_lcps, cut_lcps[1:]))))
