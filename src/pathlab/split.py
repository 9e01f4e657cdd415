"""A trial's measure, in one process or in parts on as many at once.

:func:`split_shape` gives what :func:`pathlab.trie.streamed_shape` gives
for the same keys, with the kernel's steps: the fill and the measure of
each range of sorted prefixes (``trie._range_shape``) run in parts, the
sort once. Below nibble depth 2 the lcp-interval tree (Abouelhoda, Kurtz
& Ohlebusch, J. Discrete Algorithms 2004) is 256 independent sub-tries,
one per first byte, so the sorted keys can be cut at any adjacent LCP
below 2 and each range measured on its own, its tied prefixes included.
"""

from __future__ import annotations

import mmap
import os
import pickle
from collections.abc import Callable
from functools import partial

import numpy as np

from .trie import CENSUS_KINDS, EMPTY_SHAPE, PREFIX_BYTES, TrieShape, _fill_prefixes, _range_shape


def split_shape(read: Callable[[int, int], np.ndarray], count: int, parts: int,
                run: Callable[[list], list]) -> TrieShape:
    """:func:`streamed_shape` of the same keys, measured in up to ``parts``
    parts at once. ``run(tasks)`` calls each function of no argument in
    ``tasks``, the first in this process and each other in a process forked
    for it, all at the same time, and returns their results in order
    (``pathlab.harness`` has the runner). One part measures the keys as
    :func:`streamed_shape` does.

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
        ordered = _fill_prefixes(read, count)
        ordered.sort()
        return _range_shape(read, count, ordered)
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
