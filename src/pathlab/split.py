"""One large trial measured in parts, on as many processes at once.

:func:`split_shape` gives what :func:`pathlab.trie.streamed_shape` gives
for the same keys, with the kernel's steps: the fill, the LCPs and the
sweep run in parts, the sort once. Below nibble depth 2 the lcp-interval
tree (Abouelhoda, Kurtz & Ohlebusch, J. Discrete Algorithms 2004) is 256
independent sub-tries, one per first byte, so the sorted keys can be cut
at any adjacent LCP below 2 and each range swept on its own.
"""

from __future__ import annotations

import mmap
import os
import pickle
from collections.abc import Callable
from functools import partial

import numpy as np

from .stats import PathLengthHistogram
from .trie import (
    CENSUS_KINDS,
    EMPTY_SHAPE,
    PREFIX_BYTES,
    TrieShape,
    _fill_prefixes,
    _prefix_lcps,
    _sweep,
    streamed_shape,
)


def split_shape(read: Callable[[int, int], np.ndarray], count: int, parts: int,
                run: Callable[[list], list]) -> TrieShape:
    """:func:`streamed_shape` of the same keys, measured in up to ``parts``
    parts at once. ``run(tasks)`` calls each function of no argument in
    ``tasks``, the first in this process and each other in a process forked
    for it, all at the same time, and returns their results in order
    (``pathlab.harness`` has the runner).

    Each part reads about ``count / parts`` of the keys into one anonymous
    shared mapping of 8 bytes a key, made before the fork, and waits. Once
    every part has, this process sorts the prefixes in place and cuts the
    sorted order into ranges at the adjacent LCPs below 2 nearest equal
    parts: where the first byte changes, found by ``searchsorted``. Below
    nibble depth 2 the lcp-interval tree is 256 independent sub-tries, so
    each part takes its range's LCPs and sweeps it for depths 2 and deeper
    on its own, with the true LCPs at its cuts; the shapes add with ``+``.
    The nodes at depths 0 and 1 are read here, once, off the positions
    whose LCP is below 2, and each part adds their weights to its keys'
    nodes above before counting them.

    Memory: the mapping, 8 bytes a key, until the parts have their LCPs;
    each writes them over the front of its range, as the serial kernel
    does, frees the rest of its range, then sweeps at 2 more bytes a key
    of its range. So the processes together hold about what one serial
    trial does, with the blocks of each part. Where no adjacent LCP is below 2,
    or two prefixes tie (the tie pass reads every key again, which the
    parts cannot share), the keys are measured again by
    :func:`streamed_shape`.
    """
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
    if any(shape is None for shape in shapes):
        return streamed_shape(read, count)
    return sum(shapes[1:], shapes[0])


def _pipe():
    """An unbuffered pipe's ``(reader, writer)`` files."""
    reader, writer = os.pipe()
    return open(reader, "rb", buffering=0), open(writer, "wb", buffering=0)


def _lead(read, buffer: mmap.mmap, bounds: list[int], filled, plans) -> TrieShape | None:
    """Part 0 of :func:`split_shape`, in the calling process: fill its keys,
    wait for every other part's byte on ``filled``, sort, send each part the
    plan down its pipe in ``plans``, then measure its own range. None, and
    no plan sent, where a part sent no byte (it failed, and the runner
    raises its error) or the keys cannot be cut."""
    reader, writer = filled
    try:
        writer.close()
        prefixes = np.frombuffer(buffer, np.uint64)
        _fill_prefixes(read, bounds[1], prefixes)
        waiting = len(plans)
        while waiting and (got := reader.read(waiting)):
            waiting -= len(got)
        if waiting:
            return None
        prefixes.sort()
        plan = _plan(prefixes, len(bounds) - 1)
        del prefixes
        if plan is None:
            return None
        message = pickle.dumps(plan[1:])
        for _, sender in plans:
            sender.write(message)
    finally:
        for _, sender in plans:
            sender.close()
    shape = _measure_part(buffer, plan[1:], 0)
    return None if shape is None else plan[0] + shape


def _follow(read, buffer: mmap.mmap, bounds: list[int], p: int, filled, plans
            ) -> TrieShape | None:
    """Part ``p`` of :func:`split_shape`, in a forked process: fill its
    keys, send a byte on ``filled``, then measure the range of the plan
    read from its pipe, or give None if the pipe closes without one."""
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
        return None
    # the plan comes from the process that forked this one
    return _measure_part(buffer, pickle.loads(message), p)


def _plan(ordered: np.ndarray, parts: int):
    """How to split sorted prefixes ``ordered``, or None if no adjacent LCP
    is below 2: ``(shallow, cuts, lcps, steps)``. ``cuts`` are the up to
    ``parts + 1`` range bounds, the LCPs below 2 nearest equal parts
    between 0 and ``n``, and ``lcps`` the LCPs there (-1 at either end).
    ``shallow`` is the shape of the trie's nodes at depths 0 and 1: a
    branch at 0 if two first nibbles occur, and one at 1 over each first
    nibble followed by two second ones, with an extension at 0 above it
    when there is no branch at 0. ``steps`` are their weights on the keys
    below, as positions and the change of weight there."""
    n = len(ordered)
    starts = np.searchsorted(ordered, np.arange(1, 256, dtype=np.uint64) << np.uint64(56))
    # ascending, so each position's first entry is where it rises
    starts = starts[(np.diff(starts, prepend=0) > 0) & (starts < n)]
    if not len(starts):
        return None
    first_nibble = np.uint64(60)
    lcps = (ordered[starts - 1] >> first_nibble
            == ordered[starts] >> first_nibble).astype(np.int8)
    targets = np.arange(1, parts) * n // parts
    right = np.searchsorted(starts, targets).clip(max=len(starts) - 1)
    left = (right - 1).clip(min=0)
    nearer = np.abs(starts[left] - targets) <= np.abs(starts[right] - targets)
    picks = np.where(nearer, left, right)
    picks = picks[np.diff(picks, prepend=-1) > 0]
    cuts = [0, *starts[picks].tolist(), n]
    cut_lcps = [-1, *lcps[picks].tolist(), -1]

    root = int((lcps == 0).any())
    group = np.cumsum(lcps == 0)  # each start's first nibble, counted from 0
    branched = np.bincount(group[lcps == 1], minlength=group[-1] + 1) > 0
    weights = root + branched * (2 - root)
    steps = (np.concatenate(([0], starts[lcps == 0])),
             np.diff(weights, prepend=0).astype(np.int8))
    census = {0: dict(zip(CENSUS_KINDS, (root, 1 - root, 0)))}
    if branched.any():
        census[1] = dict(zip(CENSUS_KINDS, (int(branched.sum()), 0, 0)))
    shallow = TrieShape(PathLengthHistogram({}), PathLengthHistogram({}), census)
    return shallow, cuts, cut_lcps, steps


def _measure_part(buffer: mmap.mmap, plan, p: int) -> TrieShape | None:
    """The shape of range ``p`` of the plan's sorted prefixes in ``buffer``
    for depths 2 and deeper, with the plan's depth 0 and 1 nodes counted
    above its keys; None if two of its prefixes tie. An empty shape if
    the plan has fewer ranges."""
    cuts, lcps, (positions, steps) = plan
    if p >= len(cuts) - 1:
        return EMPTY_SHAPE
    a, b = cuts[p], cuts[p + 1]
    padded, tied = _prefix_lcps(np.frombuffer(buffer, np.uint64, b - a, a * PREFIX_BYTES),
                                (lcps[p], lcps[p + 1]))
    # the LCPs fill the range's first b - a + 1 bytes: its later pages are
    # freed, in every process that maps them
    page = mmap.PAGESIZE
    free = -(-(a * PREFIX_BYTES + b - a + 1) // page) * page
    end = b * PREFIX_BYTES // page * page
    if end > free and hasattr(mmap, "MADV_REMOVE"):  # Linux's
        buffer.madvise(mmap.MADV_REMOVE, free, end - free)
    if len(tied):
        return None
    nodes_above = np.zeros(b - a + 1, np.int8)
    nodes_above[0] = steps[positions <= a].sum()
    inside = (positions > a) & (positions < b)
    nodes_above[positions[inside] - a] = steps[inside]
    return _sweep(padded, 2, nodes_above)
