"""In-memory span tracer for one benchmark round.

The tracer replaces pathlab's public functions at the names their callers
look them up under (module globals and class attributes), from outside the
program. Every wrapped call adds its calls, total time and self time to
per-thread tallies; self time is the call's time minus the time its child
calls cover. Calls made once per key (``Trie.insert``, ``to_nibbles``, ...)
are only tallied, because one span record per key would cost more than the
work measured. Coarser calls (per trial, per size, per run) also keep a span
record: id, parent id, name, thread, start, end, self time and process CPU
time. The records stay in memory and are returned by :meth:`Tracer.report`
when the round ends.

Trials run on a thread pool when ``--jobs`` > 1, and the pool threads
share one interpreter lock. A call on a pool thread is timed on that
thread's CPU clock, so time spent waiting for the lock is no layer's work;
calls on the main thread are timed on the wall clock. A span opened on a
pool thread with nothing open below it in that thread is a child of the
span open in the main thread at that moment (``run_experiment``). Its parent
subtracts the union of such children's wall intervals, and ``overlap_s``
adds up their own time minus that union: the work the pool did beyond the
wall time it took, about 0 when the lock lets one thread run at a time.
With that, ``sum of self times - overlap_s = duration of the root span``
holds exactly.

A wrapper's own work outside its timed window (stack push and pop, tally
update) lands in its caller's self time. :func:`call_cost_us` measures what
one wrapped call adds, so that share can be estimated.
"""

from __future__ import annotations

import itertools
import statistics
import threading
import time

_wall = time.perf_counter


class _ThreadState:
    __slots__ = ("thread", "clock", "stack", "tally", "counters", "spans")

    def __init__(self, thread: int, clock):
        self.thread = thread
        self.clock = clock
        self.stack = []     # open calls: [child_time, span_id or None]
        self.tally = {}     # name -> [calls, total_s, self_s]
        self.counters = {}  # name -> int
        self.spans = []     # finished span records (dicts)


def _union_length(intervals, lo: float, hi: float) -> float:
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._ids = itertools.count(1)
        self._main = self._state(_wall)
        # span id -> (wall start, wall end, own time) of its children that
        # ran on other threads
        self._foreign: dict[int, list[tuple[float, float, float]]] = {}
        self.overlap_s = 0.0

    def _state(self, clock=time.thread_time) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.get_ident(), clock)
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def _cross_parent(self):
        for frame in reversed(self._main.stack):
            if frame[1] is not None:
                return frame[1]
        return None

    def tally(self, name: str, fn):
        """Wrap a per-key function: counts and times, no span record."""
        get_state = self._state

        def traced(*args, **kwargs):
            state = get_state()
            stack = state.stack
            clock = state.clock
            frame = [0.0, None]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                rec = state.tally.get(name)
                if rec is None:
                    rec = state.tally[name] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[0]

        return traced

    def span(self, name: str, fn, count=None):
        """Wrap a coarse function: tallies plus one span record per call.

        ``count(result)`` may return ``(counter_name, amount)`` to add a
        work count measured on the call's result.
        """
        get_state = self._state

        def traced(*args, **kwargs):
            state = get_state()
            stack = state.stack
            sid = next(self._ids)
            parent = stack[-1][1] if stack else None
            foreign = not stack and state is not self._main
            if foreign:
                parent = self._cross_parent()
            frame = [0.0, sid]
            stack.append(frame)
            cpu0 = time.process_time()
            t0 = _wall()
            c0 = state.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = state.clock() - c0
                t1 = _wall()
                cpu1 = time.process_time()
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                elif foreign and parent is not None:
                    with self._lock:
                        self._foreign.setdefault(parent, []).append((t0, t1, dur))
                covered = frame[0]
                children = self._foreign.pop(sid, None)
                if children:
                    union = _union_length([c[:2] for c in children], t0, t1)
                    covered += union
                    self.overlap_s += sum(c[2] for c in children) - union
                rec = state.tally.get(name)
                if rec is None:
                    rec = state.tally[name] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - covered
                state.spans.append({
                    "id": sid, "parent": parent, "name": name,
                    "thread": state.thread, "start": t0, "end": t1,
                    "self": dur - covered, "cpu": cpu1 - cpu0,
                })
            if count is not None:
                key, amount = count(result)
                state.counters[key] = state.counters.get(key, 0) + amount
            return result

        return traced

    def patch(self, owner, attr: str, name: str, per_key: bool = False,
              count=None) -> None:
        """Replace ``owner.attr`` with its traced form, keeping classmethods
        classmethods."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        wrapped = self.tally(name, fn) if per_key else self.span(name, fn, count)
        setattr(owner, attr, classmethod(wrapped) if is_classmethod else wrapped)

    def report(self) -> dict:
        """Merge every thread's tallies, counters and span records."""
        tally: dict[str, list] = {}
        counters: dict[str, int] = {}
        spans = []
        for state in self._states:
            for name, (calls, total, self_s) in state.tally.items():
                rec = tally.setdefault(name, [0, 0.0, 0.0])
                rec[0] += calls
                rec[1] += total
                rec[2] += self_s
            for name, amount in state.counters.items():
                counters[name] = counters.get(name, 0) + amount
            spans.extend(state.spans)
        spans.sort(key=lambda s: s["start"])
        return {
            "tally": {n: {"calls": c, "total_s": t, "self_s": s}
                      for n, (c, t, s) in sorted(tally.items())},
            "counters": counters,
            "overlap_s": self.overlap_s,
            "spans": spans,
        }


def call_cost_us(calls: int = 50_000, repeats: int = 5) -> float:
    """Wall time a tally wrapper adds to one call, in microseconds.

    A wrapped no-op is called ``calls`` times from inside another wrapped
    call, as per-key calls are, against the same loop over the bare no-op;
    the median over ``repeats`` pairs is returned.
    """

    def noop(x):
        return x

    def loop(fn):
        t0 = _wall()
        for i in range(calls):
            fn(i)
        return _wall() - t0

    tracer = Tracer()
    traced_loop = tracer.tally("loop", loop)
    traced_noop = tracer.tally("noop", noop)
    return statistics.median(
        (traced_loop(traced_noop) - loop(noop)) / calls * 1e6 for _ in range(repeats))
