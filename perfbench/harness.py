"""Statistics and in-memory tracing for the renormforest benchmark.

Nothing here imports renormforest: the tracer patches callables that the
workloads name, so the program under test is never edited.
"""
from __future__ import annotations

import contextlib
import functools
import json
import math
import signal
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

# A percentile is reported as resolved only when this many samples lie beyond it.
TAIL_SAMPLES = 10


# -- statistics --------------------------------------------------------------


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least q percent
    of the samples at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile {q} outside (0, 100]")
    ordered = sorted(samples)
    rank = math.ceil(q / 100 * len(ordered))
    return ordered[max(rank, 1) - 1]


def tail_resolved(n: int, q: float) -> bool:
    """Whether at least TAIL_SAMPLES of n samples lie beyond the q-th
    percentile, so that the percentile is measured rather than the maximum."""
    return n - math.ceil(q / 100 * n) >= TAIL_SAMPLES


def failed_frac(attempted: int, failed: int) -> float:
    """Requests that raised or failed their output check, per request attempted."""
    if attempted < 1:
        raise ValueError("no requests attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"{failed} failed out of {attempted} attempted")
    return failed / attempted


# -- host speed ---------------------------------------------------------------------


def calibration_loop(n: int = 4000) -> int:
    """A fixed piece of pure-Python work (integer arithmetic, dict stores,
    tuple allocation), timed to gauge how fast the host runs right now."""
    d = {}
    s = 0
    for i in range(n):
        s += i * i % 7
        d[i & 255] = (s, i)
    return s


class ReferenceClock:
    """Time in reference seconds: wall time scaled by the host's current speed.

    A shared host may run the same code at speeds 1.5x apart for seconds at a
    time.  While `running`, a timer signal interrupts the program every
    `interval` wall seconds and times `calibration_loop`; wall time between
    two ticks counts as `nominal` / (median loop time of the last `window`
    ticks) reference seconds, and the ticks' own time does not count.  A
    reference second is a wall second when the loop takes `nominal` seconds.
    The program under test does not run the loop, so a change to it moves
    reference time as it moves wall time on a steady host.
    """

    def __init__(
        self,
        nominal: float,
        interval: float = 0.02,
        window: int = 15,
        clock: Callable[[], float] = time.perf_counter,
        loop: Callable[[], object] = calibration_loop,
    ):
        self.nominal = nominal
        self.interval = interval
        self.window = window
        self.clock = clock
        self.loop = loop
        self.loop_times: list[float] = []
        # (reference seconds at `since`, wall `since`, reference per wall
        # second), replaced as one value so that a tick never half-updates it
        self._state = (0.0, clock(), 1.0)

    def now(self) -> float:
        ref, since, rate = self._state
        return ref + (self.clock() - since) * rate

    def tick(self, *_signal_args) -> None:
        """Time the loop once; the wall time since the last tick is counted
        at the speed measured before it."""
        t0 = self.clock()
        ref, since, rate = self._state
        ref += (t0 - since) * rate
        self.loop()
        self.loop_times.append(self.clock() - t0)
        rate = self.nominal / statistics.median(self.loop_times[-self.window:])
        self._state = (ref, self.clock(), rate)

    @contextlib.contextmanager
    def running(self):
        """Calibrate `window` times, then tick on a timer signal until exit."""
        for _ in range(self.window):
            self.tick()
        previous = signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


# -- spans ---------------------------------------------------------------------


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]  # index into Tracer.spans
    request: str


def _union_length(intervals: Iterable[tuple[float, float]]) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover
    (children clipped to the parent, overlaps counted once)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        clipped = [
            (max(lo, s.start), min(hi, s.end))
            for lo, hi in children.get(i, ())
            if min(hi, s.end) > max(lo, s.start)
        ]
        out.append(max(0.0, s.end - s.start - _union_length(clipped)))
    return out


def busy_time(spans: Sequence[Span], name: str) -> float:
    """Time spent inside the named boundary; a span nested in a span of the
    same name (recursion) is not counted twice."""
    total = 0.0
    for s in spans:
        if s.name != name:
            continue
        p = s.parent
        while p is not None and spans[p].name != name:
            p = spans[p].parent
        if p is None:
            total += s.end - s.start
    return total


class Tracer:
    """Records spans at wrapped boundaries and counts at counted ones.

    Spans stay in memory; `dump` writes them once, at the end of a run.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self.request = "setup"
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        now = self.clock()
        self.spans.append(Span(name, now, now, parent, self.request))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx].end = self.clock()
        self._stack.pop()

    def spanned(self, name: str, fn: Callable, on_result: Optional[Callable] = None) -> Callable:
        """`fn` wrapped in a span; `on_result(tracer, result)` adds counts."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name + "_calls")
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if on_result is not None:
                on_result(self, result)
            return result

        return wrapper

    def spanned_iteration(self, name: str, fn: Callable, yielded: str) -> Callable:
        """A generator function wrapped so that each step of its iteration is
        a span: the time spent producing items, not the time the consumer
        holds them."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name + "_calls")
            it = iter(fn(*args, **kwargs))
            while True:
                idx = self._open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                self.count(yielded)
                yield item

        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        """`fn` wrapped to count its calls only (for very hot boundaries)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] = self.counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation

    def patch(self, owner: object, attr: str, wrapper: Callable) -> None:
        """Replace a module's or class's own attribute until `unpatch_all`."""
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def unpatch_all(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results

    def busy(self, name: str) -> float:
        return busy_time(self.spans, name)

    def self_time_by_layer(self, layer_of: Callable[[str], str]) -> dict[str, float]:
        out: dict[str, float] = {}
        for span, own in zip(self.spans, self_times(self.spans)):
            layer = layer_of(span.name)
            out[layer] = out.get(layer, 0.0) + own
        return out

    def dump(self, path) -> None:
        rows = [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "request": s.request,
            }
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rows, "counts": self.counts}, fh)
