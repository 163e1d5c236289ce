"""Frozen pre-optimization baselines measured against by ``repro.bench``.

These are *faithful copies* of the simulation kernel as it stood before the
hot-path overhaul (single binary heap, un-slotted engine, one ``step()``
method call per event with live tracer checks). Keeping the baseline in the
tree means every benchmark run records its speedup **in the same process on
the same machine**, so the numbers in ``BENCH_*.json`` are self-contained
and reproducible — no stale reference timings.

Nothing in the simulator may import this module. Besides ``repro.bench``,
only the engine property test uses it, as a single-heap ordering oracle.
"""

from __future__ import annotations

from heapq import heappop, heappush


class _NullTracer:
    enabled = False
    engine_events = False
    progress_every = None


class LegacyEvent:
    """Pre-overhaul event: plain attributes, no cancellation support."""

    def __init__(self, engine):
        self.engine = engine
        self.callbacks = []
        self._triggered = False
        self._ok = None
        self._value = None
        self._scheduled = False
        self._defused = False

    def succeed(self, value=None, delay=0.0, priority=0):
        if self._scheduled or self._triggered:
            raise RuntimeError("already triggered")
        self._ok = True
        self._value = value
        self._scheduled = True
        self.engine.schedule(self, delay, priority)
        return self

    def _fire(self):
        self._triggered = True
        callbacks, self.callbacks = self.callbacks, []
        for cb in callbacks:
            cb(self)
        if self._ok is False and not self._defused:
            raise self._value


class LegacyEngine:
    """Pre-overhaul engine: one heap, one ``step()`` call per event."""

    def __init__(self):
        self._now = 0.0
        self._heap = []
        self._seq = 0
        self._trace = None
        self._running = False
        self._event_count = 0
        self.tracer = _NullTracer()
        self._progress_t0 = 0.0
        self.current_context = None

    @property
    def now(self):
        return self._now

    @property
    def event_count(self):
        return self._event_count

    def schedule(self, event, delay=0.0, priority=0):
        if delay < 0:
            raise RuntimeError(f"negative delay {delay!r}")
        self._seq += 1
        heappush(self._heap, (self._now + delay, priority, self._seq, event))

    def peek(self):
        return self._heap[0][0] if self._heap else float("inf")

    def step(self):
        if not self._heap:
            raise RuntimeError("step() on an empty event queue")
        time, _prio, _seq, event = heappop(self._heap)
        if time < self._now:
            raise RuntimeError("event queue time went backwards")
        self._now = time
        self._event_count += 1
        if self._trace is not None:
            self._trace(time, event)
        tr = self.tracer
        if tr.enabled:  # pragma: no cover - benchmark baseline, never traced
            if tr.engine_events:
                tr.instant("sim", type(event).__name__, time)
            every = tr.progress_every
            if every is not None and self._event_count % every == 0:
                tr.span("sim", "progress", self._progress_t0, time,
                        events=self._event_count, queue_depth=len(self._heap))
                self._progress_t0 = time
        event._fire()

    def run(self, until=None, max_events=None, trace_every=None):
        if self._running:
            raise RuntimeError("re-entrant run()")
        self._running = True
        fired = 0
        try:
            while self._heap:
                next_time = self._heap[0][0]
                if until is not None and next_time > until:
                    self._now = until
                    break
                if max_events is not None and fired >= max_events:
                    raise RuntimeError("event budget exhausted")
                self.step()
                fired += 1
            else:
                if until is not None and until > self._now:
                    self._now = until
            return self._now
        finally:
            self._running = False
