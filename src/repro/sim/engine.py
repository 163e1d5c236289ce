"""The discrete-event engine.

A single :class:`Engine` owns simulated time and its event queue.
Everything that "happens" in the simulated cluster is an
:class:`~repro.sim.events.Event` scheduled on this queue.

Ordering is the deterministic triple ``(time, priority, seq)``: ``seq`` is a
monotonically increasing insertion counter, so events scheduled for the same
instant fire in insertion order unless an explicit priority says otherwise.
Lower priority values fire first.

Performance notes (docs/performance.md has the full fast-path contract):

* Normal-priority events scheduled with ``delay == 0`` — the dominant
  class in this code base: condition triggers, completion notifications,
  park/unpark signals — go to a FIFO *immediate lane* (a deque; O(1) in,
  O(1) out). Everything else goes to the binary heap. Because simulated
  time never runs backwards and ``seq`` grows monotonically, the lane is
  always sorted by ``(time, seq)`` by construction; dispatch compares the
  lane heads on the full ``(time, priority, seq)`` key, so the firing
  order is *identical* to a single-heap engine (property-tested against
  the frozen :class:`~repro.bench.legacy.LegacyEngine` in
  tests/test_properties.py).
* One loop fires every event: :meth:`Engine.run` and :meth:`Engine.step`
  (a budget of one event) share it. It inlines :meth:`Event._fire` (no
  Event subclass overrides it) and reads the tracer once per call, not
  per event: the only per-event observation is the tracer's
  ``progress_every``. Callers that wait for processes to finish use
  :meth:`Engine.run_until_complete`, whose completion callback raises a
  private exception to leave the loop; nobody steps the engine by hand.
* Cancellation is *lazy*: :meth:`Event.cancel` only flags the entry; the
  engine discards flagged entries as they surface at a lane head, so
  defusing a timeout costs O(1) instead of an O(n) queue rebuild.
  Introspection (:meth:`peek`, :attr:`queue_depth`, :meth:`budget_error`)
  reports *live* events only — a counter-based accounting that never
  scans a lane — so deadlock diagnostics never count corpses.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Iterable, Optional, TYPE_CHECKING

from repro.analysis.pipeline import NULL_ANALYSIS
from repro.trace.tracer import NULL_TRACER, Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.events import Event
    from repro.sim.process import Process

_INF = float("inf")


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel (not for model errors)."""


class Interrupt(Exception):
    """Thrown into a process generator by :meth:`Process.interrupt`."""

    def __init__(self, cause: object = None):
        super().__init__(cause)
        self.cause = cause


#: Priority used by ordinary events.
PRIORITY_NORMAL = 0
#: Priority for bookkeeping that must run before normal events at an instant.
PRIORITY_URGENT = -1


class _Stop(Exception):
    """Raised by :meth:`Engine.run_until_complete`'s completion callback to
    leave the run loop once the last awaited process has terminated."""


class Engine:
    """Deterministic discrete-event simulation engine.

    Parameters
    ----------
    tracer:
        Optional :class:`repro.trace.Tracer` collecting typed records from
        every instrumented layer; defaults to the zero-cost
        :data:`~repro.trace.NULL_TRACER`.
    """

    __slots__ = (
        "_now",
        "_heap",
        "_lane",
        "_seq",
        "_running",
        "_event_count",
        "_cancelled",
        "tracer",
        "analysis",
        "_progress_t0",
        "current_context",
    )

    def __init__(self, tracer: Optional[Tracer] = None):
        self._now: float = 0.0
        #: (time, priority, seq, event) entries with delay > 0 or
        #: non-normal priority
        self._heap: list = []
        #: events scheduled with delay == 0 at normal priority, FIFO.
        #: Entries are *bare events*: a live lane entry's fire time is
        #: always exactly ``self._now`` (time is monotone and nothing
        #: later may overtake, so the head fires before time can advance
        #: — property-tested), and its seq lives in ``event._lseq``.
        self._lane: deque = deque()
        self._seq: int = 0
        self._running = False
        self._event_count = 0
        #: lazily-cancelled entries still sitting in the queue lanes
        self._cancelled = 0
        #: tracing sink read by every instrumented layer via ``engine.tracer``
        self.tracer: Tracer = tracer if tracer is not None else NULL_TRACER
        #: correctness-checker pipeline read by the instrumented layers via
        #: ``engine.analysis`` (see :mod:`repro.analysis`); the shared null
        #: pipeline keeps the disabled path to one attribute read + branch
        self.analysis = NULL_ANALYSIS
        self._progress_t0 = 0.0
        #: CPU-charge sink of the code currently executing (see
        #: :mod:`repro.sim.context`); managed by executors, read by substrates.
        self.current_context = None

    # ------------------------------------------------------------------
    # time & introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def event_count(self) -> int:
        """Number of events fired so far (diagnostics / budget guards).
        Lazily-cancelled events are discarded, never fired, and not counted."""
        return self._event_count

    @property
    def queue_depth(self) -> int:
        """Number of *live* (non-cancelled) events still queued."""
        return len(self._heap) + len(self._lane) - self._cancelled

    def _clean_heads(self) -> None:
        """Discard cancelled entries sitting at either lane head."""
        lane = self._lane
        while lane and lane[0]._cancelled:
            lane.popleft()
            self._cancelled -= 1
        heap = self._heap
        while heap and heap[0][3]._cancelled:
            heappop(heap)
            self._cancelled -= 1

    @staticmethod
    def _lane_first(lt, lseq, he) -> bool:
        """True if a lane head at time ``lt`` with seq ``lseq`` precedes
        heap entry ``he`` in the total (time, priority, seq) order (the
        lane's priority is 0)."""
        ht = he[0]
        if lt != ht:
            return lt < ht
        hp = he[1]
        return hp > 0 or (hp == 0 and lseq < he[2])

    def peek(self) -> float:
        """Time of the next live scheduled event, or ``inf`` if none.

        Cancelled entries surfacing at a lane head are discarded here."""
        self._clean_heads()
        lane = self._lane
        heap = self._heap
        if lane:
            # A live lane head's time is always exactly `now` (see the
            # lane-format note in __init__), so no entry time is stored.
            if heap and not self._lane_first(self._now, lane[0]._lseq, heap[0]):
                return heap[0][0]
            return self._now
        return heap[0][0] if heap else _INF

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, event: "Event", delay: float = 0.0, priority: int = PRIORITY_NORMAL) -> None:
        """Arrange for ``event`` to fire ``delay`` seconds from now."""
        # The single comparison rejects negative, inf, *and* NaN delays
        # (NaN fails every comparison): any of them would poison queue
        # ordering or park events at unreachable times.
        if not 0.0 <= delay < _INF:
            raise SimulationError(f"non-finite or negative delay {delay!r}")
        self._seq += 1
        if delay == 0.0 and priority == 0:
            event._lseq = self._seq
            self._lane.append(event)
        else:
            heappush(self._heap, (self._now + delay, priority, self._seq, event))

    def schedule_at(self, event: "Event", t: float,
                    priority: int = PRIORITY_NORMAL) -> None:
        """Schedule ``event`` at *absolute* time ``t`` (exactly).

        Unlike ``schedule(event, delay=t - now)``, no ``now + (t - now)``
        float round-trip happens: the event fires at the bit-exact ``t``
        the caller computed. The receiver-ordered ingress drain depends on
        this: an arrival record fires at the float time its grant produced,
        whatever the clock read when the drain ran.
        """
        # Single comparison rejects past, inf, and NaN times.
        if not self._now <= t < _INF:
            raise SimulationError(
                f"schedule_at: time {t!r} not in [now={self._now!r}, inf)")
        self._seq += 1
        heappush(self._heap, (t, priority, self._seq, event))

    # ------------------------------------------------------------------
    # factories (sugar used throughout the code base)
    # ------------------------------------------------------------------
    def event(self) -> "Event":
        from repro.sim.events import Event

        return Event(self)

    def timeout(self, delay: float, value: object = None) -> "Event":
        from repro.sim.events import Timeout

        return Timeout(self, delay, value)

    def process(self, generator) -> "Process":
        from repro.sim.process import Process

        return Process(self, generator)

    def all_of(self, events: Iterable["Event"]) -> "Event":
        from repro.sim.events import AllOf

        return AllOf(self, list(events))

    def any_of(self, events: Iterable["Event"]) -> "Event":
        from repro.sim.events import AnyOf

        return AnyOf(self, list(events))

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def _with_wait_for(self, msg: str) -> SimulationError:
        """``msg`` as a :class:`SimulationError`, with the analysis
        pipeline's wait-for diagnosis appended when checking is on, so a
        stalled run names who waits for whom instead of just stopping."""
        an = self.analysis
        if an.enabled:
            report = an.deadlock_report()
            if report:
                msg += "\n" + report
        return SimulationError(msg)

    def budget_error(self, max_events: int) -> SimulationError:
        """The event-budget-exhausted error, including how many events are
        still queued but unfired — a drained-vs-live queue distinguishes a
        genuine deadlock from a model that is simply still making progress.
        Lazily-cancelled corpses are excluded from the count. With the
        analysis pipeline enabled, the wait-for diagnosis is appended."""
        return self._with_wait_for(
            f"event budget exhausted ({max_events} events fired) at "
            f"t={self._now:.6g}s with {self.queue_depth} queued-but-unfired "
            f"events still pending"
        )

    def step(self) -> None:
        """Fire the single next live event (skipping cancelled entries):
        :meth:`run`'s loop with a budget of one event."""
        before = self._event_count
        self._dispatch(None, 1, False)
        if self._event_count == before:
            raise SimulationError("step() on an empty event queue")

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> float:
        """Run until the queue drains, ``until`` is reached, or the event
        budget ``max_events`` is exhausted. A budget of N lets exactly N
        events fire, then raises :meth:`budget_error`.

        An exception raised by a fired callback propagates out of ``run()``
        with the clock at that event's time and the event counted; this is
        how :meth:`run_until_complete` stops the loop on a model condition.

        Returns the simulated time at which the run stopped.
        """
        # Single comparison rejects a past (clock-rewinding) and a NaN until.
        if until is not None and not self._now <= until:
            raise SimulationError(
                f"run: until={until!r} is before now={self._now!r}")
        return self._dispatch(until, max_events, True)

    def _dispatch(self, until: Optional[float], max_events: Optional[int],
                  budget_raises: bool) -> float:
        """The engine's one event-dispatch loop, behind :meth:`run` and
        :meth:`step`: inlined lane-vs-heap selection and inlined
        :meth:`Event._fire`. An absent ``until``/``max_events`` is an
        infinite bound. The first live event past either bound is put back
        unconsumed; the loop then returns, or raises :meth:`budget_error`
        when the budget ran out and ``budget_raises`` is set.

        The only per-event observation is the tracer's ``progress_every``,
        bound once per call and tested as a local, so the null tracer and a
        ``progress_every=None`` tracer cost no per-event tracer reads.
        Progress spans fire at multiples of the engine-wide event count, so
        they land on the same events however the run is split into calls.

        Invariants this loop relies on (enforced elsewhere):

        * :meth:`schedule` rejects negative/non-finite delays and
          :meth:`run` rejects an ``until`` in the past, so popped times are
          monotone by the lane invariants — no per-event
          time-went-backwards check is needed;
        * no :class:`Event` subclass overrides ``_fire`` — its body is
          inlined here (see docs/performance.md).
        """
        if self._running:
            raise SimulationError(
                "engine is already running (re-entrant run() or step())")
        self._running = True
        heap = self._heap
        lane = self._lane
        pop = heappop
        popleft = lane.popleft
        limit = _INF if until is None else until
        budget = _INF if max_events is None else max_events
        tr = self.tracer
        every = tr.progress_every if tr.enabled else None
        fired = 0
        try:
            while True:
                # Lane-vs-heap selection, inlined (same (time, priority,
                # seq) order as _lane_first).
                if lane:
                    t = self._now
                    if heap:
                        he = heap[0]
                        ht = he[0]
                        if t < ht or (t == ht and (
                                he[1] > 0 or (he[1] == 0
                                              and lane[0]._lseq < he[2]))):
                            event = popleft()
                            from_lane = True
                        else:
                            t, prio, seq, event = pop(heap)
                            from_lane = False
                    else:
                        event = popleft()
                        from_lane = True
                elif heap:
                    t, prio, seq, event = pop(heap)
                    from_lane = False
                else:
                    break
                if event._cancelled:
                    self._cancelled -= 1
                    continue
                if t > limit or fired >= budget:
                    # not consumed: fires on a later run()/step()
                    if from_lane:
                        lane.appendleft(event)
                    else:
                        heappush(heap, (t, prio, seq, event))
                    if t > limit:
                        self._now = limit
                        return limit
                    if budget_raises:
                        raise self.budget_error(max_events)
                    return self._now
                self._now = t
                fired += 1
                if every is not None and (
                        n := self._event_count + fired) % every == 0:
                    self._progress(t, n)
                # --- inlined Event._fire() ---
                event._triggered = True
                callbacks = event.callbacks
                if callbacks:
                    event.callbacks = ()
                    try:
                        (cb,) = callbacks
                    except ValueError:
                        for cb in callbacks:
                            cb(event)
                    else:
                        cb(event)
                if event._ok is False and not event._defused:
                    raise event._value
            if until is not None and until > self._now:
                self._now = until
            return self._now
        finally:
            self._event_count += fired
            self._running = False

    def _progress(self, t: float, count: int) -> None:
        """Record the ``sim`` progress span since the previous one and the
        live queue depth, just before event number ``count`` fires."""
        tr = self.tracer
        depth = self.queue_depth
        tr.span("sim", "progress", self._progress_t0, t,
                events=count, queue_depth=depth)
        tr.counter("sim", "queue_depth", t, float(depth))
        self._progress_t0 = t

    def run_until_complete(self, processes: "Process | Iterable[Process]",
                           max_events: Optional[int] = None) -> object:
        """Run until every process in ``processes`` (one process or an
        iterable of them) has terminated, then return its value (a list of
        values for an iterable) or re-raise the first failure.

        The completion callback of the last live process stops the loop
        right after that process's event fired, so events still queued —
        pollers that never finish — do not fire. A drained queue with a
        process still alive is a deadlock: the error names the survivors
        and, with analysis on, carries the wait-for diagnosis. The hooks
        are detached however the run ends, so the engine can run on.
        """
        from repro.sim.events import Event

        single = isinstance(processes, Event)
        procs = [processes] if single else list(processes)
        live = [p for p in procs if not p.triggered]
        # Completion is counted by callback, never by scanning every
        # process per event (O(n_ranks) per event on large jobs).
        left = len(live)

        def _done(_event):
            nonlocal left
            left -= 1
            if not left:
                raise _Stop

        for p in live:
            p.add_callback(_done)
        if live:
            try:
                self.run(max_events=max_events)
            except _Stop:
                pass
            else:
                alive = [p.name for p in procs if not p.triggered]
                raise self._with_wait_for(
                    f"deadlock: event queue drained at t={self._now:.6g}s; "
                    f"still alive: {alive}")
            finally:
                for p in live:
                    if not p.triggered:
                        p.callbacks.remove(_done)
        for p in procs:
            if p.ok is False:
                raise p.value  # type: ignore[misc]
        return procs[0].value if single else [p.value for p in procs]
