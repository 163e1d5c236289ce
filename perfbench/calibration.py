"""Host-speed calibration for the benchmark's timings.

On a shared host the interpreter's speed drifts by 10-30% within seconds
(frequency changes and neighbours contending for cores and caches), which is
more than the regressions the benchmark must catch. Each timed job is
therefore bracketed by :func:`sample`, a fixed pure-Python kernel shaped like
the simulator's hot path (a heap of timestamped events, generator resumes,
small-object allocation and a 50k-key dict working set),
and its times are scaled by ``REFERENCE_S / sample``: seconds at the speed at
which the kernel takes :data:`REFERENCE_S`.

The kernel imports nothing from the program, so a change to the program
cannot move it. Keep it frozen: editing it re-bases every timed metric.
"""

from __future__ import annotations

import heapq
import statistics
import time

#: median kernel time on the reference host (2-core x86-64 VM, Python 3.11)
REFERENCE_S = 0.011

_PROCS = 400
_STEPS = 12
_KEYS = 50021


class _Event:
    __slots__ = ("owner", "callbacks")

    def __init__(self, owner):
        self.owner = owner
        self.callbacks = []


def _proc(steps: int, state: dict, k: int):
    acc = 0
    for i in range(steps):
        key = (k * 7919 + i * 104729) % _KEYS
        acc += state.get(key, 0)
        state[key] = acc & 0xFFFF
        yield (i * 7919 + k) % 13 + 1


def kernel() -> float:
    """Run the kernel once; returns its duration in seconds."""
    state: dict = {}
    heap = [(0.0, seq, _Event(_proc(_STEPS, state, seq)))
            for seq in range(_PROCS)]
    seq = _PROCS
    fired = []
    t0 = time.perf_counter()
    while heap:
        now, _, ev = heapq.heappop(heap)
        try:
            delay = next(ev.owner)
        except StopIteration:
            continue
        seq += 1
        nxt = _Event(ev.owner)
        ev.callbacks.append(nxt)
        fired.append(ev)
        heapq.heappush(heap, (now + delay, seq, nxt))
    return time.perf_counter() - t0


def sample(reps: int = 3) -> float:
    """Median of ``reps`` kernel runs: the host's current speed."""
    return statistics.median(kernel() for _ in range(reps))
