"""Probes the benchmark attaches to the program from outside.

Nothing here edits the program: each probe wraps a public entry point for
the duration of a ``with`` block and restores it afterwards.

* :class:`JobProbe` wraps ``Job.run`` (to split a runner call into set-up,
  run and result assembly, and to keep the job for its record) and
  ``Cluster.register_endpoint`` (to count delivered messages).
* :class:`LayerProfile` runs ``cProfile`` and buckets self time by
  ``repro.<package>``; it also wraps the ``check`` callable handed to
  ``repro.tasking.polling.spawn_polling_service`` to count polling passes.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import sys
import time
from typing import Dict, List, Optional, Tuple

import repro
from repro.harness.runner import Job
from repro.network.topology import Cluster
import repro.tasking.polling as polling

#: per-layer self-time buckets, in report order; ``sim`` is split into the
#: engine and the rest (events, processes, context, resources)
LAYERS = ("tasking", "sim.engine", "sim.process", "harness", "network", "mpi",
          "gaspi", "core", "tampi", "collectives", "apps", "analysis",
          "trace", "perf")
_PACKAGES = {layer.split(".")[0] for layer in LAYERS}
OTHER = "other"

_REPRO_DIR = os.path.dirname(repro.__file__) + os.sep


def layer_of(filename: str) -> str:
    """Bucket of a code object's file: a :data:`LAYERS` name or ``other``
    (numpy, the stdlib, the benchmark itself and repro modules outside the
    named layers, such as ``repro.faults``)."""
    if not filename.startswith(_REPRO_DIR):
        return OTHER
    parts = filename[len(_REPRO_DIR):].split(os.sep)
    if len(parts) < 2:
        return OTHER
    pkg = parts[0]
    if pkg == "sim":
        return "sim.engine" if parts[1] == "engine.py" else "sim.process"
    return pkg if pkg in _PACKAGES else OTHER


def _layer_of_module(module: str) -> str:
    mod = sys.modules.get(module)
    return layer_of(getattr(mod, "__file__", "") or "")


class JobProbe:
    """Times the runner calls of one pass and keeps each job for checking.

    Use :meth:`call` for each runner call inside ``with probe:``; every call
    appends a :class:`JobCall`.
    """

    def __init__(self) -> None:
        self.calls: List["JobCall"] = []
        self._delivered: Dict[Cluster, int] = {}
        self._saved: List[Tuple[type, str, object]] = []

    def __enter__(self) -> "JobProbe":
        probe = self
        orig_run = Job.run
        orig_register = Cluster.register_endpoint

        def run(job, procs, *args, **kwargs):
            call = probe.calls[-1]
            call.job = job
            call.t_run0 = time.perf_counter()
            try:
                return orig_run(job, procs, *args, **kwargs)
            finally:
                call.t_run1 = time.perf_counter()

        def register_endpoint(cluster, rank, protocol, handler):
            delivered = probe._delivered
            delivered.setdefault(cluster, 0)

            def counted(msg):
                delivered[cluster] += 1
                handler(msg)

            orig_register(cluster, rank, protocol, counted)

        self._saved = [(Job, "run", orig_run),
                       (Cluster, "register_endpoint", orig_register)]
        Job.run = run
        Cluster.register_endpoint = register_endpoint
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, orig in self._saved:
            setattr(owner, name, orig)
        self._saved = []

    def call(self, name: str, fn, seed: int) -> "JobCall":
        """Run ``fn(seed)`` as job ``name``; an exception is kept on the
        returned record, never raised."""
        call = JobCall(name)
        self.calls.append(call)
        call.t0 = time.perf_counter()
        try:
            call.result = fn(seed)
        except Exception as exc:  # a failed job is counted, the run goes on
            call.error = f"{type(exc).__name__}: {exc}"
        call.t1 = time.perf_counter()
        return call

    def delivered(self, cluster: Cluster) -> int:
        return self._delivered.get(cluster, 0)

    def reset(self) -> None:
        """Drop the jobs of the previous pass, so they can be freed."""
        self.calls = []
        self._delivered = {}


class JobCall:
    """Timestamps and outcome of one runner call."""

    def __init__(self, name: str):
        self.name = name
        self.job: Optional[Job] = None
        self.result = None
        self.error: Optional[str] = None
        self.t0 = self.t1 = 0.0
        self.t_run0 = self.t_run1 = 0.0

    @property
    def setup_s(self) -> float:
        """Runner entry to ``Job.run`` entry: build_job, app state and rank
        processes."""
        return (self.t_run0 or self.t1) - self.t0

    @property
    def run_s(self) -> float:
        return self.t_run1 - self.t_run0 if self.t_run0 else 0.0


def record(call: JobCall, probe: JobProbe) -> Dict[str, float]:
    """The exact simulated record of a finished job: simulated time and the
    counts every later change must leave alone."""
    job = call.job
    m = job.metrics
    stats = job.cluster.stats
    return {
        "sim_s": call.result.sim_time,
        "events": job.engine.event_count,
        "messages": stats.messages,
        "bytes": stats.bytes,
        "delivered": probe.delivered(job.cluster),
        "tasks_created": sum(rt.stats.tasks_created for rt in job.runtimes),
        "tasks_completed": sum(rt.stats.tasks_completed
                               for rt in job.runtimes),
        "pollers": len(job.tampi) + len(job.tagaspi),
        "mpi_calls": m.get("mpi_calls", 0),
        "mpi_lock_wait_sim_s": m.get("wait_in_mpi", 0.0),
        "gaspi_submitted": m.get("gaspi_submitted", 0),
        "tagaspi_ops": m.get("tagaspi_ops", 0),
        "findings": len(job.analysis.findings) if job.analysis else 0,
    }


def check_record(rec: Dict[str, float]) -> List[str]:
    """Invariants every finished job must hold; returns the violations."""
    bad = []
    # each polling service is a task that loops until the job ends
    unfinished = rec["tasks_created"] - rec["tasks_completed"]
    if unfinished != rec["pollers"]:
        bad.append(f"{unfinished} tasks unfinished, {rec['pollers']} of "
                   "them pollers")
    if rec["delivered"] != rec["messages"]:
        bad.append(f"{rec['messages']} messages sent, "
                   f"{rec['delivered']} delivered")
    if rec["findings"]:
        bad.append(f"{rec['findings']} analysis findings")
    return bad


class LayerProfile:
    """One profiled pass: ``with LayerProfile() as prof:`` around the jobs,
    then read :attr:`self_s`, :attr:`entries` and :attr:`polls`."""

    def __init__(self) -> None:
        self.profiler = cProfile.Profile(builtins=False)
        #: layer -> self seconds (C builtins count in their caller's layer)
        self.self_s: Dict[str, float] = {}
        #: layer -> calls entering it from code outside the layer
        self.entries: Dict[str, int] = {}
        #: layer of the polling library -> [passes, work items retired]
        self.polls: Dict[str, List[int]] = {}
        #: sum of every profiled function's self time
        self.total_s = 0.0
        self.wall_s = 0.0
        self._patched: List[Tuple[object, object]] = []

    def __enter__(self) -> "LayerProfile":
        self._patch_polling()
        self._t0 = time.perf_counter()
        self.profiler.enable()
        return self

    def __exit__(self, *exc) -> None:
        self.profiler.disable()
        self.wall_s = time.perf_counter() - self._t0
        for mod, orig in self._patched:
            mod.spawn_polling_service = orig
        self._patched = []
        self._bucket()

    def _patch_polling(self) -> None:
        orig = polling.spawn_polling_service
        polls = self.polls

        def spawn(runtime, check, period_us, work=None, label="polling"):
            ctr = polls.setdefault(_layer_of_module(check.__module__), [0, 0])

            def counted_check():
                ctr[0] += 1
                check()

            if work is not None:
                retire = work.retire

                def counted_retire(n=1):
                    ctr[1] += n
                    retire(n)

                work.retire = counted_retire
            return orig(runtime, counted_check, period_us, work, label)

        # libraries import the function by name, so patch every module
        # that holds it
        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("repro")
                    and getattr(mod, "spawn_polling_service", None) is orig):
                self._patched.append((mod, orig))
                mod.spawn_polling_service = spawn

    def _bucket(self) -> None:
        st = pstats.Stats(self.profiler)
        self_s = dict.fromkeys(LAYERS + (OTHER,), 0.0)
        entries = dict.fromkeys(LAYERS, 0)
        for (filename, _line, _fn), (_cc, _nc, tt, _ct, callers) in \
                st.stats.items():
            layer = layer_of(filename)
            self_s[layer] += tt
            if layer == OTHER:
                continue
            for caller, (_ccc, cnc, _ctt, _cct) in callers.items():
                if layer_of(caller[0]) != layer:
                    entries[layer] += cnc
        self.self_s = self_s
        self.entries = entries
        self.total_s = st.total_tt
