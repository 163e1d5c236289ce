#!/usr/bin/env python3
"""Host-time benchmark of the paper's simulated jobs, split by layer.

Run from the repository root::

    python3 perfbench/run.py --workload gs-tasks --seed 1 --seconds 20 --trace 0

See perfbench/README.md for the workloads, metrics and predictions. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
environment and each job's exact simulated record.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time

import calibration

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: settings that would route a run to another engine, shard it, fan it out
#: to a pool or serve it from the result cache; cleared before ``repro`` loads
CLEARED_ENV = ("REPRO_ENGINE", "REPRO_SHARDS", "REPRO_SWEEP_WORKERS",
               "REPRO_CACHE_DIR")
#: one process and one thread: no BLAS thread pools
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

DEFAULT_SEED = 1
#: passes timed per run at the least, however long one pass takes
MIN_PASSES = 3
#: record fields a repeated job must reproduce exactly
EXACT_FIELDS = ("sim_s", "events", "messages", "bytes", "tasks_created",
                "tasks_completed", "mpi_calls", "mpi_lock_wait_sim_s",
                "gaspi_submitted", "tagaspi_ops")


def _git_revision() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as f:
            return f.read().strip()
    except OSError:
        return "unknown"


class Run:
    """Outcome counts and failure messages of one benchmark run."""

    def __init__(self, jobs, seed: int):
        self.jobs = jobs
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.twin_failures = {}
        self.reference = {}
        self.engine = None

    def run_twins(self) -> None:
        for jd in self.jobs:
            try:
                jd.twin(self.seed)
            except Exception as exc:  # recorded; the job counts as failed
                self.twin_failures[jd.name] = f"{type(exc).__name__}: {exc}"
                self.problems.append(
                    f"twin {jd.name}: {self.twin_failures[jd.name]}")

    def run_pass(self, probe, label: str, profile=None):
        """Run every job once; check each against the invariants and the
        first pass's record. Untraced passes bracket each job with a
        calibration sample; a traced pass runs inside ``profile``. Returns
        one :class:`Timing` per job."""
        from probes import check_record, record

        # free the previous pass's jobs here, not inside the measured span
        probe.reset()
        gc.collect()
        speeds = []
        with profile or contextlib.nullcontext():
            for jd in self.jobs:
                before = None if profile else calibration.sample()
                probe.call(jd.name, jd.run, self.seed)
                if before is not None:
                    speeds.append((before + calibration.sample()) / 2)
        timings = []
        for i, call in enumerate(probe.calls):
            scale = calibration.REFERENCE_S / speeds[i] if speeds else 1.0
            timings.append(Timing(call, scale))
            self.attempted += 1
            bad = []
            if call.error is not None:
                bad.append(call.error)
            else:
                self.engine = type(call.job.engine).__name__
                rec = record(call, probe)
                bad += check_record(rec)
                ref = self.reference.setdefault(call.name, rec)
                bad += [f"{k} {rec[k]!r} != first pass {ref[k]!r}"
                        for k in EXACT_FIELDS if rec[k] != ref[k]]
            if call.name in self.twin_failures:
                bad.append("twin check failed")
            if bad:
                self.failed += 1
                self.problems.append(f"{label} {call.name}: "
                                     + "; ".join(bad))
        probe.reset()
        return timings


class Timing:
    """One job's times in a pass, in reference-speed seconds (``raw_*`` as
    measured)."""

    def __init__(self, call, scale: float):
        self.name = call.name
        self.raw_setup_s = call.setup_s
        self.raw_run_s = call.run_s
        self.raw_wall_s = call.t1 - call.t0
        self.setup_s = scale * self.raw_setup_s
        self.run_s = scale * self.raw_run_s
        self.wall_s = scale * self.raw_wall_s


def _median(values):
    return statistics.median(values) if values else 0.0


def _pass_median(passes, attr: str) -> float:
    """Median over passes of a time summed over the pass's jobs."""
    return _median([sum(getattr(t, attr) for t in ts) for ts in passes])


def _layer_metrics(run: Run, passes, traced, job_names):
    """The ``--trace 1`` metrics: per-layer self time and entry counts from
    the profiled passes, exact counts from the job records, per-job times
    from the untraced passes."""
    from probes import LAYERS, OTHER

    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    recs = list(run.reference.values())

    def total(field):
        return sum(r[field] for r in recs)

    for name in job_names:
        times = [t.run_s for ts in passes for t in ts if t.name == name]
        put(f"job.{name}.run_s", _median(times), "s")
        ref = run.reference.get(name)
        put(f"job.{name}.sim_s", ref["sim_s"] if ref else 0.0, "s")

    self_s = {k: statistics.fmean(p.self_s[k] for p in traced)
              for k in LAYERS + (OTHER,)}
    for k, v in self_s.items():
        put(f"{k}.self_s", v, "s")
    for k in LAYERS:
        put(f"{k}.entries", traced[0].entries[k], "count")

    events = total("events")
    tasks = total("tasks_completed")
    messages = total("messages")
    put("sim.events", events, "count")
    put("sim.us_per_event",
        1e6 * (self_s["sim.engine"] + self_s["sim.process"]) / events
        if events else 0.0, "us")
    put("tasking.tasks", tasks, "count")
    put("tasking.events_per_task", events / tasks if tasks else 0.0, "count")
    put("tasking.us_per_task",
        1e6 * self_s["tasking"] / tasks if tasks else 0.0, "us")
    put("network.messages", messages, "count")
    put("network.bytes", total("bytes"), "B")
    put("network.events_per_message",
        events / messages if messages else 0.0, "count")
    put("network.us_per_message",
        1e6 * self_s["network"] / messages if messages else 0.0, "us")
    put("mpi.calls", total("mpi_calls"), "count")
    put("mpi.lock_wait_sim_s", total("mpi_lock_wait_sim_s"), "s")
    put("gaspi.submitted", total("gaspi_submitted"), "count")
    put("core.ops", total("tagaspi_ops"), "count")
    for layer in ("tampi", "core"):
        polls, done = traced[0].polls.get(layer, (0, 0))
        put(f"{layer}.polls", polls, "count")
        put(f"{layer}.completions_per_poll", done / polls if polls else 0.0,
            "count")
    put("analysis.findings", total("findings"), "count")
    wall = _pass_median(passes, "raw_wall_s")
    put("trace.overhead",
        statistics.fmean(p.wall_s for p in traced) / wall if wall else 0.0,
        "ratio")
    return out


def _check_traced(run: Run, traced) -> None:
    """Self-check of the profiled passes: the buckets cover the profiled
    time, and the exact counts repeat between passes."""
    for i, p in enumerate(traced):
        covered = sum(p.self_s.values())
        if abs(covered - p.total_s) > 1e-9 * max(1.0, p.total_s):
            run.problems.append(f"traced pass {i}: layers sum to "
                                f"{covered!r}s, profiled time is "
                                f"{p.total_s!r}s")
    first = traced[0]
    for i, p in enumerate(traced[1:], 1):
        if p.entries != first.entries:
            run.problems.append(f"traced pass {i}: layer entries "
                                f"{p.entries} != {first.entries}")
        if p.polls != first.polls:
            run.problems.append(f"traced pass {i}: polls {p.polls} != "
                                f"{first.polls}")


def main(argv=None) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no repro package under {SRC}; run from a full "
              "checkout", file=sys.stderr)
        return 2
    cleared = [k for k in CLEARED_ENV if os.environ.pop(k, None) is not None]
    for k in THREAD_ENV:
        os.environ[k] = "1"
    sys.path.insert(0, SRC)
    from probes import JobProbe, LayerProfile
    from workloads import JOB_NAMES, WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help="JobSpec.seed of every job (default %(default)s; "
                         "held-out seed for re-checking claims: 7)")
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="how long the untraced passes run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="0: end-to-end metrics; 1: per-layer metrics")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    run = Run(WORKLOADS[args.workload], args.seed)
    run.run_twins()
    passes = []
    traced = []
    with JobProbe() as probe:
        # the first pass warms caches and lazy imports and fixes the exact
        # record later passes must repeat; it is not timed
        run.run_pass(probe, "pass 0")
        deadline = time.perf_counter() + args.seconds
        while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
            passes.append(run.run_pass(probe, f"pass {len(passes) + 1}"))
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.trace:
            for i in range(2):
                traced.append(LayerProfile())
                run.run_pass(probe, f"traced pass {i}", traced[-1])

    if args.trace:
        _check_traced(run, traced)
        metrics = _layer_metrics(run, passes, traced, JOB_NAMES)
    else:
        metrics = {k: {"value": _pass_median(passes, k), "unit": "s"}
                   for k in ("setup_s", "run_s", "wall_s")}
        metrics["peak_rss_mb"] = {"value": rss_mb, "unit": "MB"}

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "timed_passes": len(passes),
        "engine": run.engine,
        "raw_s": {k: _pass_median(passes, "raw_" + k)
                  for k in ("setup_s", "run_s", "wall_s")},
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git": _git_revision(),
        "cleared_env": cleared,
        "records": run.reference,
        "problems": run.problems[:20],
    }
    if traced:
        info["profiled_share"] = [p.total_s / p.wall_s for p in traced]
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
