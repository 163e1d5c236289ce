"""Deterministic, seeded fault injection and recovery.

The GASPI specification the paper builds on is explicitly timeout-based so
applications can survive link and process failures: every wait primitive
takes a timeout, and failures surface through error codes and the
``gaspi_state_vec_get`` health vector. This package adds that failure
dimension to the simulation:

* :class:`FaultPlan` — a frozen, declarative scenario: probabilistic and
  scripted message drop/duplication/reorder at the NIC, time-windowed link
  degradation and partitions, node stalls, and the retransmission /
  recovery parameters.
* :class:`FaultInjector` — executes a plan against one cluster, drawing all
  randomness from a ``repro.sim.rng`` stream so faulted runs are a pure
  function of ``(plan, seed)``; it decides message fates on the one wire
  path, so a plan that injects nothing is bit-identical to no plan.
* :class:`RecoveryPolicy` — what TAGASPI (purge + re-submit, bounded
  retries) and TAMPI (release) do about operations that time out.
* :class:`FaultReport` / :class:`FaultAbort` — structured post-mortem of a
  faulted run, raised on unrecoverable exhaustion when requested.

See ``docs/faults.md`` for the fault model and a sweep walkthrough.
"""

from repro.faults.injector import FaultInjector, FaultStats
from repro.faults.plan import (
    FaultPlan,
    FaultPlanError,
    LinkDegradation,
    NodeStall,
    Partition,
    RecoveryPolicy,
    ScriptedFault,
)
from repro.faults.report import FaultAbort, FaultEvent, FaultReport

__all__ = [
    "FaultPlan",
    "FaultPlanError",
    "LinkDegradation",
    "Partition",
    "NodeStall",
    "ScriptedFault",
    "RecoveryPolicy",
    "FaultInjector",
    "FaultStats",
    "FaultReport",
    "FaultEvent",
    "FaultAbort",
]
