"""Fabric parameterization.

A :class:`Fabric` is a pure-data description of interconnect behaviour. All
times are seconds, all sizes bytes, bandwidths bytes/second.

The ``sw`` table carries per-protocol software costs. Keys used by the
substrates:

``mpi.call``
    CPU time an MPI call (Isend/Irecv/Test/Testsome/Wait entry) spends
    inside the library *holding the global lock* under
    ``MPI_THREAD_MULTIPLE``. This single number drives the paper's §VI-C
    contention analysis.
``mpi.match``
    Receiver-side matching cost added to a two-sided message's completion.
``mpi.eager_threshold``
    Messages at most this size use the eager protocol; larger ones use
    rendezvous (RTS → CTS → data), which costs an extra round trip.
``mpi.rma_put`` / ``mpi.rma_flush_rtt``
    One-sided MPI costs; flush pays an acknowledgement round trip
    (Belli & Hoefler 2015, discussed in paper §III).
``gaspi.op``
    CPU time a GASPI operation submission spends holding its *queue* lock.
    Orders of magnitude less contended than ``mpi.call`` because queues are
    multiplexed per connection rather than per process.
``gaspi.notify``
    Extra wire payload-free notification handling cost at the target.
``mpi.jitter`` / ``gaspi.jitter``
    Relative standard deviation of lognormal latency noise per protocol
    (CTE-AMD's Open MPI showed much higher run-to-run variability in the
    paper's Fig. 13 error bars).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict


@dataclass(frozen=True)
class Fabric:
    """Interconnect + communication-software cost model."""

    name: str
    #: base one-way latency between two different nodes (seconds)
    latency: float
    #: per-NIC bandwidth (bytes/second); egress and ingress are separate
    bandwidth: float
    #: one-way latency between ranks on the same node (shared memory path)
    intra_latency: float
    #: shared-memory copy bandwidth for node-local messages
    intra_bandwidth: float
    #: per-message NIC occupancy (packet processing), seconds — the
    #: message-rate limit that makes many small messages from many ranks
    #: on one node far worse than few large ones
    msg_overhead: float = 0.0
    #: per-protocol software costs, see module docstring
    sw: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.latency < 0 or self.intra_latency < 0:
            raise ValueError("latencies must be non-negative")
        if self.bandwidth <= 0 or self.intra_bandwidth <= 0:
            raise ValueError("bandwidths must be positive")

    def cost(self, key: str, default: float = 0.0) -> float:
        """Look up a software cost with a default."""
        return self.sw.get(key, default)

    def serialization(self, nbytes: int, intra: bool) -> float:
        """Wire/copy occupancy time for a message of ``nbytes``."""
        if intra:
            return nbytes / self.intra_bandwidth
        return self.msg_overhead + nbytes / self.bandwidth

    def base_latency(self, intra: bool) -> float:
        return self.intra_latency if intra else self.latency

    def with_costs(self, **overrides: float) -> "Fabric":
        """Return a copy with some ``sw`` entries replaced (ablations)."""
        sw = dict(self.sw)
        sw.update(overrides)
        return replace(self, sw=sw)
