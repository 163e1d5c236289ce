"""Cluster topology and message transport.

The cluster is a flat set of nodes on a full-bisection fabric (both machines
in the paper are fat trees with full bisection at the scales used). Each
node has one NIC modelled as two FIFO :class:`~repro.sim.serial.SerialDevice`
channels (egress, ingress). A remote message experiences::

    depart      = egress grant (serialization at src NIC)
    wire_arrive = depart.end + latency (+ jitter), clamped FIFO per
                  (src_rank, dst_rank) channel
    deliver     = ingress grant at dst NIC, granted in wire-arrival order

Node-local messages bypass the NIC and use the shared-memory latency and
copy bandwidth.

The ingress NIC is *receiver-ordered*: the sender only computes the wire
arrival time and enqueues a timestamped record on the destination node's
``pending`` heap; a per-node wake event fires at the earliest pending
arrival and grants the ingress device in global ``(wire_arrive, src_node,
send#)`` order. That order is a pure function of the record set: it does
not depend on how sends from different nodes interleave in the engine.

Delivery order is forced to be monotone per (src_rank, dst_rank) even under
jitter — a strictly stronger guarantee than GASPI's per-(queue, target)
ordering, and what real fabrics provide per virtual channel. The clamp is
applied to ``wire_arrive`` on the sender side, so the receiver-side grant
scan sees per-channel non-decreasing arrivals and needs no delivery floor.

Faulted and fault-free traffic share this one path: an installed
:class:`~repro.faults.FaultInjector` decides each transmission's fate
(drop, duplicate, reorder) at its egress grant end in :meth:`_transmit`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.sim.engine import Engine, SimulationError
from repro.sim.events import Event
from repro.sim.serial import SerialDevice
from repro.network.fabric import Fabric
from repro.network.message import Message

DeliveryHandler = Callable[[Message], None]

_INF = float("inf")

#: A wire record: ``(wire_arrive, src_node, send#, ser, msg, local_done)``.
#: ``send#`` is the source node's monotone out-counter, so the first three
#: fields are unique per record and heap comparisons never reach ``msg``.
WireRecord = Tuple[float, int, int, float, Message, float]


@dataclass
class NetworkStats:
    """Aggregate transport statistics (per cluster)."""

    messages: int = 0
    control_messages: int = 0
    bytes: int = 0
    intra_messages: int = 0
    total_transit_time: float = 0.0

    def mean_transit(self) -> float:
        return self.total_transit_time / self.messages if self.messages else 0.0


class Node:
    """A compute node: identity plus its NIC serialization state.

    ``pending`` holds :data:`WireRecord` tuples not yet granted the ingress
    device; ``wake_ev``/``wake_time`` track the single scheduled drain wake
    (at the heap head's arrival time). ``out_cnt`` is this node's monotone
    *send* counter (stamped into outgoing records as the tiebreaker), and
    ``transit_time`` is this node's share of the cluster transit-time sum,
    accumulated in its own drain order and summed in node order.
    """

    __slots__ = ("node_id", "egress", "ingress", "pending", "wake_ev",
                 "wake_time", "out_cnt", "transit_time")

    def __init__(self, engine: Engine, node_id: int):
        self.node_id = node_id
        self.egress = SerialDevice(engine, f"node{node_id}.egress")
        self.ingress = SerialDevice(engine, f"node{node_id}.ingress")
        self.pending: List[WireRecord] = []
        self.wake_ev: Optional[Event] = None
        self.wake_time: float = _INF
        self.out_cnt = 0
        self.transit_time = 0.0


class Cluster:
    """Nodes + rank placement + message transport.

    Parameters
    ----------
    engine:
        The simulation engine.
    n_nodes:
        Number of compute nodes.
    fabric:
        The interconnect model.
    rng:
        Seeded generator used for latency jitter; ``None`` disables jitter
        regardless of the fabric's jitter parameters.
    """

    def __init__(
        self,
        engine: Engine,
        n_nodes: int,
        fabric: Fabric,
        rng: Optional[np.random.Generator] = None,
    ):
        if n_nodes < 1:
            raise ValueError("need at least one node")
        self.engine = engine
        self.fabric = fabric
        self.rng = rng
        # One jitter stream per *source node*, spawned deterministically
        # from the seed stream: a node's draws depend only on its own send
        # order.
        self._jitter_rngs = None if rng is None else rng.spawn(n_nodes)
        self.nodes: List[Node] = [Node(engine, i) for i in range(n_nodes)]
        self._stats = NetworkStats()
        self._rank_node: Dict[int, int] = {}
        self._endpoints: Dict[Tuple[int, str], DeliveryHandler] = {}
        # last node-local delivery time per (src_rank, dst_rank): FIFO guard
        self._channel_clock: Dict[Tuple[int, int], float] = {}
        # last *wire arrival* per (src_rank, dst_rank): sender-side clamp
        # that keeps the channel FIFO under jitter before records are
        # enqueued (receiver-side drains then see monotone channels)
        self._wire_clock: Dict[Tuple[int, int], float] = {}
        #: installed by repro.faults.FaultInjector.install(); None = perfect
        #: fabric (no fate draws, no degradation factors)
        self.injector = None
        # duplicated messages in flight: uid -> "first copy delivered", for
        # the receiver-side NIC dedup in the drain
        self._dups: Dict[int, bool] = {}
        # cluster-local edge ids for traced send->deliver causality; msg.uid
        # is process-global (never exported), so the tracer gets its own
        # deterministic counter plus a transient uid->eid map
        self._next_edge_id = 0
        self._edge_ids: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # stats
    # ------------------------------------------------------------------
    @property
    def stats(self) -> NetworkStats:
        """Aggregate transport statistics.

        Counters live in ``_stats``; transit time is accumulated per
        *destination node* and summed here in node order.
        """
        st = self._stats
        total = st.total_transit_time
        for nd in self.nodes:
            total += nd.transit_time
        return NetworkStats(
            messages=st.messages,
            control_messages=st.control_messages,
            bytes=st.bytes,
            intra_messages=st.intra_messages,
            total_transit_time=total,
        )

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def place_rank(self, rank: int, node_id: int) -> None:
        if not 0 <= node_id < len(self.nodes):
            raise ValueError(f"node {node_id} out of range")
        if rank in self._rank_node:
            raise SimulationError(f"rank {rank} already placed")
        self._rank_node[rank] = node_id

    def place_ranks_block(self, n_ranks: int, ranks_per_node: int) -> None:
        """Place ranks 0..n_ranks-1 in contiguous blocks of
        ``ranks_per_node`` per node (the paper's layout on both machines)."""
        if n_ranks > len(self.nodes) * ranks_per_node:
            raise ValueError(
                f"{n_ranks} ranks do not fit on {len(self.nodes)} nodes "
                f"at {ranks_per_node}/node"
            )
        for r in range(n_ranks):
            self.place_rank(r, r // ranks_per_node)

    def node_of(self, rank: int) -> int:
        try:
            return self._rank_node[rank]
        except KeyError:
            raise SimulationError(f"rank {rank} was never placed") from None

    @property
    def n_ranks(self) -> int:
        return len(self._rank_node)

    def ranks_on_node(self, node_id: int) -> List[int]:
        return sorted(r for r, n in self._rank_node.items() if n == node_id)

    # ------------------------------------------------------------------
    # endpoints
    # ------------------------------------------------------------------
    def register_endpoint(self, rank: int, protocol: str, handler: DeliveryHandler) -> None:
        key = (rank, protocol)
        if key in self._endpoints:
            raise SimulationError(f"endpoint {key} registered twice")
        self._endpoints[key] = handler

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    def send(self, msg: Message, depart_delay: float = 0.0) -> float:
        """Inject ``msg``; returns the *local completion* time, i.e. when the
        source buffer has fully left the source (NIC serialization done for
        remote messages, copy done for local ones).

        ``depart_delay`` postpones injection past "now" — used by substrates
        whose (virtual) lock wait delays the actual hardware doorbell.
        """
        eng = self.engine
        now = eng.now + depart_delay
        msg.injected_at = now
        an = eng.analysis
        if an.enabled:
            an.on_msg_send(msg)
        tr0 = eng.tracer
        if tr0.enabled:
            eid = self._next_edge_id
            self._next_edge_id = eid + 1
            self._edge_ids[msg.uid] = eid
            meta = msg.meta or {}
            extra = {}
            if "tag" in meta:
                extra["tag"] = meta["tag"]
            if "notif_id" in meta:
                extra["notif_id"] = meta["notif_id"]
            tr0.instant("net", "msg_send", now, rank=msg.src_rank,
                        dst=msg.dst_rank, protocol=msg.protocol,
                        kind=msg.kind, nbytes=msg.nbytes, eid=eid, **extra)
        src_node = self.node_of(msg.src_rank)
        dst_node = self.node_of(msg.dst_rank)
        st = self._stats
        st.messages += 1
        st.bytes += msg.nbytes
        if msg.nbytes <= 64:
            st.control_messages += 1

        if src_node == dst_node:
            fab = self.fabric
            copy_time = fab.serialization(msg.nbytes, intra=True)
            local_done = now + copy_time
            arrive = local_done + fab.base_latency(intra=True)

            # FIFO per (src_rank, dst_rank): never deliver before an
            # earlier send.
            chan = (msg.src_rank, msg.dst_rank)
            floor = self._channel_clock.get(chan, 0.0)
            if arrive < floor:
                arrive = floor
            self._channel_clock[chan] = arrive

            st.intra_messages += 1
            self.nodes[dst_node].transit_time += arrive - now

            tr = eng.tracer
            if tr.enabled:
                tr.span("net", f"{msg.protocol}.{msg.kind}", now, arrive,
                        rank=msg.src_rank, dst=msg.dst_rank,
                        nbytes=msg.nbytes, intra=True,
                        local_done=local_done)

            ev = eng.event()
            ev.add_callback(lambda _ev: self._deliver(msg))
            ev.succeed(delay=arrive - eng.now)
            return local_done

        return self._transmit(msg, now, src_node, dst_node)

    def _transmit(self, msg: Message, at: float, src_node: int, dst_node: int,
                  attempt: int = 0, is_copy: bool = False) -> float:
        """One wire transmission of ``msg`` starting no earlier than ``at``.

        The sender computes the egress grant and the wire arrival and
        enqueues a record; the receiver's drain grants the ingress NIC.
        Returns the egress grant end: the source buffer has left the host,
        and the NIC keeps its own copy for retransmission, so a drop never
        stalls the sender, only the delivery.
        """
        fab = self.fabric
        inj = self.injector
        bw_factor = fab.cost(f"{msg.protocol}.bw_factor", 1.0)
        ser = fab.serialization(msg.nbytes, intra=False) / bw_factor
        if inj is not None:
            ser *= inj.serialization_factor(src_node, dst_node, at)
        src = self.nodes[src_node]
        t_wire = src.egress.use(ser, at=at).end
        fate = "ok"
        if inj is not None:
            fate = self._fate(msg, src_node, dst_node, t_wire, attempt, is_copy)
            if fate == "drop":
                return t_wire
        latency = (
            fab.base_latency(intra=False)
            + fab.cost(f"{msg.protocol}.lat_extra", 0.0)
            + self._jitter(msg.protocol, src_node)
        )
        if inj is not None:
            latency *= inj.latency_factor(src_node, dst_node, t_wire)
            if fate == "reorder":
                latency += inj.reorder_extra()
        wire_arrive = t_wire + latency
        if fate != "reorder":
            # The wire keeps per-(src_rank, dst_rank) FIFO order even under
            # jitter: a later injection never arrives first. A reordered
            # message escapes the clamp and does not raise it, so later
            # traffic overtakes it (that is the fault).
            chan = (msg.src_rank, msg.dst_rank)
            wfloor = self._wire_clock.get(chan, 0.0)
            if wire_arrive < wfloor:
                wire_arrive = wfloor
            self._wire_clock[chan] = wire_arrive
        cnt = src.out_cnt
        src.out_cnt = cnt + 1
        self._enqueue_record(
            dst_node, (wire_arrive, src_node, cnt, ser, msg, t_wire)
        )
        if fate == "duplicate":
            # a ghost copy follows on the wire; the receiver NIC dedups it
            self._dups[msg.uid] = False
            self._transmit(msg, t_wire, src_node, dst_node, attempt,
                           is_copy=True)
        return t_wire

    # ------------------------------------------------------------------
    # receiver-ordered ingress
    # ------------------------------------------------------------------
    def _enqueue_record(self, dst_node: int, rec: WireRecord) -> None:
        node = self.nodes[dst_node]
        heappush(node.pending, rec)
        if rec[0] < node.wake_time:
            self._arm_wake(node, rec[0])

    def _arm_wake(self, node: Node, w: float) -> None:
        """(Re)schedule ``node``'s drain wake at arrival time ``w``."""
        old = node.wake_ev
        if old is not None:
            old.cancel()
        eng = self.engine
        ev = Event.__new__(Event)
        ev.engine = eng
        ev.callbacks = [self._drain_event]
        ev._triggered = False
        ev._ok = True
        ev._value = node
        ev._scheduled = True
        ev._defused = False
        ev._cancelled = False
        eng.schedule_at(ev, w)
        node.wake_ev = ev
        node.wake_time = w

    def _drain_event(self, ev: Event) -> None:
        self._drain(ev._value)

    def _drain(self, node: Node) -> None:
        """Grant the ingress NIC to every record that has reached the wire.

        Runs at the pending heap head's exact arrival time and pops only
        records with ``wire_arrive <= now``: a send executed later may
        still enqueue a record that arrives before the remaining ones.
        Popping in heap order makes the global ingress grant sequence
        ``(wire_arrive, src_node, send#)``-sorted, a pure function of the
        record set. Each granted record is scheduled with
        :meth:`Engine.schedule_at` at its exact delivery time, in drain
        order, so the block takes consecutive ``seq`` numbers. The second
        copy of a duplicated message is granted the NIC but not delivered.
        """
        eng = self.engine
        now = eng.now
        node.wake_ev = None
        node.wake_time = _INF
        pending = node.pending
        ingress = node.ingress
        dups = self._dups
        tr = eng.tracer
        transit = node.transit_time
        schedule_at = eng.schedule_at
        new = Event.__new__
        while pending and pending[0][0] <= now:
            w, _src, _cnt, ser, msg, local_done = heappop(pending)
            arrive = ingress.use(ser, at=w).end
            if dups and msg.uid in dups and self._suppress_ghost(msg, arrive):
                continue
            transit += arrive - msg.injected_at
            if tr.enabled:
                tr.span("net", f"{msg.protocol}.{msg.kind}",
                        msg.injected_at, arrive, rank=msg.src_rank,
                        dst=msg.dst_rank, nbytes=msg.nbytes, intra=False,
                        local_done=local_done)
            ev = new(Event)
            ev.engine = eng
            ev.callbacks = [self._deliver_event]
            ev._triggered = False
            ev._ok = True
            ev._value = msg
            ev._scheduled = True
            ev._defused = False
            ev._cancelled = False
            schedule_at(ev, arrive)
        node.transit_time = transit
        if pending:
            self._arm_wake(node, pending[0][0])

    def _deliver_event(self, ev) -> None:
        """Delivery callback of the ingress drain: the message rides in the
        event's value slot instead of a per-message closure."""
        self._deliver(ev._value)

    def _deliver(self, msg: Message) -> None:
        msg.delivered_at = self.engine.now
        an = self.engine.analysis
        if an.enabled:
            an.on_msg_deliver(msg)
        tr = self.engine.tracer
        if tr.enabled:
            eid = self._edge_ids.pop(msg.uid, None)
            if eid is not None:
                tr.instant("net", "msg_deliver", self.engine.now,
                           rank=msg.dst_rank, src=msg.src_rank,
                           protocol=msg.protocol, kind=msg.kind, eid=eid)
        handler = self._endpoints.get((msg.dst_rank, msg.protocol))
        if handler is None:
            raise SimulationError(
                f"no {msg.protocol!r} endpoint at rank {msg.dst_rank} for {msg!r}"
            )
        handler(msg)

    # ------------------------------------------------------------------
    # fault fates (repro.faults)
    # ------------------------------------------------------------------
    def _fate(self, msg: Message, src_node: int, dst_node: int, t_wire: float,
              attempt: int, is_copy: bool) -> str:
        """Decide a transmission's fate the instant it hits the wire:
        ``"ok"``, ``"drop"``, ``"duplicate"`` or ``"reorder"``. A dropped
        transmission is scheduled for NIC retransmission (or recorded lost)
        here; it enqueues no wire record."""
        inj = self.injector
        if inj.partitioned(src_node, dst_node, t_wire):
            inj.stats.partition_dropped += 1
            fate = "drop"
            self._trace_fault(msg, "partition_drop", t_wire, attempt)
        else:
            fate = inj.wire_fate(msg, attempt, is_copy)
            if fate != "ok":
                self._trace_fault(msg, fate, t_wire, attempt)
        if fate == "drop":
            plan = inj.plan
            if plan.nic_ack and attempt < plan.max_retransmits:
                # the sender NIC notices the missing ack after an RTO and
                # retransmits with exponential backoff
                eng = self.engine
                retry_at = t_wire + inj.backoff_delay(attempt)
                ev = eng.event()
                ev.add_callback(
                    lambda _ev: self._retransmit(msg, src_node, dst_node,
                                                 attempt + 1)
                )
                ev.succeed(delay=retry_at - eng.now)
            else:
                inj.stats.lost += 1
                inj.report.record(t_wire, "net", "lost", rank=msg.src_rank,
                                  dst=msg.dst_rank, msg_kind=msg.kind,
                                  uid=msg.uid, attempts=attempt + 1)
        return fate

    def _retransmit(self, msg: Message, src_node: int, dst_node: int,
                    attempt: int) -> None:
        now = self.engine.now
        self.injector.stats.retransmits += 1
        self._trace_fault(msg, "retransmit", now, attempt)
        self._transmit(msg, now, src_node, dst_node, attempt)

    def _suppress_ghost(self, msg: Message, arrive: float) -> bool:
        """Receiver-NIC dedup of a duplicated message, in drain order: the
        first copy granted the ingress NIC is delivered; the second has
        occupied the NIC but adds no transit time and reaches no endpoint
        (so, e.g., a notification is never double-posted)."""
        dups = self._dups
        if not dups[msg.uid]:
            dups[msg.uid] = True
            return False
        del dups[msg.uid]
        self.injector.stats.dup_suppressed += 1
        self._trace_fault(msg, "dup_suppressed", arrive, 0)
        return True

    def _trace_fault(self, msg: Message, what: str, t: float, attempt: int) -> None:
        tr = self.engine.tracer
        if tr.enabled:
            # note: no msg.uid here — uids are process-global, and traces
            # must stay byte-identical across same-seed runs
            tr.instant("faults", what, t, rank=msg.src_rank, dst=msg.dst_rank,
                       kind=msg.kind, attempt=attempt)

    def _jitter(self, protocol: str, src_node: int) -> float:
        rngs = self._jitter_rngs
        if rngs is None:
            return 0.0
        rel = self.fabric.cost(f"{protocol}.jitter", 0.0)
        if rel <= 0.0:
            return 0.0
        # Lognormal noise scaled to the base latency; mean ≈ 0 shift so the
        # configured latency stays the central value. Drawn from the source
        # node's own spawned stream: the draw sequence then depends only on
        # that node's send order.
        base = self.fabric.latency
        sigma = rel
        sample = rngs[src_node].lognormal(mean=0.0, sigma=sigma)
        return base * (sample - 1.0) if sample > 1.0 else 0.0
