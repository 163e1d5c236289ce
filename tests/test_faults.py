"""Tests for repro.faults: injection, failure semantics, and recovery.

Covers the fault plan validation, every wire-level fault class (drop with
NIC retransmission, loss, duplication with receiver dedup, reordering,
partitions, node stalls), the GASPI timeout/health/purge semantics, the
MPI eager-retransmit and rendezvous-retry paths, and the TAGASPI/TAMPI
recovery policies (re-submit, release, abort).
"""

import numpy as np
import pytest

from repro.core import TAGASPI
from repro.faults import (
    FaultAbort,
    FaultInjector,
    FaultPlan,
    FaultPlanError,
    LinkDegradation,
    NodeStall,
    Partition,
    RecoveryPolicy,
    ScriptedFault,
)
from repro.gaspi import (
    GASPI_ERR_TIMEOUT,
    GaspiContext,
    GaspiQueueError,
    GaspiTimeout,
)
from repro.harness import MARENOSTRUM4, fault_sweep_table, run_variants
from repro.mpi import MPIContext, MPIProcDriver
from repro.network import Cluster, INFINIBAND, OMNIPATH
from repro.sim import Engine, derive_rng
from repro.tampi import TAMPI
from repro.tasking import In, Out, Runtime, RuntimeConfig
from tests.conftest import run_all


def make_cluster(plan=None, n_nodes=2, fabric=OMNIPATH, seed=1):
    """Two single-rank nodes with an optional installed fault injector."""
    eng = Engine()
    cl = Cluster(eng, n_nodes, fabric)
    cl.place_ranks_block(n_nodes, 1)
    inj = None
    if plan is not None:
        inj = FaultInjector(plan, eng, rng=derive_rng(seed, "faults"))
        inj.install(cl)
    return eng, cl, inj


def make_gaspi(plan=None, n_queues=4, **kw):
    eng, cl, inj = make_cluster(plan, **kw)
    return eng, GaspiContext(cl, n_queues=n_queues), inj


# ---------------------------------------------------------------------------
# plan validation and emptiness
# ---------------------------------------------------------------------------
class TestFaultPlan:
    def test_probabilities_validated(self):
        with pytest.raises(FaultPlanError):
            FaultPlan(drop_prob=1.5)
        with pytest.raises(FaultPlanError):
            FaultPlan(dup_prob=-0.1)

    def test_degradation_validated(self):
        with pytest.raises(FaultPlanError):
            LinkDegradation(t0=0.0, t1=1.0, latency_factor=0.5)
        with pytest.raises(FaultPlanError):
            LinkDegradation(t0=0.0, t1=1.0, bandwidth_factor=0.0)
        with pytest.raises(FaultPlanError):
            LinkDegradation(t0=1.0, t1=0.5)

    def test_scripted_action_validated(self):
        with pytest.raises(FaultPlanError):
            ScriptedFault(action="corrupt", src_rank=0, dst_rank=1)

    def test_recovery_policy_validated(self):
        with pytest.raises(FaultPlanError):
            RecoveryPolicy(op_timeout=0.0)
        with pytest.raises(FaultPlanError):
            RecoveryPolicy(op_timeout=1.0, on_exhaustion="panic")

    def test_empty_ignores_recovery(self):
        assert FaultPlan().empty
        assert FaultPlan(recovery=RecoveryPolicy(op_timeout=1.0)).empty
        assert not FaultPlan.mild().empty
        assert not FaultPlan.severe().empty
        assert not FaultPlan(
            scripted=(ScriptedFault("drop", 0, 1),)).empty

    def test_injector_rejects_empty_plan(self):
        with pytest.raises(ValueError):
            FaultInjector(FaultPlan(), Engine())

    def test_presets_accept_overrides(self):
        p = FaultPlan.mild(drop_prob=0.2)
        assert p.drop_prob == 0.2 and p.dup_prob > 0


# ---------------------------------------------------------------------------
# wire-level faults on the GASPI substrate
# ---------------------------------------------------------------------------
class TestWireFaults:
    def test_scripted_drop_is_retransmitted(self):
        plan = FaultPlan(scripted=(ScriptedFault("drop", 0, 1, kind="write"),))
        eng, g, inj = make_gaspi(plan)
        src = np.arange(16, dtype=np.float64)
        dst = np.zeros(16)
        g.rank(0).segment_register(0, src)
        g.rank(1).segment_register(0, dst)
        g.rank(0).write(0, 0, 1, 0, 0, 16, queue=0)

        def waiter():
            yield from g.rank(0).wait(0)

        run_all(eng, [eng.process(waiter())])
        eng.run()  # drain the retransmitted delivery
        assert np.array_equal(dst, src)
        assert inj.stats.dropped == 1
        assert inj.stats.retransmits == 1
        assert inj.stats.lost == 0
        assert inj.report.count("net.scripted") == 1

    def test_drop_without_nic_ack_is_lost(self):
        plan = FaultPlan(scripted=(ScriptedFault("drop", 0, 1, kind="write"),),
                         nic_ack=False)
        eng, g, inj = make_gaspi(plan)
        dst = np.zeros(8)
        g.rank(0).segment_register(0, np.ones(8))
        g.rank(1).segment_register(0, dst)
        g.rank(0).write(0, 0, 1, 0, 0, 8, queue=0)

        def waiter():
            # local completion still happens: the NIC accepted the message
            yield from g.rank(0).wait(0)

        run_all(eng, [eng.process(waiter())])
        eng.run()
        assert np.array_equal(dst, np.zeros(8))
        assert inj.stats.lost == 1
        assert inj.stats.retransmits == 0

    def test_duplicate_delivered_exactly_once(self):
        plan = FaultPlan(
            scripted=(ScriptedFault("duplicate", 0, 1, kind="write_notify"),))
        eng, g, inj = make_gaspi(plan)
        dst = np.zeros(8)
        g.rank(0).segment_register(0, np.full(8, 3.0))
        g.rank(1).segment_register(0, dst)
        g.rank(0).write_notify(0, 0, 1, 0, 0, 8, notif_id=5, notif_val=7,
                               queue=0)

        def recv():
            nid, val = yield from g.rank(1).notify_waitsome(0, 0, 16)
            return nid, val

        nid, val = eng.run_until_complete(eng.process(recv()))
        eng.run()
        assert (nid, val) == (5, 7)
        assert np.array_equal(dst, np.full(8, 3.0))
        assert inj.stats.duplicated == 1
        assert inj.stats.dup_suppressed == 1
        # the duplicate must not have re-posted the notification
        assert g.rank(1).segment(0).peek(5) is None

    def test_reorder_lets_later_message_overtake(self):
        plan = FaultPlan(
            scripted=(ScriptedFault("reorder", 0, 1, kind="write", nth=1),),
            reorder_delay=100e-6)
        eng, g, inj = make_gaspi(plan)
        dst = np.zeros(2)
        g.rank(0).segment_register(0, np.array([1.0, 2.0]))
        g.rank(1).segment_register(0, dst)
        arrivals = []
        cl = g.rank(1).cluster
        orig = cl._endpoints[(1, "gaspi")]

        def spy(msg):
            arrivals.append(msg.meta["remote_off"])
            orig(msg)

        cl._endpoints[(1, "gaspi")] = spy
        g.rank(0).write(0, 0, 1, 0, 0, 1, queue=0)  # reordered
        g.rank(0).write(0, 1, 1, 0, 1, 1, queue=0)
        eng.run()
        assert np.array_equal(dst, [1.0, 2.0])
        assert inj.stats.reordered == 1
        assert arrivals == [1, 0]  # second write overtook the first

    def test_partition_drops_then_heals(self):
        plan = FaultPlan(partitions=(Partition(t0=0.0, t1=300e-6, nodes=(0,)),),
                         retransmit_rto=50e-6, retransmit_cap=100e-6)
        eng, g, inj = make_gaspi(plan)
        dst = np.zeros(4)
        g.rank(0).segment_register(0, np.ones(4))
        g.rank(1).segment_register(0, dst)
        g.rank(0).write(0, 0, 1, 0, 0, 4, queue=0)
        eng.run()
        assert np.array_equal(dst, np.ones(4))
        assert inj.stats.partition_dropped >= 1
        assert eng.now >= 300e-6  # delivery only after the partition heals

    def test_node_stall_delays_traffic(self):
        stall = 500e-6
        base_eng, base_g, _ = make_gaspi()
        plan = FaultPlan(stalls=(NodeStall(node=0, t0=0.0, duration=stall),),
                         scripted=(ScriptedFault("drop", 5, 6),))
        eng, g, inj = make_gaspi(plan)
        for gg in (base_g, g):
            gg.rank(0).segment_register(0, np.ones(4))
            gg.rank(1).segment_register(0, np.zeros(4))

        def writer(gg, e):
            # submit after the stall window opened so egress queues behind it
            yield e.timeout(10e-6)
            gg.rank(0).write(0, 0, 1, 0, 0, 4, queue=0)

        base_eng.process(writer(base_g, base_eng))
        eng.process(writer(g, eng))
        base_eng.run()
        eng.run()
        assert inj.stats.stalls == 1
        assert eng.now >= base_eng.now + stall * 0.9

    def test_link_degradation_slows_delivery(self):
        deg = LinkDegradation(t0=0.0, t1=1.0, latency_factor=10.0,
                              bandwidth_factor=0.25)
        plan = FaultPlan(degradations=(deg,))
        eng, g, _inj = make_gaspi(plan)
        base_eng, base_g, _ = make_gaspi()
        for gg in (base_g, g):
            gg.rank(0).segment_register(0, np.ones(1024))
            gg.rank(1).segment_register(0, np.zeros(1024))
        base_g.rank(0).write(0, 0, 1, 0, 0, 1024, queue=0)
        g.rank(0).write(0, 0, 1, 0, 0, 1024, queue=0)
        base_eng.run()
        eng.run()
        assert np.array_equal(g.rank(1).segment(0).view(0, 1024), np.ones(1024))
        assert eng.now > base_eng.now

    def test_probabilistic_faults_need_rng(self):
        # injector with rng=None: probabilistic plan degrades to clean wire
        plan = FaultPlan(drop_prob=1.0)
        eng = Engine()
        cl = Cluster(eng, 2, OMNIPATH)
        cl.place_ranks_block(2, 1)
        inj = FaultInjector(plan, eng).install(cl)
        g = GaspiContext(cl, n_queues=2)
        dst = np.zeros(4)
        g.rank(0).segment_register(0, np.ones(4))
        g.rank(1).segment_register(0, dst)
        g.rank(0).write(0, 0, 1, 0, 0, 4, queue=0)
        eng.run()
        assert np.array_equal(dst, np.ones(4))
        assert inj.stats.dropped == 0


# ---------------------------------------------------------------------------
# GASPI failure semantics: timeouts, health vector, purge
# ---------------------------------------------------------------------------
class TestGaspiTimeouts:
    def test_notify_waitsome_finite_timeout_raises(self):
        eng, g, _ = make_gaspi()  # no faults: plain timeout semantics
        g.rank(1).segment_register(0, np.zeros(4))

        def waiter():
            yield from g.rank(1).notify_waitsome(0, 0, 4, timeout=1e-3)

        with pytest.raises(GaspiTimeout) as ei:
            run_all(eng, [eng.process(waiter())])
        assert ei.value.code == GASPI_ERR_TIMEOUT
        assert ei.value.rank == 1
        assert ei.value.op == "notify_waitsome"
        assert eng.now >= 1e-3

    def test_wait_finite_timeout_raises_on_pending_read(self):
        plan = FaultPlan(scripted=(ScriptedFault("drop", 1, 0,
                                                 kind="read_resp"),),
                         nic_ack=False)
        eng, g, inj = make_gaspi(plan)
        g.rank(0).segment_register(0, np.zeros(8))
        g.rank(1).segment_register(0, np.arange(8, dtype=np.float64))
        g.rank(0).read(0, 0, 1, 0, 0, 8, queue=1)

        def waiter():
            yield from g.rank(0).wait(1, timeout=500e-6)

        with pytest.raises(GaspiTimeout) as ei:
            run_all(eng, [eng.process(waiter())])
        assert ei.value.queue == 1
        assert ei.value.pending == 1
        assert inj.stats.gaspi_timeouts == 1

    def test_request_wait_finite_timeout_raises(self):
        plan = FaultPlan(scripted=(ScriptedFault("drop", 1, 0,
                                                 kind="read_resp"),),
                         nic_ack=False)
        eng, g, inj = make_gaspi(plan)
        g.rank(0).segment_register(0, np.zeros(8))
        g.rank(1).segment_register(0, np.arange(8, dtype=np.float64))
        g.rank(0).read(0, 0, 1, 0, 0, 8, queue=0, tag=9)

        def waiter():
            yield from g.rank(0).request_wait(0, 16, timeout=500e-6)

        with pytest.raises(GaspiTimeout) as ei:
            run_all(eng, [eng.process(waiter())])
        assert ei.value.code == GASPI_ERR_TIMEOUT
        assert "request_wait" in str(ei.value)

    def test_request_wait_finite_timeout_returns_when_done(self):
        eng, g, _ = make_gaspi()
        g.rank(0).segment_register(0, np.zeros(16))
        g.rank(1).segment_register(0, np.zeros(16))
        g.rank(0).write(0, 0, 1, 0, 0, 16, queue=0, tag=3)

        def waiter():
            done = yield from g.rank(0).request_wait(0, 16, timeout=10e-3)
            return done

        done = eng.run_until_complete(eng.process(waiter()))
        assert [r.tag for r in done] == [3]
        assert eng.now < 10e-3  # returned at completion, not at the deadline

    def test_queue_purge_and_state_vector(self):
        plan = FaultPlan(scripted=(ScriptedFault("drop", 1, 0,
                                                 kind="read_resp"),),
                         nic_ack=False)
        eng, g, inj = make_gaspi(plan)
        from repro.gaspi import GASPI_STATE_CORRUPT, GASPI_STATE_HEALTHY
        g.rank(0).segment_register(0, np.zeros(8))
        g.rank(1).segment_register(0, np.arange(8, dtype=np.float64))
        g.rank(0).read(0, 0, 1, 0, 0, 8, queue=0)
        eng.run()  # the response is lost; the request stays inflight
        assert g.rank(0).queues[0].depth == 1
        purged = g.rank(0).queue_purge(0)
        assert purged == 1
        assert g.rank(0).queues[0].depth == 0
        vec = g.rank(0).state_vec_get()
        assert vec[1] == GASPI_STATE_CORRUPT
        g.rank(0).state_reset(1)
        assert g.rank(0).state_vec_get()[1] == GASPI_STATE_HEALTHY
        assert inj.stats.purged == 1

    def test_queue_error_carries_context(self):
        eng, g, _ = make_gaspi()
        with pytest.raises(GaspiQueueError) as ei:
            g.rank(0).write(0, 0, 1, 0, 0, 4, queue=99)
        assert ei.value.rank == 0
        assert ei.value.queue == 99

    def test_negative_timeout_rejected(self):
        from repro.gaspi import GaspiError
        eng, g, _ = make_gaspi()
        with pytest.raises(GaspiError):
            g.rank(0).request_wait(0, 16, timeout=-1.0)


# ---------------------------------------------------------------------------
# MPI failure semantics
# ---------------------------------------------------------------------------
class TestMPIFaults:
    def test_eager_drop_retransmitted_data_intact(self):
        plan = FaultPlan(scripted=(ScriptedFault("drop", 0, 1, kind="eager"),))
        eng, cl, inj = make_cluster(plan)
        mpi = MPIContext(cl)
        out = {}

        def sender(drv):
            req = yield from drv.isend(np.arange(10, dtype=np.float64), 1, tag=3)
            yield from drv.wait(req)

        def receiver(drv):
            buf = np.zeros(10)
            req = yield from drv.irecv(buf, 0, tag=3)
            yield from drv.wait(req)
            out["data"] = buf.copy()

        run_all(eng, [MPIProcDriver(mpi.rank(0)).spawn(sender),
                      MPIProcDriver(mpi.rank(1)).spawn(receiver)])
        assert np.array_equal(out["data"], np.arange(10, dtype=np.float64))
        assert inj.stats.retransmits == 1

    def test_rendezvous_rts_lost_then_retried(self):
        plan = FaultPlan(scripted=(ScriptedFault("drop", 0, 1, kind="rts"),),
                         nic_ack=False, rendezvous_rto=100e-6)
        eng, cl, inj = make_cluster(plan)
        mpi = MPIContext(cl)
        n = 100_000  # rendezvous size
        out = {}

        def sender(drv):
            req = yield from drv.isend(np.arange(n, dtype=np.float64), 1, tag=1)
            yield from drv.wait(req)

        def receiver(drv):
            buf = np.zeros(n)
            req = yield from drv.irecv(buf, 0, tag=1)
            yield from drv.wait(req)
            out["data"] = buf.copy()

        run_all(eng, [MPIProcDriver(mpi.rank(0)).spawn(sender),
                      MPIProcDriver(mpi.rank(1)).spawn(receiver)])
        assert np.array_equal(out["data"], np.arange(n, dtype=np.float64))
        assert mpi.rank(0).stats_rts_retries >= 1
        assert inj.stats.rendezvous_retries >= 1

    def test_duplicated_rts_does_not_double_match(self):
        plan = FaultPlan(scripted=(ScriptedFault("duplicate", 0, 1,
                                                 kind="rts"),))
        eng, cl, inj = make_cluster(plan)
        mpi = MPIContext(cl)
        n = 100_000
        out = {}

        def sender(drv):
            req = yield from drv.isend(np.full(n, 2.0), 1, tag=1)
            yield from drv.wait(req)

        def receiver(drv):
            buf = np.zeros(n)
            req = yield from drv.irecv(buf, 0, tag=1)
            yield from drv.wait(req)
            out["data"] = buf.copy()

        run_all(eng, [MPIProcDriver(mpi.rank(0)).spawn(sender),
                      MPIProcDriver(mpi.rank(1)).spawn(receiver)])
        assert np.array_equal(out["data"], np.full(n, 2.0))


# ---------------------------------------------------------------------------
# recovery policies: TAGASPI re-submit / release / abort, TAMPI release
# ---------------------------------------------------------------------------
def make_tagaspi_pair(plan, recovery, poll_us=50, n_queues=4, seed=1):
    eng, cl, inj = make_cluster(plan, fabric=INFINIBAND, seed=seed)
    g = GaspiContext(cl, n_queues=n_queues)
    rts = [Runtime(eng, RuntimeConfig(n_cores=2), f"rt{r}") for r in range(2)]
    tgs = [TAGASPI(rts[r], g.rank(r), poll_period_us=poll_us,
                   recovery=recovery) for r in range(2)]
    return eng, g, rts, tgs, inj


class TestTagaspiRecovery:
    def _read_main(self, g, tg, local, out):
        def main(rt):
            def read_task(task):
                tg.read(0, 0, 1, 0, 0, 8, queue=0)
            rt.submit(read_task, [Out("buf")], label="read")

            def consume(task):
                out["data"] = local.copy()
            rt.submit(consume, [In("buf")], label="consume")
            yield from rt.taskwait()
        return main

    def test_resubmit_after_timeout_completes(self):
        # first read response is lost; recovery re-submits on a new queue
        plan = FaultPlan(scripted=(ScriptedFault("drop", 1, 0,
                                                 kind="read_resp", nth=1),),
                         nic_ack=False)
        recovery = RecoveryPolicy(op_timeout=300e-6, max_retries=2)
        eng, g, (rt0, rt1), (tg0, tg1), inj = make_tagaspi_pair(plan, recovery)
        local = np.zeros(8)
        g.rank(0).segment_register(0, local)
        g.rank(1).segment_register(0, np.arange(8, dtype=np.float64))
        out = {}
        run_all(eng, [rt0.spawn_main(self._read_main(g, tg0, local, out))])
        assert np.array_equal(out["data"], np.arange(8, dtype=np.float64))
        assert tg0.stats_resubmits == 1
        assert inj.stats.resubmits == 1
        assert inj.stats.gaspi_timeouts >= 1
        assert inj.stats.purged >= 1

    def test_release_after_exhaustion(self):
        # every read response is lost (nth=0): retries exhaust, the task's
        # events are released so the graph completes without the data
        plan = FaultPlan(scripted=(ScriptedFault("drop", 1, 0,
                                                 kind="read_resp", nth=0),),
                         nic_ack=False)
        recovery = RecoveryPolicy(op_timeout=300e-6, max_retries=1,
                                  on_exhaustion="release")
        eng, g, (rt0, rt1), (tg0, tg1), inj = make_tagaspi_pair(plan, recovery)
        local = np.zeros(8)
        g.rank(0).segment_register(0, local)
        g.rank(1).segment_register(0, np.arange(8, dtype=np.float64))
        out = {}
        run_all(eng, [rt0.spawn_main(self._read_main(g, tg0, local, out))])
        assert np.array_equal(out["data"], np.zeros(8))  # data never arrived
        assert tg0.stats_resubmits == 1  # one retry before exhaustion
        assert tg0.stats_releases == 1
        assert inj.stats.released >= 1

    def test_abort_after_exhaustion(self):
        plan = FaultPlan(scripted=(ScriptedFault("drop", 1, 0,
                                                 kind="read_resp", nth=0),),
                         nic_ack=False)
        recovery = RecoveryPolicy(op_timeout=300e-6, max_retries=0,
                                  on_exhaustion="abort")
        eng, g, (rt0, rt1), (tg0, tg1), inj = make_tagaspi_pair(plan, recovery)
        local = np.zeros(8)
        g.rank(0).segment_register(0, local)
        g.rank(1).segment_register(0, np.arange(8, dtype=np.float64))
        out = {}
        with pytest.raises(FaultAbort) as ei:
            run_all(eng, [rt0.spawn_main(self._read_main(g, tg0, local, out))])
        assert ei.value.rank == 0
        assert ei.value.op == "read"
        assert ei.value.report is not None and len(ei.value.report) > 0

    def test_notify_timeout_released_when_producer_lost(self):
        # the producer's write_notify is permanently lost: the *receiver's*
        # notify_iwait has nothing to re-submit, so the policy releases it
        plan = FaultPlan(scripted=(ScriptedFault("drop", 0, 1, nth=0,
                                                 kind="write_notify"),),
                         nic_ack=False)
        recovery = RecoveryPolicy(op_timeout=300e-6, on_exhaustion="release")
        eng, g, (rt0, rt1), (tg0, tg1), inj = make_tagaspi_pair(plan, recovery)
        dst = np.zeros(8)
        g.rank(0).segment_register(0, np.ones(8))
        g.rank(1).segment_register(0, dst)
        done = []

        def sender_main(rt):
            def write(task):
                tg0.write_notify(0, 0, 1, 0, 0, 8, notif_id=0, notif_val=1,
                                 queue=0)
            rt.submit(write, [], label="write")
            yield from rt.taskwait()

        def receiver_main(rt):
            def wait(task):
                tg1.notify_iwait(0, 0)
            rt.submit(wait, [Out("n")], label="wait")

            def after(task):
                done.append(eng.now)
            rt.submit(after, [In("n")], label="after")
            yield from rt.taskwait()

        run_all(eng, [rt0.spawn_main(sender_main),
                      rt1.spawn_main(receiver_main)])
        assert done and done[0] >= 300e-6
        assert np.array_equal(dst, np.zeros(8))
        assert tg1.stats_releases == 1
        assert inj.stats.gaspi_timeouts >= 1

    def test_notify_timeout_abort(self):
        plan = FaultPlan(scripted=(ScriptedFault("drop", 0, 1, nth=0,
                                                 kind="write_notify"),),
                         nic_ack=False)
        recovery = RecoveryPolicy(op_timeout=300e-6, on_exhaustion="abort")
        eng, g, (rt0, rt1), (tg0, tg1), inj = make_tagaspi_pair(plan, recovery)
        g.rank(0).segment_register(0, np.ones(8))
        g.rank(1).segment_register(0, np.zeros(8))

        def sender_main(rt):
            def write(task):
                tg0.write_notify(0, 0, 1, 0, 0, 8, notif_id=0, notif_val=1,
                                 queue=0)
            rt.submit(write, [], label="write")
            yield from rt.taskwait()

        def receiver_main(rt):
            def wait(task):
                tg1.notify_iwait(0, 0)
            rt.submit(wait, [Out("n")], label="wait")
            yield from rt.taskwait()

        with pytest.raises(FaultAbort) as ei:
            run_all(eng, [rt0.spawn_main(sender_main),
                          rt1.spawn_main(receiver_main)])
        assert ei.value.op == "notify_iwait"
        assert ei.value.rank == 1

    def test_clean_run_with_recovery_unaffected(self):
        # a recovery policy alone (no active faults) must not change results
        recovery = RecoveryPolicy(op_timeout=10.0)
        eng, g, (rt0, rt1), (tg0, tg1), _ = make_tagaspi_pair(None, recovery)
        local = np.zeros(8)
        g.rank(0).segment_register(0, local)
        g.rank(1).segment_register(0, np.arange(8, dtype=np.float64))
        out = {}
        run_all(eng, [rt0.spawn_main(self._read_main(g, tg0, local, out))])
        assert np.array_equal(out["data"], np.arange(8, dtype=np.float64))
        assert tg0.stats_resubmits == 0 and tg0.stats_releases == 0


class TestAbortLeavesPollerConsistent:
    """A caller that catches a FaultAbort and keeps polling must see
    consistent recovery state: no duplicated tracked operations (which
    would be re-submitted on every later pass) and no stale pending
    notifications (which would re-abort forever)."""

    def _make(self, on_exhaustion="abort", op_timeout=1e-3):
        recovery = RecoveryPolicy(op_timeout=op_timeout, max_retries=0,
                                  on_exhaustion=on_exhaustion)
        eng, g, rts, tgs, _ = make_tagaspi_pair(None, recovery)
        return eng, g, tgs[0]

    def test_abort_does_not_duplicate_tracked_ops(self):
        from repro.core.tagaspi import _TrackedOp

        eng, g, tg = self._make()
        live = _TrackedOp("read", 0, {}, None, False, 1, deadline=100.0)
        doomed = _TrackedOp("read", 0, {}, None, False, 1, deadline=0.5)
        tg._tracked = [live, doomed]

        with pytest.raises(FaultAbort) as ei:
            tg._check_recovery(now=1.0)
        assert ei.value.op == "read"
        # the survivor appears exactly once; the aborted op is gone
        assert tg._tracked == [live]
        # a second poll past the abort is clean: nothing re-aborts,
        # nothing gets re-submitted
        tg._check_recovery(now=1.0)
        assert tg._tracked == [live]
        assert tg.stats_resubmits == 0

    def test_abort_scans_the_tail_past_the_aborting_op(self):
        from repro.core.tagaspi import _TrackedOp

        eng, g, tg = self._make()
        doomed = _TrackedOp("read", 0, {}, None, False, 1, deadline=0.5)
        done = _TrackedOp("write", 0, {}, None, False, 1, deadline=0.5)
        done.remaining = 0  # completed since the last pass
        tail = _TrackedOp("write", 0, {}, None, False, 1, deadline=100.0)
        tg._tracked = [doomed, done, tail]

        with pytest.raises(FaultAbort):
            tg._check_recovery(now=1.0)
        # completed entries are dropped, the live tail is preserved once
        assert tg._tracked == [tail]

    def test_notification_abort_clears_pending_state(self):
        eng, g, tg = self._make()
        objs = [tg.pool.acquire().assign(0, i, None, None, False,
                                         registered_at=0.0)
                for i in range(2)]
        tg._pending_notifs = list(objs)
        tg.work.notify_work(2)

        with pytest.raises(FaultAbort) as ei:
            tg._check_recovery(now=1.0)
        assert ei.value.op == "notify_iwait"
        # the expired waits were removed *before* the raise and their work
        # units retired — the poller's books balance
        assert tg._pending_notifs == []
        assert tg.work.pending == 0
        # a later poll does not re-abort on the stale entries
        tg._check_recovery(now=2.0)

    def test_caught_notify_abort_then_continue_end_to_end(self):
        # receiver waits on a notification whose producing write_notify is
        # permanently dropped; the caller catches the abort — afterwards
        # the receiver's poller state must be consistent: expired waits
        # gone, work accounting balanced, and a resumed polling pass clean
        plan = FaultPlan(scripted=(ScriptedFault("drop", 0, 1, nth=0,
                                                 kind="write_notify"),),
                         nic_ack=False)
        recovery = RecoveryPolicy(op_timeout=300e-6, on_exhaustion="abort")
        eng, g, (rt0, rt1), (tg0, tg1), inj = make_tagaspi_pair(plan, recovery)
        g.rank(0).segment_register(0, np.ones(8))
        g.rank(1).segment_register(0, np.zeros(8))

        def sender_main(rt):
            def write(task):
                tg0.write_notify(0, 0, 1, 0, 0, 8, notif_id=0, notif_val=1,
                                 queue=0)
            rt.submit(write, [], label="write")
            yield from rt.taskwait()

        def receiver_main(rt):
            def wait(task):
                tg1.notify_iwait(0, 0)
            rt.submit(wait, [Out("n")], label="wait")
            yield from rt.taskwait()

        with pytest.raises(FaultAbort):
            run_all(eng, [rt0.spawn_main(sender_main),
                          rt1.spawn_main(receiver_main)])
        assert tg1._pending_notifs == []
        assert tg1.work.pending == 0
        before = inj.stats.gaspi_timeouts
        # resumed polling passes see no stale entries and never re-abort
        tg1._check_recovery(eng.now + 1.0)
        tg1._check_recovery(eng.now + 2.0)
        assert inj.stats.gaspi_timeouts == before


class TestTampiRecovery:
    def _make(self, recovery, plan=None):
        eng, cl, inj = make_cluster(plan)
        mpi = MPIContext(cl)
        rts = [Runtime(eng, RuntimeConfig(n_cores=2), f"rt{r}") for r in range(2)]
        tps = [TAMPI(rts[r], mpi.rank(r), poll_period_us=50,
                     recovery=recovery) for r in range(2)]
        return eng, mpi, rts, tps, inj

    def test_release_unblocks_never_matched_recv(self):
        recovery = RecoveryPolicy(op_timeout=300e-6, on_exhaustion="release")
        eng, mpi, (rt0, rt1), (tp0, tp1), _ = self._make(recovery)
        done = []

        def main(rt):
            buf = np.zeros(4)

            def recv_task(task):
                req = mpi.rank(1).irecv(buf, 0, tag=9)  # nobody sends
                tp1.iwait(req)
            rt.submit(recv_task, [Out("b")], label="recv")

            def after(task):
                done.append(eng.now)
            rt.submit(after, [In("b")], label="after")
            yield from rt.taskwait()

        run_all(eng, [rt1.spawn_main(main)])
        assert done and done[0] >= 300e-6
        assert tp1.stats_timeouts == 1

    def test_abort_raises_fault_abort(self):
        recovery = RecoveryPolicy(op_timeout=300e-6, on_exhaustion="abort")
        eng, mpi, (rt0, rt1), (tp0, tp1), _ = self._make(recovery)

        def main(rt):
            buf = np.zeros(4)

            def recv_task(task):
                req = mpi.rank(1).irecv(buf, 0, tag=9)
                tp1.iwait(req)
            rt.submit(recv_task, [Out("b")], label="recv")
            yield from rt.taskwait()

        with pytest.raises(FaultAbort) as ei:
            run_all(eng, [rt1.spawn_main(main)])
        assert ei.value.rank == 1


# ---------------------------------------------------------------------------
# applications under faults: completion and numerical correctness
# ---------------------------------------------------------------------------
MACH4 = MARENOSTRUM4.with_cores(4)


class TestAppsUnderFaults:
    def _gs(self, variant, faults):
        from repro.apps.gauss_seidel.runner import GSParams, run_gauss_seidel
        from repro.harness import JobSpec
        params = GSParams(rows=64, cols=64, timesteps=2, block_size=32)
        spec = JobSpec(machine=MACH4, n_nodes=2, variant=variant, seed=1,
                       faults=faults)
        return run_gauss_seidel(spec, params, collect_grid=True)

    def test_straggler_delays_but_gs_converges_identically(self):
        plan = FaultPlan(stalls=(NodeStall(node=0, t0=50e-6, duration=400e-6),),
                         scripted=(ScriptedFault("drop", 5, 6),))
        clean = self._gs("tagaspi", None)
        faulted = self._gs("tagaspi", plan)
        assert np.array_equal(clean.extra["grid"], faulted.extra["grid"])
        assert faulted.sim_time > clean.sim_time
        assert faulted.extra["fault_stalls"] == 1.0

    def test_gs_mpi_survives_eager_drop(self):
        # on a 4-core machine ranks 0-3 sit on node 0 and 4-7 on node 1, so
        # the inter-node halo exchange is the 3<->4 pair
        plan = FaultPlan(scripted=(ScriptedFault("drop", 3, 4, nth=1,
                                                 protocol="mpi"),))
        clean = self._gs("mpi", None)
        faulted = self._gs("mpi", plan)
        assert np.array_equal(clean.extra["grid"], faulted.extra["grid"])
        assert faulted.extra["fault_retransmits"] >= 1.0

    def test_gs_tagaspi_survives_mild_probabilistic_plan(self):
        faulted = self._gs("tagaspi", FaultPlan.mild())
        clean = self._gs("tagaspi", None)
        assert np.array_equal(clean.extra["grid"], faulted.extra["grid"])


# ---------------------------------------------------------------------------
# harness sweep API
# ---------------------------------------------------------------------------
class TestRunVariants:
    def test_sweep_shape_and_counters(self):
        from repro.apps.gauss_seidel.runner import GSParams, run_gauss_seidel
        params = GSParams(rows=64, cols=64, timesteps=2, block_size=32)
        res = run_variants(run_gauss_seidel, MACH4, 2, params,
                           variants=("mpi", "tagaspi"),
                           faults={"none": None, "mild": FaultPlan.mild()})
        assert set(res) == {"mpi", "tagaspi"}
        for variant in res:
            assert set(res[variant]) == {"none", "mild"}
            for r in res[variant].values():
                assert "fault_injected" in r.extra
                assert "fault_retransmits" in r.extra
                assert "fault_timeouts" in r.extra
        assert res["mpi"]["none"].extra["fault_injected"] == 0.0
        table = fault_sweep_table("sweep", res)
        assert "retransmits" in table and "tagaspi" in table

    def test_default_axis_is_fault_free(self):
        from repro.apps.gauss_seidel.runner import GSParams, run_gauss_seidel
        params = GSParams(rows=64, cols=64, timesteps=2, block_size=32)
        res = run_variants(run_gauss_seidel, MACH4, 2, params,
                           variants=("tagaspi",))
        assert set(res["tagaspi"]) == {"none"}
