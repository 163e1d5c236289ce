"""Additional scheduler/polling coverage: BlockOn, priorities, dedicated-
core polling, worker accounting, and engine trace hooks."""

import pytest

from repro.sim import Engine
from repro.sim.events import Event
from repro.tasking import BlockOn, Runtime, RuntimeConfig, In, Out
from repro.tasking.polling import PollableWork, spawn_polling_service
from tests.conftest import run_all


def make_rt(n_cores=2, **cfg):
    eng = Engine()
    return eng, Runtime(eng, RuntimeConfig(n_cores=n_cores, **cfg))


class TestBlockOn:
    def test_blockon_releases_core(self):
        eng, rt = make_rt(n_cores=1)
        gate = Event(eng)
        log = []

        def parked(task):
            log.append("park")
            yield BlockOn(gate)
            log.append("resumed")

        def other(task):
            log.append("other")

        def main(rt):
            rt.submit(parked, [])
            rt.submit(other, [])
            yield eng.timeout(1e-3)
            gate.succeed()
            yield from rt.taskwait()

        run_all(eng, [rt.spawn_main(main)])
        assert log == ["park", "other", "resumed"]

    def test_resumed_task_has_priority(self):
        eng, rt = make_rt(n_cores=1)
        gate = Event(eng)
        order = []

        def parked(task):
            yield BlockOn(gate)
            order.append("resumed")

        def main(rt):
            rt.submit(parked, [])
            yield eng.timeout(10e-6)
            # keep the single core busy so later submissions must queue
            rt.submit(lambda task: task.charge(100e-6), [], label="busy")
            for i in range(5):
                rt.submit(lambda task, i=i: order.append(i), [])
            yield eng.timeout(10e-6)
            gate.succeed()  # while the core is still busy
            yield from rt.taskwait()

        run_all(eng, [rt.spawn_main(main)])
        assert order[0] == "resumed"


class TestDedicatedCorePolling:
    def test_zero_period_poller_spins_on_a_core(self):
        """period 0 = the paper's dedicated-core configuration (TAMPI on
        CTE-AMD): the poller occupies one worker continuously."""
        eng, rt = make_rt(n_cores=2)
        work = PollableWork(eng)
        checks = []
        spawn_polling_service(rt, lambda: checks.append(eng.now), 0.0, work)
        work.notify_work()  # never retired: poller spins forever

        def main(rt):
            yield eng.timeout(1e-3)

        run_all(eng, [rt.spawn_main(main)])
        assert len(checks) > 100  # far more than a periodic poller would do


class TestWorkerAccounting:
    def test_busy_time_tracks_charges(self):
        eng, rt = make_rt(n_cores=1, create_overhead=0.0, dispatch_overhead=0.0)

        def main(rt):
            rt.submit(lambda task: task.charge(5e-6), [])
            rt.submit(lambda task: task.charge(3e-6), [])
            yield from rt.taskwait()

        run_all(eng, [rt.spawn_main(main)])
        assert rt.core_busy_time() == pytest.approx(8e-6)
        assert rt.stats.total_task_cpu_time == pytest.approx(8e-6)

    def test_tasks_distributed_across_workers(self):
        eng, rt = make_rt(n_cores=4)

        def main(rt):
            for _ in range(16):
                rt.submit(lambda task: task.charge(10e-6), [])
            yield from rt.taskwait()

        run_all(eng, [rt.spawn_main(main)])
        per_worker = [w.tasks_run for w in rt.workers]
        assert sum(per_worker) == 16
        assert all(c == 4 for c in per_worker)


class TestOutstandingWindow:
    def test_outstanding_counts_only_dependency_tasks(self):
        eng, rt = make_rt()
        work = PollableWork(eng)
        spawn_polling_service(rt, lambda: None, 50, work)
        assert rt.outstanding == 0

        def main(rt):
            t = rt.submit(lambda task: None, [Out("k")])
            assert rt.outstanding >= 1
            yield from rt.taskwait()
            assert rt.outstanding == 0

        run_all(eng, [rt.spawn_main(main)])
