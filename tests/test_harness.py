"""Unit tests for the harness: specs, job assembly, metrics, reports."""

import pytest

from repro.harness import (
    JobSpec,
    MARENOSTRUM4,
    CTE_AMD,
    VariantError,
    VariantResult,
    build_job,
    format_series,
    format_table,
    parallel_efficiency,
    speedup,
)
from repro.tasking import RuntimeConfig


class TestJobSpec:
    def test_mpi_variant_forces_rank_per_core(self):
        spec = JobSpec(machine=MARENOSTRUM4, n_nodes=2, variant="mpi")
        assert spec.ranks_per_node == MARENOSTRUM4.cores_per_node
        assert spec.n_ranks == 16
        assert not spec.is_hybrid

    def test_hybrid_defaults_to_one_rank_per_node(self):
        spec = JobSpec(machine=MARENOSTRUM4, n_nodes=4, variant="tagaspi")
        assert spec.n_ranks == 4
        assert spec.cores_per_rank == 8

    def test_two_ranks_per_node(self):
        spec = JobSpec(machine=MARENOSTRUM4, n_nodes=2, variant="tampi",
                       ranks_per_node=2)
        assert spec.n_ranks == 4 and spec.cores_per_rank == 4

    def test_bad_variant(self):
        with pytest.raises(VariantError):
            JobSpec(machine=MARENOSTRUM4, n_nodes=1, variant="openshmem")

    def test_nondividing_ranks_per_node(self):
        with pytest.raises(VariantError):
            JobSpec(machine=MARENOSTRUM4, n_nodes=1, variant="tampi",
                    ranks_per_node=3)

    def test_runtime_config_core_mismatch(self):
        spec = JobSpec(machine=MARENOSTRUM4, n_nodes=1, variant="tampi",
                       runtime_config=RuntimeConfig(n_cores=2))
        with pytest.raises(VariantError):
            build_job(spec)


class TestJobAssembly:
    def test_mpi_job_has_drivers_only(self):
        job = build_job(JobSpec(machine=MARENOSTRUM4, n_nodes=1, variant="mpi"))
        assert job.mpi is not None and len(job.drivers) == 8
        assert job.gaspi is None and not job.runtimes

    def test_tampi_job(self):
        job = build_job(JobSpec(machine=MARENOSTRUM4, n_nodes=2, variant="tampi"))
        assert len(job.runtimes) == 2 and len(job.tampi) == 2
        assert job.gaspi is None

    def test_tagaspi_job_has_both_libraries(self):
        job = build_job(JobSpec(machine=MARENOSTRUM4, n_nodes=2, variant="tagaspi"))
        assert len(job.tagaspi) == 2 and len(job.tampi) == 2  # §VI-B mixing
        assert job.gaspi is not None and job.mpi is not None

    def test_app_rng_deterministic(self):
        job1 = build_job(JobSpec(machine=MARENOSTRUM4, n_nodes=1, variant="mpi", seed=4))
        job2 = build_job(JobSpec(machine=MARENOSTRUM4, n_nodes=1, variant="mpi", seed=4))
        assert job1.app_rng("x").random() == job2.app_rng("x").random()


class TestMachines:
    def test_kernel_time(self):
        assert MARENOSTRUM4.kernel_time("gs_update", 100) == pytest.approx(
            100 * 4.4e-9)

    def test_unknown_kernel(self):
        with pytest.raises(KeyError):
            MARENOSTRUM4.kernel_time("fft", 1)

    def test_with_cores(self):
        m = CTE_AMD.with_cores(4)
        assert m.cores_per_node == 4
        assert m.fabric is CTE_AMD.fabric


class TestMetrics:
    def _res(self, variant, nodes, thr):
        return VariantResult(variant=variant, n_nodes=nodes, throughput=thr,
                             sim_time=1.0)

    def test_speedup_vs_baseline(self):
        base = self._res("mpi", 1, 2.0)
        results = [self._res("tagaspi", n, 2.0 * n * 0.9) for n in (1, 2, 4)]
        sp = speedup(results, base)
        assert sp[4] == pytest.approx(3.6)

    def test_parallel_efficiency_self_relative(self):
        results = [self._res("tampi", 1, 2.0), self._res("tampi", 4, 6.0)]
        eff = parallel_efficiency(results)
        assert eff[1] == pytest.approx(1.0)
        assert eff[4] == pytest.approx(6.0 / 8.0)

    def test_zero_baseline_rejected(self):
        with pytest.raises(ValueError):
            speedup([self._res("x", 1, 1.0)], self._res("mpi", 1, 0.0))

    def test_negative_throughput_rejected(self):
        with pytest.raises(ValueError):
            VariantResult(variant="x", n_nodes=1, throughput=-1.0, sim_time=1.0)


class TestReport:
    def test_format_table_alignment(self):
        out = format_table("T", ["a", "bb"], [[1, 2.5], [10, 0.25]])
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[2] and "bb" in lines[2]
        assert len(lines) == 6

    def test_format_series_missing_points(self):
        out = format_series("S", "n", {"v1": {1: 1.0}, "v2": {2: 2.0}}, [1, 2])
        assert "-" in out

    def test_format_table_renders_none_as_dash(self):
        out = format_table("T", ["a", "b"], [[None, 1.0], ["x", None]])
        rows = out.splitlines()[4:]
        assert rows[0].split() == ["-", "1"]
        assert rows[1].split() == ["x", "-"]


class TestJobRunStopPoint:
    """Job.run stops right after the last rank's completion event fires,
    although the TAMPI/TAGASPI pollers keep the queue non-empty forever.
    The event counts and sim times are pinned to the values the
    peek()/step() driver loop produced, so the stop point cannot drift."""

    @pytest.mark.parametrize("variant,sim_time,events", [
        ("tampi", 0.00013582283302730956, 1009),
        ("tagaspi", 0.00013717, 882),
    ], ids=["tampi", "tagaspi"])
    def test_hybrid_job_stops_at_last_rank(self, variant, sim_time, events):
        from repro.apps.gauss_seidel import GSParams
        from repro.apps.gauss_seidel.variants import (
            make_storages, tagaspi_main, tampi_main)

        main = {"tampi": tampi_main, "tagaspi": tagaspi_main}[variant]
        params = GSParams(rows=128, cols=256, timesteps=3, block_size=32,
                          compute_data=False)
        job = build_job(JobSpec(machine=MARENOSTRUM4.with_cores(4),
                                n_nodes=2, variant=variant,
                                poll_period_us=5, seed=1))
        procs = [main(job, params, st) for st in make_storages(job, params)]
        assert job.run(procs) == sim_time
        assert job.engine.now == sim_time
        assert job.engine.event_count == events
        # a poller is still queued: the loop did not stop by draining
        assert job.engine.queue_depth > 0

    def test_stopped_job_leaves_no_stop_hook(self):
        """A job that ended on its budget detaches its completion hooks,
        so running the engine on afterwards finishes normally."""
        from repro.sim import SimulationError

        job = build_job(JobSpec(machine=MARENOSTRUM4, n_nodes=1,
                                variant="mpi"))
        eng = job.engine

        def ticker():
            for _ in range(5):
                yield eng.timeout(1e-6)

        proc = eng.process(ticker())
        with pytest.raises(SimulationError, match="budget"):
            job.run([proc], max_events=2)
        eng.run()
        assert proc.ok and eng.now == pytest.approx(5e-6)


class TestJobRunBudget:
    """Job.run's event budget must follow the Engine.run convention: a
    budget of N allows exactly N events to fire before raising."""

    def _run(self, max_events=None):
        from repro.sim import SimulationError  # noqa: F401 (re-export check)

        job = build_job(JobSpec(machine=MARENOSTRUM4, n_nodes=1,
                                variant="mpi"))
        eng = job.engine

        def ticker():
            for _ in range(5):
                yield eng.timeout(1e-6)

        job.run([eng.process(ticker())], max_events=max_events)
        return job

    def test_budget_of_exactly_n_events_succeeds(self):
        n = self._run().engine.event_count
        assert n > 0
        assert self._run(max_events=n).engine.event_count == n

    def test_budget_of_n_minus_one_raises(self):
        from repro.sim import SimulationError

        n = self._run().engine.event_count
        with pytest.raises(SimulationError, match="budget"):
            self._run(max_events=n - 1)

    def test_deadlock_detected(self):
        from repro.sim import SimulationError

        job = build_job(JobSpec(machine=MARENOSTRUM4, n_nodes=1,
                                variant="mpi"))
        eng = job.engine

        def stuck():
            yield eng.event()  # never triggered

        with pytest.raises(SimulationError, match="deadlock"):
            job.run([eng.process(stuck())])
