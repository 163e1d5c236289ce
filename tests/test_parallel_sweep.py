"""Tests for repro.harness.parallel: cache keys, the result cache, and
serial-vs-parallel sweep determinism (docs/harness.md)."""

import dataclasses
import json
import os

import numpy as np
import pytest

from repro.apps.gauss_seidel import GSParams
from repro.apps.gauss_seidel.runner import run_gauss_seidel
from repro.faults import FaultPlan, RecoveryPolicy
from repro.harness import (
    JobSpec,
    MARENOSTRUM4,
    ResultCache,
    SweepExecutor,
    SweepPoint,
    SweepPointError,
    cache_key,
    run_variants,
)
from repro.harness.parallel import decode_result, encode_result

MACH = MARENOSTRUM4.with_cores(2)
PARAMS = GSParams(rows=64, cols=64, timesteps=2, block_size=32)


def _spec(**kw):
    base = dict(machine=MACH, n_nodes=2, variant="tagaspi", poll_period_us=50)
    base.update(kw)
    return JobSpec(**base)


def _points(variants=("mpi", "tampi", "tagaspi"), **spec_kw):
    return [SweepPoint(run_gauss_seidel, _spec(variant=v, **spec_kw), PARAMS,
                       label=(v,))
            for v in variants]


def _boom(spec, params):
    raise ValueError(f"boom on {spec.variant}")


class TestCacheKey:
    def test_deterministic(self):
        assert (cache_key(run_gauss_seidel, _spec(), PARAMS)
                == cache_key(run_gauss_seidel, _spec(), PARAMS))

    def test_sensitive_to_seed(self):
        assert (cache_key(run_gauss_seidel, _spec(seed=1), PARAMS)
                != cache_key(run_gauss_seidel, _spec(seed=2), PARAMS))

    def test_sensitive_to_app_params(self):
        other = dataclasses.replace(PARAMS, block_size=16)
        assert (cache_key(run_gauss_seidel, _spec(), PARAMS)
                != cache_key(run_gauss_seidel, _spec(), other))

    def test_sensitive_to_fault_plan(self):
        clean = cache_key(run_gauss_seidel, _spec(), PARAMS)
        mild = cache_key(
            run_gauss_seidel,
            _spec(faults=FaultPlan.mild(
                recovery=RecoveryPolicy(op_timeout=10e-3))),
            PARAMS)
        assert clean != mild

    def test_sensitive_to_machine_costs(self):
        other = MARENOSTRUM4.with_cores(4)
        assert (cache_key(run_gauss_seidel, _spec(), PARAMS)
                != cache_key(run_gauss_seidel, _spec(machine=other), PARAMS))

    def test_sensitive_to_runner_and_kwargs(self):
        assert (cache_key(run_gauss_seidel, _spec(), PARAMS)
                != cache_key(_boom, _spec(), PARAMS))
        assert (cache_key(run_gauss_seidel, _spec(), PARAMS, {})
                != cache_key(run_gauss_seidel, _spec(), PARAMS,
                             {"collect_grid": True}))


class TestSerialParallelDeterminism:
    def test_parallel_results_identical_to_serial(self):
        points = _points()
        serial = SweepExecutor(workers=1).map(points)
        parallel = SweepExecutor(workers=2).map(points)
        assert len(serial) == len(parallel) == len(points)
        for s, p in zip(serial, parallel):
            assert s == p
            assert s.extra == p.extra  # full metrics dict, not just headline

    def test_run_variants_workers_matches_serial(self):
        serial = run_variants(run_gauss_seidel, MACH, 2, PARAMS, workers=1)
        parallel = run_variants(run_gauss_seidel, MACH, 2, PARAMS, workers=2)
        assert serial == parallel


class TestResultCache:
    def test_warm_cache_executes_nothing(self, tmp_path):
        points = _points()
        cold = SweepExecutor(workers=1, cache=ResultCache(str(tmp_path)))
        first = cold.map(points)
        assert cold.executed_points == len(points)
        assert cold.stats()["misses"] == len(points)
        assert cold.stats()["stores"] == len(points)

        warm = SweepExecutor(workers=2, cache=ResultCache(str(tmp_path)))
        second = warm.map(points)
        assert warm.executed_points == 0
        assert warm.stats()["hits"] == len(points)
        assert warm.stats()["misses"] == 0
        assert first == second

    def test_changed_spec_misses(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        ex = SweepExecutor(cache=cache)
        ex.map(_points(variants=("mpi",)))
        ex.map(_points(variants=("mpi",), seed=7))
        assert ex.executed_points == 2
        assert cache.stats.hits == 0
        assert len(cache) == 2

    def test_model_code_edit_misses(self, tmp_path, monkeypatch):
        """Editing a model source file changes every cache key, so a result
        computed by the old code is never served; editing code outside the
        model (here the bench CLI) leaves the keys alone."""
        import shutil

        import repro
        from repro.harness import parallel

        root = tmp_path / "repro"
        shutil.copytree(os.path.dirname(repro.__file__), root,
                        ignore=shutil.ignore_patterns("__pycache__"))
        before = parallel.source_fingerprint(str(root))
        assert before == parallel.model_fingerprint()
        with open(root / "bench" / "cli.py", "a") as fh:
            fh.write("\n# not model code\n")
        assert parallel.source_fingerprint(str(root)) == before
        with open(root / "network" / "fabric.py", "a") as fh:
            fh.write("\n# edited\n")
        after = parallel.source_fingerprint(str(root))
        assert after != before

        cache = ResultCache(str(tmp_path / "cache"))
        points = _points(variants=("mpi",))
        SweepExecutor(cache=cache).map(points)
        monkeypatch.setattr(parallel, "model_fingerprint", lambda: after)
        edited = SweepExecutor(cache=cache)
        edited.map(points)
        assert edited.executed_points == 1
        assert cache.stats.hits == 0
        assert len(cache) == 2

    def test_schema_mismatch_invalidates_file(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        pt = _points(variants=("mpi",))[0]
        SweepExecutor(cache=cache).map([pt])
        path = cache._path(pt.key())
        with open(path) as fh:
            data = json.load(fh)
        data["schema"] = -1
        with open(path, "w") as fh:
            json.dump(data, fh)

        fresh = ResultCache(str(tmp_path))
        assert fresh.get(pt.key()) is None
        assert fresh.stats.invalidations == 1
        assert not os.path.exists(path)  # bad entry deleted

    def test_result_roundtrip_with_ndarray_extra(self, tmp_path):
        res = run_gauss_seidel(_spec(variant="mpi"), PARAMS, collect_grid=True)
        assert isinstance(res.extra["grid"], np.ndarray)
        back = decode_result(json.loads(json.dumps(encode_result(res))))
        assert back.sim_time == res.sim_time
        assert np.array_equal(back.extra["grid"], res.extra["grid"])
        assert back.extra["grid"].dtype == res.extra["grid"].dtype
        rest = {k: v for k, v in res.extra.items() if k != "grid"}
        assert {k: v for k, v in back.extra.items() if k != "grid"} == rest

    def test_cached_result_equals_executed_result(self, tmp_path):
        pt = _points(variants=("tagaspi",))[0]
        cache = ResultCache(str(tmp_path))
        [executed] = SweepExecutor(cache=cache).map([pt])
        cached = cache.get(pt.key())
        assert cached == executed
        assert cached.extra == executed.extra


class TestErrorCapture:
    def _mixed_points(self):
        ok = _points(variants=("mpi",))[0]
        bad = SweepPoint(_boom, _spec(variant="tampi"), PARAMS,
                         label=("tampi", "bad"))
        ok2 = _points(variants=("tagaspi",))[0]
        return [ok, bad, ok2]

    def test_capture_isolates_the_failure(self):
        results = SweepExecutor(on_error="capture").map(self._mixed_points())
        assert results[0].sim_time > 0 and results[2].sim_time > 0
        err = results[1]
        assert isinstance(err, SweepPointError)
        assert err.label == ("tampi", "bad")
        assert err.exc_type == "ValueError"
        assert "boom on tampi" in err.traceback_str
        assert isinstance(err.cause, ValueError)

    def test_raise_surfaces_original_after_completion(self):
        ex = SweepExecutor(on_error="raise")
        with pytest.raises(ValueError, match="boom on tampi"):
            ex.map(self._mixed_points())
        # the healthy points still ran before the raise
        assert ex.executed_points == 3

    def test_capture_in_parallel_pool(self):
        results = SweepExecutor(workers=2, on_error="capture").map(
            self._mixed_points())
        assert isinstance(results[1], SweepPointError)
        assert results[0].sim_time > 0 and results[2].sim_time > 0

    def test_failed_points_are_not_cached(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        SweepExecutor(cache=cache, on_error="capture").map(self._mixed_points())
        assert len(cache) == 2  # only the successful points
        assert cache.stats.stores == 2

    def test_executor_validates_arguments(self):
        with pytest.raises(ValueError):
            SweepExecutor(workers=0)
        with pytest.raises(ValueError):
            SweepExecutor(on_error="ignore")
