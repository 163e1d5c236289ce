"""The benchmark's workloads: which jobs each one runs, and how each job's
output is checked.

Every timed job runs in cost-model mode (``compute_data=False``) through the
app's public runner, which builds the job with ``build_job``, creates the app
state and rank processes, and calls ``Job.run``. Every job also has a twin:
the same app, variant or backend and spec flags at a small size in data mode,
whose numerical output is compared with the app's sequential reference.

The sizes keep every job under about half a second of host time on a 2-core
x86-64 host, so the calibration samples that bracket a job (calibration.py)
see the host's speed at nearly the time the job ran, and a run times a dozen
passes or more.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

import numpy as np

from repro.apps.cg import CGParams, cg_reference, run_cg
from repro.apps.gauss_seidel import GSParams, gs_reference, run_gauss_seidel
from repro.apps.gauss_seidel.common import initial_grid
from repro.apps.streaming import StreamingParams, run_streaming
from repro.apps.streaming.common import expected_output
from repro.harness import CTE_AMD, MARENOSTRUM4, JobSpec
from repro.tasking import RuntimeConfig


class CheckFailed(AssertionError):
    """A job's output or record disagrees with what it must be."""


@dataclass(frozen=True)
class JobDef:
    """One job of a workload.

    ``run(seed)`` runs the timed cost-model job and returns its
    ``VariantResult``; ``twin(seed)`` runs the small data-mode twin and
    raises :class:`CheckFailed` when its output differs from the reference.
    """

    name: str
    run: Callable[[int], object]
    twin: Callable[[int], None]


# Gauss–Seidel in the fig09/fig10 shape: fine 64x64 blocks on 4 nodes.
GS_PARAMS = GSParams(rows=1024, cols=4096, timesteps=2, block_size=64,
                     compute_data=False)
GS_TWIN = GSParams(rows=64, cols=256, timesteps=2, block_size=32)

# Streaming in the fig13-lower shape: CTE-AMD (InfiniBand), 15 us polling,
# the paper's runtime overheads.
STREAM_PARAMS = StreamingParams(chunks=8, elements_per_chunk=131072,
                                block_size=2048, compute_data=False)
STREAM_TWIN = StreamingParams(chunks=3, elements_per_chunk=16384,
                              block_size=2048)

# CG on MPI-only ranks; the backend swaps the collectives underneath.
CG_PARAMS = CGParams(n=1024, iterations=1, compute_data=False)
CG_TWIN = CGParams(n=64, iterations=4)
#: distributed dot products sum in another order than the serial reference,
#: so the CG twin agrees with it to rounding, not bit for bit
CG_RTOL = 1e-12

N_NODES = 4


def _gs_spec(variant: str, seed: int, observed: bool) -> JobSpec:
    return JobSpec(machine=MARENOSTRUM4, n_nodes=N_NODES, variant=variant,
                   poll_period_us=50, seed=seed,
                   check="report" if observed else None, perf=observed)


def _gs_job(variant: str, observed: bool) -> JobDef:
    def run(seed):
        return run_gauss_seidel(_gs_spec(variant, seed, observed), GS_PARAMS)

    def twin(seed):
        res = run_gauss_seidel(_gs_spec(variant, seed, observed), GS_TWIN,
                               collect_grid=True)
        ref = gs_reference(GS_TWIN, initial_grid(GS_TWIN))
        if not np.array_equal(res.extra["grid"], ref):
            raise CheckFailed(f"gauss-seidel {variant}: grid differs from "
                              "gs_reference")

    return JobDef(variant, run, twin)


def _stream_spec(variant: str, seed: int) -> JobSpec:
    rc = None if variant == "mpi" else RuntimeConfig(
        n_cores=CTE_AMD.cores_per_node, create_overhead=0.5e-6,
        dispatch_overhead=0.2e-6)
    return JobSpec(machine=CTE_AMD, n_nodes=N_NODES, variant=variant,
                   poll_period_us=15, runtime_config=rc, seed=seed)


def _stream_job(variant: str) -> JobDef:
    def run(seed):
        return run_streaming(_stream_spec(variant, seed), STREAM_PARAMS)

    def twin(seed):
        spec = _stream_spec(variant, seed)
        p = STREAM_TWIN
        res = run_streaming(spec, p, collect_output=True)
        outs = res.extra["outputs"]
        if len(outs) != spec.ranks_per_node:
            raise CheckFailed(f"streaming {variant}: {len(outs)} last-node "
                              f"outputs, expected {spec.ranks_per_node}")
        for rank, arr in outs.items():
            base = (rank % spec.ranks_per_node) * arr.size
            src = (np.arange(base, base + arr.size, dtype=np.float64)
                   + (p.chunks - 1) * 1000.0)
            if not np.array_equal(arr, expected_output(spec.n_nodes, src)):
                raise CheckFailed(f"streaming {variant}: rank {rank} output "
                                  "differs from expected_output")

    return JobDef(variant, run, twin)


def _cg_job(backend: str) -> JobDef:
    def spec(seed):
        return JobSpec(machine=MARENOSTRUM4, n_nodes=N_NODES, variant="mpi",
                       backend=backend, seed=seed)

    def run(seed):
        return run_cg(spec(seed), CG_PARAMS)

    def twin(seed):
        res = run_cg(spec(seed), CG_TWIN, collect_solution=True)
        x, rs = cg_reference(CG_TWIN.n, CG_TWIN.iterations)
        if not np.allclose(res.extra["solution"], x, rtol=CG_RTOL, atol=0.0):
            raise CheckFailed(f"cg {backend}: solution differs from "
                              "cg_reference")
        if not np.isclose(res.extra["residual"], rs, rtol=CG_RTOL, atol=0.0):
            raise CheckFailed(f"cg {backend}: residual "
                              f"{res.extra['residual']!r} != {rs!r}")

    return JobDef(backend, run, twin)


WORKLOADS: Dict[str, List[JobDef]] = {
    "gs-tasks": [_gs_job("tampi", False), _gs_job("tagaspi", False)],
    "stream-msgs": [_stream_job(v) for v in ("mpi", "tampi", "tagaspi")],
    "cg-mpi": [_cg_job(b) for b in ("twosided", "rma", "gaspi")],
    "gs-observed": [_gs_job("tampi", True), _gs_job("tagaspi", True)],
}

#: every job name any workload uses; each gets a ``job.<name>.*`` metric
JOB_NAMES = tuple(dict.fromkeys(jd.name for jobs in WORKLOADS.values()
                                for jd in jobs))
