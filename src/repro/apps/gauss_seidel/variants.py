"""The three Gauss–Seidel implementations (paper §VI-A).

All variants exchange per-block-column boundary-row segments with the
upper/lower neighbour ranks:

* after updating its **last** block row at step *t*, a rank sends that row
  (per block column) downwards — the lower neighbour is waiting on it to
  start step *t* (the wavefront);
* after updating its **first** block row at step *t*, a rank sends that
  row upwards tagged for step *t+1* — the upper neighbour uses it as its
  "previous sweep" bottom halo;
* before the loop, first rows are sent upwards tagged for step 0 (initial
  state).

Tag / notification-id scheme: direction DOWN carries (step, block column),
direction UP carries (step+1, block column).
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.apps.gauss_seidel.common import (
    GSParams,
    block_compute_cost,
    gs_sweep_block,
    initial_grid,
    partition_rows,
)
from repro.apps.gauss_seidel.storage import (
    RankStorage,
    SEG_HALO_BOTTOM,
    SEG_HALO_TOP,
    SEG_LOCAL,
)
from repro.harness.runner import Job
from repro.tasking import In, InOut, Out

#: throttle for hybrid task submission (tasks in flight per rank)
_WINDOW_HIGH = 6000
_WINDOW_LOW = 3000


def make_storages(job: Job, params: GSParams) -> List[RankStorage]:
    n_ranks = job.spec.n_ranks
    grid = initial_grid(params) if params.compute_data else None
    ranges = partition_rows(params.rows, n_ranks)
    return [RankStorage(params, r, n_ranks, ranges[r], grid) for r in range(n_ranks)]


def _tag(step: int, direction: int, j: int, nbj: int) -> int:
    # direction: 0 = down (top halo of the receiver), 1 = up (bottom halo)
    return (step * 2 + direction) * nbj + j


def _noise_fn(job: Job, rank: int):
    """Per-rank multiplicative compute-time noise (machine.compute_jitter)."""
    sigma = job.spec.machine.compute_jitter
    if sigma <= 0.0 or job.spec.seed is None:
        return lambda cost: cost
    rng = job.app_rng("gs-noise", rank)
    return lambda cost: cost * rng.lognormal(0.0, sigma)


# ======================================================================
# MPI-only (optimized non-blocking, paper's baseline [6])
# ======================================================================

def mpi_only_main(job: Job, params: GSParams, st: RankStorage):
    """Main loop of one single-threaded MPI rank: pre-posted non-blocking
    receives, per-block sends issued as soon as the block is updated,
    send-completion waits deferred to the end of the step."""
    machine = job.spec.machine
    drv = job.drivers[st.rank]
    cols, bs = params.cols, params.block_size
    nbj = cols // bs
    up, down = st.rank - 1, st.rank + 1
    cost = block_compute_cost(machine, st.local_rows, bs)
    noisy = _noise_fn(job, st.rank)

    def main(drv):
        # initial upward exchange: my first row is my upper neighbour's
        # step-0 bottom halo
        init_sends = []
        if st.has_upper:
            # one library entry for the whole first-row halo: all blocks go
            # to the same neighbour under a single lock acquisition
            row = st.first_row()
            # analysis-ok: consumed at t==0, and timesteps >= 1 is
            # validated (GSParams), so the zero-trip path cannot happen
            init_sends = yield from drv.isend_batch(
                [row[j * bs : (j + 1) * bs] for j in range(nbj)],
                up,
                [_tag(0, 1, j, nbj) for j in range(nbj)])

        for t in range(params.timesteps):
            recv_top = [None] * nbj
            recv_bot = [None] * nbj
            if st.has_upper:
                for j in range(nbj):
                    recv_top[j] = yield from drv.irecv(
                        st.halo_top[j * bs : (j + 1) * bs], up, _tag(t, 0, j, nbj))
            if st.has_lower:
                for j in range(nbj):
                    recv_bot[j] = yield from drv.irecv(
                        st.halo_bottom[j * bs : (j + 1) * bs], down, _tag(t, 1, j, nbj))

            sends = []
            left_val_cols = st.side_zeros
            for j in range(nbj):
                if recv_top[j] is not None:
                    yield from drv.wait(recv_top[j])
                if recv_bot[j] is not None:
                    yield from drv.wait(recv_bot[j])
                if params.compute_data:
                    j0, j1 = j * bs, (j + 1) * bs
                    left = st.local[:, j0 - 1] if j > 0 else left_val_cols
                    right = (st.local[:, j1].copy() if j1 < cols else left_val_cols)
                    gs_sweep_block(
                        st.local[:, j0:j1],
                        st.halo_top[j0:j1],
                        st.halo_bottom[j0:j1],
                        left,
                        right,
                    )
                yield from drv.compute(noisy(cost))
                if st.has_lower:  # wavefront: neighbour waits on this now
                    req = yield from drv.isend(
                        st.last_row()[j * bs : (j + 1) * bs], down, _tag(t, 0, j, nbj))
                    sends.append(req)
                if st.has_upper:  # for the neighbour's next step
                    req = yield from drv.isend(
                        st.first_row()[j * bs : (j + 1) * bs], up,
                        _tag(t + 1, 1, j, nbj))
                    sends.append(req)
            if init_sends:
                sends.extend(init_sends)
                init_sends = []
            yield from drv.waitall(sends)

    return drv.spawn(main)


# ======================================================================
# Hybrid task graph (shared by TAMPI and TAGASPI variants)
# ======================================================================

def _hybrid_main(job: Job, params: GSParams, st: RankStorage, comm):
    """Build the per-timestep task graph on one rank.

    ``comm`` provides variant-specific pieces::

        comm.setup(main-generator-context)          # pre-loop exchange
        comm.recv_top_task(t, j)  -> body           # fills halo_top[j]
        comm.recv_bottom_task(t, j) -> body
        comm.send_down_task(t, j) -> body           # sends last block row
        comm.send_up_task(t, j) -> body             # sends first block row
    """
    rt = job.runtimes[st.rank]
    machine = job.spec.machine
    bs = params.block_size
    cols = params.cols
    nbj = cols // bs
    nbi = max(1, (st.local_rows + bs - 1) // bs)
    # row ranges per block row (last one may be short)
    rows_of = [
        (i * bs, min((i + 1) * bs, st.local_rows)) for i in range(nbi)
    ]
    noisy = _noise_fn(job, st.rank)

    def compute_body(t, i, j):
        i0, i1 = rows_of[i]
        j0, j1 = j * bs, (j + 1) * bs
        m = i1 - i0
        cost = block_compute_cost(machine, m, bs)

        def body(task):
            if params.compute_data:
                A = st.local
                top = st.halo_top[j0:j1] if i == 0 else A[i0 - 1, j0:j1]
                bottom = st.halo_bottom[j0:j1] if i == nbi - 1 else A[i1, j0:j1].copy()
                left = A[i0:i1, j0 - 1] if j > 0 else st.side_zeros[:m]
                right = (A[i0:i1, j1].copy() if j1 < cols else st.side_zeros[:m])
                gs_sweep_block(A[i0:i1, j0:j1], top, bottom, left, right)
            task.charge(noisy(cost))

        return body

    def main(rt):
        yield from comm.setup(rt)
        eng = rt.engine
        for t in range(params.timesteps):
            for j in range(nbj):
                if st.has_upper:
                    rt.submit(comm.recv_top_task(t, j), [Out(("ht", j))],
                              label="recv_top")
                if st.has_lower:
                    rt.submit(comm.recv_bottom_task(t, j), [Out(("hb", j))],
                              label="recv_bottom")
            for i in range(nbi):
                for j in range(nbj):
                    deps = [InOut(("b", i, j))]
                    deps.append(In(("ht", j)) if i == 0 else In(("b", i - 1, j)))
                    deps.append(In(("hb", j)) if i == nbi - 1 else In(("b", i + 1, j)))
                    if j > 0:
                        deps.append(In(("b", i, j - 1)))
                    if j < nbj - 1:
                        deps.append(In(("b", i, j + 1)))
                    rt.submit(compute_body(t, i, j), deps, label="compute")
                # boundary-row sends, submitted right after the block row
                # that produces them so they can start as soon as possible
                if i == 0 and st.has_upper:
                    for j in range(nbj):
                        rt.submit(comm.send_up_task(t, j), [In(("b", 0, j))],
                                  label="send_up",
                                  onready=comm.send_up_onready(t, j))
                if i == nbi - 1 and st.has_lower:
                    for j in range(nbj):
                        rt.submit(comm.send_down_task(t, j),
                                  [In(("b", nbi - 1, j))], label="send_down",
                                  onready=comm.send_down_onready(t, j))
            yield from rt.flush()
            if rt.outstanding > _WINDOW_HIGH:
                while rt.outstanding > _WINDOW_LOW:
                    yield eng.timeout(50e-6)
                rt.deps.prune()
        yield from rt.taskwait()

    return rt.spawn_main(main)


# ======================================================================
# TAMPI variant
# ======================================================================

class TampiGSComm:
    """Two-sided communication tasks using TAMPI_Iwait (paper §VI-A)."""

    def __init__(self, job: Job, params: GSParams, st: RankStorage):
        self.job = job
        self.params = params
        self.st = st
        self.mpi = job.mpi.rank(st.rank)
        self.tampi = job.tampi[st.rank]
        self.bs = params.block_size
        self.nbj = params.cols // params.block_size

    def setup(self, rt):
        # initial upward exchange as a task so it overlaps
        st, bs = self.st, self.bs
        if st.has_upper:
            for j in range(self.nbj):
                def body(task, j=j):
                    req = self.mpi.isend(
                        st.first_row()[j * bs : (j + 1) * bs],
                        st.rank - 1, _tag(0, 1, j, self.nbj))
                    self.tampi.iwait(req)
                rt.submit(body, [In(("b", 0, j))], label="send_up")
        return
        yield  # pragma: no cover - make this a generator

    def recv_top_task(self, t, j):
        st, bs = self.st, self.bs

        def body(task):
            req = self.mpi.irecv(st.halo_top[j * bs : (j + 1) * bs],
                                 st.rank - 1, _tag(t, 0, j, self.nbj))
            self.tampi.iwait(req)

        return body

    def recv_bottom_task(self, t, j):
        st, bs = self.st, self.bs

        def body(task):
            req = self.mpi.irecv(st.halo_bottom[j * bs : (j + 1) * bs],
                                 st.rank + 1, _tag(t, 1, j, self.nbj))
            self.tampi.iwait(req)

        return body

    def send_down_task(self, t, j):
        st, bs = self.st, self.bs

        def body(task):
            req = self.mpi.isend(st.last_row()[j * bs : (j + 1) * bs],
                                 st.rank + 1, _tag(t, 0, j, self.nbj))
            self.tampi.iwait(req)

        return body

    def send_up_task(self, t, j):
        st, bs = self.st, self.bs

        def body(task):
            req = self.mpi.isend(st.first_row()[j * bs : (j + 1) * bs],
                                 st.rank - 1, _tag(t + 1, 1, j, self.nbj))
            self.tampi.iwait(req)

        return body

    def send_up_onready(self, t, j):
        return None

    def send_down_onready(self, t, j):
        return None


# ======================================================================
# TAGASPI variant
# ======================================================================

class TagaspiGSComm:
    """One-sided communication tasks using TAGASPI (paper §VI-A).

    Senders ``write_notify`` directly into the neighbour's halo segment,
    multiplexing queues by block column; receivers just
    ``notify_iwait``. Notification values carry step+1 (non-zero).
    No ack notifications are needed: the reverse halo exchange already
    transitively orders each write after the consumption of the previous
    one (see tests/test_apps_gauss_seidel.py::test_no_overwrite_hazard).
    """

    def __init__(self, job: Job, params: GSParams, st: RankStorage):
        self.job = job
        self.params = params
        self.st = st
        self.gaspi = job.gaspi.rank(st.rank)
        self.tagaspi = job.tagaspi[st.rank]
        self.bs = params.block_size
        self.nbj = params.cols // params.block_size
        self.n_queues = job.spec.n_queues
        # register segments
        self.gaspi.segment_register(SEG_HALO_TOP, st.halo_top)
        self.gaspi.segment_register(SEG_HALO_BOTTOM, st.halo_bottom)
        self.gaspi.segment_register(SEG_LOCAL, st.local_segment_array())

    def setup(self, rt):
        st, bs = self.st, self.bs
        if st.has_upper:
            for j in range(self.nbj):
                def body(task, j=j):
                    seg, off, cnt = st.first_row_seg(j * bs, bs)
                    self.tagaspi.write_notify(
                        seg, off, st.rank - 1, SEG_HALO_BOTTOM, j * bs, cnt,
                        notif_id=j, notif_val=1, queue=j % self.n_queues)
                rt.submit(body, [In(("b", 0, j))], label="send_up")
        return
        yield  # pragma: no cover

    def recv_top_task(self, t, j):
        def body(task):
            self.tagaspi.notify_iwait(SEG_HALO_TOP, j)
        return body

    def recv_bottom_task(self, t, j):
        def body(task):
            self.tagaspi.notify_iwait(SEG_HALO_BOTTOM, j)
        return body

    def send_down_task(self, t, j):
        st, bs = self.st, self.bs

        def body(task):
            seg, off, cnt = st.last_row_seg(j * bs, bs)
            self.tagaspi.write_notify(
                seg, off, st.rank + 1, SEG_HALO_TOP, j * bs, cnt,
                notif_id=j, notif_val=t + 1, queue=j % self.n_queues)

        return body

    def send_up_task(self, t, j):
        st, bs = self.st, self.bs

        def body(task):
            seg, off, cnt = st.first_row_seg(j * bs, bs)
            self.tagaspi.write_notify(
                seg, off, st.rank - 1, SEG_HALO_BOTTOM, j * bs, cnt,
                notif_id=j, notif_val=t + 2, queue=j % self.n_queues)

        return body

    def send_up_onready(self, t, j):
        return None

    def send_down_onready(self, t, j):
        return None


def tampi_main(job: Job, params: GSParams, st: RankStorage):
    return _hybrid_main(job, params, st, TampiGSComm(job, params, st))


def tagaspi_main(job: Job, params: GSParams, st: RankStorage):
    return _hybrid_main(job, params, st, TagaspiGSComm(job, params, st))
