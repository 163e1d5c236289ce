#!/usr/bin/env python
"""A Saiph-flavoured mini-DSL on top of TAGASPI.

The paper notes (§VI end) that the Saiph CFD DSL grew a back-end that
generates hybrid GASPI+OmpSs-2 code over TAGASPI. This example sketches
that idea at miniature scale: you declare a stencil update as a plain
Python expression over named fields, and the "compiler" emits the
distributed task graph — halo-exchange writer/wait tasks plus per-block
compute tasks — that runs on the simulated cluster through TAGASPI.

    python examples/stencil_dsl.py
"""

import numpy as np

from repro.core import TAGASPI
from repro.gaspi import GaspiContext
from repro.network import Cluster, INFINIBAND
from repro.sim import Engine
from repro.tasking import In, InOut, Out, Runtime, RuntimeConfig


class StencilProgram:
    """Declare a 1-D periodic stencil ``u[i] <- f(u[i-1], u[i], u[i+1])``
    and run it distributed over simulated ranks with TAGASPI halos."""

    def __init__(self, size, n_ranks, update):
        assert size % n_ranks == 0
        self.size = size
        self.n_ranks = n_ranks
        self.local_n = size // n_ranks
        self.update = update

    # -- the "generated back-end" -----------------------------------------
    def run(self, steps, u0):
        eng = Engine()
        cluster = Cluster(eng, self.n_ranks, INFINIBAND)
        cluster.place_ranks_block(self.n_ranks, 1)
        gaspi = GaspiContext(cluster, n_queues=2)
        rts = [Runtime(eng, RuntimeConfig(n_cores=2), f"r{r}")
               for r in range(self.n_ranks)]
        tgs = [TAGASPI(rts[r], gaspi.rank(r), poll_period_us=50)
               for r in range(self.n_ranks)]

        # field storage: local slice plus one halo cell per side and per
        # step parity (parity-alternating slots + notification ids make the
        # dependency chain close without explicit ack notifications)
        locals_ = []
        for r in range(self.n_ranks):
            buf = np.zeros(self.local_n + 4)  # [haloL0 haloL1 | u | haloR0 haloR1]
            buf[2:-2] = u0[r * self.local_n : (r + 1) * self.local_n]
            gaspi.rank(r).segment_register(0, buf)
            locals_.append(buf)

        def make_main(r):
            left = (r - 1) % self.n_ranks
            right = (r + 1) % self.n_ranks
            tg, buf = tgs[r], locals_[r]

            n = self.local_n

            def main(rt):
                for t in range(steps):
                    par = t % 2  # parity-alternating halo slot + notif id

                    def send_edges(task, par=par, t=t):
                        # my left edge -> left neighbour's right halo slot
                        tg.write_notify(0, 2, left, 0, n + 2 + par, 1,
                                        notif_id=2 + par, notif_val=t + 1,
                                        queue=0)
                        # my right edge -> right neighbour's left halo slot
                        tg.write_notify(0, n + 1, right, 0, par, 1,
                                        notif_id=par, notif_val=t + 1,
                                        queue=1)
                    rt.submit(send_edges, [In(("u", r))], label="halo-send")

                    def wait_halos(task, par=par):
                        tg.notify_iwait(0, par)        # left halo arrived
                        tg.notify_iwait(0, 2 + par)    # right halo arrived
                    rt.submit(wait_halos, [Out(("halo", r))], label="halo-wait")

                    def compute(task, par=par):
                        full = np.empty(n + 2)
                        full[0] = buf[par]             # left halo (this parity)
                        full[1:-1] = buf[2:-2]
                        full[-1] = buf[n + 2 + par]    # right halo
                        buf[2:-2] = self.update(full[:-2], full[1:-1], full[2:])
                        task.charge(n * 2e-9)
                    rt.submit(compute, [InOut(("u", r)), In(("halo", r))],
                              label="compute")
                yield from rt.taskwait()

            return main

        procs = [rts[r].spawn_main(make_main(r)) for r in range(self.n_ranks)]
        eng.run_until_complete(procs)
        out = np.concatenate([b[2:-2] for b in locals_])
        return out, eng.now


def main():
    size, steps, ranks = 64, 5, 4
    rng = np.random.default_rng(1)
    u0 = rng.random(size)

    # the "DSL program": a diffusion stencil as a plain expression
    diffuse = lambda left, mid, right: 0.25 * left + 0.5 * mid + 0.25 * right

    prog = StencilProgram(size, ranks, diffuse)
    result, sim_t = prog.run(steps, u0)

    # sequential reference with periodic boundaries
    ref = u0.copy()
    for _ in range(steps):
        ref = diffuse(np.roll(ref, 1), ref, np.roll(ref, -1))

    err = np.abs(result - ref).max()
    print(f"distributed stencil over {ranks} ranks, {steps} steps: "
          f"max |err| = {err:.3e}, simulated time {sim_t*1e6:.1f} us")
    assert err < 1e-12
    print("matches the sequential reference.")


if __name__ == "__main__":
    main()
