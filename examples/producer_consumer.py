#!/usr/bin/env python
"""The paper's core patterns, written directly against the library API.

Reproduces, in runnable form, the code of the paper's figures:

* Fig. 3/4 — a writer task (``tagaspi_write_notify``) whose dependencies
  release only at local completion, and a receiver wait task
  (``tagaspi_notify_iwait``) feeding a consumer task;
* Fig. 5   — the iterative producer-consumer pattern with an extra
  wait-ack task;
* Fig. 8   — the same pattern with the ``onready`` clause instead.

    python examples/producer_consumer.py
"""

import numpy as np

from repro.core import TAGASPI
from repro.gaspi import GaspiContext
from repro.network import Cluster, INFINIBAND
from repro.sim import Engine
from repro.tasking import In, InOut, Out, Runtime, RuntimeConfig

N, ITERS = 64, 4


def build():
    eng = Engine()
    cluster = Cluster(eng, 2, INFINIBAND)
    cluster.place_ranks_block(2, 1)
    gaspi = GaspiContext(cluster, n_queues=4)
    rts = [Runtime(eng, RuntimeConfig(n_cores=2), f"rank{r}") for r in (0, 1)]
    tgs = [TAGASPI(rts[r], gaspi.rank(r), poll_period_us=50) for r in (0, 1)]
    return eng, cluster, gaspi, rts, tgs


def main():
    eng, cluster, gaspi, (rt0, rt1), (tg0, tg1) = build()

    A = np.zeros(N)            # sender buffer, inside segment 0 of rank 0
    B = np.zeros(N)            # receiver buffer, segment 0 of rank 1
    gaspi.rank(0).segment_register(0, A)
    gaspi.rank(1).segment_register(0, B)
    log = []

    # ----- sender rank (Fig. 8: onready-protected writer) ---------------
    def sender_main(rt):
        for i in range(ITERS):
            def update(task, i=i):
                A[:] = i + 1          # produce this iteration's data
                task.charge(2e-6)
            rt.submit(update, [InOut("A")], label="update")

            def ack_iwait(task):
                # pre-event: delays the writer until the receiver's ack
                tg0.notify_iwait(0, 20)

            def write_data(task, i=i):
                tg0.write_notify(0, 0, 1, 0, 0, N,
                                 notif_id=10, notif_val=i + 1, queue=i % 4)
            rt.submit(write_data, [In("A")], label="write data",
                      onready=ack_iwait if i > 0 else None)
        yield from rt.taskwait()

    # ----- receiver rank (Fig. 4 + ack inside the consumer, §IV-B) ------
    def receiver_main(rt):
        for i in range(ITERS):
            notified = [0]

            def wait_data(task, notified=notified):
                tg1.notify_iwait(0, 10, notified)
            rt.submit(wait_data, [Out("B"), Out("notified")], label="wait data")

            def process(task, i=i, notified=notified):
                log.append((i, float(B[0]), notified[0]))
                task.charge(3e-6)
                if i < ITERS - 1:  # ack: sender may overwrite B now
                    tg1.notify(0, 0, notif_id=20, notif_val=i + 1, queue=0)
            rt.submit(process, [In("B"), In("notified")], label="process")
        yield from rt.taskwait()

    p0 = rt0.spawn_main(sender_main)
    p1 = rt1.spawn_main(receiver_main)
    eng.run_until_complete([p0, p1])

    print("iteration  received  notified-value")
    for i, val, nv in log:
        print(f"{i:9d}  {val:8.1f}  {nv:14d}")
    assert [v for _, v, _ in log] == [1.0, 2.0, 3.0, 4.0]
    print(f"\ncompleted in {eng.now*1e6:.1f} simulated us; "
          f"{cluster.stats.messages} messages on the wire")


if __name__ == "__main__":
    main()
