"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim import Engine
from repro.network import Cluster, OMNIPATH, INFINIBAND


@pytest.fixture
def engine():
    return Engine()


@pytest.fixture
def cluster2(engine):
    """Two nodes, one rank each, Omni-Path fabric, no jitter."""
    cl = Cluster(engine, 2, OMNIPATH)
    cl.place_ranks_block(2, 1)
    return cl


@pytest.fixture
def cluster4(engine):
    """Two nodes, two ranks each (mixed intra/inter paths)."""
    cl = Cluster(engine, 2, OMNIPATH)
    cl.place_ranks_block(4, 2)
    return cl


class _AllDone(Exception):
    """Raised by the completion callback of the last live process."""


def run_all(engine, procs, max_events=2_000_000):
    """Run the engine until every process in ``procs`` terminated; raise
    the first failure encountered."""
    pending = list(procs)
    live = [p for p in pending if not p.triggered]
    left = [len(live)]

    def _done(_event):
        left[0] -= 1
        if not left[0]:
            raise _AllDone

    for p in live:
        p.add_callback(_done)
    if live:
        try:
            engine.run(max_events=max_events)
        except _AllDone:
            pass
        else:
            alive = [p.name for p in pending if not p.triggered]
            raise AssertionError(f"deadlock: processes still alive: {alive}")
        finally:
            for p in live:
                if not p.triggered:
                    p.callbacks.remove(_done)
    for p in pending:
        if p.ok is False:
            raise p.value
    return engine.now
