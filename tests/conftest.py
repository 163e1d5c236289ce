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


def run_all(engine, procs, max_events=2_000_000):
    """Run the engine until every process in ``procs`` terminated; raise
    the first failure encountered, or a deadlock error naming the
    processes still alive."""
    engine.run_until_complete(procs, max_events=max_events)
    return engine.now
