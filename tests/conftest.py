import functools
import math
import os
import select
import sys
from pathlib import Path

import pytest

try:
    import heisgeo  # noqa: F401
except ImportError:  # run from a source checkout without installing
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))


@pytest.fixture(scope="session")
def full_run():
    """``verify.run_all`` of every claim at a seed, run once per session:
    ``full_run(seed)`` is the ``Report``.  Read it; do not change it."""
    from heisgeo.verify import run_all

    return functools.cache(run_all)


@pytest.fixture
def worker_first(monkeypatch):
    """``worker_first(cids, worker_side)`` readies a full ``run_all`` on
    two processes (two usable CPUs are reported, and no quota) and wraps
    the producers of ``cids``: in the forked worker a producer writes a byte
    to a side pipe and returns ``worker_side(producer, seed)``; in the
    calling process it first waits, up to 10 s, for such a byte.  So the
    caller runs none of them before the worker has started one, and the
    worker is sure to.  The wrappers carry no ``__wrapped__``, which would
    keep the run in one process."""
    from heisgeo import verify

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(verify, "_quota_cpus", lambda: math.inf)
    parent = os.getpid()
    started, mark = os.pipe()

    def wrap(producer, worker_side):
        def run(seed):
            if os.getpid() != parent:
                os.write(mark, b"w")
                return worker_side(producer, seed)
            select.select([started], [], [], 10.0)
            return producer(seed)

        return run

    def apply(cids, worker_side):
        for cid in cids:
            monkeypatch.setitem(verify.CLAIMS, cid, wrap(verify.CLAIMS[cid], worker_side))

    yield apply
    os.close(started)
    os.close(mark)
