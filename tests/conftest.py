import functools
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
    from heisgeo.verify import VerifyConfig, run_all

    return functools.cache(lambda seed: run_all(VerifyConfig(seed=seed)))
