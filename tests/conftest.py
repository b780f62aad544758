from pathlib import Path

import numpy as np
import pytest

from softpin.cli import RunContext, _emit
from softpin.model import ChargeModel, PotentialSpec, WalkSpec

TESTS = Path(__file__).parent


def pytest_collection_modifyitems(config, items):
    """A RuntimeWarning fails a test of this directory: an unguarded
    overflow, 0 * inf or log of 0 is how a non-finite number slips out of
    the library.  So does a UserWarning issued from softpin code (a module
    under ``softpin``, the caller by the warning's stacklevel): the library
    warns only when a result is outside its documented accuracy.  Tests
    that expect one catch it with ``pytest.warns``.  Tests elsewhere, such
    as the benchmark's, keep the default filters."""
    for item in items:
        if item.path.is_relative_to(TESTS):
            for rule in ("error::RuntimeWarning", "error::UserWarning:softpin"):
                item.add_marker(pytest.mark.filterwarnings(rule))


@pytest.fixture
def gaussian():
    return ChargeModel("gaussian")


@pytest.fixture
def bernoulli():
    return ChargeModel("bernoulli_pm1")


@pytest.fixture
def pinning():
    return PotentialSpec(kind="pinning")


@pytest.fixture
def srw():
    # alpha = 1/2 is the simple random walk: d(x) == 0
    return WalkSpec(alpha=0.5)


@pytest.fixture
def emit(tmp_path):
    """Write row dicts through the CLI's one writer; returns the CSV lines.

    The three comment lines come first, the first being
    ``# config sha256 abc``; the column line is line 3.
    """
    def write(columns, rows):
        ctx = RunContext(seed=0, out_dir=str(tmp_path), fmt="csv", prefix="",
                         meta={"config_sha256": "abc", "version": "0",
                               "subcommand": "test"})
        path = _emit(ctx, "rows", columns, rows)
        return Path(path).read_text(encoding="utf-8").splitlines()
    return write


def enumerate_srw_first_return(n: int) -> float:
    """Oracle: P(first return to 0 at step n) for the simple random walk,
    by exhaustive enumeration of all 2^n sign paths."""
    count = 0
    for bits in range(2 ** n):
        s = 0
        hit = None
        for i in range(n):
            s += 1 if (bits >> i) & 1 else -1
            if s == 0:
                hit = i + 1
                break
        if hit == n:
            count += 1
    return count / 2.0 ** n


def random_walks(rng: np.random.Generator, n: int):
    for _ in range(n):
        yield WalkSpec(alpha=float(rng.uniform(0.05, 0.95)))
