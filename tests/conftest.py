import gc
import math
from dataclasses import replace
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


def tiled(ker, r: int):
    """``ker`` on r rows laid end to end on one flat lattice, for oracles
    that step every site of many rows at once.  No mass crosses between
    rows, as p_up is 0 on each row's top site and p_down on its bottom
    one."""
    return replace(ker, p_up=np.tile(ker.p_up, r),
                   p_down=np.tile(ker.p_down, r))


def log_step(ker, v, out):
    """``ker.step`` of the flat state v held in logs, one logaddexp per
    site, into ``out``, which must not share memory with v."""
    with np.errstate(divide="ignore"):  # -inf where p is 0: rows never mix
        log_up, log_down = np.log(ker.p_up[:-1]), np.log(ker.p_down[1:])
    np.add(v[:-1], log_up, out=out[1:])
    out[0] = -math.inf
    np.logaddexp(out[:-1], v[1:] + log_down, out=out[:-1])
    return out


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


def arrays_left_in_cycles(call) -> list[np.ndarray]:
    """The arrays that garbage in reference cycles holds after call().

    call runs once to warm imports and caches, then again with the cyclic
    collector off; what a collection then finds unreachable is garbage
    that only a cyclic collection frees."""
    call()
    gc.collect()
    gc.disable()
    try:
        call()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        return [x for obj in gc.garbage for x in gc.get_referents(obj)
                if isinstance(x, np.ndarray)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
