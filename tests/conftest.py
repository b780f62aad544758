import gc
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from softpin.cli import _write
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


def log_uniform(top: float, zero: bool = True):
    """10^u for u uniform on [-log10(top), log10(top)], or 0 unless zero
    is False: couplings and amplitudes from vanishing to past overflow."""
    e = math.log10(top)
    powers = st.floats(-e, e).map(lambda u: 10.0 ** u)
    return st.one_of(st.just(0.0), powers) if zero else powers


def signed(magnitudes):
    """Either sign of a magnitude drawn from ``magnitudes``."""
    return st.tuples(st.sampled_from([1.0, -1.0]), magnitudes).map(
        lambda t: t[0] * t[1])


# every kind of potential, its amplitude or table values up to 1e10
potential_specs = st.one_of(
    st.builds(PotentialSpec, kind=st.sampled_from(["pinning", "copolymer"]),
              amplitude=log_uniform(1e10, zero=False)),
    st.builds(PotentialSpec, kind=st.just("power_tail"),
              amplitude=log_uniform(1e10, zero=False),
              theta=st.floats(0.1, 6.0)),
    st.builds(PotentialSpec, kind=st.just("table"), table=st.dictionaries(
        st.integers(-4, 4), log_uniform(1e10), min_size=1,
    ).filter(lambda t: any(v > 0 for v in t.values()))),
)


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
    """Write one table of row dicts through the CLI's one writer,
    ``cli._write``, as ``rows.csv``; returns the CSV lines.

    The three comment lines come first, the first being
    ``# config sha256 abc``; the column line is line 3.
    """
    def write(columns, rows):
        _write([("rows", columns, rows)], str(tmp_path), "csv", "",
               {"config_sha256": "abc", "version": "0", "subcommand": "test"})
        return (tmp_path / "rows.csv").read_text(encoding="utf-8").splitlines()
    return write


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
