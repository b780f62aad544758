"""Tests for the killed first-passage recursion.

Oracles: the same recursion one row at a time, and a plain per-step loop
written out here that checks the state for overflow at every step.  Rows
that cannot overflow take block steps, one banded product per 32 steps:
their excursion weights agree with the per-step loop within 1e-12
relative, with the same zeros, divergence flag and stopping step.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softpin.lattice import first_passage, layout
from softpin.localization import DIVERGENCE_CAP
from softpin.model import ChargeModel, PotentialSpec, WalkSpec, phi_eval, psi

WALK = WalkSpec(alpha=0.6)
SPECS = {
    "folded": PotentialSpec(kind="power_tail", theta=3.0),
    "signed": PotentialSpec(kind="copolymer"),
}


def reference_first_passage(ker, w, w0, m_max, cap):
    """One walk, the overflow check on every step."""
    origin = ker.origin
    a = np.zeros(m_max + 1)
    v = np.zeros(len(w))
    v[origin] = 1.0
    partial = 0.0
    for n in range(1, m_max + 1):
        v = ker.step(v)
        if v[origin]:
            a[n] = v[origin] * w0
        v[origin] = 0.0
        v = v * w
        partial += a[n]
        if not (partial <= cap and v.max() <= 1e200):
            return a, True, n
    return a, False, m_max


def assert_matches(got, want):
    """a within 1e-12 relative and with the same zeros; the divergence flag
    and the stopping step exactly."""
    np.testing.assert_allclose(got[0], want[0], rtol=1e-12, atol=0)
    assert np.array_equal(got[0] == 0.0, want[0] == 0.0)
    assert got[1:] == want[1:]


def below_overflow_bound(w, m_max):
    """Rows whose largest weight keeps max(w)^m_max below 1e200."""
    return [top <= 1.0 or m_max * math.log(top) <= math.log(1e200)
            for top in np.atleast_2d(w).max(axis=1).tolist()]


def site_weights(spec, m_max, scales):
    """exp(c * phi(x)) rows, one per scale c, and the lattice they live on."""
    ker = layout(WALK, spec, m_max)
    w = np.exp(np.outer(scales, phi_eval(spec, ker.heights)))
    w[:, ker.origin] = 0.0
    return ker, w


@pytest.mark.parametrize("lattice", ["folded", "signed"])
def test_rows_equal_one_row_at_a_time(lattice):
    m_max = 256
    # a row whose state passes 1e200 next to a decaying one (rows share one
    # lattice, so a stopped row must not leak into the next), a slowly
    # growing one, one whose return weight passes the cap and one whose
    # return weight overflows
    scales = [30.0, -0.5, 0.01, 0.3, 0.2]
    w0 = [1.0, 1.0, 1.2, 1e13, math.inf]
    ker, w = site_weights(SPECS[lattice], m_max, scales)
    a, diverged, m_stop = first_passage(ker, w, w0, m_max, DIVERGENCE_CAP)
    assert a.shape == (5, m_max + 1)
    assert diverged.tolist() == [True, False, False, True, True]
    assert m_stop[3] == m_stop[4] == 2
    for i in range(len(w0)):
        a_i, diverged_i, m_stop_i = first_passage(ker, w[i], w0[i], m_max,
                                                  DIVERGENCE_CAP)
        assert np.array_equal(a[i], a_i)
        assert diverged[i] == diverged_i and m_stop[i] == m_stop_i
        assert type(diverged_i) is bool and type(m_stop_i) is int


def test_row_shape_is_kept():
    ker, w = site_weights(SPECS["folded"], 16, [-0.5, 0.1, 0.2, 0.3])
    a, diverged, m_stop = first_passage(ker, w.reshape(2, 2, -1),
                                        np.ones((2, 2)), 16, DIVERGENCE_CAP)
    assert a.shape == (2, 2, 17)
    assert diverged.shape == m_stop.shape == (2, 2)
    assert np.array_equal(a.reshape(4, -1)[3], first_passage(
        ker, w[3], 1.0, 16, DIVERGENCE_CAP)[0])


@pytest.mark.parametrize("cap", [DIVERGENCE_CAP, math.inf])
@pytest.mark.parametrize("side", [-1e-9, 1e-9, 2.0])
def test_overflow_check_skip_matches_a_per_step_check(cap, side):
    # largest site weight exp(psi+) at height 1, with m_max * psi+ just
    # below or just above log(1e200): the bound sum(v_n) <= max(w)^n then
    # just holds or just fails; at three times the bound and no cap the
    # state passes 1e200
    m_max = 64
    spec = SPECS["folded"]
    psi_plus = math.log(1e200) / m_max * (1.0 + side)
    ker, w = site_weights(spec, m_max, [psi_plus / phi_eval(spec, 1)])
    assert w.max() == pytest.approx(math.exp(psi_plus))
    got = first_passage(ker, w[0], 1.0, m_max, cap)
    want = reference_first_passage(ker, w[0], 1.0, m_max, cap)
    assert_matches(got, want)


def test_small_positive_psi_matches_a_per_step_check():
    # power tail, theta = 3, Gaussian charges, beta = 1, h = 0:
    # psi+ = 0.0078 off the origin, far below the overflow bound
    m_max = 4096
    spec = SPECS["folded"]
    ker = layout(WALK, spec, m_max)
    phi = phi_eval(spec, ker.heights)
    w = np.exp(0.5 * phi * phi)
    w[ker.origin] = 0.0
    got = first_passage(ker, w, math.exp(0.5), m_max, DIVERGENCE_CAP)
    want = reference_first_passage(ker, w, math.exp(0.5), m_max,
                                   DIVERGENCE_CAP)
    assert_matches(got, want)


# ------------------------------------------------------------- block steps

@pytest.mark.parametrize("lattice", ["folded", "signed"])
@pytest.mark.parametrize("m_max", [256, 257, 255, 20])
@pytest.mark.parametrize("scale", [-0.5, 0.05])
def test_block_steps_match_a_per_step_loop(lattice, m_max, scale):
    # m_max a multiple of the 32-step block, one off it either way, and
    # shorter than one block (on a 19- or 37-site lattice)
    ker, w = site_weights(SPECS[lattice], m_max, [scale])
    assert below_overflow_bound(w, m_max) == [True]
    for w0 in (1.0, 1.3):
        assert_matches(first_passage(ker, w[0], w0, m_max, DIVERGENCE_CAP),
                       reference_first_passage(ker, w[0], w0, m_max,
                                               DIVERGENCE_CAP))


@pytest.mark.parametrize("lattice", ["folded", "signed"])
def test_block_steps_on_a_lattice_narrower_than_the_band(lattice):
    # l = 5: 6 or 11 sites, fewer than the 65 diagonals of a 32-step block
    m_max, spec = 300, SPECS[lattice]
    ker = layout(WALK, spec, m_max, l=5)
    w = np.exp(0.02 * phi_eval(spec, ker.heights))
    w[ker.origin] = 0.0
    assert len(w) < 65
    assert_matches(first_passage(ker, w, 1.0, m_max, DIVERGENCE_CAP),
                   reference_first_passage(ker, w, 1.0, m_max,
                                           DIVERGENCE_CAP))


def test_cap_crossing_inside_a_block():
    # the cap sits halfway between the partial sums after steps 44 and 46,
    # so the sum crosses it at step 46, in the middle of the second block
    m_max = 256
    ker, w = site_weights(SPECS["folded"], m_max, [0.05])
    partial = np.cumsum(reference_first_passage(ker, w[0], 1.0, m_max,
                                                math.inf)[0])
    cap = 0.5 * (partial[44] + partial[46])
    want = reference_first_passage(ker, w[0], 1.0, m_max, cap)
    assert want[1:] == (True, 46)
    assert_matches(first_passage(ker, w[0], 1.0, m_max, cap), want)


@pytest.mark.parametrize("lattice", ["folded", "signed"])
def test_overflowing_return_weight_stops_at_the_first_return(lattice):
    # w0 = inf: the zero returns of step 1 add 0, not 0 * inf = NaN
    ker, w = site_weights(SPECS[lattice], 256, [-0.5])
    a, diverged, m_stop = first_passage(ker, w[0], math.inf, 256,
                                        DIVERGENCE_CAP)
    assert diverged and m_stop == 2
    assert not np.isnan(a).any()
    assert a[2] == math.inf and np.count_nonzero(a) == 1


def test_mixed_batch_equals_one_row_calls_bit_for_bit():
    # rows below the overflow bound take block steps, the others the
    # per-step loop; each row takes the same path in a batch as alone
    m_max, spec = 300, SPECS["signed"]
    ker, w = site_weights(spec, m_max, [0.001, 5.0, -0.3, 3.0, 0.01])
    w0 = [1.0, 1.0, 1.0, 1.0, math.inf]
    bounded = below_overflow_bound(w, m_max)
    assert bounded == [True, False, True, False, True]
    a, diverged, m_stop = first_passage(ker, w, w0, m_max, DIVERGENCE_CAP)
    for i in range(len(w0)):
        one = first_passage(ker, w[i], w0[i], m_max, DIVERGENCE_CAP)
        assert np.array_equal(a[i], one[0])
        assert (diverged[i], m_stop[i]) == one[1:]
        want = reference_first_passage(ker, w[i], w0[i], m_max,
                                       DIVERGENCE_CAP)
        if bounded[i]:
            assert_matches(one, want)
        else:  # the per-step loop keeps its bits
            assert np.array_equal(one[0], want[0]) and one[1:] == want[1:]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(alpha=st.floats(0.05, 0.95),
       kind=st.sampled_from(["pinning", "copolymer", "power_tail"]),
       law=st.sampled_from(["gaussian", "bernoulli_pm1"]),
       beta=st.floats(0.0, 3.0), h=st.floats(-1.0, 1.0),
       m_max=st.integers(4, 200))
def test_block_steps_match_a_per_step_loop_anywhere(alpha, kind, law, beta,
                                                    h, m_max):
    walk = WalkSpec(alpha=alpha)
    spec = (PotentialSpec(kind=kind, theta=3.0) if kind == "power_tail"
            else PotentialSpec(kind=kind))
    ker = layout(walk, spec, m_max)
    psi_x = psi(ChargeModel(law), spec, beta, h, ker.heights)
    w, w0 = np.exp(psi_x), math.exp(psi_x[ker.origin])
    w[ker.origin] = 0.0
    assert_matches(first_passage(ker, w, w0, m_max, DIVERGENCE_CAP),
                   reference_first_passage(ker, w, w0, m_max,
                                           DIVERGENCE_CAP))
