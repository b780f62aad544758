"""Tests for the killed first-passage recursion.

Oracles: the same recursion one row at a time, and a plain per-step loop
written out here that checks the state for overflow at every step.
"""

import math

import numpy as np
import pytest

from softpin.lattice import first_passage, layout
from softpin.localization import DIVERGENCE_CAP
from softpin.model import PotentialSpec, WalkSpec, phi_eval

WALK = WalkSpec(alpha=0.6)
SPECS = {
    "folded": PotentialSpec(kind="power_tail", theta=3.0),
    "signed": PotentialSpec(kind="copolymer"),
}


def reference_first_passage(ker, origin, w, w0, m_max, cap):
    """One walk, the overflow check on every step."""
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


def site_weights(spec, m_max, scales):
    """exp(c * phi(x)) rows, one per scale c, and the lattice they live on."""
    ker, heights, origin = layout(WALK, spec, m_max)
    w = np.exp(np.outer(scales, phi_eval(spec, heights)))
    w[:, origin] = 0.0
    return ker, origin, w


@pytest.mark.parametrize("lattice", ["folded", "signed"])
def test_rows_equal_one_row_at_a_time(lattice):
    m_max = 256
    # a row whose state passes 1e200 next to a decaying one (rows share one
    # lattice, so a stopped row must not leak into the next), a slowly
    # growing one, one whose return weight passes the cap and one whose
    # return weight overflows
    scales = [30.0, -0.5, 0.01, 0.3, 0.2]
    w0 = [1.0, 1.0, 1.2, 1e13, math.inf]
    ker, origin, w = site_weights(SPECS[lattice], m_max, scales)
    a, diverged, m_stop = first_passage(ker, origin, w, w0, m_max,
                                        DIVERGENCE_CAP)
    assert a.shape == (5, m_max + 1)
    assert diverged.tolist() == [True, False, False, True, True]
    assert m_stop[3] == m_stop[4] == 2
    for i in range(len(w0)):
        a_i, diverged_i, m_stop_i = first_passage(ker, origin, w[i], w0[i],
                                                  m_max, DIVERGENCE_CAP)
        assert np.array_equal(a[i], a_i)
        assert diverged[i] == diverged_i and m_stop[i] == m_stop_i
        assert type(diverged_i) is bool and type(m_stop_i) is int


def test_row_shape_is_kept():
    ker, origin, w = site_weights(SPECS["folded"], 16, [-0.5, 0.1, 0.2, 0.3])
    a, diverged, m_stop = first_passage(ker, origin, w.reshape(2, 2, -1),
                                        np.ones((2, 2)), 16, DIVERGENCE_CAP)
    assert a.shape == (2, 2, 17)
    assert diverged.shape == m_stop.shape == (2, 2)
    assert np.array_equal(a.reshape(4, -1)[3], first_passage(
        ker, origin, w[3], 1.0, 16, DIVERGENCE_CAP)[0])


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
    ker, origin, w = site_weights(spec, m_max,
                                  [psi_plus / phi_eval(spec, 1)])
    assert w.max() == pytest.approx(math.exp(psi_plus))
    got = first_passage(ker, origin, w[0], 1.0, m_max, cap)
    want = reference_first_passage(ker, origin, w[0], 1.0, m_max, cap)
    assert np.array_equal(got[0], want[0]) and got[1:] == want[1:]


def test_small_positive_psi_matches_a_per_step_check():
    # power tail, theta = 3, Gaussian charges, beta = 1, h = 0:
    # psi+ = 0.0078 off the origin, far below the overflow bound
    m_max = 4096
    spec = SPECS["folded"]
    ker, heights, origin = layout(WALK, spec, m_max)
    phi = phi_eval(spec, heights)
    w = np.exp(0.5 * phi * phi)
    w[origin] = 0.0
    got = first_passage(ker, origin, w, math.exp(0.5), m_max, DIVERGENCE_CAP)
    want = reference_first_passage(ker, origin, w, math.exp(0.5), m_max,
                                   DIVERGENCE_CAP)
    assert np.array_equal(got[0], want[0]) and got[1:] == want[1:]
