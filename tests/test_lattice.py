"""Tests for the killed first-passage recursion.

Oracles: the same recursion one row at a time, two per-step loops and
the block loop of one row written out here, and dense matrix powers.  Rows
that cannot overflow take block steps, all of a call's rows in one banded
product per 32 steps: each has the bits of the one-row block loop, and
their excursion weights agree with a plain linear loop within 1e-12
relative, with the same zeros, divergence flag and stopping step.  Every
other row runs in logs and agrees, in the same way, with a per-site log
recursion.
"""

import itertools
import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import softpin.lattice
from softpin.lattice import first_passage, layout
from softpin.localization import DIVERGENCE_CAP
from softpin.model import ChargeModel, PotentialSpec, WalkSpec, phi_eval, psi

from conftest import log_step, tiled

WALK = WalkSpec(alpha=0.6)
SPECS = {
    "folded": PotentialSpec(kind="power_tail", theta=3.0),
    "signed": PotentialSpec(kind="copolymer"),
}


def crossed(partial, cap):
    """The one stopping rule: the partial sum passes cap or overflows."""
    return not partial <= min(cap, sys.float_info.max)


def reference_first_passage(ker, log_w, log_w0, m_max, cap):
    """One walk in linear weights, one step at a time."""
    origin = ker.origin
    w = np.exp(np.where(np.arange(len(log_w)) == origin, -math.inf, log_w))
    try:
        w0 = math.exp(log_w0)
    except OverflowError:
        w0 = math.inf
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
        if crossed(partial, cap):
            return a, True, n
    return a, False, m_max


def log_add(x, y):
    """log(e^x + e^y)."""
    if x < y:
        x, y = y, x
    return x if y == -math.inf else x + math.log1p(math.exp(y - x))


def reference_log_passage(ker, log_w, log_w0, m_max, cap):
    """One walk in logs, one site at a time: exact at any weights."""
    sites, origin = len(log_w), ker.origin
    ninf = -math.inf
    log_up = [math.log(p) if p > 0.0 else ninf for p in ker.p_up]
    log_down = [math.log(p) if p > 0.0 else ninf for p in ker.p_down]
    a = np.zeros(m_max + 1)
    v = [ninf] * sites
    v[origin] = 0.0
    partial = 0.0
    for n in range(1, m_max + 1):
        nxt = [ninf] * sites
        for i in range(sites):
            if i > 0:
                nxt[i] = v[i - 1] + log_up[i - 1]
            if i + 1 < sites:
                nxt[i] = log_add(nxt[i], v[i + 1] + log_down[i + 1])
        try:
            a[n] = math.exp(nxt[origin] + log_w0)
        except OverflowError:
            a[n] = math.inf
        nxt[origin] = ninf
        v = [x + y for x, y in zip(nxt, log_w)]
        partial += a[n]
        if crossed(partial, cap):
            return a, True, n
    return a, False, m_max


def assert_matches(got, want):
    """a within 1e-12 relative and with the same zeros; the divergence flag
    and the stopping step exactly."""
    np.testing.assert_allclose(got[0], want[0], rtol=1e-12, atol=0)
    assert np.array_equal(got[0] == 0.0, want[0] == 0.0)
    assert got[1:] == want[1:]


def in_logs(ker, log_w, m_max):
    """Rows whose largest weight off the origin lets max(w)^m_max pass
    1e200: those run in logs."""
    top = np.delete(np.atleast_2d(log_w), ker.origin, axis=1).max(axis=1)
    return [not (t <= 0.0 or m_max * t <= math.log(1e200))
            for t in top.tolist()]


def reference(ker, log_w, log_w0, m_max, cap):
    """The oracle of the row's own path."""
    slow = in_logs(ker, log_w, m_max)[0]
    return (reference_log_passage if slow else reference_first_passage)(
        ker, log_w, log_w0, m_max, cap)


def log_site_weights(spec, m_max, scales):
    """c * phi(x) rows, one per scale c, and the lattice they live on."""
    ker = layout(WALK, spec, m_max)
    return ker, np.outer(scales, phi_eval(spec, ker.heights))


@pytest.mark.parametrize("lattice", ["folded", "signed"])
def test_rows_equal_one_row_at_a_time(lattice):
    m_max = 256
    # a row run in logs whose sum passes the cap next to a decaying one
    # (rows share one lattice, so a stopped row must not leak into the
    # next), a slowly growing one, one whose return weight passes the cap
    # and one whose return weight overflows
    scales = [30.0, -0.5, 0.01, 0.3, 0.2]
    log_w0 = [0.0, 0.0, math.log(1.2), math.log(1e13), 800.0]
    ker, log_w = log_site_weights(SPECS[lattice], m_max, scales)
    assert in_logs(ker, log_w, m_max) == [True] + [False] * 4
    a, diverged, m_stop = first_passage(ker, log_w, log_w0, m_max,
                                        DIVERGENCE_CAP)
    assert a.shape == (5, m_max + 1)
    assert diverged.tolist() == [True, False, False, True, True]
    assert m_stop[3] == m_stop[4] == 2
    for i in range(len(log_w0)):
        one = first_passage(ker, log_w[i], log_w0[i], m_max, DIVERGENCE_CAP)
        assert np.array_equal(a[i], one[0])
        assert diverged[i] == one[1] and m_stop[i] == one[2]
        assert type(one[1]) is bool and type(one[2]) is int
        assert_matches(one, reference(ker, log_w[i], log_w0[i], m_max,
                                      DIVERGENCE_CAP))


def test_row_shape_is_kept():
    ker, log_w = log_site_weights(SPECS["folded"], 16, [-0.5, 0.1, 0.2, 40.0])
    a, diverged, m_stop = first_passage(ker, log_w.reshape(2, 2, -1),
                                        np.zeros((2, 2)), 16, DIVERGENCE_CAP)
    assert a.shape == (2, 2, 17)
    assert diverged.shape == m_stop.shape == (2, 2)
    assert np.array_equal(a.reshape(4, -1)[3], first_passage(
        ker, log_w[3], 0.0, 16, DIVERGENCE_CAP)[0])


@pytest.mark.parametrize("cap", [DIVERGENCE_CAP, math.inf])
@pytest.mark.parametrize("side", [-1e-9, 1e-9, 2.0])
def test_overflow_check_skip_matches_a_per_step_check(cap, side):
    # largest site weight exp(psi+) at height 1, with m_max * psi+ just
    # below or just above log(1e200): the bound sum(v_n) <= max(w)^n then
    # just holds, and the row takes block steps, or just fails, and it runs
    # in logs; at three times the bound and no cap the sum overflows
    m_max = 64
    spec = SPECS["folded"]
    psi_plus = math.log(1e200) / m_max * (1.0 + side)
    ker, log_w = log_site_weights(spec, m_max, [psi_plus / phi_eval(spec, 1)])
    assert np.delete(log_w, ker.origin).max() == pytest.approx(psi_plus)
    assert in_logs(ker, log_w, m_max) == [side > 0]
    got = first_passage(ker, log_w[0], 0.0, m_max, cap)
    assert_matches(got, reference(ker, log_w[0], 0.0, m_max, cap))
    if side == 2.0:
        assert got[1] and (cap == math.inf) == (got[0][got[2]] == math.inf)


def test_small_positive_psi_matches_a_per_step_check():
    # power tail, theta = 3, Gaussian charges, beta = 1, h = 0:
    # psi+ = 0.0078 off the origin, far below the overflow bound
    m_max = 4096
    spec = SPECS["folded"]
    ker = layout(WALK, spec, m_max)
    phi = phi_eval(spec, ker.heights)
    log_w = 0.5 * phi * phi
    got = first_passage(ker, log_w, 0.5, m_max, DIVERGENCE_CAP)
    want = reference_first_passage(ker, log_w, 0.5, m_max, DIVERGENCE_CAP)
    assert_matches(got, want)


# ------------------------------------------------------------- block steps

@pytest.mark.parametrize("lattice", ["folded", "signed"])
@pytest.mark.parametrize("m_max", [256, 257, 255, 20])
@pytest.mark.parametrize("scale", [-0.5, 0.05])
def test_block_steps_match_a_per_step_loop(lattice, m_max, scale):
    # m_max a multiple of the 32-step block, one off it either way, and
    # shorter than one block (on a 19- or 37-site lattice)
    ker, log_w = log_site_weights(SPECS[lattice], m_max, [scale])
    assert in_logs(ker, log_w, m_max) == [False]
    for log_w0 in (0.0, math.log(1.3)):
        assert_matches(
            first_passage(ker, log_w[0], log_w0, m_max, DIVERGENCE_CAP),
            reference_first_passage(ker, log_w[0], log_w0, m_max,
                                    DIVERGENCE_CAP))


@pytest.mark.parametrize("lattice", ["folded", "signed"])
def test_block_steps_on_a_lattice_narrower_than_the_band(lattice):
    # l = 5: 6 or 11 sites, fewer than the 33 diagonals of a 32-step block
    # on the origin's class, each two sites apart
    m_max, spec = 300, SPECS[lattice]
    ker = layout(replace(WALK, l_max=5), spec, m_max)
    log_w = 0.02 * phi_eval(spec, ker.heights)
    assert len(log_w) < 33
    assert_matches(first_passage(ker, log_w, 0.0, m_max, DIVERGENCE_CAP),
                   reference_first_passage(ker, log_w, 0.0, m_max,
                                           DIVERGENCE_CAP))


def test_cap_crossing_inside_a_block():
    # the cap sits halfway between the partial sums after steps 44 and 46,
    # so the sum crosses it at step 46, in the middle of the second block
    m_max = 256
    ker, log_w = log_site_weights(SPECS["folded"], m_max, [0.05])
    partial = np.cumsum(reference_first_passage(ker, log_w[0], 0.0, m_max,
                                                math.inf)[0])
    cap = 0.5 * (partial[44] + partial[46])
    want = reference_first_passage(ker, log_w[0], 0.0, m_max, cap)
    assert want[1:] == (True, 46)
    assert_matches(first_passage(ker, log_w[0], 0.0, m_max, cap), want)


@pytest.mark.parametrize("lattice", ["folded", "signed"])
def test_overflowing_return_weight_stops_at_the_first_return(lattice):
    # e^1000 overflows: the zero returns of step 1 add 0, not 0 * inf = NaN.
    # Both rows run in logs, where returns are read at even steps only, so
    # log_w0 = inf never meets the origin's -inf of step 1 either
    ker, log_w = log_site_weights(SPECS[lattice], 256, [-0.5])
    for log_w0 in (1000.0, math.inf):
        a, diverged, m_stop = first_passage(ker, log_w[0], log_w0, 256,
                                            DIVERGENCE_CAP)
        assert diverged and m_stop == 2
        assert not np.isnan(a).any()
        assert a[2] == math.inf and np.count_nonzero(a) == 1


def test_mixed_batch_equals_one_row_calls_bit_for_bit():
    # rows below the overflow bound take block steps, the others run in
    # logs; each row takes the same path in a batch as alone
    m_max, spec = 300, SPECS["signed"]
    ker, log_w = log_site_weights(spec, m_max, [0.001, 5.0, -0.3, 3.0, 0.01])
    log_w0 = [0.0, 0.0, 0.0, 0.0, 1000.0]
    assert in_logs(ker, log_w, m_max) == [False, True, False, True, False]
    a, diverged, m_stop = first_passage(ker, log_w, log_w0, m_max,
                                        DIVERGENCE_CAP)
    for i in range(len(log_w0)):
        one = first_passage(ker, log_w[i], log_w0[i], m_max, DIVERGENCE_CAP)
        assert np.array_equal(a[i], one[0])
        assert (diverged[i], m_stop[i]) == one[1:]
        assert_matches(one, reference(ker, log_w[i], log_w0[i], m_max,
                                      DIVERGENCE_CAP))


def test_each_row_takes_its_own_path_for_m_max_steps(monkeypatch):
    # a row's path and run length depend on its own weights alone: the
    # block row runs m_max steps next to a row in logs that stops early
    m_max, spec = 64, SPECS["folded"]
    ker, log_w = log_site_weights(spec, m_max, [-0.5, 80.0])
    calls = []

    def spy(name):
        real = getattr(softpin.lattice, name)

        def wrapped(ker, w, w0, n, cap):
            calls.append((name, np.shape(w)[:-1], n))
            return real(ker, w, w0, n, cap)
        return wrapped

    for name in ("_block_passage", "_log_passage"):
        monkeypatch.setattr(softpin.lattice, name, spy(name))
    a, diverged, m_stop = first_passage(ker, log_w, [0.0, -300.0], m_max,
                                        DIVERGENCE_CAP)
    assert calls == [("_block_passage", (1,), m_max),
                     ("_log_passage", (1,), m_max)]
    assert diverged.tolist() == [False, True] and m_stop[1] < m_max


# ------------------------------------------------ block rows in one product

def one_row_block_loop(ker, log_w, log_w0, m_max, cap):
    """One row by the block recursion written out for it alone, its state
    on the origin's class (the sites o, o +- 2, ..): per block, the returns
    at even steps R @ v on the 33 class sites around the origin times
    math.exp(log_w0), then, if another block follows, v -> M^32 v by one
    einsum on the padded class state."""
    k, o = softpin.lattice.BLOCK, ker.origin
    w = np.exp(np.where(np.arange(len(log_w)) == o, -math.inf, log_w))
    band, ret_rows = softpin.lattice._band_powers(ker, w[None],
                                                  min(k, m_max) // 2 * 2)
    v = np.zeros(len(band) + k)
    v[k // 2 + o // 2] = 1.0
    a = np.zeros(m_max + 1)
    for n0 in range(0, m_max, k):
        h = min(k, m_max - n0)
        a[n0 + 2 : n0 + h + 1 : 2] = (ret_rows[0, : h // 2]
                                      @ v[o // 2 : o // 2 + k + 1]
                                      * math.exp(log_w0))
        if n0 + k < m_max:
            v = np.pad(np.einsum("ij,ij->i", band, np.lib.stride_tricks
                                 .sliding_window_view(v, k + 1)), k // 2)
    past = ~(np.cumsum(a) <= min(cap, sys.float_info.max))
    m_stop = int(past.argmax()) if past.any() else m_max
    a[m_stop + 1 :] = 0.0
    return a, bool(past.any()), m_stop


@pytest.mark.parametrize("lattice", ["folded", "signed"])
@pytest.mark.parametrize("m_max,l", [(5, None), (32, None), (33, None),
                                     (100, None), (100, 5), (600, None),
                                     (1000, None)])
def test_block_rows_in_one_product_keep_their_one_row_bits(lattice, m_max,
                                                           l):
    # one growing row, its return weight set so that its partial sum passes
    # the cap at step 2, 32, 34, 66 or 98 (in the first to the fourth
    # block, or at a block's end), or, past the first batch of 8 blocks,
    # at step 300, 500 or 512 (inside the second batch, and in its last
    # block), 770 or 1000 (in the first and the last block of the fourth),
    # next to a decaying row that never does, a row with w0 = 0 and a row
    # in logs; l = 5 is narrower than the band
    spec = SPECS[lattice]
    ker = layout(replace(WALK, l_max=l), spec, m_max)
    grow = 0.05 * phi_eval(spec, ker.heights)
    partial = np.cumsum(one_row_block_loop(ker, grow, 0.0, m_max,
                                           math.inf)[0])
    crossings = [n for n in (2, 32, 34, 66, 98, 300, 500, 512, 770, 1000)
                 if n <= m_max]
    log_w0 = [math.log(DIVERGENCE_CAP / partial[n]) + 1e-6
              for n in crossings] + [0.0, -math.inf, 0.0]
    log_w = np.array([grow] * len(crossings) + [
        -0.5 * phi_eval(spec, ker.heights), grow,
        1000.0 * phi_eval(spec, ker.heights)])
    assert in_logs(ker, log_w, m_max) == [False] * (len(log_w) - 1) + [True]
    a, diverged, m_stop = first_passage(ker, log_w, log_w0, m_max,
                                        DIVERGENCE_CAP)
    assert m_stop[: len(crossings)].tolist() == crossings
    assert diverged.tolist()[len(crossings) : -1] == [False, False]
    assert not a[-2].any()
    for i in range(len(log_w0)):
        one = first_passage(ker, log_w[i], log_w0[i], m_max, DIVERGENCE_CAP)
        assert np.array_equal(a[i], one[0])
        assert (diverged[i], m_stop[i]) == one[1:]
        if i < len(log_w0) - 1:
            want = one_row_block_loop(ker, log_w[i], log_w0[i], m_max,
                                      DIVERGENCE_CAP)
            assert np.array_equal(one[0], want[0]) and one[1:] == want[1:]


@pytest.mark.parametrize("lattice", ["folded", "signed"])
@pytest.mark.parametrize("m_max", [33, 40, 63])
def test_no_return_past_m_max_is_computed(lattice, m_max):
    # site weights just under the block bound max(w)^m_max <= 1e200: the
    # returns of the last block's steps past m_max could overflow, and
    # times w0 = 0 be NaN, so none is computed; the row of w0 = 0 has a = 0
    # and no warning, the row of w0 = 1 the one-row block loop's bits
    ker = layout(WALK, SPECS[lattice], m_max)
    log_w = np.full((2, len(ker.heights)),
                    math.log(1e200) / m_max * (1.0 - 1e-9))
    assert in_logs(ker, log_w, m_max) == [False, False]
    a, diverged, m_stop = first_passage(ker, log_w, [-math.inf, 0.0], m_max,
                                        DIVERGENCE_CAP)
    assert not a[0].any() and not diverged[0] and m_stop[0] == m_max
    want = one_row_block_loop(ker, log_w[1], 0.0, m_max, DIVERGENCE_CAP)
    assert np.array_equal(a[1], want[0])
    assert (diverged[1], m_stop[1]) == want[1:]


def test_return_weight_multiplies_each_return_once():
    # a[n] is the return times math.exp(log_w0), bit for bit, on every row
    # of one product: the same returns times 64 return weights
    m_max, spec = 100, SPECS["signed"]
    ker, log_w = log_site_weights(spec, m_max, [-0.2] * 64)
    log_w0 = np.random.default_rng(5).uniform(-5.0, 5.0, 64)
    ret = first_passage(ker, log_w[0], 0.0, m_max, DIVERGENCE_CAP)[0]
    a, diverged, _ = first_passage(ker, log_w, log_w0, m_max, DIVERGENCE_CAP)
    assert not diverged.any()
    for row, x in zip(a, log_w0.tolist()):
        assert np.array_equal(row, ret * math.exp(x))


@pytest.mark.parametrize("lattice,l", [("folded", 40), ("signed", 40),
                                       ("signed", 5), ("folded", 1),
                                       ("signed", 1)])
def test_band_powers_are_the_dense_matrix_powers(lattice, l):
    # M = diag(w) P^T, with P the kernel's transition matrix, so that
    # (M v)[i] is the mass stepping onto site i, times w[i]; M^h[i, j] is 0
    # for i - j + h odd, as a nearest-neighbour walk changes parity.  The
    # band is M^n on the origin's class E = {i : i - o even}, of two rows
    # in one call; the return rows e_o P^T M^h on the class sites o - 32,
    # o - 30, .., o + 32 are kept for odd h, and are 0 for even h
    ker = layout(replace(WALK, l_max=l), SPECS[lattice], 64)
    sites, o, k = len(ker.heights), ker.origin, softpin.lattice.BLOCK
    w = np.random.default_rng(3).uniform(0.5, 1.5, (2, sites))
    w[:, o] = 0.0
    p = np.diag(ker.p_up[:-1], 1) + np.diag(ker.p_down[1:], -1)
    e = np.arange(o % 2, sites, 2)  # E, its a-th site at index a
    c = np.arange(-k // 2, k // 2 + 1)
    a, near = np.arange(len(e))[:, None], o + 2 * c
    for n in [0, 2, 8, 30, 32]:
        band, ret = softpin.lattice._band_powers(ker, w, n)
        assert band.shape == (2 * len(e), k + 1)
        assert ret.shape == (2, n // 2, k + 1)
        for x, b, r in zip(w, band.reshape(2, len(e), k + 1), ret):
            m = np.diag(x) @ p.T
            dense = np.linalg.matrix_power(m, n)[np.ix_(e, e)]
            j = a + c  # b[a, 16 + c] is M^n[e[a], e[a + c]]
            want = np.where((j >= 0) & (j < len(e)),
                            dense[a, np.clip(j, 0, len(e) - 1)], 0.0)
            np.testing.assert_allclose(b, want, rtol=1e-13, atol=0)
            assert np.array_equal(b == 0.0, want == 0.0)
            for h in range(n):
                row = p[:, o] @ np.linalg.matrix_power(m, h)
                want = np.where((near >= 0) & (near < sites),
                                row[np.clip(near, 0, sites - 1)], 0.0)
                if h % 2 == 0:  # a return at an odd step
                    assert not want.any()
                    continue
                np.testing.assert_allclose(r[h // 2], want, rtol=1e-13,
                                           atol=0)
                assert np.array_equal(r[h // 2] == 0.0, want == 0.0)


@pytest.mark.parametrize("lattice", ["folded", "signed"])
@pytest.mark.parametrize("l", [1, 2, 3, 8, 40])
@pytest.mark.parametrize("m_max", [1, 2, 5, 31, 32, 33, 100])
def test_block_rows_on_the_origin_class_match_one_step_at_a_time(lattice, l,
                                                                 m_max):
    # the class layout against one step at a time on all sites: an odd l
    # puts the signed lattice's origin on an odd site, m_max < 32 ends in
    # the first block, and m_max = 1 sees no return; a decaying row, a
    # free walk, a growing row, one whose sum passes the cap at its first
    # return and one growing fast (on the signed lattice it passes the cap
    # inside a block for m_max = 100 and l >= 3)
    spec = SPECS[lattice]
    ker = layout(replace(WALK, l_max=l), spec, m_max)
    log_w = np.outer([-0.5, 0.0, 0.05, 0.05, 0.3],
                     phi_eval(spec, ker.heights))
    log_w0 = [0.0, 0.0, 1.0, 6.0, -2.0]
    assert in_logs(ker, log_w, m_max) == [False] * len(log_w)
    a, diverged, m_stop = first_passage(ker, log_w, log_w0, m_max, 100.0)
    for i, x in enumerate(log_w0):
        assert_matches((a[i], bool(diverged[i]), int(m_stop[i])),
                       reference_first_passage(ker, log_w[i], x, m_max,
                                               100.0))
    assert diverged[3] == (m_max >= 2)


# ---------------------------------------------------- overflowing weights

def with_log_weight(log_w, ker, height, value=800.0):
    """A copy of the rows log_w with e^value, which overflows a float, at
    ``height``."""
    log_w = np.array(log_w, dtype=float)
    log_w[..., ker.heights == height] = value
    return log_w


@pytest.mark.parametrize("lattice", ["folded", "signed"])
def test_infinite_weight_diverges_when_the_walk_can_stand_there(lattice):
    # e^800 at height 3, where the walk can first be at step 3: its sum is
    # exact in logs, finite up to the first return past that site, at step
    # 6, and inf there
    m_max = 64
    ker, log_w = log_site_weights(SPECS[lattice], m_max, [-0.5])
    log_w = with_log_weight(log_w[0], ker, 3)
    a, diverged, m_stop = first_passage(ker, log_w, 0.0, m_max,
                                        DIVERGENCE_CAP)
    assert diverged and m_stop == 6
    assert np.all(np.isfinite(a[:6])) and a[6] == math.inf
    assert a[2] > 0.0 and not np.any(a[7:])
    assert_matches((a, diverged, m_stop),
                   reference_log_passage(ker, log_w, 0.0, m_max,
                                         DIVERGENCE_CAP))


@pytest.mark.parametrize("lattice", ["folded", "signed"])
def test_infinite_weight_beyond_reach_changes_nothing(lattice):
    # l = 80 > m_max: a site at height 70 cannot be reached in 64 steps; its
    # e^800 sends the row into logs, which moves only the last bits
    m_max, spec = 64, SPECS[lattice]
    ker = layout(replace(WALK, l_max=80), spec, m_max)
    log_w = 0.05 * phi_eval(spec, ker.heights)
    got = first_passage(ker, with_log_weight(log_w, ker, 70), math.log(1.3),
                        m_max, DIVERGENCE_CAP)
    want = first_passage(ker, log_w, math.log(1.3), m_max, DIVERGENCE_CAP)
    assert_matches(got, want)
    assert got[1:] == (False, m_max)


def test_batch_with_infinite_weights_equals_one_row_calls_bit_for_bit():
    # e^800 sites at heights 3, 50 and 70 and 6, on rows that all run in
    # logs: the first stops at the first return past its site; no return
    # within m_max can follow the second's or the third's; the fourth's
    # overflowing return weight stops it at step 2; the last row takes
    # block steps
    m_max, spec = 64, SPECS["folded"]
    ker = layout(replace(WALK, l_max=80), spec, m_max)
    log_w = np.outer([-0.5, 80.0, 0.05, -0.3, 0.01],
                     phi_eval(spec, ker.heights))
    for i, height in [(0, 3), (1, 50), (2, 70), (3, 6)]:
        log_w[i] = with_log_weight(log_w[i], ker, height)
    log_w0 = [0.0, -690.0, math.log(1.3), 1000.0, 0.0]
    a, diverged, m_stop = first_passage(ker, log_w, log_w0, m_max,
                                        DIVERGENCE_CAP)
    assert diverged.tolist() == [True, False, False, True, False]
    assert m_stop.tolist() == [6, m_max, m_max, 2, m_max]
    assert not np.isnan(a).any()
    for i in range(len(log_w0)):
        one = first_passage(ker, log_w[i], log_w0[i], m_max, DIVERGENCE_CAP)
        assert np.array_equal(a[i], one[0])
        assert (diverged[i], m_stop[i]) == one[1:]
        assert_matches(one, reference(ker, log_w[i], log_w0[i], m_max,
                                      DIVERGENCE_CAP))


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
    log_w = psi(ChargeModel(law), spec, beta, h, ker.heights)
    log_w0 = float(log_w[ker.origin])
    assert_matches(first_passage(ker, log_w, log_w0, m_max, DIVERGENCE_CAP),
                   reference_first_passage(ker, log_w, log_w0, m_max,
                                           DIVERGENCE_CAP))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(lattice=st.sampled_from(["folded", "signed"]),
       alpha=st.floats(0.05, 0.95),
       law=st.sampled_from(["gaussian", "bernoulli_pm1"]),
       points=st.lists(st.tuples(st.floats(0.0, 1000.0),
                                 st.floats(-1500.0, 1500.0),
                                 st.floats(0.0, 1.0), st.booleans()),
                       min_size=1, max_size=4),
       m_max=st.integers(4, 96))
def test_strong_coupling_rows_match_a_per_site_log_recursion(
        lattice, alpha, law, points, m_max):
    # each row runs in logs or by block steps by its own weights, with the
    # bits it gets alone; a row in logs agrees with the per-site oracle.
    # Far from psi = 0 a step scales the state by up to e^(+-1e5), so a is
    # 0 up to a jump past the cap.  A "near" point instead puts psi(-1),
    # the largest log weight off the origin, at h / 30 in [-50, 50]; for
    # Gaussian charges its beta is scaled into [0, 55] or [0, 155], where
    # that keeps |h| <= 1500, and h is clipped to it.  A return weight
    # e^psi(0) would stop most rows at step 2, so it is e^(-d m_max psi+)
    # instead, with psi+ = max(psi(-1), 0): the crossing moves out with d
    walk, spec = WalkSpec(alpha=alpha), SPECS[lattice]
    charges = ChargeModel(law)
    ker = layout(walk, spec, m_max)
    beta, h, delay, near = map(np.array, zip(*points))
    phi_1 = float(phi_eval(spec, -1))
    if law == "gaussian":  # cumulant(beta phi_1) / phi_1 <= 1500
        beta = np.where(near, beta * min(1.0, math.sqrt(3000.0 / phi_1)
                                         / 1000.0), beta)
    h = np.where(near, np.clip(
        (charges.cumulant(beta * phi_1) - h / 30.0) / phi_1, -1500.0, 1500.0),
        h)
    log_w = psi(charges, spec, beta[:, None], h[:, None], ker.heights)
    psi_plus = np.delete(log_w, ker.origin, axis=1).max(axis=1)
    log_w0 = -delay * m_max * np.maximum(psi_plus, 0.0)
    a, diverged, m_stop = first_passage(ker, log_w, log_w0, m_max,
                                        DIVERGENCE_CAP)
    for i in range(len(points)):
        one = first_passage(ker, log_w[i], log_w0[i], m_max, DIVERGENCE_CAP)
        assert np.array_equal(a[i], one[0])
        assert (diverged[i], m_stop[i]) == one[1:]
        if in_logs(ker, log_w[i], m_max)[0]:
            assert_matches(one, reference_log_passage(
                ker, log_w[i], log_w0[i], m_max, DIVERGENCE_CAP))


# ------------------------------------------ the log rows on every site

def tiled_log_passage(ker, log_w, log_w0, m_max, cap):
    """Oracle of ``lattice._log_passage``, bit for bit: one ``log_step`` at
    a time on every site of ``ker`` tiled over the rows, a return read at
    every step, the other class's -inf included."""
    r, sites = log_w.shape
    at = slice(ker.origin, None, sites)
    ker, log_w = tiled(ker, r), log_w.ravel()
    v, nxt = np.full(r * sites, -math.inf), np.empty(r * sites)
    v[at] = 0.0
    a = np.zeros((r, m_max + 1))
    partial = np.zeros(r)
    for n in range(1, m_max + 1):
        log_step(ker, v, nxt)
        np.exp(nxt[at] + log_w0, out=a[:, n])
        nxt += log_w
        v, nxt = nxt, v
        partial += a[:, n]
        if not (partial <= cap).any():
            break
    return a


@pytest.mark.parametrize("rows", [1, 3, 7])
@pytest.mark.parametrize("l", [1, 2, 3, 8, 9, 40, 41])
@pytest.mark.parametrize("lattice", ["folded", "signed"])
def test_log_rows_on_the_classes_keep_the_full_lattice_bits(lattice, l,
                                                            rows):
    # odd L puts a signed lattice's origin on an odd site.  Row i's log
    # weights lean by -0.3, 0 or +0.4, the last diverging, and its log
    # return weight is offset by 0, 30 or 800, the last overflowing at the
    # first return; cap 5 stops rows early, 1e12 later and inf never
    ker = layout(replace(WALK, l_max=l), SPECS[lattice], 0)
    rng = np.random.default_rng(100 * l + rows)
    i = np.arange(rows)
    lean = np.array([-0.3, 0.0, 0.4])[i % 3, None]
    offset = np.array([0.0, 30.0, 800.0])[i // 2 % 3]
    for m_max, cap in itertools.product([4, 33, 64, 130],
                                        [math.inf, 1e12, 5.0]):
        log_w = 0.3 * rng.standard_normal((rows, len(ker.heights))) + lean
        log_w[:, ker.origin] = -math.inf
        log_w0 = rng.standard_normal(rows) + offset
        with np.errstate(over="ignore"):
            got = softpin.lattice._log_passage(ker, log_w, log_w0, m_max,
                                               cap)
            want = tiled_log_passage(ker, log_w, log_w0, m_max, cap)
        np.testing.assert_array_equal(got, want)
