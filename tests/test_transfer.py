import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softpin.cli import LADDER_COLUMNS, QUENCHED_COLUMNS, ladder_csv_rows
from softpin import transfer
from softpin.lattice import layout
from softpin.model import ChargeModel, PotentialSpec, WalkSpec, phi_eval, psi, return_law
from softpin.transfer import (
    annealed_free_energy,
    annealed_partition,
    annealed_sweep,
    compare_free_constrained,
    default_ladder,
    quenched_free_energy,
    quenched_sweep,
    renewal_root,
)

from conftest import (arrays_left_in_cycles, log_step, log_uniform,
                      potential_specs, signed, tiled)

GAUSS = ChargeModel("gaussian")
BERN = ChargeModel("bernoulli_pm1")
PIN = PotentialSpec(kind="pinning")
SRW = WalkSpec(alpha=0.5)

# root of sum_n K(n) e^(-F n) = e^(-1/2) for the simple random walk, via the
# closed-form generating function 1 - sqrt(1 - z^2); frozen oracle value
F_PINNED_SRW = -0.5 * math.log(1.0 - (1.0 - math.exp(-0.5)) ** 2)


def enumerate_partition(walk, spec, n, site_log_weight):
    """Oracle: sum over all 2^n sign paths of prob * exp(sum of site weights).

    Only valid while the paths cannot hit the truncation boundary mid-path.
    Returns (Z_free, Z_constrained).
    """
    z_free = 0.0
    z_con = 0.0
    for steps in itertools.product((1, -1), repeat=n):
        s = 0
        prob = 1.0
        w = 0.0
        for d in steps:
            prob *= 0.5 * (1.0 + d * float(walk.drift(s)))
            s += d
            w += site_log_weight(s)
        z_free += prob * math.exp(w)
        if s == 0:
            z_con += prob * math.exp(w)
    return z_free, z_con


def log_space_sweep(ker, log_weights, record_at):
    """Oracle: the forward recursion of one chain from the origin in logs,
    a logaddexp of the two neighbour moves of ``ker`` per step, then the
    step's log site weights log_weights(n).  Exact at any coupling, as no
    term leaves float range.  Returns (log_z_free, log_z_constrained)."""
    with np.errstate(divide="ignore"):  # -inf where a move is impossible
        log_up, log_down = np.log(ker.p_up), np.log(ker.p_down)
    lv = np.full(len(ker.heights), -np.inf)
    lv[ker.origin] = 0.0
    free, con = [], []
    for n in range(1, max(record_at) + 1):
        from_below = np.concatenate(([-np.inf], lv[:-1] + log_up[:-1]))
        from_above = np.concatenate((lv[1:] + log_down[1:], [-np.inf]))
        lv = np.logaddexp(from_below, from_above) + log_weights(n)
        if n in record_at:
            top = lv.max()
            free.append(top + math.log(np.exp(lv - top).sum()))
            con.append(lv[ker.origin])
    return np.array(free), np.array(con)


def quenched_oracle(walk, spec, beta, h, omega, record_at, folded=None):
    ker = layout(walk, spec, max(record_at), folded)
    phi = np.asarray(phi_eval(spec, ker.heights), dtype=float)
    return log_space_sweep(
        ker, lambda n: (beta * omega[n - 1] - h) * phi, record_at)


def quenched_rows(walk, spec, g, pts, folded=None):
    """``transfer._rows`` of the couplings g in front of phi: the rows of
    ``quenched_sweep`` and ``quenched_free_energy``."""
    ker = layout(walk, spec, int(pts[-1]), folded)
    return transfer._rows(ker, g, phi_eval(spec, ker.heights), pts)


def assert_matches_oracle(sweep, oracle):
    # 1e-12 relative, on a scale of at least 1 (log Z = 0 at zero coupling)
    for got, want in zip((sweep.log_z_free, sweep.log_z_constrained), oracle):
        assert np.all(np.isfinite(got))
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


# ----------------------------------------------------------------- partition

def test_partition_n0_is_unit():
    sw = annealed_sweep(SRW, PIN, GAUSS, 0.7, 0.2, [0, 4])
    assert sw.log_z_free[0] == 0.0
    assert sw.log_z_constrained[0] == 0.0
    # a quenched sweep of no steps has no couplings at all
    sw = quenched_sweep(SRW, PIN, 0.7, 0.2, np.zeros(0), [0])
    assert sw.log_z_free.tolist() == sw.log_z_constrained.tolist() == [0.0]


def test_free_partition_zero_coupling_is_zero():
    sw = annealed_sweep(SRW, PIN, GAUSS, 0.0, 0.0, [4, 64, 256])
    np.testing.assert_allclose(sw.log_z_free, 0.0, atol=1e-12)


def test_constrained_zero_coupling_is_return_probability():
    # at beta = h = 0 the constrained partition is P(S_N = 0), binomial for SRW
    sw = annealed_sweep(SRW, PIN, GAUSS, 0.0, 0.0, [8, 16, 32])
    for n, lzc in zip(sw.n_values, sw.log_z_constrained):
        expect = math.log(math.comb(n, n // 2)) - n * math.log(2.0)
        assert lzc == pytest.approx(expect, abs=1e-11)


def test_odd_record_points_rejected():
    with pytest.raises(ValueError):
        annealed_sweep(SRW, PIN, GAUSS, 0.0, 0.0, [3])


def test_non_integral_record_points_rejected():
    # 4.9 was truncated to a record at step 4; 4.0 names step 4 exactly
    for pts in ([4.9], [2, 4.5], [math.nan], [math.inf]):
        with pytest.raises(ValueError, match="whole"):
            annealed_sweep(SRW, PIN, GAUSS, 0.5, 0.1, pts)
    whole = annealed_sweep(SRW, PIN, GAUSS, 0.5, 0.1, [4.0, np.int64(8)])
    ints = annealed_sweep(SRW, PIN, GAUSS, 0.5, 0.1, [4, 8])
    assert whole.n_values.tolist() == [4, 8]
    assert_same_bits((whole.log_z_free, whole.log_z_constrained),
                     (ints.log_z_free, ints.log_z_constrained))


@pytest.mark.parametrize("beta, h, charge", [
    (0.5, 0.1, math.nan), (0.5, 0.1, math.inf), (math.nan, 0.1, 1.0),
    (0.5, -math.inf, 1.0), (0.0, 0.1, math.inf), (0.0, 0.1, -math.inf)])
def test_non_finite_couplings_rejected(beta, h, charge):
    # a NaN or infinite charge, beta or h made every log Z NaN; at beta = 0,
    # 0 * inf while building beta * omega - h warned ahead of the ValueError
    omega = np.ones(16)
    omega[5] = charge
    with pytest.raises(ValueError, match="finite"):
        quenched_sweep(SRW, PIN, beta, h, omega, [16])


def test_infinite_beta_on_zero_charges_rejected_before_any_warning():
    # inf * 0 while building beta * omega - h warned ahead of the ValueError
    with pytest.raises(ValueError, match="beta and h must be finite"):
        quenched_sweep(SRW, PIN, math.inf, 0.1, np.zeros(64), [64])


def test_quenched_free_energy_rejects_non_finite_couplings_first():
    # inf - inf while building the rows in place warned ahead of the
    # ValueError
    with pytest.raises(ValueError, match="beta and h must be finite"):
        quenched_free_energy(SRW, PIN, BERN, math.inf, math.inf, n_max=64,
                             n_samples=2, seed=0)


def test_overflowing_couplings_rejected_before_any_warning():
    # finite beta and charges whose product overflows: the overflow warning
    # in beta * omega - h came ahead of the ValueError
    with pytest.raises(ValueError, match="couplings must be finite"):
        quenched_sweep(SRW, PIN, 1e300, 0.0, np.full(64, 1e10), [64])
    with pytest.raises(ValueError, match="couplings must be finite"):
        quenched_free_energy(SRW, PIN, GAUSS, 1e308, 0.0, n_max=64,
                             n_samples=2, seed=0)


def test_overflowed_annealed_weight_raises_before_any_warning():
    # psi(0) = beta^2 / 2 overflows: the cumulant warned, then the log
    # sweep warned at each step and returned log Z = NaN
    with pytest.raises(FloatingPointError, match="overflowed"):
        annealed_sweep(SRW, PIN, GAUSS, 1e200, 0.0, [64])


def test_coupling_times_site_value_overflow_raises_before_any_warning():
    # 1e300 * phi = 1e310: the cap test's product overflowed, warned, and
    # the sweep returned log Z = NaN
    amp = PotentialSpec(kind="pinning", amplitude=1e10)
    with pytest.raises(FloatingPointError, match="overflows"):
        quenched_sweep(SRW, amp, 1e300, 0.0, np.ones(64), [64])


@settings(max_examples=300, deadline=None)
@given(alpha=st.floats(0.05, 0.95), spec=potential_specs,
       law=st.sampled_from(["gaussian", "bernoulli_pm1"]),
       beta=log_uniform(1e300), h=signed(log_uniform(1e300)),
       n=st.sampled_from([16, 64, 300]), seed=st.integers(0, 2**32 - 1))
def test_sweep_numbers_are_finite_or_flagged(alpha, spec, law, beta, h, n,
                                             seed):
    # every log Z finite, or FloatingPointError, with no RuntimeWarning
    walk, charges = WalkSpec(alpha=alpha), ChargeModel(law)
    omega = charges.sample(np.random.default_rng(seed), n)
    for sweep in (lambda: annealed_sweep(walk, spec, charges, beta, h, [n]),
                  lambda: quenched_sweep(walk, spec, beta, h, omega, [n])):
        try:
            sw = sweep()
        except FloatingPointError:
            continue
        assert np.all(np.isfinite(sw.log_z_free))
        assert np.all(np.isfinite(sw.log_z_constrained))


def test_overflowing_quenched_sem_raises_before_any_warning():
    # the two samples' f lie some 1e199 apart: np.std warned of an overflow
    # in its square and returned sem = inf
    with pytest.raises(FloatingPointError, match="overflow their variance"):
        quenched_free_energy(WalkSpec(alpha=0.6), PIN, BERN, 1e200, 0.0,
                             n_max=16, n_samples=2, seed=0)


def test_repeated_couplings_are_found_bit_for_bit_and_unsorted(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("no sort on the sweep path")

    for name in ("unique", "sort", "argsort"):
        monkeypatch.setattr(np, name, forbidden)
    rng = np.random.default_rng(8)
    g = 0.5 * (rng.integers(0, 2, (4, 100)) * 2.0 - 1.0) - 0.1
    values, at = transfer._repeats(g)
    assert sorted(values.tolist()) == [-0.6, 0.4]
    assert at.shape == (100, 4)
    np.testing.assert_array_equal(values[at], g.T)
    assert transfer._repeats(rng.standard_normal((1, 100))) is None
    # a value first seen past the first block
    g = np.full((2, 100), 0.5)
    g[1, 70] = 0.25
    assert transfer._repeats(g) is None
    # -0.0 and 0.0 are two values
    g = np.zeros((1, 64))
    g[0, ::2] = -0.0
    values, at = transfer._repeats(g)
    assert sorted(np.signbit(values).tolist()) == [False, True]
    assert np.signbit(values[at[:, 0]]).tolist() == [True, False] * 32


def test_quenched_sweep_leaves_the_callers_charges_unchanged():
    # the couplings are built in place, in a copy of the charges
    omega = np.random.default_rng(3).standard_normal(64)
    kept = omega.copy()
    quenched_sweep(SRW, PIN, 0.7, 0.2, omega, [32, 64])
    np.testing.assert_array_equal(omega, kept)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_coupling_rows_rejected(bad):
    g = np.zeros((3, 16))
    g[1, 7] = bad
    with pytest.raises(ValueError, match="finite"):
        quenched_rows(SRW, PIN, g, np.array([16]))


@pytest.mark.parametrize("charges", [GAUSS, BERN])
def test_annealed_n4_matches_enumeration(charges):
    beta, h = 0.8, 0.3
    for walk in (SRW, WalkSpec(alpha=0.7)):
        zf, zc = enumerate_partition(
            walk, PIN, 4, lambda x: psi(charges, PIN, beta, h, x)
        )
        lf, lc = annealed_partition(replace(walk, l_max=8), PIN, charges, beta,
                                    h, 4)
        assert lf == pytest.approx(math.log(zf), abs=1e-12)
        assert lc == pytest.approx(math.log(zc), abs=1e-12)


def test_quenched_n4_matches_enumeration():
    # pinned potential, charges +1,-1,+1,-1, beta=1, h=0
    omega = np.array([1.0, -1.0, 1.0, -1.0])
    beta, h = 1.0, 0.0
    z_free = 0.0
    z_con = 0.0
    for steps in itertools.product((1, -1), repeat=4):
        s = 0
        w = 0.0
        for n, d in enumerate(steps, start=1):
            s += d
            w += (beta * omega[n - 1] - h) * phi_eval(PIN, s)
        z_free += 0.5 ** 4 * math.exp(w)
        if s == 0:
            z_con += 0.5 ** 4 * math.exp(w)
    sw = quenched_sweep(replace(SRW, l_max=4), PIN, beta, h, omega, [4])
    assert sw.log_z_free[0] == pytest.approx(math.log(z_free), abs=1e-12)
    assert sw.log_z_constrained[0] == pytest.approx(math.log(z_con), abs=1e-12)


def test_quenched_power_tail_matches_enumeration():
    pw = PotentialSpec(kind="power_tail", theta=2.0)
    omega = np.array([0.3, -1.2, 0.7, 0.1, -0.4, 0.9])
    walk = WalkSpec(alpha=0.65)
    z_free, z_con = 0.0, 0.0
    for steps in itertools.product((1, -1), repeat=6):
        s, prob, w = 0, 1.0, 0.0
        for n, d in enumerate(steps, start=1):
            prob *= 0.5 * (1.0 + d * float(walk.drift(s)))
            s += d
            w += (0.9 * omega[n - 1] - 0.2) * phi_eval(pw, s)
        z_free += prob * math.exp(w)
        if s == 0:
            z_con += prob * math.exp(w)
    sw = quenched_sweep(replace(walk, l_max=8), pw, 0.9, 0.2, omega, [6])
    assert sw.log_z_free[0] == pytest.approx(math.log(z_free), abs=1e-12)
    assert sw.log_z_constrained[0] == pytest.approx(math.log(z_con), abs=1e-12)


def test_quenched_beta_zero_equals_annealed():
    omega = np.linspace(-2, 2, 64)  # irrelevant at beta = 0
    pw = PotentialSpec(kind="power_tail", theta=3.0)
    sw = quenched_sweep(WalkSpec(alpha=0.6), pw, 0.0, 0.4, omega, [64])
    lf_a, lc_a = annealed_partition(WalkSpec(alpha=0.6), pw, GAUSS, 0.0, 0.4, 64)
    assert sw.log_z_free[0] == pytest.approx(lf_a, abs=1e-12)
    assert sw.log_z_constrained[0] == pytest.approx(lc_a, abs=1e-12)


def test_folded_and_signed_layouts_agree():
    pw = PotentialSpec(kind="power_tail", theta=2.5)
    for b, h in [(0.0, 0.0), (0.7, 0.2), (1.2, -0.1)]:
        f = annealed_partition(WalkSpec(alpha=0.4), pw, GAUSS, b, h, 128, folded=True)
        s = annealed_partition(WalkSpec(alpha=0.4), pw, GAUSS, b, h, 128, folded=False)
        assert f[0] == pytest.approx(s[0], abs=1e-11)
        assert f[1] == pytest.approx(s[1], abs=1e-11)


def test_folded_layout_rejected_for_asymmetric_potential():
    cop = PotentialSpec(kind="copolymer")
    with pytest.raises(ValueError):
        annealed_partition(SRW, cop, GAUSS, 0.5, 0.2, 16, folded=True)
    # auto layout handles it
    lf, _ = annealed_partition(SRW, cop, GAUSS, 0.5, 0.2, 16)
    assert math.isfinite(lf)


def test_truncation_doubling_leaves_log_z_unchanged():
    # beyond L = 4*sqrt(N) the folded-back mass is invisible at 1e-8
    n = 1024
    cases = [
        (SRW, PIN, 0.5, 0.5),
        (WalkSpec(alpha=0.6), PotentialSpec(kind="power_tail", theta=3.0), 1.0, 0.5),
    ]
    for walk, spec, b, h in cases:
        l0 = walk.resolve_l(n)
        a = annealed_partition(replace(walk, l_max=l0), spec, GAUSS, b, h, n)
        bb = annealed_partition(replace(walk, l_max=2 * l0), spec, GAUSS, b,
                                h, n)
        assert abs(a[0] - bb[0]) < 1e-8
        assert abs(a[1] - bb[1]) < 1e-8


def test_constrained_superadditive():
    # log Z_c(N+M) >= log Z_c(N) + log Z_c(M): restricting to a mid-point
    # visit can only lose mass
    ns = [4, 8, 12, 16, 24]
    walk = WalkSpec(alpha=0.6, l_max=64)
    spec = PotentialSpec(kind="power_tail", theta=3.0)
    vals = {}
    sw = annealed_sweep(walk, spec, GAUSS, 0.9, 0.3, sorted(set(ns + [a + b for a in ns for b in ns])))
    for n, lzc in zip(sw.n_values, sw.log_z_constrained):
        vals[int(n)] = lzc
    for a in ns:
        for b in ns:
            assert vals[a + b] >= vals[a] + vals[b] - 1e-10


def test_h_monotone_and_jointly_convex_quenched():
    rng = np.random.default_rng(7)
    omega = rng.standard_normal(32)
    pw = PotentialSpec(kind="power_tail", theta=2.0)
    walk = WalkSpec(alpha=0.55)
    # monotone nonincreasing in h at fixed charges
    prev = None
    for h in (-0.5, 0.0, 0.5, 1.0):
        lf = quenched_sweep(walk, pw, 0.8, h, omega, [32]).log_z_free[0]
        if prev is not None:
            assert lf <= prev + 1e-12
        prev = lf
    # joint convexity in (beta, h) along an arbitrary segment
    p0, p1 = (0.2, -0.3), (1.1, 0.8)
    mid = (0.5 * (p0[0] + p1[0]), 0.5 * (p0[1] + p1[1]))
    f0, f1, fm = (quenched_sweep(walk, pw, *p, omega, [32]).log_z_free[0]
                  for p in (p0, p1, mid))
    assert fm <= 0.5 * (f0 + f1) + 1e-12


# ------------------------------------------------------------- free energies

def test_default_ladder():
    assert default_ladder(4096) == [128, 256, 512, 1024, 2048, 4096]
    assert default_ladder(48, n_points=3) == [24, 48]  # halving stops below 16
    with pytest.raises(ValueError):
        default_ladder(17)


def test_estimate_bracket_and_convergence_flag():
    est = annealed_free_energy(SRW, PIN, GAUSS, 0.5, 0.5, n_max=2 ** 11)
    assert est.f_constrained <= est.value <= est.f_free
    assert est.gap >= 0.0
    assert est.converged
    assert est.error > 0.0


def test_localized_free_energy_positive():
    # pinned site with psi(0) = 1/2: clearly localized
    est = annealed_free_energy(SRW, PIN, GAUSS, 1.0, 0.0, n_max=2 ** 11)
    assert est.value - est.error > 0.05


def test_delocalized_free_energy_compatible_with_zero():
    for b, h in [(0.0, 0.5), (0.3, 0.8), (0.0, 1.5)]:
        est = annealed_free_energy(SRW, PIN, GAUSS, b, h, n_max=2 ** 12)
        assert est.value <= 1e-12          # approaches 0 from below
        assert abs(est.value) <= est.error  # 0 lies inside the error band


def test_pinned_free_energy_matches_renewal_oracle():
    # negative bias h = -1/2 rewards the origin: psi(0) = 1/2, and the
    # limit free energy solves sum_n K(n) e^(-F n) = e^(-1/2)
    est = annealed_free_energy(replace(SRW, l_max=128), PIN, GAUSS, 0.0, -0.5,
                               n_max=2 ** 10)
    assert est.value == pytest.approx(F_PINNED_SRW, abs=2e-3)


def test_quenched_reproducible_and_seed_sensitive():
    pw = PotentialSpec(kind="power_tail", theta=3.0)
    walk = WalkSpec(alpha=0.6)
    kw = dict(n_max=2 ** 9, n_samples=6, seed=42)
    q1 = quenched_free_energy(walk, pw, GAUSS, 0.5, 0.1, **kw)
    q2 = quenched_free_energy(walk, pw, GAUSS, 0.5, 0.1, **kw)
    assert q1.value == q2.value and q1.sem == q2.sem
    q3 = quenched_free_energy(walk, pw, GAUSS, 0.5, 0.1, n_max=2 ** 9, n_samples=6, seed=1)
    assert q1.value != q3.value
    # adding samples must not change the earlier sample streams
    q4 = quenched_free_energy(walk, pw, GAUSS, 0.5, 0.1, n_max=2 ** 9, n_samples=7, seed=42)
    s4 = [sw.log_z_constrained[-1] for sw in q4.sample_sweeps[:6]]
    s1 = [sw.log_z_constrained[-1] for sw in q1.sample_sweeps]
    np.testing.assert_array_equal(s1, s4)


# the dead-rows case (copolymer, Gaussian, beta = 1000, seed 1) has site
# weights up to exp(+-3000), so every row runs in logs; the top rung's
# constrained log Z of each sample is the log-space oracle's.  The id names
# the rows that a shifted linear sweep lost to underflow (NaN) here.
DEAD_ROWS_TOP = [16491.48107744885, 28922.93795912498, 22224.39260571155,
                 10266.535826306696, 11545.796543277698, 16888.44918311905]


@pytest.mark.parametrize("spec,charges,n_samples,coupling,top", [
    pytest.param(PotentialSpec(kind="power_tail", theta=3.0), GAUSS, 5,
                 (0.8, 0.2, 256, 9), None, id="spec0-charges0-5"),  # folded
    pytest.param(PotentialSpec(kind="copolymer"), BERN, 4,
                 (0.8, 0.2, 256, 9), None, id="spec1-charges1-4"),  # signed
    pytest.param(PotentialSpec(kind="power_tail", theta=3.0), GAUSS, 1,
                 (0.8, 0.2, 256, 9), None, id="spec2-charges2-1"),
    pytest.param(PotentialSpec(kind="copolymer"), GAUSS, 6,
                 (1000.0, 0.0, 64, 1), DEAD_ROWS_TOP, id="dead-rows"),
    pytest.param(PIN, GAUSS, 6, (1000.0, 0.0, 64, 1), None,
                 id="strong-pinning"),
])
def test_batched_samples_match_per_sample_sweeps(spec, charges, n_samples,
                                                 coupling, top):
    walk = WalkSpec(alpha=0.6)
    beta, h, n_max, seed = coupling
    est = quenched_free_energy(walk, spec, charges, beta, h, n_max=n_max,
                               n_samples=n_samples, seed=seed)
    assert len(est.sample_sweeps) == n_samples
    for i, sw in enumerate(est.sample_sweeps):
        rng = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(seed, spawn_key=(i,))))
        one = quenched_sweep(walk, spec, beta, h,
                             charges.sample(rng, n_max), sw.n_values)
        np.testing.assert_allclose(sw.log_z_free, one.log_z_free, rtol=1e-12)
        np.testing.assert_allclose(sw.log_z_constrained, one.log_z_constrained,
                                   rtol=1e-12)
    if top is not None:
        got = [sw.log_z_constrained[-1] for sw in est.sample_sweeps]
        np.testing.assert_allclose(got, top, rtol=1e-12)


def test_strong_pinning_annealed_free_energy_is_half_the_origin_reward():
    # psi(0) = beta^2 / 2 = 1800 and more, while the odd steps, where the
    # walk sits off the origin, have weight 1: f = psi(0)/2 + log(p2)/2
    walk = WalkSpec(alpha=0.6)
    p2 = 0.5 * (1.0 - float(walk.drift(1)))
    for beta in (60.0, 1000.0):
        est = annealed_free_energy(walk, PIN, GAUSS, beta, 0.0, n_max=64)
        assert est.value == pytest.approx(0.25 * beta * beta
                                          + 0.5 * math.log(p2), rel=1e-12)


def test_log_rows_past_two_to_the_63_keep_their_log_z():
    # psi(0) = 5e15 over 2048 returns: log Z ~ 1.02e19 passes 2^63, past
    # which an int64 count of the shifts would wrap around silently
    walk = WalkSpec(alpha=0.6)
    p2 = 0.5 * (1.0 - float(walk.drift(1)))
    est = annealed_free_energy(walk, PIN, GAUSS, 1e8, 0.0, n_max=4096)
    assert est.ladder.log_z_constrained[-1] > 2.0 ** 63
    for f in (est.ladder.f_free(), est.ladder.f_constrained()):
        np.testing.assert_allclose(f, 0.25e16 + 0.5 * math.log(p2),
                                   rtol=1e-15, atol=0)


def test_strong_pinning_quenched_free_energy_is_finite():
    # beta = 1000: the origin's weight reaches exp(+-3000), far past the
    # cap; every sample's log Z must be finite and the log-space oracle's
    walk = WalkSpec(alpha=0.6)
    est = quenched_free_energy(walk, PIN, GAUSS, 1000.0, 0.0, n_max=64,
                               n_samples=6, seed=1)
    assert math.isfinite(est.value) and math.isfinite(est.error)
    for i, sw in enumerate(est.sample_sweeps):
        omega = GAUSS.sample(np.random.Generator(np.random.Philox(
            np.random.SeedSequence(1, spawn_key=(i,)))), 64)
        assert_matches_oracle(sw, quenched_oracle(
            walk, PIN, 1000.0, 0.0, omega, sw.n_values.tolist()))
        assert np.all(sw.log_z_constrained <= sw.log_z_free)
    ann = annealed_free_energy(walk, PIN, GAUSS, 1000.0, 0.0, n_max=64)
    assert est.value <= ann.value


def test_underflowing_origin_share_is_recomputed_in_logs():
    # h = 650 repels the walk from the origin without passing the weight
    # cap: the origin's share of the linear state underflows at every rung
    # (log Z_constrained - log Z_free ~ -780), and the linear values would
    # be -inf there; the sweep recomputes such a row in logs
    walk, pw = WalkSpec(alpha=0.6), PotentialSpec(kind="power_tail", theta=3.0)
    ladder = [16, 32, 64]
    ann = annealed_sweep(walk, pw, GAUSS, 0.0, 650.0, ladder)
    ker = layout(walk, pw, 64)
    log_w = np.asarray(psi(GAUSS, pw, 0.0, 650.0, ker.heights), dtype=float)
    assert_matches_oracle(ann, log_space_sweep(ker, lambda n: log_w, ladder))
    np.testing.assert_allclose(ann.log_z_constrained,
                               [-914.586, -926.791, -934.600], atol=1e-3)
    omega = np.random.default_rng(3).standard_normal(64)
    que = quenched_sweep(walk, pw, 0.0, 650.0, omega, ladder)
    np.testing.assert_array_equal(que.log_z_constrained, ann.log_z_constrained)
    np.testing.assert_array_equal(que.log_z_free, ann.log_z_free)


@pytest.mark.parametrize("spec", [
    PIN, PotentialSpec(kind="copolymer"),
    PotentialSpec(kind="power_tail", theta=3.0)])
def test_rows_on_both_paths_match_one_row_calls(spec):
    # betas 1000, 800 and 5000 pass the cap and run in logs, the others
    # linearly; h = 650 on power_tail recomputes a linear row in logs
    walk, ladder = WalkSpec(alpha=0.6), np.array([16, 32, 64])
    couplings = [(0.5, 0.0), (1000.0, 0.0), (2.0, 0.0), (800.0, 0.0),
                 (0.1, 0.0), (5000.0, 0.0), (0.0, 650.0)]
    rng = np.random.default_rng(11)
    omegas = [rng.standard_normal(64) for _ in couplings]
    g = np.array([b * om - h for (b, h), om in zip(couplings, omegas)])
    free, con = quenched_rows(walk, spec, g, ladder)
    for i, ((beta, h), omega) in enumerate(zip(couplings, omegas)):
        one = quenched_sweep(walk, spec, beta, h, omega, ladder)
        np.testing.assert_array_equal(free[i], one.log_z_free)
        np.testing.assert_array_equal(con[i], one.log_z_constrained)
        assert_matches_oracle(one, quenched_oracle(walk, spec, beta, h, omega,
                                                   ladder.tolist()))


# ------------------------------------- the sweeps stepped on every site

def full_lattice_sweep(ker, step_weights, record_at):
    """Oracle of ``transfer._sweep``, bit for bit: the same recursion one
    ``step`` at a time on every site of the kernel ``ker`` tiled over the
    rows (conftest's ``tiled``), the other class's zeros included, with
    step_weights(n) the flat site weights of step n, each row scaled by
    2^-e after every step, e the binary exponent of its maximum.  Returns
    (log_z_free, log_z_constrained, lost)."""
    pts = record_at.tolist()
    sites, origin = len(ker.heights), ker.origin
    r = len(ker.p_up) // sites
    v, nxt = np.zeros(r * sites), np.empty(r * sites)
    v[origin::sites] = 1.0
    count = np.zeros(r, dtype=np.int64)
    rec_free = np.zeros((r, len(pts)))
    rec_con = np.zeros_like(rec_free)
    lost = np.zeros(r, dtype=bool)
    idx = 1 if pts[0] == 0 else 0
    for n in range(1, pts[-1] + 1):
        ker.step(v, nxt)
        nxt *= step_weights(n)
        if n == pts[idx]:
            lost |= nxt[origin::sites] < transfer._TINY
        by_row = nxt.reshape(r, sites)
        e = np.frexp(by_row.max(axis=1))[1]
        np.ldexp(by_row, -e[:, None], out=by_row)
        count += e
        v, nxt = nxt, v
        if n == pts[idx]:
            log_scale = count * math.log(2.0)
            rec_free[:, idx] = log_scale + np.log(by_row.sum(axis=-1))
            con = v[origin::sites]
            lost |= con < transfer._TINY
            with np.errstate(divide="ignore"):
                rec_con[:, idx] = log_scale + np.log(con)
            idx += 1
    return rec_free, rec_con, lost


def full_lattice_log_sweep(ker, step_log_weights, record_at):
    """Oracle of ``transfer._sweep`` in logs, bit for bit: one ``log_step``
    at a time on every site of the kernel ``ker`` tiled over the rows,
    each row shifted by the floor of its maximum every
    _LOG_RESCALE_EVERY steps and at record steps, the floors counted in
    one integer."""
    pts = record_at.tolist()
    sites, origin = len(ker.heights), ker.origin
    r = len(ker.p_up) // sites
    v, nxt = np.full(r * sites, -math.inf), np.empty(r * sites)
    v[origin::sites] = 0.0
    count = np.zeros(r, dtype=np.int64)
    rec_free = np.zeros((r, len(pts)))
    rec_con = np.zeros_like(rec_free)
    idx = 1 if pts[0] == 0 else 0
    for n in range(1, pts[-1] + 1):
        log_step(ker, v, nxt)
        nxt += step_log_weights(n)
        v, nxt = nxt, v
        if n % transfer._LOG_RESCALE_EVERY and n != pts[idx]:
            continue
        by_row = v.reshape(r, sites)
        e = np.floor(by_row.max(axis=1)).astype(np.int64)
        by_row -= e[:, None]
        count += e
        if n == pts[idx]:
            # each row's maximum now lies in [0, 1): no exp overflows
            rec_free[:, idx] = count + np.log(np.exp(by_row).sum(axis=1))
            rec_con[:, idx] = count + v[origin::sites]
            idx += 1
    return rec_free, rec_con


def full_lattice_rows(walk, spec, g, pts, folded):
    """Oracle of ``quenched_rows`` on the oracles above: (log_z_free,
    log_z_constrained, lost), lost being that of the linear sweep's rows."""
    ker = layout(walk, spec, int(pts[-1]), folded)
    phi = np.asarray(phi_eval(spec, ker.heights), dtype=float)

    def run(rows, sweep, linear):
        def weights(n):
            log_w = g[rows][:, n - 1, None] * phi
            return (np.exp(log_w) if linear else log_w).reshape(-1)
        return sweep(tiled(ker, len(g[rows])), weights, pts)

    in_logs = (np.abs(g).max(axis=1) * np.abs(phi).max()
               > transfer.LOG_WEIGHT_CAP)
    free, con = np.empty((2, len(g), len(pts)))
    lost = np.zeros(0, dtype=bool)
    if not in_logs.all():
        linear = np.flatnonzero(~in_logs)
        free[linear], con[linear], lost = run(linear, full_lattice_sweep, True)
        in_logs[linear[lost]] = True
    if in_logs.any():
        free[in_logs], con[in_logs] = run(in_logs, full_lattice_log_sweep,
                                          False)
    return free, con, lost


def class_rows(monkeypatch, walk, spec, g, pts, folded):
    """``quenched_rows`` and the lost flags of its linear sweep, if any."""
    seen, sweep = [np.zeros(0, dtype=bool)], transfer._sweep

    def spy(*args, **kwargs):
        out = sweep(*args, **kwargs)
        if not kwargs.get("log"):
            seen.append(out[2])
        return out

    monkeypatch.setattr(transfer, "_sweep", spy)
    free, con = quenched_rows(walk, spec, g, pts, folded)
    monkeypatch.undo()
    return free, con, seen[-1]


def assert_same_bits(got, want):
    for a, b in zip(got, want, strict=True):
        np.testing.assert_array_equal(a, b)


# record points with 0, one block or less, and past blocks, ending off a
# multiple of BLOCK = 32 or on one
GUARD_RECORDS = [[0, 2, 6], [4, 34, 66, 100], [2], [64]]


@pytest.mark.parametrize("rows", [1, 3, 7])
@pytest.mark.parametrize("l", [1, 2, 3, 8, 9, 40, 41])
@pytest.mark.parametrize("folded", [True, False])
def test_class_sweeps_keep_the_full_lattice_bits(monkeypatch, folded, l,
                                                 rows):
    # odd L puts a signed lattice's origin on an odd site
    walk = WalkSpec(alpha=0.6, l_max=l)
    specs = [PIN, PotentialSpec(kind="power_tail", theta=3.0)]
    if not folded:
        specs.append(PotentialSpec(kind="copolymer"))
    rng = np.random.default_rng(100 * l + rows)
    # the last ends off a multiple of BLOCK with no record point on one
    for spec, pts in itertools.product(specs, GUARD_RECORDS + [[10, 42, 90]]):
        pts = np.array(pts)
        g = 0.8 * rng.standard_normal((rows, pts[-1])) - 0.2
        # +-1 charges, whose couplings a table weighs once; those rows
        # beside Gaussian ones, in one call; and one constant row
        pm1 = 0.8 * (rng.integers(0, 2, (rows, pts[-1])) * 2.0 - 1.0) - 0.2
        for couplings in (g, pm1, np.vstack([pm1, g]),
                          np.full((1, pts[-1]), 0.3)):
            assert_same_bits(
                class_rows(monkeypatch, walk, spec, couplings, pts, folded),
                full_lattice_rows(walk, spec, couplings, pts, folded))
        # the annealed sweep, linear and (beta = 40) in logs
        ker = layout(walk, spec, int(pts[-1]), folded)
        for beta in (0.7, 40.0):
            sw = annealed_sweep(walk, spec, GAUSS, beta, 0.1, pts, folded)
            log_w = np.asarray(psi(GAUSS, spec, beta, 0.1, ker.heights),
                               dtype=float)
            if beta < 1:
                want = full_lattice_sweep(ker, lambda n: np.exp(log_w), pts)
            else:
                want = full_lattice_log_sweep(ker, lambda n: log_w, pts)
            assert_same_bits((sw.log_z_free, sw.log_z_constrained),
                             (want[0][0], want[1][0]))


@pytest.mark.parametrize("folded", [True, False])
def test_class_sweeps_lose_and_rerun_the_rows_the_full_lattice_does(
        monkeypatch, folded):
    # h = 650 on power_tail: the origin's share of the middle row underflows
    # (see test_underflowing_origin_share_is_recomputed_in_logs), and that
    # row reruns in logs; betas 1000 and 800 pass the weight cap and run in
    # logs from the start, beside linear rows
    walk, pw = WalkSpec(alpha=0.6), PotentialSpec(kind="power_tail", theta=3.0)
    rng = np.random.default_rng(5)
    for pts, couplings in (
            ([16, 32, 64], [(0.5, 0.1), (0.0, 650.0), (2.0, 0.0)]),
            ([0, 16, 50], [(1000.0, 0.0), (0.5, 0.0), (0.0, 650.0),
                           (800.0, 0.0), (0.1, 0.0)])):
        pts = np.array(pts)
        g = np.array([b * rng.standard_normal(pts[-1]) - h
                      for b, h in couplings])
        got = class_rows(monkeypatch, walk, pw, g, pts, folded)
        want = full_lattice_rows(walk, pw, g, pts, folded)
        assert want[2].tolist() == [h == 650.0 for b, h in couplings
                                    if b < 100]
        assert_same_bits(got, want)


def rows_at(monkeypatch, drift_bits, walk, spec, g, pts, folded):
    """``class_rows`` with ``_sweep``'s drift budget set to drift_bits."""
    monkeypatch.setattr(transfer, "_DRIFT_BITS", drift_bits)
    return class_rows(monkeypatch, walk, spec, g, pts, folded)


@pytest.mark.parametrize("folded", [True, False])
def test_rescale_interval_and_neighbour_rows_leave_every_bit(monkeypatch,
                                                             folded):
    # a budget of 0 bits rescales after every step, k = 1, and one of 1e6
    # only every BLOCK steps; a row scaled by powers of two keeps its bits
    # either way, and beside a row near the weight cap, which takes the
    # derived k to 1 (a row at k = BLOCK that near the cap would overflow)
    walk = WalkSpec(alpha=0.6)
    specs = [PIN, PotentialSpec(kind="power_tail", theta=3.0)]
    if not folded:
        specs.append(PotentialSpec(kind="copolymer"))
    rng = np.random.default_rng(7)
    for spec, pts in itertools.product(specs,
                                       GUARD_RECORDS + [[128, 1000, 2048]]):
        pts = np.array(pts)
        g = 0.8 * rng.standard_normal((3, pts[-1])) - 0.2
        every = rows_at(monkeypatch, 0, walk, spec, g, pts, folded)
        block = rows_at(monkeypatch, 10 ** 6, walk, spec, g, pts, folded)
        assert_same_bits(every, block)
        assert_same_bits(every, class_rows(monkeypatch, walk, spec, g, pts,
                                           folded))
        near = 690.0 * rng.choice([-1.0, 1.0], pts[-1])  # max |phi| = 1
        mixed = class_rows(monkeypatch, walk, spec,
                           np.vstack([g[:2], near, g[2:]]), pts, folded)
        assert_same_bits([a[[0, 1, 3]] for a in mixed], block)


_SPECS = st.one_of(
    st.sampled_from([PIN, PotentialSpec(kind="copolymer")]),
    st.floats(0.1, 5.0).map(lambda t: PotentialSpec(kind="power_tail",
                                                    theta=t)))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(alpha=st.floats(0.1, 0.9), spec=_SPECS,
       charges=st.sampled_from([GAUSS, BERN]), beta=st.floats(0.0, 1000.0),
       h=st.floats(-1500.0, 1500.0), folded=st.booleans(),
       n_max=st.sampled_from([16, 32, 64]), seed=st.integers(0, 2 ** 32 - 1))
def test_sweeps_match_a_log_space_recursion(alpha, spec, charges, beta, h,
                                            folded, n_max, seed):
    # every coupling, weak or strong: finite and the log-space oracle's
    walk, folded = WalkSpec(alpha=alpha), folded and spec.symmetric
    ladder = [n_max // 4, n_max // 2, n_max]
    ker = layout(walk, spec, n_max, folded)
    log_w = np.asarray(psi(charges, spec, beta, h, ker.heights), dtype=float)
    assert_matches_oracle(
        annealed_sweep(walk, spec, charges, beta, h, ladder, folded=folded),
        log_space_sweep(ker, lambda n: log_w, ladder))
    omega = charges.sample(np.random.default_rng(seed), n_max)
    assert_matches_oracle(
        quenched_sweep(walk, spec, beta, h, omega, ladder, folded=folded),
        quenched_oracle(walk, spec, beta, h, omega, ladder, folded))


def test_strong_coupling_sweeps_stay_finite():
    # psi(0) = beta^2 / 2 = 800: exp(psi) overflows, yet a path that sits at
    # the origin every other step gives f = psi(0)/2 + log(return prob)/2
    walk = WalkSpec(alpha=0.6)
    est = annealed_free_energy(walk, PIN, GAUSS, 40.0, 0.0, n_max=256)
    p2 = 0.5 * (1.0 - float(walk.drift(1)))
    assert est.value == pytest.approx(400.0 + 0.5 * math.log(p2), rel=1e-9)
    omega = np.random.default_rng(0).standard_normal(256)
    sw = quenched_sweep(walk, PotentialSpec(kind="copolymer"), 400.0, 0.0,
                        omega, [256])
    assert np.all(np.isfinite(sw.log_z_free))
    assert np.all(np.isfinite(sw.log_z_constrained))


def test_log_sweep_rounding_does_not_grow_with_log_z():
    # the same strong pinning out to N = 4096, where log Z ~ 1.6e6: each
    # rung, free and constrained, is the closed form to rounding, and the
    # ladder has neither gap nor drift
    walk = WalkSpec(alpha=0.6)
    est = annealed_free_energy(walk, PIN, GAUSS, 40.0, 0.0, n_max=4096)
    closed = 400.0 + 0.5 * math.log(0.5 * (1.0 - float(walk.drift(1))))
    for f in (est.ladder.f_free(), est.ladder.f_constrained()):
        np.testing.assert_allclose(f, closed, rtol=1e-15, atol=0)
    assert est.error <= 1e-13


def test_quenched_below_annealed_jensen():
    pw = PotentialSpec(kind="power_tail", theta=3.0)
    walk = WalkSpec(alpha=0.6)
    for b, h in [(0.5, 0.05), (1.0, 0.3)]:
        q = quenched_free_energy(walk, pw, GAUSS, b, h, n_max=2 ** 10, n_samples=12, seed=5)
        a = annealed_free_energy(walk, pw, GAUSS, b, h, n_max=2 ** 10)
        # per-sample Jensen holds in expectation; allow for sampling error
        assert q.value <= a.value + 3.0 * q.error


@settings(max_examples=150, deadline=None, derandomize=True)
@given(alpha=st.floats(0.1, 0.9),
       spec=st.one_of(
           st.sampled_from([PIN, PotentialSpec(kind="copolymer")]),
           st.floats(0.5, 5.0).map(
               lambda t: PotentialSpec(kind="power_tail", theta=t))),
       charges=st.sampled_from([GAUSS, BERN]), beta=st.floats(0.05, 2.0),
       h=st.floats(-1.0, 1.0), n_max=st.sampled_from([16, 32, 64]))
def test_quenched_never_exceeds_annealed(alpha, spec, charges, beta, h,
                                         n_max):
    # Jensen at every N on one lattice: E log Z_N <= log E Z_N, so the
    # sample mean of the quenched values passes the annealed one by sampling
    # noise only
    walk = WalkSpec(alpha=alpha)
    q = quenched_free_energy(walk, spec, charges, beta, h, n_max=n_max,
                             n_samples=8, seed=3)
    a = annealed_free_energy(walk, spec, charges, beta, h, n_max=n_max)
    assert q.value <= a.value + 5.0 * q.sem + 1e-12 * (1.0 + abs(a.value))


def test_compare_free_constrained_decreasing():
    rows = compare_free_constrained(SRW, PIN, GAUSS, 0.5, 0.5, [64, 128, 256, 512])
    diffs = rows[:, 1]
    assert np.all(diffs > 0.0)
    assert np.all(np.diff(diffs) < 0.0)


# ------------------------------------------------------------- renewal root

def test_renewal_root_matches_pinned_closed_form():
    k = return_law(SRW, 4096)
    weights = k * math.exp(0.5)  # every excursion ends with the e^{psi(0)} reward
    root = renewal_root(weights, alpha=0.5)
    assert root.localized
    assert root.f == pytest.approx(F_PINNED_SRW, rel=1e-8)
    assert root.f_lower == pytest.approx(root.f, rel=1e-6)


def test_renewal_root_subcritical_is_zero():
    k = return_law(SRW, 2048)
    root = renewal_root(k * math.exp(-0.3), alpha=0.5)
    assert not root.localized
    assert root.f == 0.0


def test_renewal_root_leaves_no_array_in_a_reference_cycle():
    # brentq wraps its function in a closure that refers to itself; a
    # function closing over the weights would keep them in that cycle
    weights = return_law(SRW, 4096) * math.exp(0.5)
    root = []
    assert arrays_left_in_cycles(
        lambda: root.append(renewal_root(weights, alpha=0.5))) == []
    assert root[-1].f > 0.0  # brentq ran


def test_renewal_root_tail_fit_improves_marginal_case():
    # weights just above critical: the truncated sum alone underestimates
    k = return_law(SRW, 2048)
    weights = k * 1.01
    root = renewal_root(weights, alpha=0.5)
    assert root.f >= root.f_lower >= 0.0
    assert root.localized


# --------------------------------------------------------------------- CSV

def test_ladder_csv_annealed(emit):
    est = annealed_free_energy(SRW, PIN, GAUSS, 0.5, 0.2, n_max=64, n_points=3)
    rows = ladder_csv_rows(est)
    lines = emit(LADDER_COLUMNS, rows)
    assert lines[0] == "# config sha256 abc"
    assert all(line.startswith("# ") for line in lines[:3])
    assert lines[3] == ",".join(LADDER_COLUMNS)
    assert len(lines) == 4 + 3
    first = lines[4].split(",")
    assert first[0] == "16"  # ints stay ints
    assert float(first[3]) == rows[0]["f_free"]  # repr round-trips exactly
    assert float(first[3]) == pytest.approx(float(first[1]) / 16.0)


def test_ladder_csv_quenched_has_sample_and_seed(emit):
    est = quenched_free_energy(SRW, PIN, GAUSS, 0.5, 0.2, n_max=64,
                               n_samples=2, seed=9, n_points=2)
    rows = ladder_csv_rows(est)
    assert {r["sample"] for r in rows} == {0, 1}
    assert all(r["seed"] == 9 for r in rows)
    lines = emit(QUENCHED_COLUMNS, rows)
    assert lines[3] == ",".join(LADDER_COLUMNS) + ",sample,seed"
    assert [line.split(",")[-2:] for line in lines[4:]] == [
        ["0", "9"], ["0", "9"], ["1", "9"], ["1", "9"]]
