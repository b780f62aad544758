"""End-to-end acceptance checks, one per headline guarantee of the package.

Every test pins a property that can be checked against something external
to the code under test: a closed-form renewal root, an independent
quadrature, exact enumeration constants, or an internal cross-validation
between two estimators that share no code path.  Tolerances and runtime
budgets are frozen; the expected values were computed from the closed
forms or measured once and never tuned to the implementation.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from softpin.continuum import (
    ContinuumParams,
    ContinuumPhasePoint,
    bessel_density,
    coefficient_candidates,
    ztilde_growth_rate,
)
from softpin.lattice import layout
from softpin.localization import (
    annealed_critical_h,
    excursion_sum,
    quenched_critical_h,
)
from softpin.model import (
    ChargeModel,
    PotentialSpec,
    WalkSpec,
    c_star,
    estimate_c_weights,
)
from softpin.scaling import ScalingSchedule, scaled_free_energy
from softpin.transfer import (
    annealed_free_energy,
    quenched_free_energy,
)

from oracles import (annealed_partition, compare_free_constrained,
                     criterion_start_invariance, dirichlet_ik,
                     rescaled_lower_bound)

GAUSS = ChargeModel("gaussian")
SRW = WalkSpec(alpha=0.5)
WALK6 = WalkSpec(alpha=0.6)
PIN = PotentialSpec(kind="pinning")
PT3 = PotentialSpec(kind="power_tail", theta=3.0)

# shared coupling grid for the criterion/free-energy cross checks
GRID = np.linspace(0.0, 1.5, 10)


def test_pinning_free_energy_matches_renewal_root():
    """Transfer recursion vs the closed-form root of the renewal identity.

    For the simple random walk with a reward only at the origin the free
    energy solves sum_n K(n) e^(-F n) = e^(-psi(0)) with the first-return
    transform sum_n K(n) s^n = 1 - sqrt(1 - s^2), so F is explicit.
    """
    t0 = time.monotonic()
    psi0 = 0.5  # beta = 0, h = -0.5, phi = indicator of the origin
    root = -0.5 * math.log(1.0 - (1.0 - math.exp(-psi0)) ** 2)
    n = 2 ** 12
    _, log_zc = annealed_partition(replace(SRW, l_max=256), PIN, GAUSS, 0.0,
                                   -0.5, n)
    assert log_zc / n == pytest.approx(root, abs=1e-3)
    assert time.monotonic() - t0 < 10.0


def test_excursion_criterion_agrees_with_free_energy_sign_on_grid():
    """One-excursion weight sum vs direct free-energy sign, 10 x 10 grid.

    The model is localized exactly when the expected weight of a single
    excursion exceeds one, so wherever both the criterion and the
    finite-size free-energy bracket commit to a side they must agree.
    """
    t0 = time.monotonic()
    undetermined = 0
    doubly_determined = 0
    for beta in GRID:
        for h in GRID:
            cv = excursion_sum(WALK6, PT3, GAUSS, float(beta), float(h),
                               m_max=4096)
            if cv.verdict == "undetermined":
                undetermined += 1
                continue
            est = annealed_free_energy(WALK6, PT3, GAUSS, float(beta),
                                       float(h), n_max=2048)
            if est.f_constrained > 0.0:
                fe_localized = True
            elif est.f_free <= 0.0:
                fe_localized = False
            else:
                continue  # bracket straddles zero: carries no sign
            doubly_determined += 1
            assert (cv.verdict == "yes") == fe_localized, (beta, h, cv, est)
    assert undetermined < 20  # < 20% of the grid
    assert doubly_determined >= 50
    assert time.monotonic() - t0 < 300.0


def test_annealed_critical_curve_is_anchored_and_monotone():
    """h_c(0) = 0 to bracket width; h_c nondecreasing and positive after."""
    betas = [0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5]
    brackets = [annealed_critical_h(WALK6, PT3, GAUSS, b, tol=1e-3)
                for b in betas]
    assert brackets[0].lo <= 0.0 <= brackets[0].hi
    assert brackets[0].width <= 1e-3
    for prev, cur in zip(brackets, brackets[1:]):
        assert cur.hi >= prev.lo  # nondecreasing within bracket widths
    for beta, br in zip(betas, brackets):
        if beta >= 0.25:
            assert br.lo > 0.0


def test_quenched_critical_band_lies_in_the_annealed_sandwich():
    """Sampled critical band between its annealed lower and upper bounds.

    The lower bound is the annealed critical height at reduced coupling
    beta/(1+alpha) stretched by 1+alpha; the upper bound is the annealed
    critical height itself.  The sampled band (200 disorder samples at
    N = 2^12, 95% confidence) must land between them, with each bound
    slack by its own bisection width.
    """
    t0 = time.monotonic()
    for beta in (0.5, 1.0):
        lower = rescaled_lower_bound(WALK6, PT3, GAUSS, beta, tol=1e-3)
        upper = annealed_critical_h(WALK6, PT3, GAUSS, beta, tol=1e-3)
        band = quenched_critical_h(WALK6, PT3, GAUSS, beta, n_max=2 ** 12,
                                   n_samples=200, seed=41, tol=5e-3,
                                   detect=1.96)
        assert band.confidence == pytest.approx(0.95, abs=1e-3)
        assert band.width > 0.0
        assert lower.lo - lower.width <= band.lo
        assert band.hi <= upper.hi + upper.width
    assert time.monotonic() - t0 < 1800.0


def test_sampled_free_energy_obeys_averaging_bound_and_positivity():
    """Disorder-sampled free energy: below the annealed one, above zero.

    Averaging the partition function can only increase the free energy,
    so at matched size the sampled mean may not exceed the annealed value
    beyond sampling noise; and the sampled estimate may not be
    significantly negative, since the limit is nonnegative.
    """
    for beta in GRID:
        for h in GRID:
            sampled = quenched_free_energy(WALK6, PT3, GAUSS, float(beta),
                                           float(h), n_max=1024, n_samples=4,
                                           seed=77)
            averaged = annealed_free_energy(WALK6, PT3, GAUSS, float(beta),
                                            float(h), n_max=1024)
            assert (sampled.f_constrained
                    <= averaged.f_constrained + 3.0 * sampled.sem + 1e-12)
            assert sampled.value >= -3.0 * sampled.error


def test_continuum_closed_forms_match_quadrature_oracles():
    """Simplex weight, transition-density mass, and the half-Gaussian case."""
    # two-interval Dirichlet integral at theta = 1/2 equals Beta(1/2, 1/2)
    oracle, quad_err = quad(lambda t: 1.0, 0.0, 1.0, weight="alg",
                            wvar=(-0.5, -0.5))
    assert quad_err < 1e-8
    assert dirichlet_ik(0.5, 2) == pytest.approx(oracle, abs=1e-3)

    for alpha in (0.25, 0.5, 0.75):
        for x in (0.0, 0.8):
            mass = sum(
                quad(lambda y: bessel_density(alpha, 1.0, x, y), a, b,
                     limit=200)[0]
                for a, b in ((0.0, 1.0), (1.0, np.inf))
            )
            assert mass == pytest.approx(1.0, abs=1e-8), (alpha, x)

    # at alpha = 1/2 the density started from the origin is half-Gaussian
    for y in np.linspace(0.0, 5.0, 26):
        target = math.sqrt(2.0 / math.pi) * math.exp(-0.5 * y * y)
        assert bessel_density(0.5, 1.0, 0.0, float(y)) == pytest.approx(
            target, abs=1e-10)


def test_series_growth_rate_and_coefficient_normalization():
    """Weighted series growth vs its gamma-power target, and the k! cousin.

    The exponential growth rate of the local-time moment series at mu = 1,
    alpha = 1/2 is (Gamma(1/2))^2 = pi.  The per-order coefficients admit
    two gamma normalizations differing by a factor alpha*k; the low-order
    simplex quadrature singles out the Gamma(alpha k + 1) form.
    """
    t0 = time.monotonic()
    rate = ztilde_growth_rate(1.0, 0.5, 200.0)
    assert rate == pytest.approx(3.145058389492591, rel=1e-9)  # frozen
    assert abs(rate - math.pi) / math.pi < 0.03

    params = ContinuumParams(alpha=0.6, theta=3.0)
    cp = ContinuumPhasePoint(beta_hat=1.0, h_hat=0.1)
    for k in range(1, 5):
        cand = coefficient_candidates(params, cp, 0.513531, 0.395852, 8.0, k)
        assert cand.brute_force == pytest.approx(cand.gamma_ak_plus1,
                                                 rel=1e-5)
        assert abs(cand.brute_force - cand.gamma_ak) > 0.1 * cand.gamma_ak
        assert cand.canonical == cand.gamma_ak_plus1
    assert time.monotonic() - t0 < 60.0


def test_return_height_distribution_matches_limit_constants():
    """Exact kernel evolution vs the closed-form height constants.

    For the simple random walk, n^(1/2) P(|S_n| = k) converges to twice
    c(0) = sqrt(2/pi)/2 at the origin and twice c(k) = sqrt(2/pi) at
    every other height of matching parity.
    """
    t0 = time.monotonic()
    n = 2 ** 12
    ker = layout(SRW, None, n)
    v = np.zeros(len(ker.heights))
    v[0] = 1.0
    out = np.zeros_like(v)
    for _ in range(n):
        v, out = ker.step(v, out), v
    c0 = 0.5 * math.sqrt(2.0 / math.pi)
    ck = math.sqrt(2.0 / math.pi)
    for k in (0, 2, 4):
        c = c0 if k == 0 else ck
        ratio = n ** 0.5 * float(v[k]) / (2.0 * c)
        assert 0.98 <= ratio <= 1.02, (k, ratio)
    assert time.monotonic() - t0 < 60.0


def test_excursion_criterion_verdict_is_start_state_invariant():
    """The localization predicate is a property of the chain, not the start.

    On 100 random irreducible chains with at most 11 states and random
    site weights, the excursion-sum comparison against one lands on the
    same side from every start state, with both sides well represented.
    """
    t0 = time.monotonic()
    rng = np.random.default_rng(20250816)
    above = below = 0
    for _ in range(100):
        n_states = int(rng.integers(2, 12))
        p = rng.gamma(1.0, 1.0, (n_states, n_states)) + 1e-6
        p /= p.sum(axis=1, keepdims=True)
        psi_tab = rng.normal(0.0, 0.35, n_states) + rng.normal(0.0, 0.25)
        res = criterion_start_invariance(p, psi_tab, m_max=2048)
        assert res.consistent, (p, psi_tab, res.values)
        if res.above.all():
            above += 1
        else:
            below += 1
    assert above >= 20
    assert below >= 20
    assert time.monotonic() - t0 < 60.0


def test_scaled_free_energy_converges_to_continuum_target():
    """N * F along the weak-coupling schedule approaches its continuum limit.

    In the light-tail regime (alpha = 0.6, power-tail shape with theta = 3,
    hatted couplings 1 and 0.1) the rescaled free energy has an explicit
    limit; the relative gap must shrink monotonically along the size
    ladder and end below ten percent.
    """
    t0 = time.monotonic()
    weights = estimate_c_weights(WALK6, k_max=360, n_probe=2 ** 17)
    cs1 = c_star(PT3, weights, power=1).value
    cs2 = c_star(PT3, weights, power=2).value
    schedule = ScalingSchedule(
        params=ContinuumParams(alpha=0.6, theta=3.0),
        beta_hat=1.0, h_hat=0.1,
        n_ladder=tuple(2 ** k for k in range(8, 14)),
    )
    points = scaled_free_energy(schedule, WALK6, GAUSS, PT3,
                                cstar_phi=cs1, cstar_phi2=cs2)
    gaps = [p.rel_gap for p in points]
    assert all(g is not None and g > 0.0 for g in gaps)
    assert all(a > b for a, b in zip(gaps, gaps[1:])), gaps
    assert gaps[-1] < 0.10
    assert time.monotonic() - t0 < 1200.0


def test_free_and_constrained_partitions_agree_asymptotically():
    """Per-step gap between free and endpoint-pinned partitions vanishes."""
    rows = compare_free_constrained(SRW, PIN, GAUSS, 0.5, 0.5,
                                    [2 ** k for k in range(8, 14)])
    diffs = rows[:, 1]
    assert all(a > b for a, b in zip(diffs, diffs[1:])), diffs
    assert diffs[-1] < 0.01
