"""Tests for the excursion-sum criterion and critical curves.

Closed-form oracles used here:

- charge-free sums: at beta = 0 the excursion sum is exp(-h) for the
  single-site potential (every return collects the same factor), and
  exactly 1 at h = 0 by recurrence;
- gaussian single-site critical height: psi(0) = beta^2/2 - h crosses 0
  at h = beta^2/2, and the excursion sum is exp(psi(0));
- bernoulli charges move the crossing to log cosh(beta);
- finite chains: the weighted first-return sum is enumerable exactly for
  short horizons.
"""

import itertools
import math
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import softpin.localization as localization
from softpin import transfer
from softpin.cli import CURVE_COLUMNS
from softpin.model import ChargeModel, PotentialSpec, WalkSpec, return_law
from softpin.transfer import quenched_free_energy
from softpin.localization import (
    DIVERGENCE_CAP,
    annealed_critical_curve,
    annealed_critical_h,
    excursion_sum,
    excursion_weights,
    quenched_critical_h,
    transient_criterion,
)

from conftest import log_uniform, potential_specs, signed
from oracles import (criterion_start_invariance, enumerate_first_return_sum,
                     rescaled_lower_bound)

LOG_COSH_1 = 0.4337808304830271


# ----------------------------------------------------------------- weights

class TestExcursionWeights:
    def test_first_weight_is_return_probability_times_site_factor(self, srw, pinning, gaussian):
        ew = excursion_weights(srw, pinning, gaussian, 0.8, 0.3, m_max=16)
        k = return_law(srw, 16)
        psi0 = 0.5 * 0.8**2 - 0.3
        assert ew.a[2] == pytest.approx(k[2] * math.exp(psi0), rel=1e-12)
        assert ew.a[4] == pytest.approx(k[4] * math.exp(psi0), rel=1e-12)

    def test_odd_lengths_carry_no_weight(self, srw, pinning, gaussian):
        ew = excursion_weights(srw, pinning, gaussian, 0.5, 0.1, m_max=32)
        assert np.all(ew.a[1::2] == 0.0)

    def test_single_site_potential_weights_are_scaled_return_law(self, srw, pinning, gaussian):
        # interior sites carry no weight, so A_m = K(m) exp(psi(0)) for all m
        ew = excursion_weights(srw, pinning, gaussian, 1.0, 0.25, m_max=128)
        k = return_law(srw, 128)
        np.testing.assert_allclose(ew.a, k * math.exp(0.25), rtol=1e-12)

    def test_tempering_matches_rescaled_phase_point(self, srw, gaussian):
        spec = PotentialSpec(kind="power_tail", theta=2.5)
        kappa = 1.0 / 1.5
        a = excursion_weights(srw, spec, gaussian, 1.2, 0.4, m_max=256, kappa=kappa)
        b = excursion_weights(srw, spec, gaussian, 1.2 * kappa, 0.4 * kappa, m_max=256)
        np.testing.assert_array_equal(a.a, b.a)

    def test_overflowing_origin_weight_flags_divergence(self, pinning, gaussian):
        # psi(0) = beta^2 / 2 = 800: exp(psi(0)) does not fit in a float
        walk = WalkSpec(alpha=0.6)
        ew = excursion_weights(walk, pinning, gaussian, 40.0, 0.0, m_max=64)
        assert ew.diverged and ew.m_stop == 2
        assert not np.any(np.isnan(ew.a))
        cv = excursion_sum(walk, pinning, gaussian, 40.0, 0.0, m_max=64)
        assert cv.diverged and cv.verdict == "yes"

    def test_overflowed_origin_weight_flags_divergence_warning_free(
            self, srw, pinning, gaussian):
        # psi(0) = beta^2 / 2 overflows to +inf itself: the cumulant warned
        # ahead of the verdict
        cv = excursion_sum(srw, pinning, gaussian, 1e200, 0.0, m_max=64)
        assert cv.diverged and cv.verdict == "yes"

    def test_overflowed_arm_weights_flag_divergence_warning_free(
            self, gaussian):
        # psi = +inf on the copolymer's arm x <= 0: the log recursion added
        # it to sites the walk had not reached, -inf + inf, and warned
        cv = excursion_sum(WalkSpec(alpha=0.5),
                           PotentialSpec(kind="copolymer"), gaussian, 1e200,
                           0.0, m_max=64)
        assert cv.diverged and cv.verdict == "yes"

    def test_cumulant_and_h_phi_both_overflowing_raise(self, srw, gaussian):
        # psi = inf - inf: the subtraction warned and the value was NaN
        amp = PotentialSpec(kind="pinning", amplitude=1e10)
        with pytest.raises(FloatingPointError, match="both overflow"):
            excursion_sum(srw, amp, gaussian, 1e200, 1e300, m_max=64)

    def test_overflowing_off_origin_weight_flags_divergence(self, gaussian):
        # psi(3) = 800: e^800 overflows, but the sum runs in logs and is
        # exact; it passes the cap at the first return past height 3, at
        # step 6, where its term overflows and the row is flagged
        spec = PotentialSpec(kind="table", table={0: 0.0, 3: 1.0})
        walk = WalkSpec(alpha=0.6)
        ew = excursion_weights(walk, spec, gaussian, 40.0, 0.0, m_max=64)
        assert ew.diverged and ew.m_stop == 6
        assert np.all(np.isfinite(ew.a[:6])) and ew.a[6] == math.inf
        assert not np.any(ew.a[7:])
        cv = excursion_sum(walk, spec, gaussian, 40.0, 0.0, m_max=64)
        assert cv.diverged and cv.verdict == "yes"

    def test_unreached_overflowing_site_does_not_diverge(self, srw, gaussian):
        # psi(6) = 800, but a 4-step excursion never reaches height 6
        spec = PotentialSpec(kind="table", table={0: 0.01, 6: 1.0})
        ew = excursion_weights(srw, spec, gaussian, 40.0, 0.0, m_max=4)
        assert not ew.diverged and ew.m_stop == 4
        assert ew.a[2] == pytest.approx(0.541643, rel=1e-5)
        assert ew.a[4] == pytest.approx(0.135411, rel=1e-5)
        # the walk first reaches height 6 at step 6 and is back at the
        # origin at step 12, where e^800 passes the cap
        ew = excursion_weights(srw, spec, gaussian, 40.0, 0.0, m_max=64)
        assert ew.diverged and ew.m_stop == 12

    def test_overflowing_site_behind_an_underflowing_one_diverges(
            self, srw, gaussian):
        # psi(1) = -1200 underflows and psi(2) = 10000 overflows; every path
        # to height 2 passes height 1, yet the excursion 0-1-2-1-0 gains
        # e^7600, so the sum passes the cap at step 4
        spec = PotentialSpec(kind="table", table={1: 40.0, 2: 200.0})
        cv = excursion_sum(srw, spec, gaussian, 1.0, 50.0, m_max=64)
        assert cv.diverged and cv.verdict == "yes"
        ew = excursion_weights(srw, spec, gaussian, 1.0, 50.0, m_max=64)
        assert ew.m_stop == 4

    @pytest.mark.parametrize("spec,law,points,m_max", [
        # folded lattice: decaying, slowly growing, overflowing return weight
        (PotentialSpec(kind="power_tail", theta=3.0), "gaussian",
         [(0.5, 0.1), (1.0, 0.0), (40.0, 0.0), (0.0, -0.3)], 256),
        # signed lattice: a sum that diverges next to ones that converge
        (PotentialSpec(kind="copolymer"), "bernoulli_pm1",
         [(1.0, 0.1), (0.5, 2.0), (0.0, 0.0)], 256),
        # an overflowing site the walk does not reach, then does reach
        (PotentialSpec(kind="table", table={0: 0.01, 6: 1.0}), "gaussian",
         [(40.0, 0.0), (1.0, 0.0), (0.0, 0.2)], 4),
        (PotentialSpec(kind="table", table={0: 0.01, 6: 1.0}), "gaussian",
         [(40.0, 0.0), (1.0, 0.0), (0.0, 0.2)], 64),
        # an overflowing site reached behind an underflowing one
        (PotentialSpec(kind="table", table={1: 40.0, 2: 200.0}), "gaussian",
         [(1.0, 50.0), (0.01, 0.5), (0.5, 100.0)], 64),
    ])
    def test_rows_equal_one_phase_point_at_a_time(self, srw, spec, law,
                                                  points, m_max):
        charges = ChargeModel(law)
        beta, h = zip(*points)
        rows = localization._excursion_rows(srw, spec, charges, beta, h,
                                            m_max)
        for (b, hh), row in zip(points, rows):
            alone = excursion_weights(srw, spec, charges, b, hh, m_max)
            assert np.array_equal(row.a, alone.a)
            assert (row.diverged, row.m_stop) == (alone.diverged,
                                                  alone.m_stop)
            assert row.psi0 == alone.psi0
            assert row.psi_plus_off_origin == alone.psi_plus_off_origin

    def test_validation(self, srw, pinning, gaussian):
        with pytest.raises(ValueError):
            excursion_weights(srw, pinning, gaussian, 1.0, 0.0, m_max=2)
        with pytest.raises(ValueError):
            excursion_weights(srw, pinning, gaussian, 1.0, 0.0, m_max=16, kappa=0.0)


@settings(max_examples=300, deadline=None)
@given(alpha=st.floats(0.05, 0.95), spec=potential_specs,
       law=st.sampled_from(["gaussian", "bernoulli_pm1"]),
       beta=log_uniform(1e300), h=signed(log_uniform(1e300)),
       m_max=st.sampled_from([16, 64, 300]))
def test_excursion_numbers_are_finite_or_flagged(alpha, spec, law, beta, h,
                                                 m_max):
    # finite, diverged or FloatingPointError, with no RuntimeWarning; 300
    # steps take two batches of block steps
    walk, charges = WalkSpec(alpha=alpha), ChargeModel(law)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "first-return mass short",
                                UserWarning)  # at small m_max
        try:
            ew = excursion_weights(walk, spec, charges, beta, h, m_max)
            cv = excursion_sum(walk, spec, charges, beta, h, m_max)
        except FloatingPointError:
            return
    assert ew.diverged or np.all(np.isfinite(ew.a))
    assert cv.diverged or math.isfinite(cv.value)


# ------------------------------------------------------------- criterion

class TestExcursionSum:
    def test_charge_free_sum_is_exp_minus_h(self, srw, pinning, gaussian):
        for h in (0.2, 0.5, 1.0):
            cv = excursion_sum(srw, pinning, gaussian, 0.0, h, m_max=4096)
            assert cv.estimate == pytest.approx(math.exp(-h), abs=1e-4)
            assert cv.verdict == "no" and cv.localized is False

    def test_charge_free_sum_at_origin_is_one(self, srw, pinning, gaussian):
        cv = excursion_sum(srw, pinning, gaussian, 0.0, 0.0, m_max=4096)
        assert cv.estimate == pytest.approx(1.0, abs=1e-3)
        # exactly critical: no finite truncation should take a side
        assert cv.verdict == "undetermined" and cv.localized is None

    def test_localized_point_certified(self, srw, pinning, gaussian):
        cv = excursion_sum(srw, pinning, gaussian, 1.0, 0.0, m_max=4096)
        assert cv.verdict == "yes" and cv.localized is True
        # partial sum below the exact value, bound covering it
        exact = math.exp(0.5)
        assert cv.value < exact < cv.value + cv.tail_bound

    def test_law_matters_only_through_cumulant(self, srw, pinning, bernoulli):
        # bernoulli pinning: sum is exp(log cosh(beta) - h)
        cv = excursion_sum(srw, pinning, bernoulli, 1.0, 0.0, m_max=4096)
        assert cv.estimate == pytest.approx(math.exp(LOG_COSH_1), abs=2e-4)

    def test_verdicts_bracket_the_critical_height(self, gaussian):
        walk = WalkSpec(alpha=0.6)
        spec = PotentialSpec(kind="power_tail", theta=3.0)
        below = excursion_sum(walk, spec, gaussian, 1.0, 0.34, m_max=4096)
        above = excursion_sum(walk, spec, gaussian, 1.0, 0.44, m_max=4096)
        assert below.verdict == "yes"
        assert above.verdict == "no"

    def test_copolymer_sum_diverges(self, srw, gaussian):
        spec = PotentialSpec(kind="copolymer")
        cv = excursion_sum(srw, spec, gaussian, 1.0, 0.1, m_max=4096)
        assert cv.diverged
        assert cv.verdict == "yes"
        assert math.isinf(cv.estimate)

    def test_heuristic_tail_engages_off_single_site_support(self, srw, gaussian):
        # tiny h leaves psi > 0 at height 1: no finite tail bound, so only
        # the partial sum can certify, as it does here
        spec = PotentialSpec(kind="power_tail", theta=3.0)
        cv = excursion_sum(srw, spec, gaussian, 0.4, 1e-4, m_max=1024)
        assert cv.verdict == "yes"  # well inside the localized phase

    @pytest.mark.parametrize("table,m_max", [
        # psi(0) = 1000 overflows exp() and psi(+-1) = -800 underflows, so
        # the row runs in logs: no finite tail bound, but the exact A_2 =
        # e^199.4 passes the cap at the first return and decides the verdict
        ({0: 100.0, 1: 40.0, -1: 40.0}, 64),
    ], ids=["overflowing-return-weight"])
    def test_no_finite_tail_bound_leaves_the_verdict_open(self, gaussian,
                                                          table, m_max):
        spec = PotentialSpec(kind="table", table=table)
        walk = WalkSpec(alpha=0.6)
        cv = excursion_sum(walk, spec, gaussian, 1.0, 40.0, m_max=m_max)
        assert cv.tail_bound == math.inf
        assert cv.verdict == "yes" and cv.diverged
        ew = excursion_weights(walk, spec, gaussian, 1.0, 40.0, m_max=m_max)
        assert ew.m_stop == 2 and cv.value == ew.a[2]
        assert math.log(ew.a[2]) == pytest.approx(199.4022, abs=1e-4)

    def test_underflowing_weights_cannot_hide_a_divergent_sum(self, gaussian):
        # psi(+-1) = -800 underflows and psi(+-2) = 212.5: the sum runs in
        # logs, where a walk crossing height 1 keeps its weight, and passes
        # the cap at step 18 (the exact sum is e^25208 at m_max = 256)
        spec = PotentialSpec(kind="table",
                             table={1: 40.0, -1: 40.0, 2: 85.0, -2: 85.0})
        walk = WalkSpec(alpha=0.6)
        cv = excursion_sum(walk, spec, gaussian, 1.0, 40.0, m_max=256)
        assert cv.verdict == "yes" and cv.diverged
        ew = excursion_weights(walk, spec, gaussian, 1.0, 40.0, m_max=256)
        assert ew.m_stop == 18 and cv.value == ew.a.sum() > DIVERGENCE_CAP

    @pytest.mark.parametrize("h,narrow,wide", [
        (-0.5, "yes", "yes"), (-0.05, "undetermined", "yes"),
        (0.5, "undetermined", "no")])
    def test_narrow_lattice_certifies_from_its_exact_prefix_only(
            self, pinning, gaussian, h, narrow, wide):
        # at beta = 0 the sum is e^-h times the return mass.  L = 8 is
        # below 4 sqrt(256) = 64, so only a[m], m < 16, is the paper walk's
        # own; their mass, 0.84, times e^0.5 passes 1 and times e^0.05 does
        # not, and no tail bound there certifies a "no"
        walk = WalkSpec(alpha=0.6)
        cv = excursion_sum(replace(walk, l_max=8), pinning, gaussian, 0.0, h,
                           m_max=256)
        assert cv.verdict == narrow and cv.tail_bound == math.inf
        assert excursion_sum(walk, pinning, gaussian, 0.0, h,
                             m_max=256).verdict == wide


@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.6, 0.9])
@pytest.mark.parametrize("m_max", [256, 4096])
def test_wall_bias_on_the_return_mass_is_far_below_the_slack(alpha, m_max):
    # the return mass at L = 4 sqrt(m_max) against a lattice whose wall the
    # walk cannot reach within m_max steps: the claim behind TAIL_MASS_SLACK
    walk = WalkSpec(alpha=alpha)
    mass = return_law(walk, m_max).sum()
    unbiased = return_law(replace(walk, l_max=m_max + 2), m_max).sum()
    assert abs(mass - unbiased) <= 1e-12 < localization.TAIL_MASS_SLACK


class TestTransientCriterion:
    def test_threshold_is_reciprocal_return_mass(self, srw, pinning, gaussian):
        cv = transient_criterion(srw, pinning, gaussian, 0.8, 0.1, r=0.5, m_max=2048)
        assert cv.threshold == pytest.approx(2.0)

    def test_lost_mass_can_flip_the_verdict(self, srw, pinning, gaussian):
        recurrent = excursion_sum(srw, pinning, gaussian, 0.8, 0.1, m_max=2048)
        transient = transient_criterion(srw, pinning, gaussian, 0.8, 0.1, r=0.5, m_max=2048)
        assert recurrent.verdict == "yes"
        assert transient.verdict == "no"

    def test_divergent_sum_is_r_independent(self, srw, gaussian):
        spec = PotentialSpec(kind="copolymer")
        for r in (1.0, 0.3, 0.05):
            cv = transient_criterion(srw, spec, gaussian, 1.0, 0.1, r=r, m_max=4096)
            assert cv.verdict == "yes"

    def test_r_validation(self, srw, pinning, gaussian):
        for r in (0.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                transient_criterion(srw, pinning, gaussian, 0.5, 0.1, r=r)


# ------------------------------------------------------- critical curves

class TestAnnealedCriticalH:
    def test_gaussian_single_site_curve_is_half_beta_squared(self, srw, pinning, gaussian):
        for beta in (0.0, 0.5, 1.0, 1.5):
            br = annealed_critical_h(srw, pinning, gaussian, beta, tol=1e-3, m_max=4096)
            assert br.lo <= 0.5 * beta**2 <= br.hi
            assert br.width <= 1e-3 + 1e-12

    def test_bernoulli_single_site_curve_is_log_cosh(self, srw, pinning, bernoulli):
        br = annealed_critical_h(srw, pinning, bernoulli, 1.0, tol=1e-3, m_max=4096)
        assert br.lo <= LOG_COSH_1 <= br.hi

    def test_curve_nondecreasing_in_beta(self, gaussian):
        walk = WalkSpec(alpha=0.6)
        spec = PotentialSpec(kind="power_tail", theta=3.0)
        mids = [
            annealed_critical_h(walk, spec, gaussian, b, tol=1e-3, m_max=2048).mid
            for b in (0.0, 0.5, 1.0)
        ]
        assert mids[0] == pytest.approx(0.0, abs=2e-3)
        assert mids[0] < mids[1] < mids[2]

    def test_each_height_is_evaluated_once(self, srw, pinning, gaussian,
                                           monkeypatch):
        seen = []
        inner = localization._excursion_rows

        def spy(walk, spec, charges, beta, h, *args, **kwargs):
            seen.extend(h)
            return inner(walk, spec, charges, beta, h, *args, **kwargs)

        monkeypatch.setattr(localization, "_excursion_rows", spy)
        br = annealed_critical_h(srw, pinning, gaussian, 0.0, tol=1e-3, m_max=256)
        assert len(seen) == len(set(seen)) == 12
        assert seen[:3] == [0.25, 0.0, -0.05]  # upper start, then down from 0
        # the bracket of the search that evaluated h = 0 and h = -0.05 twice
        assert (br.lo, br.hi) == (-0.0001953125, 0.000390625)

    def test_bisection_stops_at_adjacent_floats(self, srw, gaussian):
        # psi = -h * 1e-15 crosses near h = 1.5e13, where floats lie 2^-9
        # apart: a bracket of width tol = 1e-3 does not exist there
        spec = PotentialSpec(kind="table", table={-1: 1e-15, 4: 1e-15})
        br = annealed_critical_h(srw, spec, gaussian, 0.0, tol=1e-3, m_max=16)
        assert br.lo > 1e12 and br.hi == np.nextafter(br.lo, math.inf)

    @pytest.mark.parametrize("tol", [0.0, math.nan])
    def test_tol_must_be_positive(self, pinning, gaussian, tol):
        # a NaN tol would stop either bisection at its starting bracket,
        # here [0, 2.05] for the quenched band
        walk = WalkSpec(alpha=0.6)
        with pytest.raises(ValueError, match="tol"):
            annealed_critical_h(walk, pinning, gaussian, 1.0, tol=tol, m_max=16)
        with pytest.raises(ValueError, match="tol"):
            quenched_critical_h(walk, pinning, gaussian, 2.0, n_max=256,
                                n_samples=8, tol=tol, detect=1.0)

    def test_alpha_dependence_through_return_law_only(self, pinning, gaussian):
        # single-site potential: the crossing is at psi(0) = 0 whatever alpha.
        # Slowly decaying corrections to the return law bias the fitted tail
        # at small alpha, so assert midpoint accuracy rather than containment.
        for alpha in (0.3, 0.7):
            br = annealed_critical_h(WalkSpec(alpha=alpha), pinning, gaussian, 1.0,
                                     tol=1e-3, m_max=4096)
            assert br.mid == pytest.approx(0.5, abs=1.5e-3)


def test_grid_equals_one_beta_calls(gaussian):
    walk = WalkSpec(alpha=0.6)
    spec = PotentialSpec(kind="power_tail", theta=3.0)
    betas = [0.0, 0.25, 0.5, 1.0]
    brackets, bounds = annealed_critical_curve(
        walk, spec, gaussian, betas, betas[1:], tol=1e-3, m_max=256)
    for beta, br in zip(betas, brackets):
        alone = annealed_critical_h(walk, spec, gaussian, beta, tol=1e-3,
                                    m_max=256)
        assert br == alone
    for beta, br in zip(betas[1:], bounds):
        alone = rescaled_lower_bound(walk, spec, gaussian, beta, tol=1e-3,
                                     m_max=256)
        assert br == alone


@settings(max_examples=200, deadline=None)
@given(alpha=st.floats(0.05, 0.95),
       kind=st.sampled_from(["pinning", "power_tail", "copolymer"]),
       theta=st.floats(0.1, 6.0),
       law=st.sampled_from(["gaussian", "bernoulli_pm1"]),
       betas=st.lists(st.floats(0.0, 5.0), min_size=2, max_size=4,
                      unique=True).map(sorted),
       m_max=st.sampled_from([16, 64]))
def test_annealed_brackets_are_ordered_along_the_beta_grid(
        alpha, kind, theta, law, betas, m_max):
    spec = PotentialSpec(kind=kind, theta=theta)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # return-law mass at small m_max
        brackets, _ = annealed_critical_curve(
            WalkSpec(alpha=alpha), spec, ChargeModel(law), betas, tol=1e-2,
            m_max=m_max)
    for low, high in itertools.combinations(brackets, 2):
        assert low.lo <= high.hi


@pytest.mark.parametrize("spec", [PotentialSpec(kind="pinning"),
                                  PotentialSpec(kind="power_tail", theta=3.0)])
def test_quenched_band_at_zero_coupling_is_empty(spec, gaussian):
    # beta = 0, h = 0: the free energy is 0 with no spread, so the sample
    # mean never clears zero and no band is claimed
    br = quenched_critical_h(WalkSpec(alpha=0.6), spec, gaussian, 0.0,
                             n_max=64, n_samples=2)
    assert (br.lo, br.hi, br.confidence) == (0.0, 0.0, 0.0)


@pytest.mark.parametrize("search", [annealed_critical_h,
                                    quenched_critical_h])
def test_overflowing_upper_start_raises_before_any_warning(srw, pinning,
                                                           gaussian, search):
    # beta^2 / 2 overflowed with a warning, and psi then named beta and h
    with pytest.raises(FloatingPointError, match="cumulant overflows"):
        search(srw, pinning, gaussian, 1e200)


def test_opening_pair_of_the_quenched_band_is_one_sweep(monkeypatch,
                                                        bernoulli):
    # 0 and the upper start run as the rows of one sweep, each with the
    # bits it gets alone, so the band is that of one sweep per height
    walk, spec = WalkSpec(alpha=0.6), PotentialSpec(kind="copolymer")
    args = dict(n_max=256, n_samples=4, seed=3, detect=1.96)
    rows, sweep = [], transfer._sweep

    def counted(ker, g, *a, **kw):
        rows.append(len(g))
        return sweep(ker, g, *a, **kw)

    monkeypatch.setattr(transfer, "_sweep", counted)
    band = quenched_critical_h(walk, spec, bernoulli, 1.0, **args)
    paired = rows[:]
    rows.clear()
    monkeypatch.setattr(
        localization, "_quenched_estimates",
        lambda walk, spec, charges, beta, hs, n_max, n_samples, seed: [
            quenched_free_energy(walk, spec, charges, beta, h, n_max=n_max,
                                 n_samples=n_samples, seed=seed)
            for h in hs])
    alone = quenched_critical_h(walk, spec, bernoulli, 1.0, **args)
    assert paired[0] == 8 and set(paired[1:]) == {4}
    assert len(paired) == len(rows) - 1 and set(rows) == {4}
    assert 0.0 < band.lo < band.hi
    assert band == alone


class QuenchedStub:
    """``quenched_free_energy`` with a chosen mean profile and a fixed sem,
    recording each height it is asked for; ``many`` stands in for
    ``_quenched_estimates``, which asks for several at once."""

    def __init__(self, mean, sem):
        self.mean, self.sem, self.heights = mean, sem, []

    def __call__(self, walk, spec, charges, beta, h, **kwargs):
        self.heights.append(h)
        return SimpleNamespace(f_constrained=self.mean(h), sem=self.sem)

    def many(self, walk, spec, charges, beta, hs, *args):
        return [self(walk, spec, charges, beta, h) for h in hs]


def band_by_predicates(mean, sem, detect, top, tol):
    """Oracle: the quenched band searched with the predicates mean -
    detect sem > 0 (surely localized) and mean + detect sem < 0 (surely
    delocalized), asked afresh at each height.  Returns (lo, hi) and the
    heights asked in each phase: the start, which asks 0 and the upper
    start together, the first edge, the second."""
    asked = [[], [], []]

    def drive(search, phase, holds):
        try:
            h = next(search)
            while True:
                asked[phase].append(h)
                h = search.send(holds(h))
        except StopIteration as done:
            return done.value

    asked[0] += [0.0, top]
    if not mean(0.0) - detect * sem > 0.0:
        return (0.0, 0.0), asked
    while not mean(top) + detect * sem < 0.0:
        top *= 2.0
        asked[0].append(top)
    lo, _ = drive(localization._bisect(0.0, top, tol), 1,
                  lambda h: mean(h) - detect * sem > 0.0)
    _, hi = drive(localization._bisect(lo, top, tol), 2,
                  lambda h: not mean(h) + detect * sem < 0.0)
    return (lo, hi), asked


# mean profiles in h and their sem, each searched at detect = 2 from the
# upper start h = 0.25 of beta = 0; 2 sem = 0.5 is a power of two, so the
# ties below are exact
QUENCHED_PROFILES = {
    # a mean of exactly 2 sem at h = 0 is not surely localized
    "tie at zero": (lambda h: 0.5, 0.25),
    # a mean of exactly -2 sem at the upper start is not surely
    # delocalized, so the start doubles
    "tie at the upper start": (lambda h: 1.0 - 6.0 * h, 0.25),
    # localized at h = 0 only and delocalized from 0.1 on: the first edge
    # ends at 0, and the second bisects the same interval again
    "narrow band": (lambda h: 1.0 if h == 0.0 else 0.0 if h < 0.1 else -1.0,
                    0.25),
    "smooth": (lambda h: 0.3 - h, 0.05),
}


class TestQuenchedBandSearch:
    @pytest.fixture
    def search(self, monkeypatch, gaussian):
        def run(name):
            mean, sem = QUENCHED_PROFILES[name]
            stub = QuenchedStub(mean, sem)
            monkeypatch.setattr(localization, "quenched_free_energy", stub)
            monkeypatch.setattr(localization, "_quenched_estimates",
                                stub.many)
            br = quenched_critical_h(WalkSpec(alpha=0.6),
                                     PotentialSpec(kind="pinning"), gaussian,
                                     0.0, n_max=64, n_samples=4, tol=1e-3,
                                     detect=2.0)
            want, asked = band_by_predicates(mean, sem, 2.0, 0.25, 1e-3)
            return br, stub.heights, want, asked
        return run

    @pytest.mark.parametrize("name", QUENCHED_PROFILES)
    def test_band_is_the_predicates_band_with_each_height_asked_once(
            self, search, name):
        br, heights, want, asked = search(name)
        assert (br.lo, br.hi) == want
        assert len(heights) == len(set(heights))
        assert set(heights) == {h for phase in asked for h in phase}

    def test_mean_at_the_margin_is_not_surely_localized(self, search):
        br, heights, _, _ = search("tie at zero")
        assert (br.lo, br.hi, br.confidence) == (0.0, 0.0, 0.0)
        assert heights == [0.0, 0.25]  # the opening pair, asked at once

    def test_mean_at_minus_the_margin_is_not_surely_delocalized(self, search):
        br, heights, _, _ = search("tie at the upper start")
        assert heights[:3] == [0.0, 0.25, 0.5]
        assert 1.0 / 12.0 - 1e-3 <= br.lo < br.hi
        assert br.confidence == math.erf(2.0 / math.sqrt(2.0))

    def test_second_edge_revisits_heights_of_the_first(self, search):
        _, heights, _, (start, first, second) = search("narrow band")
        revisited = set(second) & set(first + start)
        assert len(revisited) >= 2
        assert len(heights) == len(set(start + first + second))


class TestMbgLower:
    def test_rescaled_closed_form(self, srw, pinning, gaussian):
        # (1+a) * (beta/(1+a))^2 / 2 = beta^2 / (2 (1+a))
        for beta in (0.6, 1.0):
            br = rescaled_lower_bound(srw, pinning, gaussian, beta, tol=1e-3, m_max=4096)
            assert br.lo <= beta**2 / 3.0 <= br.hi

    def test_sits_below_annealed_curve(self, srw, pinning, gaussian):
        mb = rescaled_lower_bound(srw, pinning, gaussian, 1.0, tol=1e-3, m_max=4096)
        an = annealed_critical_h(srw, pinning, gaussian, 1.0, tol=1e-3, m_max=4096)
        assert mb.hi < an.lo

    @pytest.mark.parametrize("alpha,spec,beta", [
        (0.5, PotentialSpec(kind="pinning"), 1.0),
        (0.6, PotentialSpec(kind="power_tail", theta=3.0), 0.5),
        (0.3, PotentialSpec(kind="copolymer"), 0.8),
    ], ids=["pinning", "power_tail", "copolymer"])
    def test_brackets_the_sign_change_of_the_tempered_criterion(
            self, gaussian, alpha, spec, beta):
        # the bound is where the sum tempered by kappa = 1/(1+alpha) at
        # (beta, h) crosses 1
        walk = WalkSpec(alpha=alpha)
        br = rescaled_lower_bound(walk, spec, gaussian, beta, m_max=1024)
        kappa = 1.0 / (1.0 + alpha)
        lo, hi = (excursion_sum(walk, spec, gaussian, beta, h, m_max=1024,
                                kappa=kappa).estimate for h in (br.lo, br.hi))
        assert lo > 1.0 >= hi


# ---------------------------------------------------- start invariance

CHAIN_P = np.array([
    [0.1, 0.6, 0.3],
    [0.5, 0.2, 0.3],
    [0.4, 0.4, 0.2],
])
CHAIN_PSI = np.array([0.3, -0.2, 0.1])


class TestStartInvariance:
    def test_matches_exhaustive_enumeration(self):
        res = criterion_start_invariance(CHAIN_P, CHAIN_PSI, m_max=9)
        for x in range(3):
            oracle = enumerate_first_return_sum(CHAIN_P, CHAIN_PSI, x, 9)
            assert res.values[x] == pytest.approx(oracle, rel=1e-12)

    def test_zero_potential_gives_unit_sums(self):
        res = criterion_start_invariance(CHAIN_P, np.zeros(3), m_max=4096)
        np.testing.assert_allclose(res.values, 1.0, atol=1e-9)
        assert res.consistent

    def test_predicate_agrees_across_starts_on_random_chains(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = rng.integers(2, 7)
            p = rng.random((n, n)) + 0.05
            p /= p.sum(axis=1, keepdims=True)
            psi_values = rng.uniform(-0.8, 0.8, size=n)
            res = criterion_start_invariance(p, psi_values, m_max=4096)
            assert res.consistent, (p, psi_values, res.values)

    def test_values_do_differ_across_starts(self):
        res = criterion_start_invariance(CHAIN_P, CHAIN_PSI, m_max=2048)
        assert len(np.unique(np.round(res.values, 6))) > 1

    def test_validation(self):
        with pytest.raises(ValueError):
            criterion_start_invariance(np.array([[0.5, 0.6], [0.5, 0.5]]), np.zeros(2))
        with pytest.raises(ValueError):
            criterion_start_invariance(CHAIN_P, np.zeros(2))


# --------------------------------------------------------------- curve CSV

class TestCurveCsv:
    def test_round_trip_format(self, emit):
        rows = [
            {"beta": 0.5, "hc_ann_lo": np.float64(0.124), "hc_ann_hi": 0.125,
             "hc_lower_bound": 0.083, "hc_que_lo": None, "hc_que_hi": None,
             "confidence": 1.0},
        ]
        lines = emit(CURVE_COLUMNS, rows)
        assert lines[0] == "# config sha256 abc"
        assert lines[3] == ",".join(CURVE_COLUMNS)
        assert len(lines) == 5
        cells = lines[4].split(",")
        assert cells[0] == "0.5"
        assert cells[1] == "0.124"  # a numpy float is written like a float
        assert cells[4] == "" and cells[5] == ""  # None stays empty
