import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gammainc

from softpin.continuum import (
    ContinuumParams,
    ContinuumPhasePoint,
    bessel_density,
    classify_regime,
    coefficient_candidates,
    continuum_critical_curve,
    continuum_free_energy_mc,
    continuum_free_energy_short,
    critical_exponent,
    local_time_mean,
    log_bessel_i,
    scaling_exponents,
    sharp_constant,
    simplex_weight_integral,
    ztilde_growth_rate,
    ztilde_log,
)
from softpin import continuum
from softpin.continuum import _local_time_calibration, _simulate_paths, _step_keys

from conftest import arrays_left_in_cycles
from oracles import bessel_i, dirichlet_ik, hat_g


# E[X_t^{-q}] for the diffusion started at 0: X_t^2 ~ Gamma(1-alpha, scale 2t),
# so the moment is (2t)^{-q/2} Gamma(1-alpha-q/2)/Gamma(1-alpha) for q < 2-2alpha
def inverse_moment(alpha: float, q: float, t: float) -> float:
    assert q < 2.0 * (1.0 - alpha)
    return (2.0 * t) ** (-0.5 * q) * math.gamma(1.0 - alpha - 0.5 * q) / math.gamma(
        1.0 - alpha
    )


def normalization_integral(alpha: float, t: float, x: float) -> float:
    # split at 1: quad rejects break points together with an infinite limit
    lo, _ = quad(lambda y: bessel_density(alpha, t, x, y), 0.0, 1.0, limit=200)
    hi, _ = quad(lambda y: bessel_density(alpha, t, x, y), 1.0, np.inf, limit=200)
    return lo + hi


# ------------------------------------------------------------------ regimes

class TestRegimes:
    def test_classification_partitions_theta_axis(self):
        alpha = 0.4  # crossovers at 0.6 and 1.2
        assert classify_regime(alpha, 0.3) == "long_range"
        assert classify_regime(alpha, 0.9) == "intermediate"
        assert classify_regime(alpha, 1.5) == "short_range"
        assert classify_regime(alpha, 5.0) == "short_range"

    def test_crossover_values_rejected(self):
        with pytest.raises(ValueError, match="crossover"):
            classify_regime(0.4, 0.6)
        with pytest.raises(ValueError, match="crossover"):
            classify_regime(0.4, 1.2)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            classify_regime(0.0, 0.5)
        with pytest.raises(ValueError):
            classify_regime(1.0, 0.5)
        with pytest.raises(ValueError):
            classify_regime(0.5, 0.0)
        with pytest.raises(ValueError):
            ContinuumParams(alpha=0.5, theta=0.7, c_tail=0.0)
        with pytest.raises(ValueError):
            ContinuumPhasePoint(beta_hat=0.0, h_hat=1.0)
        with pytest.raises(ValueError):
            ContinuumPhasePoint(beta_hat=1.0, h_hat=-0.1)

    def test_params_expose_regime(self):
        assert ContinuumParams(alpha=0.5, theta=0.25).regime == "long_range"
        assert ContinuumParams(alpha=0.5, theta=0.75).regime == "intermediate"
        assert ContinuumParams(alpha=0.5, theta=3.0).regime == "short_range"


# ------------------------------------------------------------------ Bessel I

class TestBesselI:
    def test_log_and_plain_versions_agree(self):
        for z in (0.1, 1.0, 29.9, 30.1, 100.0):
            assert math.log(bessel_i(0.35, z)) == pytest.approx(
                log_bessel_i(0.35, z), rel=1e-12, abs=1e-12
            )

    def test_half_order_is_cosh_closed_form(self):
        for z in (0.2, 1.0, 7.0):
            ref = math.sqrt(2.0 / (math.pi * z)) * math.cosh(z)
            assert bessel_i(0.5, z) == pytest.approx(ref, rel=1e-13)

    def test_small_argument_asymptote(self):
        # I_{-alpha}(z) ~ (2/z)^alpha / Gamma(1-alpha) as z -> 0
        alpha, z = 0.3, 1e-8
        ref = (2.0 / z) ** alpha / math.gamma(1.0 - alpha)
        assert bessel_i(alpha, z) == pytest.approx(ref, rel=1e-7)

    def test_validation(self):
        with pytest.raises(ValueError):
            bessel_i(0.5, 0.0)
        with pytest.raises(ValueError):
            bessel_i(0.5, -1.0)
        with pytest.raises(ValueError):
            bessel_i(1.5, 1.0)
        with pytest.raises(ValueError):
            log_bessel_i(0.0, 1.0)


# ----------------------------------------------------------- transition kernel

class TestBesselDensity:
    def test_origin_density_normalizes(self):
        for alpha in (0.25, 0.5, 0.75):
            for t in (0.5, 1.0, 2.0):
                assert normalization_integral(alpha, t, 0.0) == pytest.approx(
                    1.0, abs=1e-8
                )

    def test_interior_density_normalizes(self):
        for alpha, x in ((0.3, 0.5), (0.6, 1.5), (0.8, 0.2)):
            assert normalization_integral(alpha, 1.0, x) == pytest.approx(
                1.0, abs=1e-8
            )

    def test_half_order_origin_is_half_gaussian(self):
        for t in (0.25, 1.0, 3.0):
            for y in np.linspace(0.0, 5.0, 26):
                ref = math.sqrt(2.0 / (math.pi * t)) * math.exp(-y * y / (2.0 * t))
                assert bessel_density(0.5, t, 0.0, y) == pytest.approx(
                    ref, rel=1e-10
                )

    def test_half_order_interior_is_reflected_brownian_kernel(self):
        def phi(u, t):
            return math.exp(-u * u / (2.0 * t)) / math.sqrt(2.0 * math.pi * t)

        for t, x in ((0.25, 0.3), (1.0, 1.0), (0.05, 3.0)):
            for y in (0.1, 0.7, 1.9, 4.0):
                ref = phi(y - x, t) + phi(y + x, t)
                assert bessel_density(0.5, t, x, y) == pytest.approx(ref, rel=1e-10)

    def test_chapman_kolmogorov(self):
        for alpha, x, y, s, t in ((0.3, 0.7, 1.1, 0.4, 0.8), (0.7, 0.0, 0.6, 0.5, 0.5)):
            def integrand(z):
                return bessel_density(alpha, s, x, z) * bessel_density(alpha, t, z, y)

            lo, _ = quad(integrand, 0.0, 1.0, limit=200)
            hi, _ = quad(integrand, 1.0, np.inf, limit=200)
            direct = bessel_density(alpha, s + t, x, y)
            assert lo + hi == pytest.approx(direct, rel=1e-8)

    def test_detailed_balance_under_speed_measure(self):
        # u^(1-2 alpha) is the reversing measure: m(x) g_t(x,y) = m(y) g_t(y,x)
        rng = np.random.default_rng(7)
        for _ in range(40):
            alpha = rng.uniform(0.1, 0.9)
            t = rng.uniform(0.1, 3.0)
            x, y = rng.uniform(0.05, 3.0, size=2)
            lhs = x ** (1.0 - 2.0 * alpha) * bessel_density(alpha, t, x, y)
            rhs = y ** (1.0 - 2.0 * alpha) * bessel_density(alpha, t, y, x)
            assert lhs == pytest.approx(rhs, rel=1e-10)

    @settings(max_examples=150, deadline=None)
    @given(
        alpha=st.floats(0.05, 0.95),
        t=st.floats(0.05, 4.0),
        x=st.floats(0.01, 3.0),
        y=st.floats(0.0, 3.0, allow_subnormal=False),
        lam=st.floats(0.1, 10.0),
    )
    def test_diffusive_scaling_invariance(self, alpha, t, x, y, lam):
        # sqrt(lam) g_{lam t}(sqrt(lam) x, sqrt(lam) y) = g_t(x, y)
        direct = bessel_density(alpha, t, x, y)
        # a subnormal density cannot carry 12 digits: its ulp is too coarse
        assume(direct == 0.0 or direct > 1e-250)
        scaled = math.sqrt(lam) * bessel_density(
            alpha, lam * t, math.sqrt(lam) * x, math.sqrt(lam) * y
        )
        assert scaled == pytest.approx(direct, rel=5e-12)

    def test_boundary_form_is_interior_limit(self):
        # the x = 0 closed form continues the Bessel expression as x -> 0
        for alpha, t, y in ((0.3, 1.0, 0.8), (0.7, 0.5, 1.4)):
            near = bessel_density(alpha, t, 1e-8, y)
            at = bessel_density(alpha, t, 0.0, y)
            assert near == pytest.approx(at, rel=1e-6)

    def test_origin_corner_values(self):
        # y = x = 0: the density diverges for alpha > 1/2, vanishes for alpha < 1/2
        assert bessel_density(0.75, 1.0, 0.0, 0.0) == math.inf
        assert bessel_density(0.25, 1.0, 0.0, 0.0) == 0.0
        assert bessel_density(0.5, 1.0, 0.0, 0.0) == pytest.approx(
            math.sqrt(2.0 / math.pi), rel=1e-12
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            bessel_density(0.5, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            bessel_density(0.5, 1.0, -0.1, 1.0)
        with pytest.raises(ValueError):
            bessel_density(0.5, 1.0, 0.1, -1.0)


# ------------------------------------------------- small-target kernel hat_g

class TestHatG:
    def test_closed_form_values(self):
        assert hat_g(0.5, 1.0, 0.0) == pytest.approx(1.0, rel=1e-15)
        assert hat_g(0.3, 2.0, 0.0) == pytest.approx(2.0 ** (-0.7), rel=1e-14)
        assert hat_g(0.5, 1.0, 1.0) == pytest.approx(math.exp(-0.5), rel=1e-14)

    def test_sharp_constant_half_order(self):
        # Gamma(3/2) / 2^(-1/2) = sqrt(pi/2)
        assert sharp_constant(0.5) == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-14)

    def test_small_ball_limit_recovers_hat_g(self):
        # c_alpha eps^{-2(1-alpha)} P_x(X_t <= eps) -> hat_g_t(x) as eps -> 0
        eps = 1e-3
        for alpha, t, x in ((0.4, 1.3, 0.9), (0.7, 0.6, 0.0), (0.25, 0.8, 0.4)):
            mass, _ = quad(lambda y: bessel_density(alpha, t, x, y), 0.0, eps)
            scaled = sharp_constant(alpha) * eps ** (-2.0 * (1.0 - alpha)) * mass
            assert scaled == pytest.approx(hat_g(alpha, t, x), rel=1e-5)

    def test_origin_small_ball_mass_is_incomplete_gamma(self):
        # integral_0^eps g_t(0, y) dy = gammainc(1 - alpha, eps^2 / 2t) exactly
        for alpha, t, eps in ((0.3, 1.0, 0.5), (0.6, 0.7, 0.2), (0.5, 2.0, 1.0)):
            mass, _ = quad(lambda y: bessel_density(alpha, t, 0.0, y), 0.0, eps)
            ref = float(gammainc(1.0 - alpha, eps * eps / (2.0 * t)))
            assert mass == pytest.approx(ref, rel=1e-10)

    def test_local_time_mean_closed_form(self):
        assert local_time_mean(0.5, 4.0) == pytest.approx(4.0, rel=1e-15)
        assert local_time_mean(0.5, 0.0) == 0.0
        assert local_time_mean(0.25, 16.0) == pytest.approx(8.0, rel=1e-14)

    def test_local_time_mean_is_integral_of_hat_g(self):
        for alpha in (0.3, 0.5, 0.8):
            val, _ = quad(lambda t: hat_g(alpha, t, 0.0), 0.0, 2.5)
            assert val == pytest.approx(local_time_mean(alpha, 2.5), rel=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            hat_g(0.5, 0.0, 1.0)
        with pytest.raises(ValueError):
            hat_g(0.5, 1.0, -1.0)
        with pytest.raises(ValueError):
            local_time_mean(0.5, -1.0)


# --------------------------------------------------------- Dirichlet integrals

class TestDirichletIk:
    def test_k1_is_one_over_one_minus_theta(self):
        for theta in (0.1, 0.5, 0.9):
            assert dirichlet_ik(theta, 1) == pytest.approx(
                1.0 / (1.0 - theta), rel=1e-14
            )

    def test_half_theta_k2_is_pi(self):
        assert dirichlet_ik(0.5, 2) == pytest.approx(math.pi, rel=1e-14)

    def test_half_theta_k2_against_quadrature_oracle(self):
        # the inner s_2-integral of (s_1 (s_2 - s_1))^{-1/2} over (s_1, 1) is
        # 2 sqrt(1 - s_1), leaving a one-dimensional integral evaluated here
        # by adaptive quadrature, independent of the Gamma-function route
        oracle, _ = quad(lambda s: 2.0 * math.sqrt(1.0 - s) / math.sqrt(s), 0.0, 1.0)
        assert dirichlet_ik(0.5, 2) == pytest.approx(oracle, abs=1e-3)

    def test_matches_simplex_quadrature(self):
        # the ordered-simplex integral with exponents theta - 1 on T = 1 is
        # the same object with alpha = 1 - theta
        for theta in (0.3, 0.5, 0.7):
            for k in (1, 2, 3):
                brute = simplex_weight_integral(1.0 - theta, 1.0, k)
                assert dirichlet_ik(theta, k) == pytest.approx(brute, rel=1e-5)

    def test_decays_to_zero_at_large_k(self):
        assert dirichlet_ik(0.5, 40) < 1e-3

    def test_validation(self):
        with pytest.raises(ValueError):
            dirichlet_ik(0.0, 2)
        with pytest.raises(ValueError):
            dirichlet_ik(1.0, 2)
        with pytest.raises(ValueError):
            dirichlet_ik(0.5, 0)


class TestSimplexWeightIntegral:
    def test_depth_one_closed_form_is_exact(self):
        for alpha, T in ((0.3, 1.0), (0.5, 2.5), (0.9, 0.4)):
            assert simplex_weight_integral(alpha, T, 1) == pytest.approx(
                T**alpha / alpha, rel=1e-14
            )

    def test_matches_gamma_closed_form_through_k4(self):
        for alpha in (0.35, 0.5, 0.75):
            for k in (1, 2, 3, 4):
                brute = simplex_weight_integral(alpha, 1.3, k)
                closed = 1.3 ** (alpha * k) * dirichlet_ik(1.0 - alpha, k)
                assert brute == pytest.approx(closed, rel=1e-5)

    def test_k2_against_adaptive_quadrature(self):
        # reduce k = 2 to one dimension exactly and integrate adaptively
        alpha, T = 0.5, 1.0
        oracle, _ = quad(
            lambda t1: t1 ** (alpha - 1.0) * (T - t1) ** alpha / alpha, 0.0, T
        )
        assert simplex_weight_integral(alpha, T, 2) == pytest.approx(oracle, rel=1e-6)

    def test_half_alpha_k2_is_pi(self):
        assert simplex_weight_integral(0.5, 1.0, 2) == pytest.approx(math.pi, rel=1e-5)

    def test_scaling_in_horizon(self):
        # the integral scales like T^(alpha k)
        alpha, k = 0.4, 3
        v1 = simplex_weight_integral(alpha, 1.0, k)
        v2 = simplex_weight_integral(alpha, 2.0, k)
        assert v2 / v1 == pytest.approx(2.0 ** (alpha * k), rel=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            simplex_weight_integral(0.5, 1.0, 5)
        with pytest.raises(ValueError):
            simplex_weight_integral(0.5, 0.0, 2)
        with pytest.raises(ValueError):
            simplex_weight_integral(1.2, 1.0, 2)


# -------------------------------------------------- light-tail coefficients

SHORT = ContinuumParams(alpha=0.6, theta=3.0)


class TestCoefficientCandidates:
    def test_brute_force_selects_the_plus_one_form(self):
        cp = ContinuumPhasePoint(beta_hat=1.0, h_hat=0.2)
        for k in (1, 2, 3, 4):
            cand = coefficient_candidates(SHORT, cp, 1.0, 1.5, T=1.3, k=k)
            assert cand.brute_force == pytest.approx(cand.gamma_ak_plus1, rel=1e-5)
            # the competing form is off by exactly the factor alpha k
            assert cand.gamma_ak == pytest.approx(
                cand.gamma_ak_plus1 * SHORT.alpha * k, rel=1e-12
            )
            assert cand.canonical == cand.gamma_ak_plus1

    def test_k1_coefficient_is_delta_T_alpha_over_alpha(self):
        cp = ContinuumPhasePoint(beta_hat=0.8, h_hat=0.1)
        cand = coefficient_candidates(SHORT, cp, 2.0, 1.0, T=2.0, k=1)
        delta = 0.5 * 0.8**2 * 1.0 - 0.1 * 2.0
        ref = delta * 2.0**SHORT.alpha / SHORT.alpha
        assert cand.delta == pytest.approx(delta, rel=1e-14)
        assert cand.gamma_ak_plus1 == pytest.approx(ref, rel=1e-12)
        assert cand.brute_force == pytest.approx(ref, rel=1e-12)

    def test_zero_delta_kills_all_candidates(self):
        # h_hat = beta_hat^2 cstar[phi^2] / (2 cstar[phi]) makes Delta vanish
        cp = ContinuumPhasePoint(beta_hat=1.0, h_hat=0.75)
        cand = coefficient_candidates(SHORT, cp, 1.0, 1.5, T=1.0, k=3)
        assert cand.delta == pytest.approx(0.0, abs=1e-15)
        assert cand.gamma_ak == pytest.approx(0.0, abs=1e-14)
        assert cand.gamma_ak_plus1 == pytest.approx(0.0, abs=1e-14)
        assert cand.brute_force == pytest.approx(0.0, abs=1e-14)

    def test_no_brute_force_beyond_k4(self):
        cp = ContinuumPhasePoint(beta_hat=1.0, h_hat=0.2)
        cand = coefficient_candidates(SHORT, cp, 1.0, 1.0, T=1.0, k=6)
        assert cand.brute_force is None
        assert math.isfinite(cand.gamma_ak_plus1)

    def test_requires_short_range(self):
        cp = ContinuumPhasePoint(beta_hat=1.0, h_hat=0.2)
        long_params = ContinuumParams(alpha=0.5, theta=0.25)
        with pytest.raises(ValueError):
            coefficient_candidates(long_params, cp, 1.0, 1.0, T=1.0, k=1)
        with pytest.raises(ValueError):
            coefficient_candidates(SHORT, cp, 1.0, 1.0, T=1.0, k=0)


class TestFreeEnergyShort:
    def test_zero_at_and_below_the_critical_line(self):
        # Delta <= 0, i.e. h_hat >= beta_hat^2 cstar[phi^2] / (2 cstar[phi])
        for h_hat in (0.5, 0.6, 2.0):
            cp = ContinuumPhasePoint(beta_hat=1.0, h_hat=h_hat)
            assert continuum_free_energy_short(SHORT, cp, 1.0, 1.0) == 0.0

    def test_unit_value_at_unit_gamma_delta(self):
        # choose h_hat so Delta = 1 / Gamma(alpha); then F = 1 exactly
        params = ContinuumParams(alpha=0.5, theta=1.5)
        h_hat = 1.0 - 1.0 / math.gamma(0.5)
        cp = ContinuumPhasePoint(beta_hat=math.sqrt(2.0), h_hat=h_hat)
        val = continuum_free_energy_short(params, cp, 1.0, 1.0)
        assert val == pytest.approx(1.0, rel=1e-12)

    def test_exponent_identity(self):
        # F^alpha = Gamma(alpha) Delta wherever F > 0
        params = ContinuumParams(alpha=0.35, theta=2.0)
        cp = ContinuumPhasePoint(beta_hat=1.2, h_hat=0.3)
        delta = 0.5 * 1.2**2 * 1.0 - 0.3 * 1.0
        val = continuum_free_energy_short(params, cp, 1.0, 1.0)
        assert val**params.alpha == pytest.approx(
            math.gamma(params.alpha) * delta, rel=1e-12
        )

    def test_monotone_in_both_couplings(self):
        vals_beta = [
            continuum_free_energy_short(
                SHORT, ContinuumPhasePoint(beta_hat=b, h_hat=0.1), 1.0, 1.0
            )
            for b in (0.6, 0.9, 1.3, 2.0)
        ]
        assert all(a < b for a, b in zip(vals_beta, vals_beta[1:]))
        vals_h = [
            continuum_free_energy_short(
                SHORT, ContinuumPhasePoint(beta_hat=1.0, h_hat=h), 1.0, 1.0
            )
            for h in (0.05, 0.2, 0.4)
        ]
        assert all(a > b for a, b in zip(vals_h, vals_h[1:]))

    def test_rejects_other_regimes(self):
        cp = ContinuumPhasePoint(beta_hat=1.0, h_hat=0.1)
        with pytest.raises(ValueError):
            continuum_free_energy_short(
                ContinuumParams(alpha=0.5, theta=0.75), cp, 1.0, 1.0
            )


# ------------------------------------------------------------ critical curve

class TestCriticalExponent:
    def test_branch_values(self):
        assert critical_exponent(0.5, 0.25) == pytest.approx(7.0 / 3.0, rel=1e-14)
        assert critical_exponent(0.5, 0.75) == pytest.approx(2.5, rel=1e-14)
        assert critical_exponent(0.5, 3.0) == 2.0
        assert critical_exponent(0.8, 5.0) == 2.0

    def test_continuous_across_crossovers(self):
        alpha = 0.5
        eps = 1e-9
        lo, hi = 1.0 - alpha, 2.0 * (1.0 - alpha)
        assert critical_exponent(alpha, lo - eps) == pytest.approx(
            critical_exponent(alpha, lo + eps), abs=1e-6
        )
        assert critical_exponent(alpha, hi - eps) == pytest.approx(
            critical_exponent(alpha, hi + eps), abs=1e-6
        )

    def test_is_the_ratio_of_the_schedule_exponents(self):
        # E = B / A of the coupling schedule, bit for bit, in every regime
        regimes = set()
        for alpha in (0.1, 0.3, 0.5, 0.7, 0.9):
            for theta in (0.05, 0.2, 0.45, 0.6, 0.85, 1.1, 1.5, 1.9, 3.0):
                try:
                    params = ContinuumParams(alpha, theta)
                except ValueError:  # a crossover value
                    continue
                a, b = scaling_exponents(params)
                assert critical_exponent(alpha, theta) == b / a
                regimes.add(params.regime)
        assert regimes == {"long_range", "intermediate", "short_range"}

    def test_crossover_rejected(self):
        with pytest.raises(ValueError):
            critical_exponent(0.5, 0.5)
        with pytest.raises(ValueError):
            critical_exponent(0.5, 1.0)

    def test_short_range_curve_closed_form(self):
        for beta_hat in (0.5, 1.0, 2.0):
            val = continuum_critical_curve(SHORT, 2.0, 3.0, beta_hat)
            assert val == pytest.approx(3.0 / 4.0 * beta_hat**2, rel=1e-14)


# ----------------------------------------------------------- series growth

class TestZtilde:
    def test_matches_direct_partial_sum(self):
        # independent re-summation in plain floats at a horizon where the
        # largest term is far from overflow
        mu, alpha, T = 1.0, 0.5, 5.0
        log_x = math.log(mu) + alpha * math.log(T) + math.lgamma(alpha)
        total = 1.0
        for k in range(1, 400):
            total += math.exp(k * log_x - math.lgamma(alpha * k + 1.0))
        assert ztilde_log(mu, alpha, T) == pytest.approx(math.log(total), rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.6, 0.9])
    @pytest.mark.parametrize("y", [39.5, 40.5])
    def test_series_and_asymptote_agree_at_the_switch(self, alpha, y):
        # below y = 40 the series is summed, from there the asymptote
        # y - log(alpha) is returned; both must match a plain-float sum
        mu = y**alpha / math.gamma(alpha)  # (mu Gamma(alpha))^(1/alpha) = y at T = 1
        log_x = math.log(mu) + math.lgamma(alpha)
        terms = [math.exp(k * log_x - math.lgamma(alpha * k + 1.0))
                 for k in range(int(4 * y / alpha) + 100)]
        direct = math.log(math.fsum(terms))
        assert ztilde_log(mu, alpha, 1.0) == pytest.approx(direct, rel=1e-13)
        assert direct == pytest.approx(y - math.log(alpha), rel=1e-13)

    def test_far_past_the_peak_returns_the_asymptote(self):
        # the series would peak near k ~ 1e15 here: term-by-term summation
        # never returns
        mu, alpha, T = 100.0, 0.2, 10.0
        y = (mu * math.gamma(alpha)) ** (1.0 / alpha) * T
        assert ztilde_log(mu, alpha, T) == pytest.approx(y - math.log(alpha),
                                                          rel=1e-14)

    def test_growth_rate_approaches_closed_form(self):
        # (1/T) log Ztilde -> (mu Gamma(alpha))^(1/alpha), which is pi at
        # mu = 1, alpha = 1/2; the approach is monotone from above
        target = math.pi
        rates = [ztilde_growth_rate(1.0, 0.5, T) for T in (50.0, 100.0, 200.0)]
        assert rates[0] > rates[1] > rates[2] > target
        assert rates[2] == pytest.approx(target, rel=0.03)

    def test_growth_rate_scales_with_mu(self):
        # limit is (mu Gamma(alpha))^(1/alpha): doubling mu at alpha = 1/2
        # quadruples the rate
        r1 = ztilde_growth_rate(1.0, 0.5, 300.0)
        r2 = ztilde_growth_rate(2.0, 0.5, 300.0)
        assert r2 / r1 == pytest.approx(4.0, rel=0.01)

    def test_small_horizon_is_near_zero(self):
        # Ztilde -> 1 as T -> 0
        assert ztilde_log(1.0, 0.5, 1e-8) == pytest.approx(0.0, abs=1e-3)

    def test_validation(self):
        with pytest.raises(ValueError):
            ztilde_log(0.0, 0.5, 1.0)
        with pytest.raises(ValueError):
            ztilde_log(1.0, 0.5, 0.0)
        with pytest.raises(ValueError):
            ztilde_log(1.0, 1.0, 1.0)


# ------------------------------------------------------------- Monte Carlo

LONG = ContinuumParams(alpha=0.3, theta=0.25)  # 4 theta < 2 - 2 alpha: finite variance
INTER = ContinuumParams(alpha=0.4, theta=0.8)


class TestSimulatedMoments:
    def test_inverse_theta_moments_match_closed_form(self):
        # grid marginals are exact, so the estimator mean equals the Riemann
        # sum of the closed-form moment curve; both integrands have finite
        # variance at this (alpha, theta)
        alpha, theta, T, dt = LONG.alpha, LONG.theta, 1.0, 1e-3
        occ, int_theta, int_2theta = _simulate_paths(
            alpha, T, dt, theta, n_paths=4000, seed=11, eps=0.05
        )
        ts = dt * np.arange(1, int(round(T / dt)) + 1)
        for q, sample in ((theta, int_theta), (2.0 * theta, int_2theta)):
            target = dt * sum(inverse_moment(alpha, q, t) for t in ts)
            mean = float(sample.mean())
            sem = float(sample.std(ddof=1)) / math.sqrt(sample.size)
            assert abs(mean - target) < max(4.0 * sem, 0.01 * target)

    def test_occupation_mean_matches_incomplete_gamma_sum(self):
        # E[occupation of (0, eps]] = dt Sum_i P(X_{t_i} <= eps) exactly
        alpha, T, dt, eps = 0.4, 1.0, 1e-3, 0.05
        occ, _, _ = _simulate_paths(
            alpha, T, dt, 0.8, n_paths=3000, seed=3, eps=eps
        )
        ts = dt * np.arange(1, int(round(T / dt)) + 1)
        target = dt * float(gammainc(1.0 - alpha, eps * eps / (2.0 * ts)).sum())
        mean = float(occ.mean())
        sem = float(occ.std(ddof=1)) / math.sqrt(occ.size)
        assert abs(mean - target) < 4.0 * sem

    def test_calibrated_local_time_is_unbiased(self):
        alpha, T, dt, eps = 0.4, 1.0, 1e-3, math.sqrt(1e-3)
        occ, _, _ = _simulate_paths(
            alpha, T, dt, 0.8, n_paths=3000, seed=5, eps=eps
        )
        cal = _local_time_calibration(alpha, T, dt, eps)
        prefactor = sharp_constant(alpha) / eps ** (2.0 * (1.0 - alpha))
        lt = cal * prefactor * occ
        mean = float(lt.mean())
        sem = float(lt.std(ddof=1)) / math.sqrt(lt.size)
        assert abs(mean - local_time_mean(alpha, T)) < 4.0 * sem

    def test_determinism_and_seed_sensitivity(self):
        a = _simulate_paths(0.3, 0.1, 1e-3, 0.25, 50, seed=1, eps=0.05)
        b = _simulate_paths(0.3, 0.1, 1e-3, 0.25, 50, seed=1, eps=0.05)
        c = _simulate_paths(0.3, 0.1, 1e-3, 0.25, 50, seed=2, eps=0.05)
        for u, v in zip(a, b):
            if u is not None:
                np.testing.assert_array_equal(u, v)
        assert not np.array_equal(a[1], c[1])


def per_step_generator_paths(alpha, T, dt, theta, n_paths, seed, eps):
    """Oracle: every functional of the paths, each step drawing from a
    generator built from its own SeedSequence(seed, spawn_key=(n,))."""
    n_steps = round(T / dt)
    df = 2.0 * (1.0 - alpha)
    y = np.zeros(n_paths)
    occ, int_theta, int_2theta = np.zeros((3, n_paths))
    for n in range(n_steps):
        gen = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(seed, spawn_key=(n,)))
        )
        y = dt * gen.noncentral_chisquare(df, y / dt)
        x = np.sqrt(y)
        occ += x <= eps
        xf = np.maximum(x, 1e-9)
        int_theta += xf**-theta
        int_2theta += xf ** (-2.0 * theta)
    return occ * dt, int_theta * dt, int_2theta * dt


# seeds of 1, 2, 4 and 5 uint32 words; the third is the continuum op's
# job seed at the CLI's seed 12345
SEEDS = (0, 7, 13729193726644583001, 2**127 + 3, 2**128 + 9)


class TestStepKeys:
    @pytest.mark.parametrize("seed", SEEDS + (2**32 - 1, 2**64 - 1, 2**160 - 1))
    @pytest.mark.parametrize("first, count", [
        (0, 40), (17, 5), (4090, 12), (1_999_990, 10)])
    def test_keys_are_the_seed_sequence_philox_keys(self, seed, first, count):
        # (4090, 12) spans a key chunk of _simulate_paths, (1_999_990, 10)
        # ends at its step cap
        want = np.array([
            np.random.SeedSequence(seed, spawn_key=(first + i,)).generate_state(2, np.uint64)
            for i in range(count)
        ])
        got = _step_keys(seed, first, count)
        assert got.dtype == np.uint64
        np.testing.assert_array_equal(got, want)

    def test_negative_seed_rejected_like_seed_sequence(self):
        with pytest.raises(ValueError) as want:
            np.random.SeedSequence(-1, spawn_key=(0,))
        with pytest.raises(type(want.value)):
            _step_keys(-1, 0, 4)


class TestPathsKeepPerStepBits:
    @pytest.mark.parametrize("params", [LONG, INTER], ids=["long_range", "intermediate"])
    @pytest.mark.parametrize("seed", SEEDS)
    # one path as well as many: each step draws all paths' values at once
    @pytest.mark.parametrize("n_paths", [30, 1])
    def test_functionals_equal_the_per_step_generator_oracle(self, params, seed,
                                                            n_paths):
        args = (params.alpha, 0.5, 5e-3, params.theta, n_paths, seed, 0.05)
        self.check(params.regime, _simulate_paths(*args),
                   per_step_generator_paths(*args))

    def test_steps_past_a_key_chunk_keep_their_bits(self):
        args = (LONG.alpha, 4100.0, 1.0, LONG.theta, 3, 12345, 0.05)
        self.check("long_range", _simulate_paths(*args),
                   per_step_generator_paths(*args))

    @staticmethod
    def check(regime, got, want):
        occ, int_theta, int_2theta = got
        np.testing.assert_array_equal(int_theta, want[1])
        if regime == "long_range":
            assert occ is None
            np.testing.assert_array_equal(int_2theta, want[2])
        else:
            assert int_2theta is None
            np.testing.assert_array_equal(occ, want[0])


class TestFreeEnergyMc:
    def test_deterministic_for_fixed_seed(self):
        cp = ContinuumPhasePoint(beta_hat=1.0, h_hat=0.5)
        e1 = continuum_free_energy_mc(LONG, cp, T=1.0, dt=1e-3, n_paths=150, seed=9)
        e2 = continuum_free_energy_mc(LONG, cp, T=1.0, dt=1e-3, n_paths=150, seed=9)
        assert e1.estimate == e2.estimate
        assert e1.stderr == e2.stderr
        e3 = continuum_free_energy_mc(LONG, cp, T=1.0, dt=1e-3, n_paths=150, seed=10)
        assert e3.estimate != e1.estimate

    def test_defaults_recorded_on_estimate(self):
        cp = ContinuumPhasePoint(beta_hat=0.5, h_hat=0.5)
        est = continuum_free_energy_mc(LONG, cp, T=2.0, n_paths=20, seed=0)
        assert est.dt == pytest.approx(2e-4)
        assert est.eps == pytest.approx(max(math.sqrt(2e-4), 1e-3))
        assert est.regime == "long_range"
        assert est.n_paths == 20
        assert est.stderr > 0.0

    def test_vanishing_coupling_gives_nonpositive_energy(self):
        # with beta_hat ~ 0 the exponent is -h_hat c Int X^{-theta} < 0
        cp = ContinuumPhasePoint(beta_hat=1e-6, h_hat=1.0)
        est = continuum_free_energy_mc(LONG, cp, T=1.0, dt=1e-3, n_paths=200, seed=4)
        assert est.estimate < 0.0

    def test_monotone_in_couplings_under_common_randomness(self):
        # identical seeds reuse identical paths, so monotonicity of the
        # functional in beta_hat (pointwise) survives the log-mean-exp
        ests = [
            continuum_free_energy_mc(
                LONG, ContinuumPhasePoint(beta_hat=b, h_hat=0.3),
                T=1.0, dt=1e-3, n_paths=150, seed=2,
            ).estimate
            for b in (0.5, 1.0, 1.5)
        ]
        assert ests[0] < ests[1] < ests[2]
        ests_h = [
            continuum_free_energy_mc(
                LONG, ContinuumPhasePoint(beta_hat=1.0, h_hat=h),
                T=1.0, dt=1e-3, n_paths=150, seed=2,
            ).estimate
            for h in (0.1, 0.4, 0.8)
        ]
        assert ests_h[0] > ests_h[1] > ests_h[2]

    def test_intermediate_regime_uses_local_time_constant(self):
        # scaling cstar[phi^2] up must raise the estimate (same paths)
        cp = ContinuumPhasePoint(beta_hat=1.0, h_hat=0.5)
        lo = continuum_free_energy_mc(
            INTER, cp, T=1.0, dt=1e-3, n_paths=150, seed=6, cstar_phi2=1.0
        )
        hi = continuum_free_energy_mc(
            INTER, cp, T=1.0, dt=1e-3, n_paths=150, seed=6, cstar_phi2=2.0
        )
        assert lo.regime == "intermediate"
        assert hi.estimate > lo.estimate

    def test_weight_concentration_is_flagged(self):
        # a huge beta_hat makes one heavy path dominate the exponential mean
        cp = ContinuumPhasePoint(beta_hat=8.0, h_hat=0.01)
        heavy = ContinuumParams(alpha=0.5, theta=0.4)
        est = continuum_free_energy_mc(heavy, cp, T=1.0, dt=1e-3, n_paths=100, seed=0)
        assert est.flagged
        tame = continuum_free_energy_mc(
            heavy, ContinuumPhasePoint(beta_hat=0.1, h_hat=0.5),
            T=1.0, dt=1e-3, n_paths=100, seed=0,
        )
        assert not tame.flagged

    def test_rejects_short_range_and_bad_steps(self):
        cp = ContinuumPhasePoint(beta_hat=1.0, h_hat=0.5)
        with pytest.raises(ValueError, match="explicit"):
            continuum_free_energy_mc(SHORT, cp, T=1.0)
        with pytest.raises(ValueError, match="dt too small"):
            continuum_free_energy_mc(LONG, cp, T=1.0, dt=4e-7, n_paths=4)
        with pytest.raises(ValueError):
            continuum_free_energy_mc(LONG, cp, T=0.0)


class TestCriticalCurveMc:
    def test_root_search_simulates_once_and_keeps_its_bits(self, monkeypatch):
        # every trial h weighs one set of paths; the pinned values are those
        # the search returned when each trial h simulated its paths again
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return _simulate_paths(*args, **kwargs)

        monkeypatch.setattr(continuum, "_simulate_paths", counted)
        params = ContinuumParams(alpha=0.5, theta=0.7)
        for beta_hat, want in ((1.0, 0.1928322199072605), (2.0, 1.1691159610816437)):
            calls.clear()
            val = continuum_critical_curve(
                params, 1.0, 1.0, beta_hat=beta_hat, T=16.0, dt=1.6e-2,
                n_paths=200, seed=0,
            )
            assert len(calls) == 1
            assert val == want

    def test_root_search_leaves_no_path_array_in_a_reference_cycle(self):
        # brentq wraps its function in a closure that refers to itself; a
        # function closing over the paths would keep them in that cycle
        params = ContinuumParams(alpha=0.5, theta=0.7)
        assert arrays_left_in_cycles(lambda: continuum_critical_curve(
            params, 1.0, 1.0, beta_hat=1.0, T=16.0, dt=1.6e-2, n_paths=200,
            seed=0)) == []

    def test_intermediate_prefactor_root_solve(self):
        params = ContinuumParams(alpha=0.5, theta=0.7)
        val = continuum_critical_curve(
            params, 1.0, 1.0, beta_hat=1.0, T=16.0, dt=1.6e-2, n_paths=200, seed=0
        )
        assert 0.02 < val < 1.0

    def test_curve_scales_by_the_regime_exponent(self):
        # the prefactor root-solve sees beta_hat = 1 only, so two calls with
        # the same seed differ exactly by beta_hat^E
        params = ContinuumParams(alpha=0.5, theta=0.7)
        e = critical_exponent(0.5, 0.7)
        v1 = continuum_critical_curve(
            params, 1.0, 1.0, beta_hat=1.0, T=16.0, dt=1.6e-2, n_paths=200, seed=0
        )
        v2 = continuum_critical_curve(
            params, 1.0, 1.0, beta_hat=2.0, T=16.0, dt=1.6e-2, n_paths=200, seed=0
        )
        assert v2 / v1 == pytest.approx(2.0**e, rel=1e-12)
