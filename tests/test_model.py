import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from softpin.lattice import height_law, layout
from softpin.localization import excursion_sum
from softpin.model import (
    ChargeModel,
    DivergentSumError,
    PhasePoint,
    PotentialSpec,
    WalkSpec,
    c_star,
    estimate_c_weights,
    phi_eval,
    psi,
    return_law,
)
from softpin.transfer import annealed_free_energy

from oracles import layout_as, path_sum


# ------------------------------------------------------------------ kernels

# the folded kernel (of |S|) and the signed one, each truncated at l
LATTICES = pytest.mark.parametrize("folded", [True, False],
                                   ids=["folded_kernel", "signed_kernel"])


def kernel(alpha: float, l: int, folded: bool):
    return layout_as(WalkSpec(alpha=alpha, l_max=l), None, 0,
                     signed=not folded)


@LATTICES
def test_step_fills_out_and_equals_the_dense_matrix(folded):
    ker = kernel(0.7, 9, folded)
    sites = len(ker.heights)
    v = np.random.default_rng(3).random((6, sites))
    want = np.array([ker.step(row) for row in v])
    one = np.full(sites, np.nan)
    assert ker.step(v[4], one) is one
    np.testing.assert_array_equal(one, want[4])
    # against the dense transition matrix
    dense = np.diag(ker.p_up[:-1], 1) + np.diag(ker.p_down[1:], -1)
    np.testing.assert_allclose(want, v @ dense, rtol=1e-14)


@LATTICES
@pytest.mark.parametrize("l", [20, 200])
@pytest.mark.parametrize("n", [0, 7, 64, 65, 1000])
def test_height_law_matches_a_per_step_loop(folded, l, n):
    # block steps: 32 steps per banded product and the last n mod 32 in one;
    # l = 20 folds to 21 sites, fewer than the band's 65 diagonals
    ker = kernel(0.6, l, folded)
    want = np.zeros(len(ker.heights))
    want[ker.origin] = 1.0
    for _ in range(n):
        want = ker.step(want)
    got = height_law(ker, n)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    assert np.array_equal(got == 0.0, want == 0.0)


# ---------------------------------------------------------------- potentials

def test_phi_shapes_and_values():
    pin = PotentialSpec(kind="pinning", amplitude=2.0)
    assert phi_eval(pin, 0) == 2.0
    assert phi_eval(pin, 3) == 0.0
    cop = PotentialSpec(kind="copolymer")
    assert phi_eval(cop, -5) == 1.0
    assert phi_eval(cop, 0) == 1.0
    assert phi_eval(cop, 1) == 0.0
    pw = PotentialSpec(kind="power_tail", theta=3.0)
    assert phi_eval(pw, 0) == 1.0
    assert phi_eval(pw, 1) == pytest.approx(2.0 ** -3)
    assert phi_eval(pw, -1) == phi_eval(pw, 1)
    np.testing.assert_allclose(
        phi_eval(pw, np.array([-2, 0, 2])), [3.0 ** -3, 1.0, 3.0 ** -3]
    )


def test_potential_validation():
    with pytest.raises(ValueError):
        PotentialSpec(kind="nope")
    with pytest.raises(ValueError):
        PotentialSpec(kind="power_tail", theta=-1.0)
    # an infinite theta would be the pinning potential under another name
    for theta in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite theta"):
            PotentialSpec(kind="power_tail", theta=theta)
    with pytest.raises(ValueError, match="finite theta"):
        PotentialSpec(kind="power_tail")
    with pytest.raises(ValueError):
        PotentialSpec(kind="pinning", amplitude=0.0)
    with pytest.raises(ValueError):
        PotentialSpec(kind="table", table={0: -1.0})
    with pytest.raises(ValueError):
        PotentialSpec(kind="table", table={0: 0.0, 1: 0.0})
    # an infinite amplitude made a sweep warn; a NaN table value failed
    # only in the sweep, on converting NaN to an integer
    with pytest.raises(ValueError, match="amplitude"):
        PotentialSpec(kind="pinning", amplitude=math.inf)
    with pytest.raises(ValueError, match="table"):
        PotentialSpec(kind="table", table={0: 1.0, 2: math.nan})


def test_symmetry_flags():
    assert PotentialSpec(kind="pinning").symmetric
    assert PotentialSpec(kind="power_tail", theta=1.0).symmetric
    assert not PotentialSpec(kind="copolymer").symmetric
    assert PotentialSpec(kind="table", table={-1: 0.5, 1: 0.5}).symmetric
    assert not PotentialSpec(kind="table", table={-1: 0.5, 1: 0.25}).symmetric


@given(
    st.dictionaries(
        st.integers(-6, 6), st.floats(0.0, 5.0), min_size=1, max_size=8
    ).filter(lambda d: any(v > 0 for v in d.values()))
)
def test_table_potential_zero_outside_support(table):
    spec = PotentialSpec(kind="table", table=table)
    for x, v in table.items():
        assert phi_eval(spec, x) == v
    assert phi_eval(spec, 100) == 0.0
    assert phi_eval(spec, -100) == 0.0


# -------------------------------------------------------------- charges, psi

def test_psi_closed_forms(gaussian, bernoulli, pinning):
    # log cosh(1) at the pinned site, +-1 charges
    assert psi(bernoulli, pinning, beta=1.0, h=0.0, x=0) == pytest.approx(
        0.4337808304830271, abs=1e-12
    )
    # gaussian law: 0.5*beta^2*phi^2 - h*phi
    pw = PotentialSpec(kind="power_tail", theta=2.0)
    for x in (0, 1, 3):
        p = phi_eval(pw, x)
        assert psi(gaussian, pw, 0.7, 0.3, x) == pytest.approx(
            0.5 * 0.49 * p * p - 0.3 * p, abs=1e-14
        )


@given(st.floats(-3.0, 3.0), st.integers(-5, 5))
def test_psi_beta_zero_is_law_independent(h, x):
    pw = PotentialSpec(kind="power_tail", theta=1.5)
    a = psi(ChargeModel("gaussian"), pw, 0.0, h, x)
    b = psi(ChargeModel("bernoulli_pm1"), pw, 0.0, h, x)
    assert a == pytest.approx(b, abs=1e-14)
    assert a == pytest.approx(-h * phi_eval(pw, x), abs=1e-14)


@pytest.mark.parametrize("beta, h", [
    (math.nan, 0.1), (0.5, math.nan), (math.inf, 0.1), (0.5, -math.inf),
    (np.array([0.5, math.nan]), 0.1)])
def test_psi_rejects_non_finite_couplings(gaussian, pinning, beta, h):
    # psi is the one choke point of the annealed, excursion and series
    # paths: a NaN beta passed its old `min(beta) < 0` check
    with pytest.raises(ValueError, match="finite"):
        psi(gaussian, pinning, beta, h, np.arange(3))


def test_non_finite_couplings_give_no_verdict_or_free_energy(gaussian,
                                                             pinning):
    walk = WalkSpec(alpha=0.6)
    with pytest.raises(ValueError, match="finite"):
        excursion_sum(walk, pinning, gaussian, math.nan, 0.1, m_max=64)
    with pytest.raises(ValueError, match="finite"):
        annealed_free_energy(walk, pinning, gaussian, 0.5, math.nan, 64)


def test_log_cosh_stable_at_large_argument(bernoulli):
    # would overflow a naive log(cosh(t)) at t = 800
    t = 800.0
    assert bernoulli.cumulant(t) == pytest.approx(t - math.log(2.0))


# -------------------------------------------------------------------- walks

def test_walk_validation():
    with pytest.raises(ValueError):
        WalkSpec(alpha=0.0)
    with pytest.raises(ValueError):
        WalkSpec(alpha=1.0)
    with pytest.raises(ValueError):
        WalkSpec(alpha=0.5, epsilon_corr=-0.1)
    with pytest.raises(ValueError):
        WalkSpec(alpha=0.5, l_max=0)


@given(st.floats(0.02, 0.98), st.integers(1, 50))
def test_drift_antisymmetric_and_bounded(alpha, x):
    for eps in (0.0, 0.7):
        w = WalkSpec(alpha=alpha, epsilon_corr=eps)
        d = float(w.drift(x))
        assert d == pytest.approx(-float(w.drift(-x)), abs=1e-15)
        assert abs(d) <= abs(alpha - 0.5) + 1e-15
        assert float(w.drift(0)) == 0.0


def test_phase_point_validation():
    PhasePoint(beta=0.0, h=-0.5)  # negative h is allowed
    with pytest.raises(ValueError):
        PhasePoint(beta=-0.1, h=0.0)


# -------------------------------------------------------------- return law

def test_return_law_srw_small_n_exact(srw):
    # enumeration oracle for the first few first-return probabilities
    k = return_law(srw, 10)
    for n in range(2, 11):
        first = path_sum(srw, n, lambda path: 0 not in path[:-1]
                         and path[-1] == 0)
        assert k[n] == pytest.approx(first, abs=1e-12)
    assert k[2] == pytest.approx(0.5, abs=1e-15)
    assert k[4] == pytest.approx(0.125, abs=1e-15)
    assert all(k[n] == 0.0 for n in range(1, 11, 2))


def test_return_law_srw_catalan_closed_form(srw):
    # K(2m) = binom(2m-2, m-1) / m * 2^(1-2m)
    k = return_law(srw, 64)
    for m in range(1, 33):
        expect = math.comb(2 * m - 2, m - 1) / m * 2.0 ** (1 - 2 * m)
        assert k[2 * m] == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
def test_return_law_mass_and_tail_exponent(alpha):
    n_max = 2 ** 14
    k = return_law(WalkSpec(alpha=alpha), n_max)
    total = k.sum()
    assert total < 1.0 + 1e-12
    # recurrent walk: the mass approaches 1 at the n^-alpha tail rate
    assert 1.0 - total < 8.0 * n_max ** -alpha
    # log-log slope of K(n) over the top decade: -(1+alpha) within 0.05
    n = np.arange(2, n_max + 1, 2)
    kk = k[n]
    sel = n >= n_max // 8
    slope = np.polyfit(np.log(n[sel]), np.log(kk[sel]), 1)[0]
    assert slope == pytest.approx(-(1.0 + alpha), abs=0.05)


def test_return_law_mass_increases_with_n_max(srw):
    k1 = return_law(srw, 256)
    k2 = return_law(srw, 1024)
    np.testing.assert_allclose(k1[: 257], k2[: 257], rtol=1e-12)
    assert k2.sum() > k1.sum()


def test_return_law_perturbed_drift_keeps_exponent():
    # the O(|x|^-(1+eps)) drift correction must not move the tail exponent
    n_max = 2 ** 14
    k = return_law(WalkSpec(alpha=0.7, epsilon_corr=0.5), n_max)
    n = np.arange(2, n_max + 1, 2)
    sel = n >= n_max // 8
    slope = np.polyfit(np.log(n[sel]), np.log(k[n][sel]), 1)[0]
    assert slope == pytest.approx(-1.7, abs=0.05)


# ---------------------------------------------------------- c(k) weights

def test_c_weights_srw_constant():
    # alpha = 1/2: c(k) -> sqrt(2/pi) * k^0 for k >= 1, and c(0) is half that
    # because |S_n| = 0 has no +-k folding
    cw = estimate_c_weights(WalkSpec(alpha=0.5), k_max=10, n_probe=2 ** 14)
    root_2_over_pi = math.sqrt(2.0 / math.pi)
    assert cw[0] == pytest.approx(0.5 * root_2_over_pi, rel=2e-3)
    for k in range(1, 11):
        assert cw[k] == pytest.approx(root_2_over_pi, rel=5e-3)


def test_c_weights_positive_and_ratio_asymptote():
    for alpha in (0.35, 0.6):
        cw = estimate_c_weights(WalkSpec(alpha=alpha), k_max=30, n_probe=2 ** 14)
        assert np.all(cw.values > 0)
        # c(k)/c(k-2) -> (k/(k-2))^(1-2*alpha) at large k
        for k in (26, 28, 30):
            expect = (k / (k - 2.0)) ** (1.0 - 2.0 * alpha)
            assert cw[k] / cw[k - 2] == pytest.approx(expect, rel=8e-3)


def test_c_weights_quarter_alpha_growth():
    # alpha = 1/4: c(k) ~ 2^(1/4)/Gamma(3/4) * sqrt(k)
    cw = estimate_c_weights(WalkSpec(alpha=0.25), k_max=24, n_probe=2 ** 15)
    const = 2.0 ** 0.25 / math.gamma(0.75)
    for k in (16, 20, 24):
        assert cw[k] / math.sqrt(k) == pytest.approx(const, rel=0.02)


def test_c_weights_parity_probes_cover_all_k(srw):
    cw = estimate_c_weights(srw, k_max=5, n_probe=64)
    assert np.all(cw.values > 0)  # both parities filled in


def test_c_weights_warn_outside_the_local_limit_window():
    # k_max = 10 > sqrt(16): heights past 4 lie outside the diffusive window
    with pytest.warns(UserWarning, match="outside the local-limit window"):
        estimate_c_weights(WalkSpec(alpha=0.6), k_max=10, n_probe=16)


# ------------------------------------------------------------------- c_star

def test_c_star_single_site_identities(srw):
    cw = estimate_c_weights(srw, k_max=8, n_probe=2 ** 10)
    a = 0.7
    pin = PotentialSpec(kind="pinning", amplitude=a)
    first = c_star(pin, cw, power=1)
    second = c_star(pin, cw, power=2)
    assert first.value == pytest.approx(a * cw[0], rel=1e-12)
    assert second.value == pytest.approx(a * a * cw[0], rel=1e-12)
    # the ratio that sets the small-coupling critical curve prefactor
    assert second.value / (2.0 * first.value) == pytest.approx(a / 2.0, rel=1e-12)
    assert first.tail_bound == 0.0


def test_c_star_power_tail_has_tail_bound():
    w = WalkSpec(alpha=0.6)
    cw = estimate_c_weights(w, k_max=24, n_probe=2 ** 13)
    spec = PotentialSpec(kind="power_tail", theta=3.0)
    r1 = c_star(spec, cw, power=1)
    r2 = c_star(spec, cw, power=2)
    assert r1.value > 0 and r2.value > 0
    assert 0 < r1.tail_bound < 0.05 * r1.value
    assert r2.tail_bound < r1.tail_bound
    # enlarging k_max shrinks the bound and moves value by less than it
    cw2 = estimate_c_weights(w, k_max=48, n_probe=2 ** 13)
    r1b = c_star(spec, cw2, power=1)
    assert r1b.tail_bound < r1.tail_bound
    assert abs(r1b.value - r1.value) <= r1.tail_bound * 1.5


def test_c_star_divergence_guards():
    w = WalkSpec(alpha=0.6)  # needs theta > 0.8 at power 1, > 0.4 at power 2
    cw = estimate_c_weights(w, k_max=16, n_probe=2 ** 10)
    with pytest.raises(DivergentSumError):
        c_star(PotentialSpec(kind="copolymer"), cw)
    with pytest.raises(DivergentSumError):
        c_star(PotentialSpec(kind="power_tail", theta=0.7), cw, power=1)
    # same theta is fine at power 2
    assert c_star(PotentialSpec(kind="power_tail", theta=0.7), cw, power=2).value > 0
    with pytest.raises(DivergentSumError):
        c_star(PotentialSpec(kind="power_tail", theta=0.3), cw, power=2)


def test_c_star_rejects_truncated_support(srw):
    cw = estimate_c_weights(srw, k_max=2, n_probe=256)
    spec = PotentialSpec(kind="table", table={0: 1.0, 5: 2.0})
    with pytest.raises(ValueError):
        c_star(spec, cw)


def _occupation_sums(walk, spec, power, checkpoints):
    """sum_{n<=N} E[phi(S_n)^power] at each N in checkpoints, via the kernel."""
    n_max = max(checkpoints)
    kern = layout(walk, spec, n_max)
    phi_p = phi_eval(spec, kern.heights) ** power
    v = np.zeros(len(kern.heights))
    v[kern.origin] = 1.0
    out = np.zeros_like(v)
    total, sums = 0.0, {}
    for n in range(1, n_max + 1):
        v, out = kern.step(v, out), v
        total += float(np.dot(phi_p, v))
        if n in checkpoints:
            sums[n] = total
    return sums


@pytest.mark.parametrize("power,tol_lo,tol_hi", [(1, 0.010, 0.005), (2, 0.007, 0.003)])
def test_c_star_is_the_occupation_sum_constant(power, tol_lo, tol_hi):
    # Defining property: sum_{n<=N} E[phi(S_n)^p] ~ cstar[phi^p] * N^alpha / alpha.
    walk = WalkSpec(alpha=0.6)
    spec = PotentialSpec(kind="power_tail", theta=3.0)
    cw = estimate_c_weights(walk, k_max=64, n_probe=2 ** 15)
    cs = c_star(spec, cw, power=power)
    sums = _occupation_sums(walk, spec, power, checkpoints={2 ** 13, 2 ** 15})
    gaps = {
        n: abs(total / (cs.value * n ** walk.alpha / walk.alpha) - 1.0)
        for n, total in sums.items()
    }
    assert gaps[2 ** 13] < tol_lo
    assert gaps[2 ** 15] < tol_hi
    assert gaps[2 ** 15] < gaps[2 ** 13]


def test_c_star_weighs_each_signed_site_at_half():
    # An asymmetric potential separates the conventions: each off-origin
    # signed site must enter at c(|x|)/2, not c(|x|).
    walk = WalkSpec(alpha=0.6)
    spec = PotentialSpec(kind="table", table={0: 0.5, 1: 1.0, -2: 0.7})
    cw = estimate_c_weights(walk, k_max=64, n_probe=2 ** 15)
    cs = c_star(spec, cw, power=1)
    assert cs.value == pytest.approx(
        0.5 * cw[0] + 0.5 * (1.0 * cw[1] + 0.7 * cw[2]), rel=1e-12
    )
    sums = _occupation_sums(walk, spec, 1, checkpoints={2 ** 13})
    ratio = sums[2 ** 13] / (cs.value * (2 ** 13) ** walk.alpha / walk.alpha)
    assert ratio == pytest.approx(1.0, abs=0.01)
