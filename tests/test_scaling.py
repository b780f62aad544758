import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from softpin.cli import SCALED_COLUMNS, SERIES_COLUMNS
from softpin.continuum import ContinuumParams
from softpin.lattice import layout
from softpin.localization import annealed_critical_h
from softpin.model import (
    ChargeModel,
    PotentialSpec,
    WalkSpec,
    c_star,
    estimate_c_weights,
    psi,
)
from softpin.scaling import (
    ScaledFreeEnergyPoint,
    ScalingSchedule,
    SeriesComparisonRow,
    compare_to_continuum,
    scaled_free_energy,
    scaling_exponents,
    series_coefficient,
)
from softpin.transfer import annealed_free_energy

from oracles import annealed_partition, enumerate_series, tiled_series

GAUSS = ChargeModel("gaussian")
BERN = ChargeModel("bernoulli_pm1")
LONG = ContinuumParams(alpha=0.3, theta=0.25)
INTER = ContinuumParams(alpha=0.4, theta=0.8)
SHORT = ContinuumParams(alpha=0.6, theta=3.0)
WALK6 = WalkSpec(alpha=0.6)
PT3 = PotentialSpec(kind="power_tail", theta=3.0)

# frozen height-sum constants for (alpha=0.6, power_tail theta=3), estimated
# once at k_max=360, n_probe=2^17; passing them explicitly keeps the heavier
# harness tests deterministic and cheap
CS1, CS2 = 0.513531, 0.395852


def short_schedule(beta_hat=1.0, h_hat=0.1, ladder=(256, 512, 1024)):
    return ScalingSchedule(params=SHORT, beta_hat=beta_hat, h_hat=h_hat,
                           n_ladder=ladder)


# ------------------------------------------------------------------ schedules

def test_exponent_pairs_match_regime_table():
    assert scaling_exponents(LONG) == ((1.0 - 0.25) / 2.0, (2.0 - 0.25) / 2.0)
    assert scaling_exponents(INTER) == (0.4 / 2.0, (2.0 - 0.8) / 2.0)
    assert scaling_exponents(SHORT) == (0.6 / 2.0, 0.6)


def test_schedule_couplings_follow_power_laws():
    sched = ScalingSchedule(params=INTER, beta_hat=1.3, h_hat=0.7,
                            n_ladder=(8, 32, 64, 250))
    a, b = sched.exponents
    assert sched.regime == "intermediate"
    for n in sched.n_ladder:
        assert sched.beta_n(n) == 1.3 * n ** -a
        assert sched.h_n(n) == 0.7 * n ** -b
    betas = [sched.beta_n(n) for n in sched.n_ladder]
    hs = [sched.h_n(n) for n in sched.n_ladder]
    assert all(x > y for x, y in zip(betas, betas[1:]))
    assert all(x > y for x, y in zip(hs, hs[1:]))


def test_schedule_validation():
    with pytest.raises(ValueError):
        ScalingSchedule(params=SHORT, beta_hat=0.0, h_hat=0.1, n_ladder=(8,))
    with pytest.raises(ValueError):
        ScalingSchedule(params=SHORT, beta_hat=1.0, h_hat=-0.1, n_ladder=(8,))
    with pytest.raises(ValueError):
        ScalingSchedule(params=SHORT, beta_hat=1.0, h_hat=0.1, n_ladder=())
    with pytest.raises(ValueError):
        ScalingSchedule(params=SHORT, beta_hat=1.0, h_hat=0.1, n_ladder=(8, 9))
    with pytest.raises(ValueError):
        ScalingSchedule(params=SHORT, beta_hat=1.0, h_hat=0.1, n_ladder=(8, 8))
    with pytest.raises(ValueError):
        ScalingSchedule(params=SHORT, beta_hat=1.0, h_hat=0.1, n_ladder=(32, 8))
    with pytest.raises(ValueError):
        ScalingSchedule(params=SHORT, beta_hat=1.0, h_hat=0.1, n_ladder=(0, 8))
    # sequences are normalized to a tuple of ints
    sched = ScalingSchedule(params=SHORT, beta_hat=1.0, h_hat=0.1,
                            n_ladder=[16, 32])
    assert sched.n_ladder == (16, 32)


def test_incompatible_model_rejected():
    sched = short_schedule(ladder=(16, 32))
    with pytest.raises(ValueError):  # walk exponent disagrees
        scaled_free_energy(sched, WalkSpec(alpha=0.5), GAUSS, PT3)
    with pytest.raises(ValueError):  # no summable tail constant
        scaled_free_energy(sched, WALK6, GAUSS, PotentialSpec(kind="copolymer"))
    with pytest.raises(ValueError):  # tail exponent disagrees
        scaled_free_energy(sched, WALK6, GAUSS,
                           PotentialSpec(kind="power_tail", theta=2.0))
    with pytest.raises(ValueError):  # compact support is light-tailed
        sched_lr = ScalingSchedule(params=LONG, beta_hat=1.0, h_hat=0.1,
                                   n_ladder=(16, 32))
        scaled_free_energy(sched_lr, WalkSpec(alpha=0.3), GAUSS,
                           PotentialSpec(kind="pinning"))


# --------------------------------------------------------- series coefficients

@pytest.mark.parametrize("spec,charges,beta,h", [
    (PotentialSpec(kind="pinning"), GAUSS, 0.7, 0.3),
    (PT3, GAUSS, 0.8, 0.2),
    (PotentialSpec(kind="copolymer"), BERN, 0.5, 0.4),
    (PotentialSpec(kind="table", table={0: 0.4, 1: 1.0, -2: 0.8}), GAUSS, 0.6, -0.1),
])
def test_series_coefficient_matches_enumeration(spec, charges, beta, h):
    walk = WALK6 if spec.kind == "power_tail" else WalkSpec(alpha=0.35)
    tn = 8
    coeff, _ = enumerate_series(walk, spec, charges, beta, h, tn, k_max=4)
    for k in range(1, 5):
        got = series_coefficient(walk, charges, spec, beta, h, tn, k)
        assert got == pytest.approx(coeff[k], rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("spec,beta,h", [
    (PotentialSpec(kind="pinning"), 0.7, 0.3),
    (PotentialSpec(kind="table", table={0: 0.4, 1: 1.0, -2: 0.8}), 0.6, -0.1),
])
def test_series_expansion_reconstructs_partition(spec, beta, h):
    # 1 + sum_k C_{TN,k} over all k telescopes back to the free partition sum
    walk = WalkSpec(alpha=0.35)
    tn = 8
    coeff, z_free = enumerate_series(walk, spec, GAUSS, beta, h, tn, k_max=tn)
    assert coeff[0] == pytest.approx(1.0, rel=1e-12)
    assert coeff.sum() == pytest.approx(z_free, rel=1e-12)
    log_z_free, _ = annealed_partition(replace(walk, l_max=tn + 1), spec,
                                       GAUSS, beta, h, tn)
    assert math.exp(log_z_free) == pytest.approx(z_free, rel=1e-12)


def test_series_k1_matches_marginal_expectation():
    # k=1 is the plain occupation sum of E[chi]: check against a direct
    # evolution of the height distribution
    sched = short_schedule()
    tn = 64
    beta, h = sched.beta_n(tn), sched.h_n(tn)
    kern = layout(WALK6, PT3, tn)
    chi = np.expm1(psi(GAUSS, PT3, beta, h, kern.heights))
    v = np.zeros(len(kern.heights))
    v[0] = 1.0
    expect = 0.0
    for _ in range(tn):
        v = kern.step(v)
        expect += float(np.dot(chi, v))
    got = series_coefficient(WALK6, GAUSS, PT3, beta, h, tn, k=1)
    assert got == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("l", [None, 1, 2, 3, 9])
@pytest.mark.parametrize("spec,charges,beta,h", [
    (PotentialSpec(kind="pinning"), GAUSS, 0.7, 0.3),
    (PT3, GAUSS, 0.8, 0.2),
    (PotentialSpec(kind="copolymer"), BERN, 0.5, 0.4),
    (PotentialSpec(kind="table", table={0: 0.4, 1: 1.0, -2: 0.8}), GAUSS, 0.6, -0.1),
])
def test_series_layers_on_the_classes_keep_the_full_lattice_bits(
        spec, charges, beta, h, l):
    # odd tn ends the layers on the origin's other class; a signed
    # lattice of odd L has its origin on an odd site
    walk = WalkSpec(alpha=0.6, l_max=l)
    for tn, k in itertools.product([1, 2, 7, 8, 33, 256, 1025], range(1, 5)):
        assert (series_coefficient(walk, charges, spec, beta, h, tn, k)
                == tiled_series(walk, charges, spec, beta, h, tn, k))


def test_series_chi_zero_gives_zero():
    for k in range(1, 5):
        assert series_coefficient(
            WALK6, GAUSS, PT3, 0.0, 0.0, tn=32, k=k
        ) == 0.0


def test_series_validation():
    with pytest.raises(ValueError):
        series_coefficient(WALK6, GAUSS, PT3, 0.5, 0.1, tn=16, k=0)
    with pytest.raises(ValueError):
        series_coefficient(WALK6, GAUSS, PT3, 0.5, 0.1, tn=16, k=5)
    with pytest.raises(ValueError):
        series_coefficient(WALK6, GAUSS, PT3, 0.5, 0.1, tn=0, k=1)
    # psi rejects a negative beta; a negative h is allowed
    with pytest.raises(ValueError, match="beta must be >= 0"):
        series_coefficient(WALK6, GAUSS, PT3, -0.1, 0.0, tn=16, k=1)
    assert series_coefficient(WALK6, GAUSS, PT3, 0.0, -0.5, tn=16, k=1) > 0.0


# --------------------------------------------------------- free-energy ladder

def test_scaled_ladder_trends_to_continuum_target():
    rows = scaled_free_energy(short_schedule(), WALK6, GAUSS, PT3,
                              cstar_phi=CS1, cstar_phi2=CS2)
    assert [r.n for r in rows] == [256, 512, 1024]
    assert rows[0].continuum_target == pytest.approx(0.07914, abs=2e-4)
    gaps = [r.rel_gap for r in rows]
    assert all(g is not None for g in gaps)
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 0.01
    for r in rows:
        assert r.localized and not r.diverged
        assert 0.0 < r.n_times_f < 1.0  # bounded along the ladder
        assert r.beta_n == pytest.approx(r.n ** -0.3)
        assert r.h_n == pytest.approx(0.1 * r.n ** -0.6)


def test_diverged_rung_is_localized_without_a_renewal_root():
    # psi(0) ~ beta_N^2 / 2 overflows exp(): the excursion sum diverges
    schedule = ScalingSchedule(SHORT, beta_hat=2000.0, h_hat=0.1,
                               n_ladder=(16, 32))
    rows = scaled_free_energy(schedule, WALK6, GAUSS,
                              PotentialSpec(kind="pinning"),
                              cstar_phi=1.0, cstar_phi2=1.0)
    for r in rows:
        assert r.diverged and r.localized and r.n_times_f == math.inf


def test_scaled_ladder_below_critical_goes_to_zero():
    # 0.5 * bhat^2 * cstar[phi^2] < hhat * cstar[phi]: delocalized schedule
    sched = short_schedule(beta_hat=0.3, h_hat=1.0, ladder=(256, 512))
    rows = scaled_free_energy(sched, WALK6, GAUSS, PT3,
                              cstar_phi=CS1, cstar_phi2=CS2)
    for r in rows:
        assert r.continuum_target == 0.0
        assert r.n_times_f == 0.0
        assert r.rel_gap is None
        assert not r.localized


def test_scaled_ladder_tiny_beta_all_negative_potential():
    # beta ~ 0 leaves psi ~ -h phi <= 0, so the free energy is exactly zero
    sched = short_schedule(beta_hat=1e-9, h_hat=0.5, ladder=(64, 128))
    rows = scaled_free_energy(sched, WALK6, GAUSS, PT3,
                              cstar_phi=CS1, cstar_phi2=CS2)
    for r in rows:
        assert r.n_times_f == 0.0
        assert not r.localized


def test_scaled_free_energy_agrees_with_partition_ladder():
    # at moderate couplings the renewal-root value must land inside the
    # free/constrained partition bracket from the transfer module
    sched = short_schedule(beta_hat=3.0, h_hat=0.5, ladder=(256,))
    row = scaled_free_energy(sched, WALK6, GAUSS, PT3,
                             cstar_phi=CS1, cstar_phi2=CS2)[0]
    f_renewal = row.n_times_f / row.n
    est = annealed_free_energy(WALK6, PT3, GAUSS, row.beta_n, row.h_n,
                               n_max=2 ** 14)
    assert est.f_constrained - est.error <= f_renewal <= est.f_free + est.error
    assert abs(f_renewal - est.value) <= 2.0 * est.error


def test_scaled_intermediate_regime_has_no_closed_form_target():
    sched = ScalingSchedule(params=INTER, beta_hat=1.0, h_hat=0.02,
                            n_ladder=(64, 128))
    rows = scaled_free_energy(sched, WalkSpec(alpha=0.4), GAUSS,
                              PotentialSpec(kind="power_tail", theta=0.8))
    for r in rows:
        assert r.continuum_target is None
        assert r.rel_gap is None
        assert r.localized
        assert 0.0 < r.n_times_f < 2.0


@pytest.mark.parametrize("pair", [{}, {"cstar_phi": CS1},
                                  {"cstar_phi2": CS2}],
                         ids=["neither", "phi-only", "phi2-only"])
def test_short_range_calls_need_both_cstar_constants(pair):
    # the caller supplies the pair (the CLI estimates it once per run)
    sched = short_schedule(ladder=(16, 32))
    for harness in (scaled_free_energy, compare_to_continuum):
        with pytest.raises(ValueError, match=r"model\.c_star.*"
                                             r"model\.estimate_c_weights"):
            harness(sched, WALK6, GAUSS, PT3, **pair)


def test_scaled_free_energy_rejects_short_horizon():
    with pytest.raises(ValueError):
        scaled_free_energy(short_schedule(ladder=(16, 32)), WALK6, GAUSS, PT3,
                           m_mult=2, cstar_phi=CS1, cstar_phi2=CS2)


# ----------------------------------------------------- continuum comparison

def test_series_comparison_gap_monotone_k1():
    sched = short_schedule(ladder=(256, 512, 1024, 2048))
    rows = compare_to_continuum(sched, WALK6, GAUSS, PT3, k=1,
                                cstar_phi=CS1, cstar_phi2=CS2)
    gaps = [r.rel_gap for r in rows]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 0.01
    for r in rows:
        assert r.k == 1
        # the two closed-form candidates differ by exactly alpha * k
        assert r.hat_gamma_ak == pytest.approx(0.6 * r.hat_gamma_ak_plus1,
                                               rel=1e-12)
        assert r.c_tnk < r.hat_gamma_ak_plus1  # approaches from below


def test_series_comparison_gap_monotone_k2():
    sched = short_schedule(ladder=(256, 512, 1024))
    rows = compare_to_continuum(sched, WALK6, GAUSS, PT3, k=2,
                                cstar_phi=CS1, cstar_phi2=CS2)
    gaps = [r.rel_gap for r in rows]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 0.03
    assert rows[0].hat_gamma_ak == pytest.approx(
        1.2 * rows[0].hat_gamma_ak_plus1, rel=1e-12
    )


def test_series_comparison_delta_zero_tuning():
    # hhat tuned so the leading coefficient cancels: candidates vanish and
    # the lattice coefficient decays toward zero
    sched = short_schedule(h_hat=0.5 * CS2 / CS1)
    rows = compare_to_continuum(sched, WALK6, GAUSS, PT3, k=1,
                                cstar_phi=CS1, cstar_phi2=CS2)
    cs = [abs(r.c_tnk) for r in rows]
    for r in rows:
        assert r.hat_gamma_ak_plus1 == 0.0
        assert r.hat_gamma_ak == 0.0
        assert r.rel_gap is None
    assert all(c < 6e-3 for c in cs)
    assert all(a > b for a, b in zip(cs, cs[1:]))


def test_series_comparison_validation():
    sched_lr = ScalingSchedule(params=LONG, beta_hat=1.0, h_hat=0.1,
                               n_ladder=(16, 32))
    with pytest.raises(ValueError):  # closed forms only exist light-tailed
        compare_to_continuum(sched_lr, WalkSpec(alpha=0.3), GAUSS,
                             PotentialSpec(kind="power_tail", theta=0.25))
    with pytest.raises(ValueError):
        compare_to_continuum(short_schedule(), WALK6, GAUSS, PT3, k=4,
                             cstar_phi=CS1, cstar_phi2=CS2)
    with pytest.raises(ValueError):
        compare_to_continuum(short_schedule(), WALK6, GAUSS, PT3, T=0.0,
                             cstar_phi=CS1, cstar_phi2=CS2)


# ------------------------------------------------- scaled critical prefactor

def test_pinning_scaled_critical_ratio():
    # for the single-site potential the critical-curve prefactor
    # cstar[phi^2] / (2 cstar[phi]) is exactly 1/2, and the scaled critical
    # heights h_c^ann(beta_N) / beta_N^2 must not fall below it
    srw = WalkSpec(alpha=0.5)
    pin = PotentialSpec(kind="pinning")
    cw = estimate_c_weights(srw, k_max=8, n_probe=1024)
    chat = c_star(pin, cw, power=2).value / (2.0 * c_star(pin, cw, power=1).value)
    assert chat == pytest.approx(0.5, rel=1e-12)
    sched = ScalingSchedule(params=ContinuumParams(alpha=0.5, theta=3.0),
                            beta_hat=1.0, h_hat=1.0, n_ladder=(16, 256))
    for n in sched.n_ladder:
        beta_n = sched.beta_n(n)
        bracket = annealed_critical_h(srw, pin, GAUSS, beta_n, tol=1e-4)
        ratio = bracket.mid / beta_n ** 2
        assert ratio >= chat * (1.0 - 0.01)
        assert ratio <= chat * (1.0 + 0.01)


# ------------------------------------------------------------------ reports

def test_scaled_csv_roundtrip(emit):
    points = [
        ScaledFreeEnergyPoint(n=256, beta_n=0.19, h_n=0.0359,
                              n_times_f=0.0795220001, continuum_target=0.0791,
                              rel_gap=0.005, localized=True, diverged=False),
        ScaledFreeEnergyPoint(n=512, beta_n=0.15, h_n=0.0237,
                              n_times_f=0.0, continuum_target=None,
                              rel_gap=None, localized=False, diverged=False),
    ]
    lines = emit(SCALED_COLUMNS, [
        dict(zip(SCALED_COLUMNS, (p.n, p.beta_n, p.h_n, p.n_times_f,
                                  p.continuum_target, p.rel_gap,
                                  p.localized, p.diverged)))
        for p in points
    ])
    assert lines[0] == "# config sha256 abc"
    assert lines[3] == ",".join(SCALED_COLUMNS)
    first = lines[4].split(",")
    assert first[0] == "256"
    assert float(first[3]) == 0.0795220001  # repr round-trips exactly
    assert lines[5].split(",")[4] == ""  # absent target stays empty
    assert lines[5].split(",")[6:] == ["False", "False"]
    assert len(lines) == 6


def test_series_csv_roundtrip(emit):
    r = SeriesComparisonRow(n=256, k=2, c_tnk=0.040237,
                            hat_gamma_ak=0.0519, hat_gamma_ak_plus1=0.0432,
                            rel_gap=0.069)
    lines = emit(SERIES_COLUMNS, [dict(zip(SERIES_COLUMNS, (
        r.n, r.k, r.c_tnk, r.hat_gamma_ak, r.hat_gamma_ak_plus1,
        r.rel_gap)))])
    assert lines[3] == ",".join(SERIES_COLUMNS)
    assert len(lines) == 5
    cells = lines[4].split(",")
    assert cells[:2] == ["256", "2"]
    assert float(cells[2]) == 0.040237
