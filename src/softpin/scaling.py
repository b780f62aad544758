"""Weak-coupling harness: scaled couplings, N-ladders, and continuum gaps.

Sending (beta, h) to zero along N-dependent power laws puts the pinning
model in a window where N times the annealed free energy converges to a
continuum functional of the reflected Bessel-like diffusion.  The decay
exponents (A, B) in

    beta_N = beta_hat * N^(-A),    h_N = h_hat * N^(-B)

depend on which of the potential tail and the walk's return exponent wins
(``continuum.scaling_exponents`` holds the table).

This module builds those schedules, evaluates N * F_ann(beta_N, h_N) along
a ladder of system sizes (free energy by the renewal-root method on the
excursion weights, whose finite-size error decays much faster than the
partition-ladder estimate at weak coupling), and computes the discrete
expansion coefficients

    C_{TN,k} = sum_{n_1 < ... < n_k <= TN} E[prod_l chi(|S_{n_l}|)],
    chi(x) = e^(psi(x)) - 1,

by a k-layer forward recursion, so light-tail runs can be laid side by side
with both closed-form candidates for the continuum coefficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .continuum import (
    ContinuumParams,
    ContinuumPhasePoint,
    coefficient_candidates,
    continuum_free_energy_short,
    scaling_exponents,
)
from .lattice import _class_sweep, layout
from .localization import excursion_weights
from .model import ChargeModel, PotentialSpec, WalkSpec, c_star, estimate_c_weights, psi
from .transfer import renewal_root

__all__ = [
    "ScalingSchedule",
    "scaling_exponents",
    "ScaledFreeEnergyPoint",
    "scaled_free_energy",
    "series_coefficient",
    "SeriesComparisonRow",
    "compare_to_continuum",
]

# default index horizon of the excursion sum, as a multiple of N: at the
# ladder top F ~ 1/N, so 48 N reaches e^(-48 F N) ~ e^(-5) past the
# renewal root's e-folding scale before the fitted tail takes over
DEFAULT_M_MULT = 48


@dataclass(frozen=True)
class ScalingSchedule:
    """Coupling schedule beta_N = beta_hat N^-A, h_N = h_hat N^-B on a ladder
    of even system sizes."""

    params: ContinuumParams
    beta_hat: float
    h_hat: float
    n_ladder: tuple[int, ...]

    def __post_init__(self):
        if self.beta_hat <= 0.0 or self.h_hat <= 0.0:
            raise ValueError("beta_hat and h_hat must be strictly positive")
        ladder = tuple(int(n) for n in self.n_ladder)
        if len(ladder) == 0:
            raise ValueError("n_ladder must be nonempty")
        if any(n < 2 or n % 2 for n in ladder):
            raise ValueError("ladder entries must be even integers >= 2")
        if any(b <= a for a, b in zip(ladder, ladder[1:])):
            raise ValueError("n_ladder must be strictly increasing")
        object.__setattr__(self, "n_ladder", ladder)

    @property
    def regime(self) -> str:
        return self.params.regime

    @property
    def exponents(self) -> tuple[float, float]:
        return scaling_exponents(self.params)

    def beta_n(self, n: int) -> float:
        return self.beta_hat * float(n) ** -self.exponents[0]

    def h_n(self, n: int) -> float:
        return self.h_hat * float(n) ** -self.exponents[1]


def _require_compatible(schedule: ScalingSchedule, walk: WalkSpec,
                        spec: PotentialSpec) -> None:
    """The lattice model must realize the (alpha, theta) the schedule scales for."""
    params = schedule.params
    if abs(walk.alpha - params.alpha) > 1e-12:
        raise ValueError(
            f"walk exponent {walk.alpha} does not match the schedule's {params.alpha}"
        )
    if spec.kind == "copolymer":
        raise ValueError("copolymer potential has no summable tail constant; "
                         "the weak-coupling schedule does not apply")
    if spec.kind == "power_tail":
        if abs(spec.theta - params.theta) > 1e-12:
            raise ValueError(
                f"potential tail {spec.theta} does not match the schedule's "
                f"{params.theta}"
            )
    elif params.regime != "short_range":
        # compactly supported potentials are light-tailed: only that regime fits
        raise ValueError(
            f"compactly supported potential is short_range, schedule says "
            f"{params.regime}"
        )


def _cstar_pair(schedule: ScalingSchedule, walk: WalkSpec,
                spec: PotentialSpec, cstar_phi: float | None,
                cstar_phi2: float | None, k_weights: int = 64,
                n_probe: int = 4096) -> tuple[float, float]:
    """(cstar[phi], cstar[phi^2]): the supplied values, any missing one from
    one c(k) estimate.  The CLI calls this once per run and passes the pair
    to ``scaled_free_energy`` and ``compare_to_continuum``."""
    _require_compatible(schedule, walk, spec)
    if cstar_phi is None or cstar_phi2 is None:
        weights = estimate_c_weights(walk, k_max=k_weights, n_probe=n_probe)
        if cstar_phi is None:
            cstar_phi = c_star(spec, weights, power=1).value
        if cstar_phi2 is None:
            cstar_phi2 = c_star(spec, weights, power=2).value
    return cstar_phi, cstar_phi2


def _given_pair(c1: float | None, c2: float | None) -> tuple[float, float]:
    if c1 is None or c2 is None:
        raise ValueError("short_range needs cstar_phi and cstar_phi2; compute "
                         "them by model.c_star on model.estimate_c_weights")
    return c1, c2


@dataclass(frozen=True)
class ScaledFreeEnergyPoint:
    """One ladder entry of the weak-coupling free-energy harness."""

    n: int
    beta_n: float
    h_n: float
    n_times_f: float
    continuum_target: float | None
    rel_gap: float | None
    localized: bool
    diverged: bool


def scaled_free_energy(schedule: ScalingSchedule, walk: WalkSpec,
                       charges: ChargeModel, spec: PotentialSpec,
                       m_mult: int = DEFAULT_M_MULT,
                       cstar_phi: float | None = None,
                       cstar_phi2: float | None = None) -> list[ScaledFreeEnergyPoint]:
    """N * F_ann(beta_N, h_N) along the ladder, with the continuum target.

    The free energy is the root of the truncated renewal identity built
    from the excursion weights at (beta_N, h_N), summed out to m_mult * N
    steps (fitted power-law tail beyond).  In the short_range regime the
    continuum target is the explicit light-tail free energy, evaluated with
    the lattice constants cstar[phi] and cstar[phi^2], which the caller
    supplies (``_cstar_pair`` estimates them); the other regimes have no
    closed form, read neither constant and report no target.  A rung whose
    excursion sum diverges is localized with an infinite N * F.
    """
    _require_compatible(schedule, walk, spec)
    if m_mult < 4:
        raise ValueError("m_mult must be >= 4")
    target = None
    if schedule.regime == "short_range":
        target = continuum_free_energy_short(
            schedule.params,
            ContinuumPhasePoint(schedule.beta_hat, schedule.h_hat),
            *_given_pair(cstar_phi, cstar_phi2),
        )
    out = []
    for size in schedule.n_ladder:
        beta_n, h_n = schedule.beta_n(size), schedule.h_n(size)
        ew = excursion_weights(walk, spec, charges, beta_n, h_n,
                               m_max=m_mult * size)
        # a diverged sum has no renewal root: F is beyond resolution
        root = None if ew.diverged else renewal_root(ew.a, walk.alpha)
        n_times_f = math.inf if root is None else size * root.f
        rel_gap = abs(n_times_f - target) / target if target else None
        out.append(ScaledFreeEnergyPoint(
            n=size, beta_n=beta_n, h_n=h_n, n_times_f=n_times_f,
            continuum_target=target, rel_gap=rel_gap,
            localized=root is None or root.localized, diverged=ew.diverged,
        ))
    return out


# ------------------------------------------------------- series coefficients

def series_coefficient(walk: WalkSpec, charges: ChargeModel,
                       spec: PotentialSpec, beta: float, h: float, tn: int,
                       k: int) -> float:
    """k-th coefficient at (beta, h) of the expansion in chi = e^psi - 1:

        C_{TN,k} = sum_{n_1 < ... < n_k <= TN} E[prod_l chi(|S_{n_l}|)].

    Computed by a forward recursion over k + 1 layers, where layer j holds
    the expected chi-product over j already-selected indices jointly with
    the walker position; stepping either keeps the index count (transfer
    only) or selects the new time point (transfer, then weight by chi).
    The layers are the rows of one parity-class sweep
    (``lattice._class_sweep``), all stepped at once.  Cost O(TN * k * L).
    """
    if not 1 <= k <= 4:
        raise ValueError("series coefficients are supported for 1 <= k <= 4")
    if tn < 1:
        raise ValueError("tn must be a positive integer")
    ker = layout(walk, spec, tn)
    chi = np.exp(np.asarray(psi(charges, spec, beta, h, ker.heights),
                            dtype=float)) - 1.0
    rows, steps, chis, back = _class_sweep(ker, k + 1, chi)
    rows[0, 1:] = 0.0  # only layer 0 starts at the origin
    for n in range(1, tn + 1):
        layers = steps[n % 2]()
        for j in range(k, 0, -1):  # layer j - 1 is still the stepped one
            layers[j] += layers[j - 1] * chis[n % 2]
    # on all sites, in order, as a sum's bits depend on both
    return float(layers[k].take(back[tn % 2]).sum())


@dataclass(frozen=True)
class SeriesComparisonRow:
    """Discrete expansion coefficient next to both continuum candidates."""

    n: int
    k: int
    c_tnk: float
    hat_gamma_ak: float
    hat_gamma_ak_plus1: float
    rel_gap: float | None  # against the canonical (+1) form


def compare_to_continuum(schedule: ScalingSchedule, walk: WalkSpec,
                         charges: ChargeModel, spec: PotentialSpec,
                         T: float = 1.0, k: int = 1,
                         cstar_phi: float | None = None,
                         cstar_phi2: float | None = None) -> list[SeriesComparisonRow]:
    """C_{TN,k} along the ladder against both closed-form candidates.

    Light-tail (short_range) schedules only: that is where the coefficient
    has a closed form to converge to.  The two candidates differ by the
    factor alpha k (see the continuum module); the relative gap is reported
    against the canonical Gamma(alpha k + 1) form.  The caller supplies the
    cstar pair the candidates read (``_cstar_pair`` estimates it).
    """
    if schedule.regime != "short_range":
        raise ValueError("closed-form comparison needs the short_range regime")
    if not 1 <= k <= 3:
        raise ValueError("continuum comparison supports 1 <= k <= 3")
    if T <= 0.0:
        raise ValueError("T must be positive")
    _require_compatible(schedule, walk, spec)
    cand = coefficient_candidates(
        schedule.params,
        ContinuumPhasePoint(schedule.beta_hat, schedule.h_hat),
        *_given_pair(cstar_phi, cstar_phi2), T, k,
    )
    rows, canon = [], cand.canonical
    for size in schedule.n_ladder:
        tn = int(round(T * size))
        c_tnk = series_coefficient(walk, charges, spec, schedule.beta_n(size),
                                   schedule.h_n(size), tn, k)
        rel_gap = abs(c_tnk - canon) / abs(canon) if canon != 0.0 else None
        rows.append(SeriesComparisonRow(
            n=size, k=k, c_tnk=c_tnk, hat_gamma_ak=cand.gamma_ak,
            hat_gamma_ak_plus1=canon, rel_gap=rel_gap,
        ))
    return rows
