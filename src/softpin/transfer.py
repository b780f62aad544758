"""Partition functions and free energies by forward transfer recursion.

Both endpoint conditions are carried in one sweep: after n steps the
renormalized mass vector yields the free partition function (sum over
heights) and the constrained one (mass at the origin, even n only).  The
recursion is log-stabilized by factoring out the running maximum, so
horizons of 2^20 steps stay in float64 range; site weights beyond
exp(LOG_WEIGHT_CAP) are shifted into the same log-scale, so strong
couplings stay finite.  Disorder samples run as rows of one sweep.

Free-energy estimates report the constrained value at the largest ladder
rung (a rigorous lower bound on the limit by super-additivity) bracketed
against the free value, with the last ladder drift folded into the error:
in the delocalized phase both estimates approach the limit 0 from below at
an O(log N / N) rate, so the bracket half-width alone would under-cover.

``renewal_root`` solves the excursion identity sum_m A_m e^(-F m) = 1 for
the homogeneous (annealed) model; fed with the first-passage excursion
weights it resolves free energies far below the ladder resolution (needed
deep in the weak-coupling window).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special
from scipy.optimize import brentq

from .lattice import layout
from .model import ChargeModel, PotentialSpec, WalkSpec, phi_eval, psi

__all__ = [
    "PartitionSweep",
    "FreeEnergyEstimate",
    "RenewalRoot",
    "annealed_partition",
    "quenched_partition",
    "annealed_sweep",
    "quenched_sweep",
    "annealed_free_energy",
    "quenched_free_energy",
    "compare_free_constrained",
    "renewal_root",
    "default_ladder",
]


@dataclass(frozen=True)
class PartitionSweep:
    """log partition functions recorded along one forward sweep."""

    n_values: np.ndarray
    log_z_free: np.ndarray
    log_z_constrained: np.ndarray

    def f_free(self) -> np.ndarray:
        return self.log_z_free / self.n_values

    def f_constrained(self) -> np.ndarray:
        return self.log_z_constrained / self.n_values


def _check_record_points(record_at) -> np.ndarray:
    pts = np.asarray(sorted(set(int(n) for n in record_at)), dtype=int)
    if len(pts) == 0:
        raise ValueError("need at least one record point")
    if pts[0] < 0:
        raise ValueError("record points must be >= 0")
    if np.any(pts % 2 != 0):
        raise ValueError("constrained partitions need even step counts (period 2)")
    return pts


# largest log site weight one step applies: exp(709.8) overflows, and a step
# at most doubles the peak of a renormalized state
LOG_WEIGHT_CAP = 700.0
# steps whose row maxima go into the running log-scale in one np.log call
_LOG_EVERY = 256
# the smallest positive double: a renormalized row whose maximum is not above
# it is dead
_DEAD = 5e-324


def _class_shift(top, shift):
    """The log-scale shift of each step, given the all-site shift and the
    largest log weight ``top`` over the heights of the step's parity, where
    the walk sits after that step.

    Where the all-site shift underflows every weight of that parity class
    (a strong pinning reward at the origin, whose class is not the step's),
    the state would die; there the class's own largest log weight sets the
    shift.  Every other step keeps the all-site shift, bit for bit.
    """
    return np.where(np.exp(top - shift) == 0.0,
                    np.maximum(top - LOG_WEIGHT_CAP, 0.0), shift)


def _sweep(ker, step_weights, log_shift, log_origin, record_at: np.ndarray):
    """Forward sweep of independent chains started at the origin, one per
    row of the tiled kernel ``ker``.

    step_weights(n) gives the flat site weights of step n (1-based) divided
    by exp(log_shift[:, n - 1]), the shift that keeps them below
    exp(LOG_WEIGHT_CAP); log_shift broadcasts against (rows, n_max).
    log_origin(n) gives each row's undivided log weight of the origin at
    step n: where that weight alone underflows, the constrained value is
    taken from the mass that reached the origin and this log.  A row
    whose state dies (its maximum underflows to 0) is divided by _DEAD, not
    0, so its state stays zero instead of leaking NaN into its neighbours,
    and it reports NaN from then on.  Returns (log_z_free,
    log_z_constrained), each of shape (rows, len(record_at)).
    """
    pts = record_at.tolist()
    n_max = pts[-1]
    sites, origin = len(ker.heights), ker.origin
    r = len(ker.p_up) // sites
    log_shift = np.broadcast_to(log_shift, (r, n_max))
    v, nxt = np.zeros(r * sites), np.empty(r * sites)
    v[origin::sites] = 1.0
    acc = np.zeros(r)  # log-scale divided out of v so far
    maxima = np.empty((r, _LOG_EVERY))  # row maxima not yet in acc
    k = 0
    rec_free = np.zeros((r, len(pts)))  # n = 0: Z = Z_constrained = 1
    rec_con = np.zeros_like(rec_free)
    idx = 1 if pts[0] == 0 else 0
    for n in range(1, n_max + 1):
        ker.step(v, nxt)
        if n == pts[idx]:
            reached = nxt[origin::sites].copy()  # before the origin's weight
        nxt *= step_weights(n)
        by_row = nxt.reshape(r, sites)
        by_row /= by_row.max(axis=1, keepdims=True, out=maxima[:, k : k + 1],
                             initial=_DEAD)
        v, nxt = nxt, v
        k += 1
        if k == _LOG_EVERY or n == pts[idx]:
            # the log-scale that step n divided out
            step_scale = np.log(maxima[:, k - 1]) + log_shift[:, n - 1]
            acc += np.log(maxima[:, :k]).sum(axis=-1)
            acc += log_shift[:, n - k : n].sum(axis=-1)
            acc[maxima[:, :k].min(axis=1) == _DEAD] = math.nan
            k = 0
        if n == pts[idx]:
            rec_free[:, idx] = acc + np.log(v.reshape(r, sites).sum(axis=-1))
            con = v[origin::sites]
            with np.errstate(divide="ignore"):  # 0 where nothing returned
                rec_con[:, idx] = acc + np.log(con)
            lost = (con == 0.0) & (reached > 0.0)
            if lost.any():
                rec_con[lost, idx] = ((acc - step_scale + log_origin(n))[lost]
                                      + np.log(reached[lost]))
            idx += 1
    return rec_free, rec_con


def annealed_sweep(walk: WalkSpec, spec: PotentialSpec, charges: ChargeModel,
                   beta: float, h: float, record_at, l: int | None = None,
                   folded: bool | None = None) -> PartitionSweep:
    pts = _check_record_points(record_at)
    ker = layout(walk, spec, int(pts[-1]), l, folded)
    log_w = np.asarray(psi(charges, spec, beta, h, ker.heights), dtype=float)
    shift = max(float(log_w.max()) - LOG_WEIGHT_CAP, 0.0)
    w = np.exp(log_w - shift)
    on = [ker.heights % 2 == c for c in (0, 1)]
    shifts = _class_shift(np.array([log_w[m].max() for m in on]), shift)
    ws = [w if s == shift else np.exp(np.where(m, log_w - s, -math.inf))
          for m, s in zip(on, shifts.tolist())]
    log_shift = shifts[np.arange(1, int(pts[-1]) + 1) % 2]
    (free,), (con,) = _sweep(ker, lambda n: ws[n % 2], log_shift,
                             lambda n: log_w[ker.origin], pts)
    return PartitionSweep(n_values=pts, log_z_free=free, log_z_constrained=con)


def _quenched_rows(walk, spec, g: np.ndarray, pts: np.ndarray, l, folded):
    """(log_z_free, log_z_constrained) along pts for each row of g, the
    per-step couplings beta * omega - h in front of phi(S_n)."""
    ker = layout(walk, spec, int(pts[-1]), l, folded)
    phi_vec = np.asarray(phi_eval(spec, ker.heights), dtype=float)
    phi_ends = (phi_vec.min(), phi_vec.max())
    scaled = g.size > 0 and max(
        a * b for a in (g.min(), g.max()) for b in phi_ends) > LOG_WEIGHT_CAP
    shift, on, dead = 0.0, [ker.heights % 2 == c for c in (0, 1)], []
    if scaled:  # per step, the largest g * phi over the sites
        shift = np.maximum(g * phi_ends[0], g * phi_ends[1]) - LOG_WEIGHT_CAP
        np.maximum(shift, 0.0, out=shift)
        c = np.arange(1, g.shape[1] + 1) % 2  # the parity of step n
        lo = np.array([phi_vec[m].min() for m in on])
        hi = np.array([phi_vec[m].max() for m in on])
        by_class = _class_shift(np.maximum(g * lo[c], g * hi[c]), shift)
        # steps where some row takes its class shift: the other class,
        # which carries no mass, could overflow, so its weights are zeroed
        dead = (by_class != shift).any(axis=0).tolist()
        shift = by_class
    log_w = np.empty((len(g), len(phi_vec)))  # one step's weights, by row

    def weights(n):
        np.multiply(g[:, n - 1, None], phi_vec, out=log_w)
        if scaled:
            np.subtract(log_w, shift[:, n - 1, None], out=log_w)
            if dead[n - 1]:
                log_w[:, ~on[n % 2]] = -math.inf
        return np.exp(log_w, out=log_w).reshape(-1)

    return _sweep(ker.tiled(len(g)), weights, shift,
                  lambda n: g[:, n - 1] * phi_vec[ker.origin], pts)


def quenched_sweep(walk: WalkSpec, spec: PotentialSpec, beta: float, h: float,
                   omega: np.ndarray, record_at, l: int | None = None,
                   folded: bool | None = None) -> PartitionSweep:
    pts = _check_record_points(record_at)
    omega = np.asarray(omega, dtype=float)
    if len(omega) < pts[-1]:
        raise ValueError("need one charge per step")
    g = beta * omega[None, : pts[-1]] - h
    (free,), (con,) = _quenched_rows(walk, spec, g, pts, l, folded)
    return PartitionSweep(n_values=pts, log_z_free=free, log_z_constrained=con)


def annealed_partition(walk, spec, charges, beta, h, n: int,
                       l: int | None = None, folded: bool | None = None):
    """(log Z_free, log Z_constrained) after n steps, n even."""
    sw = annealed_sweep(walk, spec, charges, beta, h, [n], l=l, folded=folded)
    return float(sw.log_z_free[0]), float(sw.log_z_constrained[0])


def quenched_partition(walk, spec, beta, h, omega, n: int,
                       l: int | None = None, folded: bool | None = None):
    sw = quenched_sweep(walk, spec, beta, h, omega, [n], l=l, folded=folded)
    return float(sw.log_z_free[0]), float(sw.log_z_constrained[0])


# ------------------------------------------------------------ free energies

def default_ladder(n_max: int, n_points: int = 6) -> list[int]:
    """Halving ladder ending at n_max, even rungs, smallest >= 16."""
    if n_max < 16 or n_max % 2 != 0:
        raise ValueError("n_max must be even and >= 16")
    out = []
    n = n_max
    while len(out) < n_points and n >= 16 and n % 2 == 0:
        out.append(n)
        n //= 2
    return sorted(out)


@dataclass(frozen=True)
class FreeEnergyEstimate:
    """Bracketed free-energy estimate at the largest ladder rung.

    value is the constrained estimate (approaches the limit from below);
    error = half bracket gap + last ladder drift + standard error over
    disorder samples (annealed runs have sem = 0).
    """

    beta: float
    h: float
    n_max: int
    value: float
    error: float
    f_free: float
    f_constrained: float
    gap: float
    drift: float
    sem: float
    converged: bool
    ladder: PartitionSweep
    n_samples: int = 1
    seed: int | None = None
    sample_sweeps: list = field(default=None, repr=False, compare=False)

    @property
    def bracket(self) -> tuple[float, float]:
        return (self.f_constrained, self.f_free)


def _estimate_from_ladder(sweep: PartitionSweep, beta, h, sem=0.0,
                          n_samples=1, seed=None, sample_sweeps=None):
    f_free = sweep.f_free()
    f_con = sweep.f_constrained()
    gaps = f_free - f_con
    n_max = int(sweep.n_values[-1])
    drift = abs(f_con[-1] - f_con[-2]) if len(f_con) > 1 else 0.0
    gap = float(gaps[-1])
    converged = len(gaps) < 2 or gap <= gaps[-2] + 1e-12
    return FreeEnergyEstimate(
        beta=beta, h=h, n_max=n_max,
        value=float(f_con[-1]),
        error=float(0.5 * gap + drift + sem),
        f_free=float(f_free[-1]), f_constrained=float(f_con[-1]),
        gap=gap, drift=float(drift), sem=float(sem), converged=bool(converged),
        ladder=sweep, n_samples=n_samples, seed=seed, sample_sweeps=sample_sweeps,
    )


def annealed_free_energy(walk, spec, charges, beta, h, n_max: int,
                         n_points: int = 6, l: int | None = None) -> FreeEnergyEstimate:
    ladder = default_ladder(n_max, n_points)
    sweep = annealed_sweep(walk, spec, charges, beta, h, ladder, l=l)
    return _estimate_from_ladder(sweep, beta, h)


def quenched_free_energy(walk, spec, charges, beta, h, n_max: int,
                         n_samples: int, seed: int, n_points: int = 6,
                         l: int | None = None) -> FreeEnergyEstimate:
    """Disorder-averaged free energy over independent charge sequences.

    Sample i draws its charges from the sub-stream (seed, i), so results
    are reproducible for any sample count and independent of evaluation
    order.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    ladder = _check_record_points(default_ladder(n_max, n_points))
    g = np.empty((n_samples, n_max))  # beta * omega - h, built in place
    for i in range(n_samples):
        g[i] = charges.sample(np.random.Generator(np.random.Philox(
            np.random.SeedSequence(seed, spawn_key=(i,)))), n_max)
    g *= beta
    g -= h
    free, con = _quenched_rows(walk, spec, g, ladder, l, None)
    sweeps = [
        PartitionSweep(n_values=ladder, log_z_free=free[i],
                       log_z_constrained=con[i])
        for i in range(n_samples)
    ]
    mean_sweep = PartitionSweep(
        n_values=ladder, log_z_free=free.mean(axis=0),
        log_z_constrained=con.mean(axis=0),
    )
    f_con_samples = con[:, -1] / ladder[-1]
    sem = (
        float(np.std(f_con_samples, ddof=1) / math.sqrt(n_samples))
        if n_samples > 1 else 0.0
    )
    return _estimate_from_ladder(
        mean_sweep, beta, h, sem=sem, n_samples=n_samples, seed=seed,
        sample_sweeps=sweeps,
    )


def compare_free_constrained(walk, spec, charges, beta, h, ladder,
                             l: int | None = None) -> np.ndarray:
    """Rows (N, (log Z_free - log Z_constrained)/N) along the ladder.

    The per-step boundary-condition discrepancy; nonnegative, and decaying
    like O(log N / N) whenever the two conditions share a free energy.
    """
    sweep = annealed_sweep(walk, spec, charges, beta, h, ladder, l=l)
    diff = (sweep.log_z_free - sweep.log_z_constrained) / sweep.n_values
    return np.column_stack([sweep.n_values.astype(float), diff])


# ------------------------------------------------------------- renewal root

@dataclass(frozen=True)
class RenewalRoot:
    """Root of the truncated excursion identity sum_m A_m e^(-F m) = 1.

    f_lower drops the m > m_max tail entirely (never above the true root);
    f adds a fitted power-law tail. localized is False when even the
    tail-completed sum stays <= 1.
    """

    f: float
    f_lower: float
    tail_coeff: float
    partial_sum: float
    localized: bool


def _tail_integral(alpha: float, m0: float, f: float) -> float:
    """integral_{m0}^{inf} x^(-(1+alpha)) e^(-f x) dx, f >= 0."""
    if f <= 0.0:
        return m0 ** (-alpha) / alpha
    head = m0 ** (-alpha) * math.exp(-f * m0) / alpha
    rest = (
        (f ** alpha / alpha)
        * math.gamma(1.0 - alpha)
        * special.gammaincc(1.0 - alpha, f * m0)
    )
    return head - rest


def renewal_root(weights: np.ndarray, alpha: float) -> RenewalRoot:
    """Solve sum_m A_m e^(-F m) (+ fitted tail) = 1 for F >= 0.

    weights[m] is the m-step excursion weight A_m (index 0 unused).  The
    tail coefficient is fitted on the top octave of m, where the excursion
    weights have settled onto their ~m^-(1+alpha) decay.
    """
    a = np.asarray(weights, dtype=float)
    if len(a) < 8:
        raise ValueError("need excursion weights out to m >= 8")
    m = np.arange(len(a), dtype=float)
    m_max = len(a) - 1
    c_fit = 0.0
    window = (m >= m_max // 2) & (m > 0) & (a > 0)
    if window.sum() >= 4:
        c_fit = float(np.mean(a[window] * m[window] ** (1.0 + alpha)))

    def g(f: float, c: float) -> float:
        s = float(np.dot(a[2:], np.exp(-f * m[2:])))
        if c > 0.0:
            s += c * _tail_integral(alpha, m_max + 1.0, f)
        return s - 1.0

    def root(c: float, hi: float) -> float:
        if g(0.0, c) <= 0.0:
            return 0.0
        while g(hi, c) > 0.0 and hi < 1e3:
            hi *= 2.0
        return float(brentq(g, 0.0, hi, args=(c,), xtol=1e-15, rtol=1e-13))

    localized = g(0.0, c_fit) > 0.0
    f_root = root(c_fit, 1.0 / m_max)
    f_lower = root(0.0, max(f_root, 1.0 / m_max)) if c_fit > 0.0 else f_root
    return RenewalRoot(
        f=f_root, f_lower=f_lower, tail_coeff=c_fit,
        partial_sum=float(a.sum()), localized=localized,
    )
