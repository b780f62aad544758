"""Partition functions and free energies by forward transfer recursion.

Both endpoint conditions are carried in one sweep: after n steps the
rescaled mass vector yields the free partition function (sum over heights)
and the constrained one (mass at the origin, even n only).  Each row is
scaled by an exact power of two every few steps, so horizons of 2^20 steps
stay in float64 range.  A row whose site weights pass
exp(+-LOG_WEIGHT_CAP), or whose origin share underflows, runs in logs (one
logaddexp per step) and is exact at any coupling; it is shifted by the
whole-number floor of its maximum every few steps, counted with a linear
row's powers of two in one float count, so no step rounds on values the
size of log Z.  Disorder samples run as rows of one sweep, each with the
bits it gets alone, their couplings made by one builder for both quenched
entry points, and an annealed sweep is one row of unit couplings; a site
weight that overflowed, or a coupling whose product with a site value
would, raises FloatingPointError.  A sweep steps only the parity class of
sites its chains can be on, with the bits of the one-step recursion on all
sites, and weighs BLOCK steps at once: by one multiply and one exp, or,
when its couplings repeat (+-1 charges, the annealed row), by gathering
rows from a table that weighs each distinct coupling once per class.

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
import sys
from dataclasses import dataclass, field

import numpy as np

from .lattice import BLOCK, _class_sweep, layout
from .model import ChargeModel, PotentialSpec, WalkSpec, phi_eval, psi

__all__ = [
    "PartitionSweep",
    "FreeEnergyEstimate",
    "RenewalRoot",
    "annealed_partition",
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
    pts = sorted(set(record_at))
    if not pts or not all(float(n).is_integer() and n >= 0 for n in pts):
        raise ValueError("need one or more record points, whole and >= 0")
    pts = np.asarray(pts, dtype=int)
    if np.any(pts % 2 != 0):
        raise ValueError("constrained partitions need even step counts (period 2)")
    return pts


# largest |log site weight| c of a sweep row that steps linearly, rows past
# it running in logs: exp(709.8) overflows, exp(-708.4) is no longer a normal
# double, and a row rescaled after every step keeps its peak in [e^-c/8, 2e^c]
LOG_WEIGHT_CAP = 700.0
# a linear sweep row's maximum drifts at most 2^+-_DRIFT_BITS between rescales
_DRIFT_BITS = 64
_LN2 = math.log(2.0)
# a log sweep shifts its rows every this many steps and at record steps, so
# a step rounds on at most this many steps' log weights
_LOG_RESCALE_EVERY = 8
# the smallest normal double: an origin value below it has lost digits
_TINY = np.finfo(float).tiny


def _repeats(g):
    """The distinct couplings of g and each coupling's index among them by
    step, (steps, rows), if the first block's take at most half as many
    values as it has steps (+-1 charges, or an annealed sweep's unit
    couplings) and every coupling is one of them, bit for bit; else None.
    Only the first block is searched, and nothing is sorted, so couplings
    that do not repeat are told apart for little."""
    bits = g.view(np.int64)  # -0.0 is not 0.0: its products differ in sign
    keys = list(set(bits[:, :BLOCK].ravel().tolist()))
    if len(keys) > min(BLOCK, g.shape[1]) // 2:
        return None
    at = np.full(g.shape[::-1], len(keys), dtype=np.uint8)
    for k, key in enumerate(keys):
        at[bits.T == key] = k
    if (at == len(keys)).any():
        return None
    return np.array(keys).view(float), at


def _class_weights(g, xs, exp: bool):
    """weights(n0): the log site weights g[:, n - 1] xs by row of steps n =
    n0 + 1 .. n0 + BLOCK (fewer past g's last column), step n's on the
    rows of class n mod 2 (``lattice._class_sweep``), through exp if
    asked, in one buffer.  Couplings that repeat (``_repeats``) are
    weighed once per class into a table from which a block gathers its
    rows, or, if they take one value (an annealed sweep), every block reads
    the first one's; else each block takes one multiply and one exp.  A
    table holds the same products and exps of the same doubles, so every
    weight has the same bits either way."""
    n_steps = g.shape[1]
    buf = np.empty((BLOCK, len(g), xs.shape[-1]))
    repeats = _repeats(g)
    if repeats is not None:
        values, at = repeats
        at *= 2  # the table's row of value k on class c is 2 k + c
        at[::2] += 1  # step n = 1, 3, ... moves onto class 1
        table = np.multiply(values[:, None, None], xs)
        table = table.reshape(-1, table.shape[-1])
        if exp:
            np.exp(table, out=table)

        def weights(n0):
            w = buf[: min(BLOCK, n_steps - n0)]
            # mode="raise" would gather into a temporary and copy it to w
            return np.take(table, at[n0 : n0 + len(w)], axis=0, out=w,
                           mode="clip")
        if len(table) == 2:  # one value: each block's rows are the first's
            first = weights(0)
            return lambda n0: first[: min(BLOCK, n_steps - n0)]
        return weights
    by_step = xs[[1, 0] * (BLOCK // 2), None]

    def weights(n0):
        w = buf[: min(BLOCK, n_steps - n0)]
        np.multiply(g[:, n0 : n0 + len(w)].T[:, :, None], by_step[: len(w)],
                    out=w)
        return np.exp(w, out=w) if exp else w
    return weights


def _pow2_rescale(by_row, count) -> None:
    """Scale each row by 2^-e, e the binary exponent of its maximum, and
    add e to its count: exact on normal doubles."""
    e = np.frexp(np.maximum.reduce(by_row, axis=1))[1]
    np.ldexp(by_row, -e[:, None], out=by_row)
    count += e


def _floor_shift(by_row, count) -> None:
    """Shift each row of logs by e, the floor of its maximum, which then
    lies in [0, 1), and add e to its count."""
    e = np.floor(np.maximum.reduce(by_row, axis=1, keepdims=True))
    by_row -= e
    count += e[:, 0]


def _sweep(ker, g, x, record_at: np.ndarray, log: bool = False):
    """Forward sweep of independent chains started at the origin of
    ``ker``, one per row of g, whose step n has the log site weights
    g[:, n - 1] x by row, each within +-LOG_WEIGHT_CAP unless ``log``.
    Returns (log_z_free, log_z_constrained), each of shape (rows,
    len(record_at)), and a bool per row, True where the origin's value
    fell below the smallest normal double at a record step, before or
    after the rescale: the constrained value lost digits.  A sweep in logs
    holds each value's log, -inf for 0, and loses no row.

    Each step moves one parity class onto the other in ``step``'s order
    (``lattice._class_sweep``); a record step's free sum sees the other
    class's zeros in place, so every value has ``step``'s bits.

    Every k steps and at record steps, each row is rescaled and the shift
    added to its count.  A linear row is scaled by a power of two
    (``_pow2_rescale``), so log Z = count ln 2 + log(...), exact on normal
    doubles: a row's bits depend on neither k nor its neighbours.  |d| <
    1/2 sends every site at least 1/4 of its mass to a neighbour, so a
    step and its weights move a row's maximum by a factor in [e^-c / 4, 2
    e^c], c the largest |log site weight|.  k = min(BLOCK, max(1,
    floor(_DRIFT_BITS ln 2 / (c + ln 4)))) keeps it within 2^+-_DRIFT_BITS
    of its last rescale, or in [e^-c / 8, 2 e^c] at k = 1: no row
    overflows or dies.  A log row is shifted by a whole number
    (``_floor_shift``) every k = _LOG_RESCALE_EVERY steps, so log Z =
    count + log sum exp(...), each exp at most e.
    """
    pts = record_at.tolist()
    if log:  # np.positive keeps the values as they are
        rescale, weigh, unit, tiny = _floor_shift, np.add, 1.0, -math.inf
        to_linear, to_log, k = np.exp, np.positive, _LOG_RESCALE_EVERY
    else:
        rescale, weigh, unit, tiny = _pow2_rescale, np.multiply, _LN2, _TINY
        to_linear, to_log = np.positive, np.log
        c = np.abs(x).max() * np.abs(g).max(initial=0.0)
        k = min(BLOCK, max(1, int(_DRIFT_BITS * _LN2 // (c + 2.0 * _LN2))))
    # record steps are even: their rows are class 0's
    _, steps, xs, (back, _) = _class_sweep(ker, len(g), x, log)
    at = back[ker.origin]
    # shifts taken out so far: whole numbers, exact below 2^53, where count
    # ln 2 has the bits of an integer count's; a float can not wrap around
    count = np.zeros(len(g))
    rec_free = np.zeros((len(g), len(pts)))  # n = 0: Z = Z_constrained = 1
    rec_con = np.zeros_like(rec_free)
    lost = np.zeros(len(g), dtype=bool)
    idx = 1 if pts[0] == 0 else 0
    weights = _class_weights(g[:, : pts[-1]], xs, not log)
    for n0 in range(0, pts[-1], BLOCK):
        for n, w in enumerate(weights(n0), n0 + 1):
            by_row = steps[n % 2]()
            weigh(by_row, w, out=by_row)
            if n % k and n != pts[idx]:
                continue
            if n == pts[idx]:  # the origin's value, before the rescale
                lost |= by_row[:, at] < tiny
            rescale(by_row, count)
            if n == pts[idx]:
                scale = count * unit
                # on all sites, in C order, as a sum's bits depend on both
                rec_free[:, idx] = scale + np.log(
                    to_linear(by_row.take(back, 1)).sum(1))
                con = by_row[:, at]  # and after it
                lost |= con < tiny
                with np.errstate(divide="ignore"):  # 0 only in a lost row
                    rec_con[:, idx] = scale + to_log(con)
                idx += 1
    return rec_free, rec_con, lost


def _rows(ker, g: np.ndarray, x, pts: np.ndarray):
    """(log_z_free, log_z_constrained) along pts for each row of g, the
    per-step couplings in front of the site values x on ``ker``.  A row
    runs linearly or in logs by its own weights, with the bits it gets
    alone: linearly if they stay within +-LOG_WEIGHT_CAP, and again in
    logs if its origin's value is lost.  A site value of -inf forbids the
    site; +inf, an overflowed weight, or NaN raises FloatingPointError, as
    does a coupling whose product with a site value overflows."""
    if not np.isfinite(g).all():
        raise ValueError("couplings must be finite")
    x = np.asarray(x, dtype=float)
    if not (x < math.inf).all():
        raise FloatingPointError("non-finite site weight: overflowed or NaN")
    g_max, x_abs = np.abs(g).max(axis=1, initial=0.0), np.abs(x)
    x_max = float(x_abs.max())  # inf at a forbidden site
    reach = float(x_abs[x_abs < math.inf].max(initial=0.0))
    if reach and (g_max > sys.float_info.max / reach).any():
        raise FloatingPointError(
            "a coupling times a site value overflows the float range")
    in_logs = g_max > (LOG_WEIGHT_CAP / x_max if x_max else math.inf)
    free, con = np.empty((2, len(g), len(pts)))
    if not in_logs.all():
        linear = np.flatnonzero(~in_logs)
        rows = g[linear] if in_logs.any() else g  # no copy of all rows
        free[linear], con[linear], lost = _sweep(ker, rows, x, pts)
        in_logs[linear[lost]] = True
    if in_logs.any():
        free[in_logs], con[in_logs], _ = _sweep(ker, g[in_logs], x, pts,
                                                log=True)
    return free, con


def annealed_sweep(walk: WalkSpec, spec: PotentialSpec, charges: ChargeModel,
                   beta: float, h: float, record_at,
                   folded: bool | None = None) -> PartitionSweep:
    pts = _check_record_points(record_at)
    ker = layout(walk, spec, int(pts[-1]), folded)
    # one row of unit couplings: 1.0 x has the bits of x
    (free,), (con,) = _rows(ker, np.ones((1, pts[-1])),
                            psi(charges, spec, beta, h, ker.heights), pts)
    return PartitionSweep(n_values=pts, log_z_free=free, log_z_constrained=con)


def _quenched_rows(walk, spec, beta: float, h, g: np.ndarray, pts,
                   folded: bool | None = None):
    """``_rows`` of the couplings beta * omega - h in front of phi, built in
    place in g, which holds the charges omega by row and is given up; h is
    one height or a column of one per row."""
    # named here, where _rows would see them only as non-finite couplings
    if not (math.isfinite(beta) and np.isfinite(h).all()):
        raise ValueError("beta and h must be finite")
    ker = layout(walk, spec, int(pts[-1]), folded)
    # a non-finite charge or an overflow is _rows' to reject, warning-free
    with np.errstate(over="ignore", invalid="ignore"):
        g *= beta
        g -= h
    return _rows(ker, g, phi_eval(spec, ker.heights), pts)


def quenched_sweep(walk: WalkSpec, spec: PotentialSpec, beta: float, h: float,
                   omega: np.ndarray, record_at,
                   folded: bool | None = None) -> PartitionSweep:
    """log partition functions along record_at of one chain whose step n
    weighs site x by (beta omega[n - 1] - h) phi(x); omega is not changed."""
    pts = _check_record_points(record_at)
    omega = np.asarray(omega, dtype=float)[: pts[-1]]
    if len(omega) < pts[-1]:
        raise ValueError("need one charge per step")
    (free,), (con,) = _quenched_rows(walk, spec, beta, h, omega[None].copy(),
                                     pts, folded)
    return PartitionSweep(n_values=pts, log_z_free=free, log_z_constrained=con)


def annealed_partition(walk, spec, charges, beta, h, n: int,
                       folded: bool | None = None):
    """(log Z_free, log Z_constrained) after n steps, n even."""
    sw = annealed_sweep(walk, spec, charges, beta, h, [n], folded=folded)
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
                         n_points: int = 6) -> FreeEnergyEstimate:
    ladder = default_ladder(n_max, n_points)
    sweep = annealed_sweep(walk, spec, charges, beta, h, ladder)
    return _estimate_from_ladder(sweep, beta, h)


def quenched_free_energy(walk, spec, charges, beta, h, n_max: int,
                         n_samples: int, seed: int,
                         n_points: int = 6) -> FreeEnergyEstimate:
    """Disorder-averaged free energy over independent charge sequences.

    Sample i draws its charges from the sub-stream (seed, i), so results
    are reproducible for any sample count and independent of evaluation
    order.
    """
    return _quenched_estimates(walk, spec, charges, beta, [h], n_max,
                               n_samples, seed, n_points)[0]


def _quenched_estimates(walk, spec, charges, beta, hs, n_max: int,
                        n_samples: int, seed: int,
                        n_points: int = 6) -> list[FreeEnergyEstimate]:
    """``quenched_free_energy`` at each height of hs, on the same samples,
    as rows of one sweep: each row has the bits it gets alone."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    ladder = _check_record_points(default_ladder(n_max, n_points))
    omega = np.empty((len(hs), n_samples, n_max))
    for i in range(n_samples):
        omega[0, i] = charges.sample(np.random.Generator(np.random.Philox(
            np.random.SeedSequence(seed, spawn_key=(i,)))), n_max)
    omega[1:] = omega[0]
    free, con = _quenched_rows(
        walk, spec, beta, np.repeat(hs, n_samples)[:, None],
        omega.reshape(-1, n_max), ladder)
    estimates = []
    for j, h in enumerate(hs):
        rows = slice(j * n_samples, (j + 1) * n_samples)
        sweeps = [
            PartitionSweep(n_values=ladder, log_z_free=f, log_z_constrained=c)
            for f, c in zip(free[rows], con[rows])
        ]
        mean_sweep = PartitionSweep(
            n_values=ladder, log_z_free=free[rows].mean(axis=0),
            log_z_constrained=con[rows].mean(axis=0),
        )
        f_con_samples = con[rows, -1] / ladder[-1]
        try:  # samples' f some 1e154 apart: raise, not warn
            with np.errstate(over="raise"):
                sem = (
                    float(np.std(f_con_samples, ddof=1) / math.sqrt(n_samples))
                    if n_samples > 1 else 0.0
                )
        except FloatingPointError:
            raise FloatingPointError(
                "the quenched samples' f overflow their variance") from None
        estimates.append(_estimate_from_ladder(
            mean_sweep, beta, h, sem=sem, n_samples=n_samples, seed=seed,
            sample_sweeps=sweeps,
        ))
    return estimates


def compare_free_constrained(walk, spec, charges, beta, h,
                             ladder) -> np.ndarray:
    """Rows (N, (log Z_free - log Z_constrained)/N) along the ladder.

    The per-step boundary-condition discrepancy; nonnegative, and decaying
    like O(log N / N) whenever the two conditions share a free energy.
    """
    sweep = annealed_sweep(walk, spec, charges, beta, h, ladder)
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
    from scipy.special import gammaincc

    if f <= 0.0:
        return m0 ** (-alpha) / alpha
    head = m0 ** (-alpha) * math.exp(-f * m0) / alpha
    rest = (
        (f ** alpha / alpha)
        * math.gamma(1.0 - alpha)
        * gammaincc(1.0 - alpha, f * m0)
    )
    return head - rest


def _renewal_gap(f: float, c: float, a: np.ndarray, m: np.ndarray,
                 alpha: float, m_max: int) -> float:
    """sum_{m >= 2} A_m e^(-f m), plus c times the tail past m_max, minus 1.

    Module level, and handed its arrays through brentq's ``args``: brentq
    wraps its function in a self-referencing closure, and a closure over
    the arrays would keep them alive until the cyclic collector runs."""
    s = float(np.dot(a[2:], np.exp(-f * m[2:])))
    if c > 0.0:
        s += c * _tail_integral(alpha, m_max + 1.0, f)
    return s - 1.0


def renewal_root(weights: np.ndarray, alpha: float) -> RenewalRoot:
    """Solve sum_m A_m e^(-F m) (+ fitted tail) = 1 for F >= 0.

    weights[m] is the m-step excursion weight A_m (index 0 unused).  The
    tail coefficient is fitted on the top octave of m, where the excursion
    weights have settled onto their ~m^-(1+alpha) decay.
    """
    from scipy.optimize import brentq

    a = np.asarray(weights, dtype=float)
    if len(a) < 8:
        raise ValueError("need excursion weights out to m >= 8")
    m = np.arange(len(a), dtype=float)
    m_max = len(a) - 1
    c_fit = 0.0
    window = (m >= m_max // 2) & (m > 0) & (a > 0)
    if window.sum() >= 4:
        c_fit = float(np.mean(a[window] * m[window] ** (1.0 + alpha)))

    def root(c: float, hi: float) -> float:
        args = (c, a, m, alpha, m_max)
        if _renewal_gap(0.0, *args) <= 0.0:
            return 0.0
        while _renewal_gap(hi, *args) > 0.0 and hi < 1e3:
            hi *= 2.0
        return float(brentq(_renewal_gap, 0.0, hi, args=args, xtol=1e-15,
                            rtol=1e-13))

    localized = _renewal_gap(0.0, c_fit, a, m, alpha, m_max) > 0.0
    f_root = root(c_fit, 1.0 / m_max)
    f_lower = root(0.0, max(f_root, 1.0 / m_max)) if c_fit > 0.0 else f_root
    return RenewalRoot(
        f=f_root, f_lower=f_lower, tail_coeff=c_fit,
        partial_sum=float(a.sum()), localized=localized,
    )
