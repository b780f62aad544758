"""Excursion-sum localization criterion and critical curves.

The annealed model localizes (positive free energy) exactly when the
excursion sum

    N = sum_m E[ exp(sum_{n=1}^{m} psi(S_n)) ; first return to 0 at m ]

exceeds 1.  The sum is evaluated by a weighted first-passage recursion;
truncation at m_max leaves a tail which is handled two ways:

- rigorous bound whenever psi <= 0 away from the origin (the excursion
  interior never collects positive weight) and the lattice is at least
  ``recommended_truncation(m_max)`` high, and no finite bound otherwise;
- fitted power-law point estimate (for root finding, not certification).

Verdicts use the bounds; bisections for critical curves use the point
estimate, since near the critical height the rigorous verdict is
``undetermined`` in a band of width ~m_max^(-alpha) by construction.

A tempering parameter kappa rescales the phase point to (kappa*beta,
kappa*h) *before* the charge law is averaged; by construction the
tempered sum equals the plain sum at the rescaled phase point.  At
kappa = 1/(1+alpha) a tempered sum below 1 certifies that the *quenched*
free energy vanishes, which is where the rescaled lower critical curve
comes from.  Comparing against threshold 1/r instead of 1 reproduces the
criterion for a transient-walk variant whose return law is r times ours.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import first_passage, layout, recommended_truncation
from .model import ChargeModel, PotentialSpec, WalkSpec, psi, return_law
from .transfer import _quenched_estimates, quenched_free_energy

__all__ = [
    "ExcursionWeights",
    "CriterionValue",
    "CriticalBracket",
    "excursion_weights",
    "excursion_sum",
    "transient_criterion",
    "annealed_critical_curve",
    "annealed_critical_h",
    "quenched_critical_h",
]

DIVERGENCE_CAP = 1e12


@dataclass(frozen=True)
class ExcursionWeights:
    """Per-length excursion weights A_m for the tempered phase point."""

    m_values: np.ndarray
    a: np.ndarray
    psi0: float
    psi_plus_off_origin: float
    alpha: float
    diverged: bool
    m_stop: int

    @property
    def m_max(self) -> int:
        return len(self.a) - 1


def excursion_weights(walk: WalkSpec, spec: PotentialSpec, charges: ChargeModel,
                      beta: float, h: float, m_max: int,
                      kappa: float = 1.0) -> ExcursionWeights:
    """First-passage recursion for the excursion weights A_m, m <= m_max.

    A_m multiplies the first-return probability by the exponential weight
    collected at the tempered phase point (kappa*beta, kappa*h); interior
    sites never include the origin, whose weight enters once at the return
    step.  Where the weights could overflow, the recursion runs in logs and
    is exact at any coupling.  It stops (diverged=True) once the partial sum
    passes the cap or overflows; a[m_stop] may then be inf.
    """
    if kappa <= 0.0:
        raise ValueError("kappa must be positive")
    return _excursion_rows(walk, spec, charges, [kappa * beta], [kappa * h],
                           m_max)[0]


def _excursion_rows(walk, spec, charges, beta, h,
                    m_max: int) -> list[ExcursionWeights]:
    """``excursion_weights`` at each phase point (beta[i], h[i]), as rows
    of one recursion."""
    if m_max < 4:
        raise ValueError("m_max must be >= 4")
    ker = layout(walk, spec, m_max)
    psi_x = psi(charges, spec, np.asarray(beta, dtype=float)[:, None],
                np.asarray(h, dtype=float)[:, None], ker.heights)
    psi0 = psi_x[:, ker.origin].tolist()
    psi_x[:, ker.origin] = -math.inf  # killed at the origin: weight never used
    a, diverged, m_stop = first_passage(ker, psi_x, psi0, m_max,
                                        DIVERGENCE_CAP)
    m_values = np.arange(m_max + 1)
    return [ExcursionWeights(m_values, a[i], psi0[i],
                             max(0.0, float(psi_x[i].max())), walk.alpha,
                             bool(diverged[i]), int(m_stop[i]))
            for i in range(len(psi0))]


@dataclass(frozen=True)
class CriterionValue:
    """Excursion-sum value with truncation-tail accounting.

    verdict: "yes" (sum > threshold, certified by the partial sum alone),
    "no" (partial + tail bound <= threshold), or "undetermined".
    ``estimate`` completes the partial sum with a fitted power-law tail;
    it drives bisections but certifies nothing.
    """

    value: float
    tail_bound: float
    estimate: float
    verdict: str
    threshold: float
    kappa: float
    m_max: int
    diverged: bool

    @property
    def localized(self) -> bool | None:
        if self.verdict == "yes":
            return True
        if self.verdict == "no":
            return False
        return None


# slack added to the rigorous tail branch: the reflecting truncation biases
# the computed return mass upward by less than this for L >= 4*sqrt(m_max),
# the only lattices ``excursion_sum`` bounds a tail on (by 1e-12 at most:
# test_wall_bias_on_the_return_mass_is_far_below_the_slack)
TAIL_MASS_SLACK = 1e-6


def _tail_bound(ew: ExcursionWeights, k_partial: float) -> float:
    """Rigorous bound on the sum past m_max when psi <= 0 off the origin:
    each longer excursion weighs at most exp(psi0^+), times the missing
    return mass.  Otherwise inf.  A sum over an extrapolated tail is no
    substitute: it is finite only once its last term is below 1e-12 of the
    total, which needs m_max > ~3e7, and weights that underflow make it
    certify "no" where the exact sum is e^25208.
    """
    if ew.psi_plus_off_origin > 0.0:
        return math.inf
    k_tail = max(0.0, 1.0 - k_partial) + TAIL_MASS_SLACK
    try:
        return math.exp(max(0.0, ew.psi0)) * k_tail
    except OverflowError:  # past the largest float
        return math.inf


def _estimate(ew: ExcursionWeights) -> float:
    """Partial sum completed with a fitted power-law tail; inf once the
    recursion diverged."""
    if ew.diverged:
        return math.inf
    partial = float(ew.a.sum())
    alpha = ew.alpha
    m_max = ew.m_max
    ms = np.arange(m_max // 2, m_max + 1, dtype=float)
    window = ew.a[m_max // 2 :]
    pos = window > 0
    if not np.any(pos):
        return partial
    mf = ms[pos]
    y = window[pos] * mf ** (1.0 + alpha)
    if len(mf) < 8:
        # too short to fit curvature: flat fit over the full window, parity
        # zeros included so the constant pairs with an integral over all m
        c_fit = float(np.mean(window * ms ** (1.0 + alpha)))
        return partial + max(0.0, c_fit * (m_max + 1.0) ** (-alpha) / alpha)
    # two-term fit y ~ c + d m^(-delta) on the supported lengths; the
    # leading finite-length correction to the return law decays with
    # exponent min(1, 2 alpha)
    delta = min(1.0, 2.0 * alpha)
    design = np.vstack([np.ones_like(mf), mf**-delta]).T
    (c_fit, d_fit), *_ = np.linalg.lstsq(design, y, rcond=None)
    m0 = m_max + 1.0
    tail = 0.5 * (
        c_fit * m0**-alpha / alpha
        + d_fit * m0 ** -(alpha + delta) / (alpha + delta)
    )
    return partial + max(0.0, float(tail))


def excursion_sum(walk, spec, charges, beta, h, m_max: int = 4096,
                  kappa: float = 1.0,
                  threshold: float = 1.0) -> CriterionValue:
    """Evaluate the localization sum against ``threshold`` (default 1).

    On a lattice below ``recommended_truncation(m_max)`` the missing return
    mass is the reflected walk's, not the paper walk's: there is no tail
    bound, so no "no", and "yes" comes from the exact prefix only, the
    terms a[m] with m < 2L that no excursion reaching the wall at L enters.
    """
    ew = excursion_weights(walk, spec, charges, beta, h, m_max, kappa=kappa)
    partial = float(ew.a.sum())
    l = walk.resolve_l(m_max)
    wide = l >= recommended_truncation(m_max)
    tail = math.inf if ew.diverged or not wide else _tail_bound(
        ew, float(return_law(walk, m_max).sum()))
    n_exact = m_max + 1 if wide else 2 * l  # the a[m] a "yes" may rest on
    if (ew.diverged and ew.m_stop < n_exact
            or float(ew.a[:n_exact].sum()) > threshold):
        verdict = "yes"
    elif partial + tail <= threshold:
        verdict = "no"
    else:
        verdict = "undetermined"
    return CriterionValue(
        value=partial, tail_bound=tail, estimate=_estimate(ew),
        verdict=verdict, threshold=threshold, kappa=kappa, m_max=m_max,
        diverged=ew.diverged,
    )


def transient_criterion(walk, spec, charges, beta, h, r: float,
                        m_max: int = 4096,
                        kappa: float = 1.0) -> CriterionValue:
    """Localization criterion for the transient-walk variant.

    A transient walk whose first-return law integrates to r < 1 is, after
    normalization, our recurrent walk with the localization threshold moved
    from 1 to 1/r (the lost mass acts as a constant depinning penalty).
    """
    if not 0.0 < r <= 1.0:
        raise ValueError("the return mass r must lie in (0, 1]")
    return excursion_sum(walk, spec, charges, beta, h, m_max=m_max,
                         kappa=kappa, threshold=1.0 / r)


# ---------------------------------------------------------- critical curves

@dataclass(frozen=True)
class CriticalBracket:
    """Bisection bracket [lo, hi] for a critical height."""

    beta: float
    lo: float
    hi: float
    kappa: float = 1.0
    confidence: float = 1.0  # nominal; < 1 when the predicate is sampled

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)


def _upper_start(charges: ChargeModel, spec: PotentialSpec,
                 beta: float) -> float:
    """Smallest h with psi <= 0 everywhere: a sure 'no'."""
    phi_max = spec.phi_max()
    if beta == 0.0:
        return 0.25
    with np.errstate(over="ignore"):
        top = float(charges.cumulant(beta * phi_max) / phi_max) + 0.05
    if top == math.inf:
        raise FloatingPointError(
            f"the charge cumulant overflows at beta = {beta!r}")
    return top


def _bisect(lo: float, hi: float, tol: float):
    """Search halving [lo, hi] to width tol (or to adjacent floats): yields
    each midpoint, is sent whether the predicate holds there (moving lo)."""
    if not tol > 0:  # a NaN tol would end the search at [lo, hi]
        raise ValueError("tol must be positive")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if (yield mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def _annealed_search(charges, spec, beta: float, tol: float):
    """Search for the critical height at beta: yields heights, is sent
    whether the sum is localized at each, returns (lo, hi)."""
    hi = _upper_start(charges, spec, beta)
    if (yield hi):  # should not happen; widen defensively
        for _ in range(60):
            hi *= 2.0
            if not (yield hi):
                break
        else:
            raise RuntimeError("no delocalized height found")
    lo, step = 0.0, max(tol, 0.05)
    while not (yield lo):
        if lo <= -4.0:
            raise RuntimeError("no localized height found down to h = -4")
        lo -= step
        step *= 2.0
    return (yield from _bisect(lo, hi, tol))


def _lockstep(searches, verdicts) -> list:
    """Run searches side by side and return their results; verdicts(jobs)
    answers one round's (search index, height) pairs, one per open search."""
    results = [None] * len(searches)
    sent = dict.fromkeys(range(len(searches)))  # None starts a search
    while sent:
        jobs = []
        for i, verdict in sent.items():
            try:
                jobs.append((i, searches[i].send(verdict)))
            except StopIteration as done:
                results[i] = done.value
        sent = dict(zip([i for i, _ in jobs], verdicts(jobs) if jobs else ()))
    return results


def annealed_critical_curve(walk, spec, charges, betas, bound_betas=(),
                            tol: float = 1e-3, m_max: int = 4096):
    """Annealed critical-height brackets at each of betas and rescaled
    lower bounds (1+alpha) * h_c^ann(beta/(1+alpha)) at each of
    bound_betas, in grid order.

    Each search bisects the tail-completed point estimate of the excursion
    sum to resolution tol: an estimate, not a certification (rigorous
    verdicts blur into an ``undetermined`` band of width ~m_max^(-alpha)).
    A round evaluates one height per open search, as rows of one recursion.
    """
    s = 1.0 + walk.alpha
    # (beta, tol) of each search; the lower bounds come last
    jobs = [(b, tol) for b in betas] + [(b / s, tol / s) for b in bound_betas]

    def localized(pending):  # the estimate is at least the partial sum
        rows = _excursion_rows(walk, spec, charges,
                               [jobs[i][0] for i, _ in pending],
                               [h for _, h in pending], m_max)
        return [float(ew.a.sum()) > 1.0 or _estimate(ew) > 1.0 for ew in rows]

    found = _lockstep([_annealed_search(charges, spec, *job) for job in jobs],
                      localized)
    brackets = [CriticalBracket(beta=b, lo=lo, hi=hi)
                for b, (lo, hi) in zip(betas, found)]
    bounds = [CriticalBracket(beta=b, lo=s * lo, hi=s * hi)
              for b, (lo, hi) in zip(bound_betas, found[len(betas):])]
    return brackets, bounds


def annealed_critical_h(walk, spec, charges, beta: float, tol: float = 1e-3,
                        m_max: int = 4096) -> CriticalBracket:
    """Bracket the critical height of the excursion criterion at one beta;
    see ``annealed_critical_curve``."""
    return annealed_critical_curve(walk, spec, charges, [beta], tol=tol,
                                   m_max=m_max)[0][0]


def quenched_critical_h(walk, spec, charges, beta: float, n_max: int = 4096,
                        n_samples: int = 200, seed: int = 0,
                        tol: float = 5e-3,
                        detect: float = 3.0) -> CriticalBracket:
    """Monte Carlo confidence band for the quenched critical height.

    The transition is located through the sign of the disorder-averaged
    constrained free energy at scale n_max: the lower edge is the largest
    height where the sample mean clears detect standard errors above zero,
    the upper edge the smallest height where it falls the same margin below
    zero.  Reusing one seed across heights makes the sampled profile smooth
    in h, so each edge is bisected to resolution tol; the band still carries
    the O(log(n_max)/n_max) downward drift of the finite-size crossing.
    Each height is evaluated once, though the second edge's search may
    revisit heights of the first's; the opening pair, 0 and the upper
    start, runs as rows of one sweep.
    """
    def sign(est) -> int:
        """The mean's sign, 0 within detect standard errors of 0."""
        margin = detect * est.sem
        return (est.f_constrained > margin) - (est.f_constrained < -margin)

    top = _upper_start(charges, spec, beta)
    signs = dict(zip((0.0, top), map(sign, _quenched_estimates(
        walk, spec, charges, beta, [0.0, top], n_max, n_samples, seed))))

    def side(h: float) -> int:
        if h not in signs:
            signs[h] = sign(quenched_free_energy(
                walk, spec, charges, beta, h, n_max=n_max,
                n_samples=n_samples, seed=seed))
        return signs[h]

    if side(0.0) != 1:
        return CriticalBracket(beta=beta, lo=0.0, hi=0.0, confidence=0.0)
    for _ in range(60):
        if side(top) == -1:
            break
        top *= 2.0
    else:
        raise RuntimeError("no delocalized height found")

    (band_lo, _), = _lockstep([_bisect(0.0, top, tol)], lambda jobs: [
        side(h) == 1 for _, h in jobs])
    (_, band_hi), = _lockstep([_bisect(band_lo, top, tol)], lambda jobs: [
        side(h) != -1 for _, h in jobs])
    conf = math.erf(detect / math.sqrt(2.0))
    return CriticalBracket(beta=beta, lo=band_lo, hi=band_hi, confidence=conf)

