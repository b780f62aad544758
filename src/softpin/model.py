"""Model primitives: potentials, charge laws, the height walk.

The polymer is a nearest-neighbour walk (S_n) on integer heights whose
one-step drift at height x is d(x) = -(alpha - 1/2)/x, the discrete analogue
of a Bessel-process drift; alpha in (0,1) controls the first-return tail
K(n) ~ const * n^(-(1+alpha)).  The walk is rewarded through a potential
profile phi >= 0 and i.i.d. charges omega_n: step n contributes
(beta*omega_n - h) * phi(S_n) to the quenched Hamiltonian.  Averaging the
charges replaces that by the annealed site potential

    psi(x) = log M(beta*phi(x)) - h*phi(x),

with M the charge moment generating function.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .lattice import first_passage, height_law, layout, recommended_truncation

__all__ = [
    "PotentialSpec",
    "ChargeModel",
    "WalkSpec",
    "PhasePoint",
    "CWeights",
    "CStarResult",
    "DivergentSumError",
    "phi_eval",
    "psi",
    "return_law",
    "estimate_c_weights",
    "c_star",
]

POTENTIAL_KINDS = ("pinning", "copolymer", "power_tail", "table")
CHARGE_LAWS = ("gaussian", "bernoulli_pm1")


class DivergentSumError(ValueError):
    """A potential-weighted sum diverges for the given tail exponents."""


@dataclass(frozen=True)
class PotentialSpec:
    """Potential profile phi: Z -> [0, inf).

    kind:
        "pinning"     phi(x) = amplitude * 1{x == 0}
        "copolymer"   phi(x) = amplitude * 1{x <= 0}
        "power_tail"  phi(x) = amplitude * (1 + |x|)^(-theta)
        "table"       explicit finite table, zero outside
    """

    kind: str
    amplitude: float = 1.0
    theta: float = math.inf
    table: dict[int, float] | None = None

    def __post_init__(self):
        if self.kind not in POTENTIAL_KINDS:
            raise ValueError(f"unknown potential kind {self.kind!r}")
        if self.kind == "table":
            if not self.table:
                raise ValueError("table potential needs a nonempty table")
            vals = np.array(list(self.table.values()), dtype=float)
            if not np.all((vals >= 0) & (vals < math.inf)):
                raise ValueError("table values must be finite and nonnegative")
            if not np.any(vals > 0):
                raise ValueError("potential must be positive somewhere")
        else:
            if not 0.0 < self.amplitude < math.inf:
                raise ValueError("amplitude must be positive and finite")
            if self.kind == "power_tail" and not 0.0 < self.theta < math.inf:
                raise ValueError("power_tail needs a finite theta > 0")

    @property
    def symmetric(self) -> bool:
        """True iff phi(-x) == phi(x); steers folded vs signed recursions."""
        if self.kind in ("pinning", "power_tail"):
            return True
        if self.kind == "copolymer":
            return False
        return all(
            v == self.table.get(-x, 0.0) for x, v in self.table.items()
        )

    @property
    def max_support(self) -> int | None:
        """Largest |x| with phi(x) != 0, or None when unbounded."""
        if self.kind == "pinning":
            return 0
        if self.kind == "table":
            return max(abs(x) for x, v in self.table.items() if v > 0)
        return None

    def phi_max(self) -> float:
        if self.kind == "table":
            return max(self.table.values())
        return self.amplitude  # the three analytic kinds peak at/below 0


def phi_eval(spec: PotentialSpec, x) -> np.ndarray | float:
    """Evaluate phi at integer height(s) x."""
    xa = np.asarray(x)
    if spec.kind == "pinning":
        out = np.where(xa == 0, spec.amplitude, 0.0)
    elif spec.kind == "copolymer":
        out = np.where(xa <= 0, spec.amplitude, 0.0)
    elif spec.kind == "power_tail":
        out = spec.amplitude * (1.0 + np.abs(xa)) ** (-spec.theta)
    else:
        lookup = spec.table
        out = np.array(
            [lookup.get(int(v), 0.0) for v in np.atleast_1d(xa)], dtype=float
        ).reshape(xa.shape)
    if np.ndim(x) == 0:
        return float(out)
    return np.asarray(out, dtype=float)


@dataclass(frozen=True)
class ChargeModel:
    """Mean-zero, unit-variance i.i.d. charge law with finite exponential
    moments; exposes the log moment generating function."""

    law: str = "gaussian"

    def __post_init__(self):
        if self.law not in CHARGE_LAWS:
            raise ValueError(f"unknown charge law {self.law!r}")

    def cumulant(self, t):
        """log M(t) = log E[exp(t * omega)]."""
        t = np.asarray(t, dtype=float)
        if self.law == "gaussian":
            out = 0.5 * t * t
        else:
            # log cosh(t), written to survive large |t|
            a = np.abs(t)
            out = a + np.log1p(np.exp(-2.0 * a)) - math.log(2.0)
        return out if out.ndim else float(out)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.law == "gaussian":
            return rng.standard_normal(size)
        return rng.integers(0, 2, size=size) * 2.0 - 1.0


@dataclass(frozen=True)
class WalkSpec:
    """Height walk with drift d(x) = -(alpha - 1/2)/x for |x| >= 1, d(0) = 0.

    epsilon_corr > 0 perturbs the drift to
    d(x) = -(alpha - 1/2) / (x * (1 + |x|^(-epsilon_corr))), an antisymmetric
    O(|x|^-(1+eps)) correction that leaves the return-law tail exponent
    untouched; 0 keeps the pure leading form.  l_max, when set, fixes the
    truncation height used by kernels built from this walk; None defers to
    the 4*sqrt(horizon) policy.
    """

    alpha: float
    epsilon_corr: float = 0.0
    l_max: int | None = None

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in the open interval (0, 1)")
        if self.epsilon_corr < 0:
            raise ValueError("epsilon_corr must be >= 0")
        if self.l_max is not None and self.l_max < 1:
            raise ValueError("l_max must be a positive integer")

    def drift(self, x) -> np.ndarray:
        """Vectorized d(x); |d| <= |alpha - 1/2| < 1/2 everywhere."""
        xa = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            base = np.where(xa != 0.0, -(self.alpha - 0.5) / xa, 0.0)
            if self.epsilon_corr > 0.0:
                damp = 1.0 + np.where(
                    xa != 0.0, np.abs(xa) ** (-self.epsilon_corr), 1.0
                )
                base = base / damp
        return base

    def resolve_l(self, horizon: int) -> int:
        return self.l_max if self.l_max is not None else recommended_truncation(horizon)


@dataclass(frozen=True)
class PhasePoint:
    """Inverse temperature / bias pair (beta, h); h may have either sign."""

    beta: float
    h: float

    def __post_init__(self):
        if self.beta < 0:
            raise ValueError("beta must be >= 0")


def psi(charges: ChargeModel, spec: PotentialSpec, beta: float, h: float, x):
    """Annealed site potential psi(x) = log M(beta*phi(x)) - h*phi(x);
    beta and h may be arrays that broadcast against x."""
    if not (np.isfinite(beta).all() and np.isfinite(h).all()):
        raise ValueError("beta and h must be finite")
    if np.min(beta) < 0:
        raise ValueError("beta must be >= 0")
    p = np.asarray(phi_eval(spec, x), dtype=float)
    # an overflowed weight is +inf, which its callers read as divergence
    with np.errstate(over="ignore"):
        out = np.asarray(charges.cumulant(beta * p)) - h * p
    if np.ndim(x) == 0:
        return float(out)
    return out


def return_law(walk: WalkSpec, n_max: int) -> np.ndarray:
    """First-return law K[n] = P(min{m >= 1 : S_m = 0} = n), n = 0..n_max.

    Exact first-passage recursion of |S| with absorption at the origin.
    K[n] = 0 for odd n (period 2).  Warns when the missing mass
    1 - sum(K) exceeds ~10 * n_max^(-alpha), several times the genuine
    first-return tail; more than that indicates a truncation artefact.
    """
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    ker = layout(walk, None, n_max)
    k_arr, _, _ = first_passage(ker, np.zeros(len(ker.heights)), 0.0, n_max,
                                math.inf)
    missing = 1.0 - k_arr.sum()
    if missing > 10.0 * n_max ** (-walk.alpha):
        warnings.warn(
            f"first-return mass short by {missing:.3g}, above the "
            f"documented ~n^-alpha tail scale", stacklevel=2,
        )
    return k_arr


@dataclass(frozen=True)
class CWeights:
    """Local-limit weights c(k) with the walk exponent they belong to.

    c(k) is the limit of n^(1-alpha) * P(|S_n| = k) / 2 along steps of
    matching parity; c(0) carries an extra factor 1/2 relative to the
    k -> infinity asymptote because |S_n| = 0 has no +-k folding.
    """

    alpha: float
    values: np.ndarray
    n_probe: int

    def __getitem__(self, k: int) -> float:
        return float(self.values[k])

    @property
    def k_max(self) -> int:
        return len(self.values) - 1


def estimate_c_weights(walk: WalkSpec, k_max: int, n_probe: int) -> CWeights:
    """Estimate c(k), k = 0..k_max, from the height distribution at n_probe.

    Uses probes at n_probe and n_probe + 1 so both parities are covered.
    Requires k_max well inside the diffusive window (k_max <= sqrt(n_probe)).
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    if n_probe < 4:
        raise ValueError("n_probe must be >= 4")
    if k_max > math.sqrt(n_probe):
        warnings.warn(
            "k_max beyond sqrt(n_probe); weights there are outside the "
            "local-limit window", stacklevel=2,
        )
    ker = layout(replace(walk, l_max=max(walk.resolve_l(n_probe + 1),
                                         k_max + 2)), None, n_probe)
    v = height_law(ker, n_probe)
    v_next = ker.step(v)
    vals = np.empty(k_max + 1)
    for k in range(k_max + 1):
        dist, n = (v, n_probe) if (n_probe - k) % 2 == 0 else (v_next, n_probe + 1)
        vals[k] = n ** (1.0 - walk.alpha) * dist[k] / 2.0
    return CWeights(alpha=walk.alpha, values=vals, n_probe=n_probe)


@dataclass(frozen=True)
class CStarResult:
    """Potential-weighted sum over heights with a truncation-tail bound."""

    value: float
    tail_bound: float

    def __float__(self) -> float:
        return self.value


# asymptotic constant in c(k) ~ (2^alpha / Gamma(1-alpha)) * k^(1-2*alpha)
def _c_asymp_const(alpha: float) -> float:
    return 2.0 ** alpha / math.gamma(1.0 - alpha)


def c_star(spec: PotentialSpec, weights: CWeights, power: int = 1) -> CStarResult:
    """Height sum of phi(x)^power against the parity-averaged site constants.

    Each signed site x != 0 carries half the folded-height constant c(|x|)
    (the parity-averaged limit of n^(1-alpha) P(S_n = x), since |S_n| = |x|
    collects both arms); the origin carries c(0) itself.  This is the
    normalization under which

        sum_{n <= N} E[phi(S_n)^power] ~ cstar[phi^power] * N^alpha / alpha,

    which is the combination entering every weak-coupling constant, and it
    is what the lattice expansion coefficients are measured to converge to
    (a both-arms sum overshoots them whenever the potential charges any
    off-origin site).

    Finiteness needs the potential tail to beat the growth of c(k):
    power=1 requires theta > 2*(1-alpha), power=2 requires theta > 1-alpha.
    The sum is truncated at the k_max of ``weights``; for power-tail
    potentials the remainder is bounded via the c(k) asymptote and reported
    in ``tail_bound``.
    """
    if power not in (1, 2):
        raise ValueError("power must be 1 or 2")
    alpha = weights.alpha
    if spec.kind == "copolymer":
        raise DivergentSumError(
            "copolymer potential has a non-decaying arm; the weighted sum diverges"
        )
    if spec.kind == "power_tail" and not spec.theta * power > 2.0 * (1.0 - alpha):
        raise DivergentSumError(
            f"needs theta > {2.0 * (1.0 - alpha) / power:g} at power={power}"
        )
    support = spec.max_support
    if support is not None and support > weights.k_max:
        raise ValueError("weights truncated inside the potential support")
    k_hi = weights.k_max if support is None else support
    ks = np.arange(1, k_hi + 1)
    phi_pos = phi_eval(spec, ks) ** power
    phi_neg = phi_eval(spec, -ks) ** power
    value = float(phi_eval(spec, 0) ** power * weights.values[0])
    if k_hi >= 1:
        value += 0.5 * float(np.dot(phi_pos + phi_neg, weights.values[1 : k_hi + 1]))
    tail = 0.0
    if spec.kind == "power_tail":
        # sum_{k > k_max} of both arms at amp^p (1+k)^(-p*theta) * c_asymp * k^(1-2a) / 2
        p_t = power * spec.theta
        expo = p_t + 2.0 * alpha - 2.0  # > 0 by the precondition
        tail = (
            spec.amplitude ** power
            * _c_asymp_const(alpha)
            * weights.k_max ** (-expo)
            / expo
        )
    return CStarResult(value=value, tail_bound=tail)
