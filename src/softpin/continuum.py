"""Bessel-process machinery: densities, local time, and continuum free energies.

The scaling limit of the reflected walk is the Bessel-like diffusion with
generator (1/2)d²/dx² - ((alpha - 1/2)/x) d/dx reflected at 0.  Started at
the origin its marginal density has the closed form

    g_t(0,y) = (2^alpha / Gamma(1-alpha)) y^(1-2 alpha) t^(alpha-1) e^(-y^2/2t)

and away from the origin it involves the modified Bessel function I of
(negative, fractional) order -alpha — modified, not ordinary: only the
all-positive-terms kernel is a probability density (at alpha = 1/2 it
reduces to the cosh of the reflected-Brownian kernel).  Its logarithm
comes from scipy.special's exponentially scaled ``ive``, which stays finite
where I itself overflows.

The weak-coupling limits of the lattice free energy are expressed through
three functionals of this process:

- heavy potential tails: (1/2) bhat^2 c^2 Int X^(-2 theta)
                          - hhat c Int X^(-theta);
- intermediate tails:    (1/2) bhat^2 cstar[phi^2] L_T(0)
                          - hhat c Int X^(-theta);
- light tails:           ((1/2) bhat^2 cstar[phi^2] - hhat cstar[phi]) L_T(0),

where L_T(0) is the local time at the origin normalized so that its mean
is T^alpha / alpha.  In the light-tail regime the limit is explicit:
Fhat = (Gamma(alpha) max(0, Delta))^(1/alpha); the first two regimes get a
Feynman-Kac Monte Carlo estimator instead.

A note on the k-th coefficient of the light-tail expansion: two closed
forms circulate for its denominator, Gamma(alpha k) and
Gamma(alpha k + 1).  The Dirichlet integral over the ordered simplex gives

    Int_{0<t_1<...<t_k<T} prod (t_l - t_{l-1})^(alpha-1) dt
        = T^(alpha k) Gamma(alpha)^k / Gamma(alpha k + 1),

so the `+1` form is exact at k = 1 and is what the brute-force quadrature
reproduces at k <= 4; this module exports it as canonical and always
reports both (see ``coefficient_candidates``).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.optimize import brentq
from scipy.special import gammainc, gammaln, ive, logsumexp

__all__ = [
    "ContinuumParams",
    "ContinuumPhasePoint",
    "classify_regime",
    "scaling_exponents",
    "log_bessel_i",
    "bessel_density",
    "sharp_constant",
    "local_time_mean",
    "simplex_weight_integral",
    "CoefficientCandidates",
    "coefficient_candidates",
    "continuum_free_energy_short",
    "critical_exponent",
    "continuum_critical_curve",
    "ztilde_log",
    "ztilde_growth_rate",
    "McEstimate",
    "continuum_free_energy_mc",
]

def classify_regime(alpha: float, theta: float) -> str:
    """Tail regime of the potential relative to the walk exponent.

    The crossover values theta = 1 - alpha and theta = 2(1 - alpha) separate
    genuinely different scaling limits and are rejected.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if theta <= 0.0:
        raise ValueError("theta must be positive")
    lo, hi = 1.0 - alpha, 2.0 * (1.0 - alpha)
    if abs(theta - lo) < 1e-12 or abs(theta - hi) < 1e-12:
        raise ValueError(f"theta = {theta} sits at a regime crossover")
    if theta < lo:
        return "long_range"
    if theta < hi:
        return "intermediate"
    return "short_range"


@dataclass(frozen=True)
class ContinuumParams:
    """Walk exponent, potential tail exponent, and tail constant."""

    alpha: float
    theta: float
    c_tail: float = 1.0

    def __post_init__(self):
        classify_regime(self.alpha, self.theta)  # validates alpha and theta
        if self.c_tail <= 0.0:
            raise ValueError("c_tail must be positive")

    @property
    def regime(self) -> str:
        return classify_regime(self.alpha, self.theta)


def scaling_exponents(params: ContinuumParams) -> tuple[float, float]:
    """Decay-exponent pair (A, B) of the coupling schedule
    beta_N = beta_hat N^-A, h_N = h_hat N^-B for this regime:

        long_range     (A, B) = ((1-theta)/2, (2-theta)/2)
        intermediate   (A, B) = (alpha/2,     (2-theta)/2)
        short_range    (A, B) = (alpha/2,     alpha)
    """
    alpha, theta = params.alpha, params.theta
    regime = params.regime
    if regime == "long_range":
        return (1.0 - theta) / 2.0, (2.0 - theta) / 2.0
    if regime == "intermediate":
        return alpha / 2.0, (2.0 - theta) / 2.0
    return alpha / 2.0, alpha


@dataclass(frozen=True)
class ContinuumPhasePoint:
    beta_hat: float
    h_hat: float

    def __post_init__(self):
        if self.beta_hat <= 0.0 or self.h_hat <= 0.0:
            raise ValueError("beta_hat and h_hat must be strictly positive")


# ------------------------------------------------------------ Bessel I

def _check_bessel_args(alpha: float, z: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if z <= 0.0:
        raise ValueError("argument must be positive (the z -> 0 limit diverges)")


def log_bessel_i(alpha: float, z: float) -> float:
    """log I_{-alpha}(z) for 0 < alpha < 1, z > 0; overflow-safe."""
    _check_bessel_args(alpha, z)
    # ive is the e^-z-scaled I, finite where I itself overflows
    return math.log(ive(-alpha, z)) + z


# ------------------------------------------------------------- densities

def bessel_density(alpha: float, t: float, x: float, y: float) -> float:
    """Transition density g_t(x, y) of the reflected Bessel-like diffusion.

    Both arguments live on [0, infinity); the x = 0 (or y = 0) boundary
    uses the origin closed form, which is also the z -> 0 limit of the
    Bessel-function expression.
    """
    if t <= 0.0:
        raise ValueError("t must be positive")
    if x < 0.0 or y < 0.0:
        raise ValueError("x and y must be nonnegative")
    if x == 0.0 or y == 0.0:
        r = max(x, y)
        gauss = math.exp(-r * r / (2.0 * t))
        expo = 1.0 - 2.0 * alpha
        if r == 0.0:
            power = math.inf if expo < 0 else (1.0 if expo == 0 else 0.0)
        else:
            power = r**expo
        return (2.0**alpha / math.gamma(1.0 - alpha)) * power * t ** (alpha - 1.0) * gauss
    # combine the Gaussian factor with log I to stay finite at large xy/t,
    # where the two pieces cancel down to exp(-(x-y)^2/2t)
    log_val = (
        alpha * math.log(x)
        + (1.0 - alpha) * math.log(y)
        - math.log(t)
        - (x * x + y * y) / (2.0 * t)
        + log_bessel_i(alpha, x * y / t)
    )
    return math.exp(log_val)


def sharp_constant(alpha: float) -> float:
    """Normalizer relating small-ball probabilities to the sharp kernel
    t^(alpha-1) e^(-x^2/2t): Gamma(2 - alpha) / 2^(alpha - 1)."""
    return math.gamma(2.0 - alpha) / 2.0 ** (alpha - 1.0)


def local_time_mean(alpha: float, T: float) -> float:
    """Mean of the origin local time: T^alpha / alpha."""
    if T < 0.0:
        raise ValueError("T must be nonnegative")
    return T**alpha / alpha


# ------------------------------------------------ simplex weight integrals

def _simplex_level(alpha: float, T: float, t_prev: np.ndarray, depth: int,
                   nodes: np.ndarray, weights: np.ndarray) -> np.ndarray:
    # integral over t in (t_prev, T) of (t - t_prev)^(alpha-1) * next level;
    # substituting t = t_prev + u^(1/alpha) (T - t_prev) flattens the
    # integrable singularity, so plain Gauss-Legendre converges fast
    gap = (T - t_prev) ** alpha / alpha
    if depth == 1:
        return gap
    t_next = t_prev[..., None] + nodes ** (1.0 / alpha) * (T - t_prev)[..., None]
    inner = _simplex_level(alpha, T, t_next, depth - 1, nodes, weights)
    return gap * (inner @ weights)


def simplex_weight_integral(alpha: float, T: float, k: int) -> float:
    """Brute-force value of the ordered-simplex weight integral

        Int_{0<t_1<...<t_k<T} prod_{l=1}^{k} (t_l - t_{l-1})^(alpha-1) dt,

    the k-th moment kernel of the local-time expansion, by nested 64-node
    Gauss-Legendre rules.  Cost grows like 64^(k-1); supported for k <= 4.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if T <= 0.0:
        raise ValueError("T must be positive")
    if not 1 <= k <= 4:
        raise ValueError("brute-force simplex integration supports 1 <= k <= 4")
    x, w = leggauss(64)
    nodes = 0.5 * (x + 1.0)  # map to (0, 1)
    weights = 0.5 * w
    return float(_simplex_level(alpha, T, np.array(0.0), k, nodes, weights))


@dataclass(frozen=True)
class CoefficientCandidates:
    """Both closed forms of the k-th light-tail expansion coefficient.

    ``gamma_ak`` divides by Gamma(alpha k), ``gamma_ak_plus1`` by
    Gamma(alpha k + 1); they differ by the factor alpha k.  The brute-force
    simplex value (k <= 4, else None) settles which one the integral
    actually equals; ``canonical`` repeats the winner, the `+1` form.
    """

    k: int
    delta: float
    gamma_ak: float
    gamma_ak_plus1: float
    brute_force: float | None

    @property
    def canonical(self) -> float:
        return self.gamma_ak_plus1


def coefficient_candidates(params: ContinuumParams, cp: ContinuumPhasePoint,
                           cstar_phi: float, cstar_phi2: float, T: float,
                           k: int) -> CoefficientCandidates:
    """Light-tail expansion coefficient C_{T,k} = Delta^k * (simplex integral)."""
    if params.regime != "short_range":
        raise ValueError("closed-form coefficients require the short_range regime")
    if k < 1:
        raise ValueError("k must be a positive integer")
    alpha = params.alpha
    delta = 0.5 * cp.beta_hat**2 * cstar_phi2 - cp.h_hat * cstar_phi
    log_core = k * (alpha * math.log(T) + gammaln(alpha))
    base = delta**k
    gamma_ak = base * math.exp(log_core - gammaln(alpha * k))
    gamma_ak_plus1 = base * math.exp(log_core - gammaln(alpha * k + 1.0))
    brute = None
    if k <= 4:
        brute = base * simplex_weight_integral(alpha, T, k)
    return CoefficientCandidates(
        k=k, delta=delta, gamma_ak=gamma_ak,
        gamma_ak_plus1=gamma_ak_plus1, brute_force=brute,
    )


# -------------------------------------------------- free energy, light tail

def continuum_free_energy_short(params: ContinuumParams, cp: ContinuumPhasePoint,
                                cstar_phi: float, cstar_phi2: float) -> float:
    """Explicit light-tail free energy (Gamma(alpha) max(0, Delta))^(1/alpha)."""
    if params.regime != "short_range":
        raise ValueError("closed form valid only in the short_range regime")
    delta = 0.5 * cp.beta_hat**2 * cstar_phi2 - cp.h_hat * cstar_phi
    if delta <= 0.0:
        return 0.0
    return (math.gamma(params.alpha) * delta) ** (1.0 / params.alpha)


def critical_exponent(alpha: float, theta: float) -> float:
    """Power E = B / A in the continuum critical curve hhat_c = C bhat^E,
    with (A, B) the regime's coupling-schedule exponents."""
    a, b = scaling_exponents(ContinuumParams(alpha, theta))
    return b / a


def continuum_critical_curve(params: ContinuumParams, cstar_phi: float,
                             cstar_phi2: float, beta_hat: float,
                             T: float = 32.0, dt: float | None = None,
                             n_paths: int = 400, seed: int = 0) -> float:
    """Critical height of the continuum model: C * beta_hat^E.

    In the short_range regime the prefactor is the closed form
    cstar[phi^2] / (2 cstar[phi]).  In the other regimes C solves
    Fhat(1, C) = 0 and is located by root-solving the Monte Carlo
    estimator under common random numbers (wide error bars expected).
    """
    e = critical_exponent(params.alpha, params.theta)
    if params.regime == "short_range":
        return cstar_phi2 / (2.0 * cstar_phi) * beta_hat**e
    cfac = _mc_critical_prefactor(
        params, cstar_phi2, T=T, dt=dt, n_paths=n_paths, seed=seed
    )
    return cfac * beta_hat**e


def _mc_critical_prefactor(params: ContinuumParams, cstar_phi2: float, T: float,
                           dt: float | None, n_paths: int, seed: int) -> float:
    # one set of seeded paths, weighed at every trial h (no bootstrap: the
    # root search never reads a standard error)
    dt, eps, paths = _mc_paths(params, T, dt, n_paths, seed, None)
    args = (params, T, dt, eps, paths, cstar_phi2)
    lo, hi = 1e-3, 1.0
    f_lo = _mc_free_energy_at(lo, *args)
    f_hi = _mc_free_energy_at(hi, *args)
    for _ in range(12):
        if f_hi < 0.0:
            break
        hi *= 2.0
        f_hi = _mc_free_energy_at(hi, *args)
    if f_lo <= 0.0 or f_hi >= 0.0:
        raise RuntimeError(
            f"critical-prefactor root not bracketed: f({lo}) = {f_lo}, "
            f"f({hi}) = {f_hi}"
        )
    return float(brentq(_mc_free_energy_at, lo, hi, args=args, xtol=1e-3))


def _mc_free_energy_at(h: float, params: ContinuumParams, T: float, dt: float,
                       eps: float, paths, cstar_phi2: float) -> float:
    """The Monte Carlo free energy of fixed paths at (beta_hat, h_hat) =
    (1, h), with no bootstrap.  Module level, and handed the paths through
    brentq's ``args``: brentq wraps its function in a self-referencing
    closure, and a closure over the paths would keep them alive until the
    cyclic collector runs."""
    exponents = _mc_exponents(params, ContinuumPhasePoint(1.0, h), T, dt, eps,
                              paths, cstar_phi2)
    return _log_mean_exp(exponents, T)[0]


# ---------------------------------------------------------- series growth

# at and beyond this y = (mu Gamma(alpha))^(1/alpha) T the moment series is
# its asymptote to double precision (their gap is ~e^-y); the term-by-term
# sum would need ~y / alpha terms there
ZTILDE_ASYMPTOTE_Y = 40.0


def ztilde_log(mu: float, alpha: float, T: float) -> float:
    """log of the local-time moment series
    1 + sum_k (mu T^alpha Gamma(alpha))^k / Gamma(alpha k + 1).

    This is the Mittag-Leffler function E_alpha(x) at x = mu T^alpha
    Gamma(alpha), whose log approaches y - log(alpha) with
    y = x^(1/alpha) = (mu Gamma(alpha))^(1/alpha) T; the gap is of order
    e^-y.  From y = ZTILDE_ASYMPTOTE_Y on that asymptote is returned.
    Below it the terms peak near k ~ y / alpha and then decay
    super-exponentially; summation stops 60 nats past the peak.
    """
    if mu <= 0.0 or T <= 0.0:
        raise ValueError("mu and T must be positive")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    log_x = math.log(mu) + alpha * math.log(T) + gammaln(alpha)
    y = math.exp(log_x / alpha)
    if y >= ZTILDE_ASYMPTOTE_Y:
        return y - math.log(alpha)
    k_peak = max(8, int(math.ceil(y / alpha)))
    terms = [0.0]  # k = 0
    k = 1
    best = 0.0
    while True:
        lt = k * log_x - gammaln(alpha * k + 1.0)
        terms.append(lt)
        best = max(best, lt)
        if k > k_peak and lt < best - 60.0:
            break
        if k > 100 * k_peak + 10_000:
            raise RuntimeError("series did not enter its decay range")
        k += 1
    return float(logsumexp(np.array(terms)))


def ztilde_growth_rate(mu: float, alpha: float, T: float) -> float:
    """(1/T) log of the moment series; approaches (mu Gamma(alpha))^(1/alpha)."""
    return ztilde_log(mu, alpha, T) / T


# ------------------------------------------------------------ Monte Carlo

@dataclass(frozen=True)
class McEstimate:
    estimate: float
    stderr: float
    flagged: bool
    n_paths: int
    T: float
    dt: float
    eps: float
    regime: str


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): a pool of four
# uint32 words, mixed with these constants
_MASK32 = 0xFFFF_FFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# steps whose keys are derived at once: bounds the key array at any step count
_KEY_CHUNK = 4096


def _hashmix(value, hash_const: int, mult: int):
    """SeedSequence's hashmix of a word (a Python int or a uint64 array of
    32-bit words); returns the mixed word and the next hash constant."""
    nxt = hash_const * mult & _MASK32
    value = (value ^ hash_const) * nxt & _MASK32
    return value ^ value >> 16, nxt


def _mix(x, y):
    r = ((_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32)) & _MASK32
    return r ^ r >> 16


def _step_keys(seed: int, first: int, count: int) -> np.ndarray:
    """Philox keys of SeedSequence(seed, spawn_key=(first + i,)) for
    0 <= i < count, as a (count, 2) uint64 array.

    A transcription of SeedSequence's entropy mixing and of its
    generate_state(2, np.uint64), in which the spawn word is a vector over
    the steps: one pass of array arithmetic derives every step's key.  The
    words are held in uint64 and masked to 32 bits after each product,
    which is exact.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    if first < 0 or first + count > _MASK32 + 1:
        raise ValueError("spawn words must lie in [0, 2^32)")
    words = [seed & _MASK32]
    while seed >> 32:
        seed >>= 32
        words.append(seed & _MASK32)
    # a spawned SeedSequence pads its run entropy to the pool size
    entropy = words + [0] * (4 - len(words))
    entropy.append(np.arange(first, first + count, dtype=np.uint64))
    hash_const = _INIT_A
    pool = []
    for word in entropy[:4]:
        word, hash_const = _hashmix(word, hash_const, _MULT_A)
        pool.append(word)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                word, hash_const = _hashmix(pool[src], hash_const, _MULT_A)
                pool[dst] = _mix(pool[dst], word)
    for word in entropy[4:]:
        for dst in range(4):
            mixed, hash_const = _hashmix(word, hash_const, _MULT_A)
            pool[dst] = _mix(pool[dst], mixed)
    hash_const = _INIT_B
    state = []
    for word in pool:
        word, hash_const = _hashmix(word, hash_const, _MULT_B)
        state.append(word)
    # little-endian pairs of 32-bit words make the two 64-bit key words
    return np.stack([state[0] | state[1] << 32, state[2] | state[3] << 32],
                    axis=1)


def _simulate_paths(alpha: float, T: float, dt: float, theta: float,
                    n_paths: int, seed: int, eps: float
                    ) -> tuple[np.ndarray | None, np.ndarray, np.ndarray | None]:
    """Paths of the squared process Y' = 2 sqrt(Y) dB + 2(1-alpha) dt via its
    exact transition law Y_{t+dt} = dt * noncentral_chi2(2(1-alpha), Y_t/dt);
    X = sqrt(Y) started at 0.

    Exact transitions make every grid marginal distributed exactly, so the
    mean of each Riemann sum below is the exact Riemann sum of the closed-
    form moment curve — no boundary discretization bias.  Returns per-path
    (occupation time of (0, eps], Int X^-theta dt, Int X^-2 theta dt) over
    (0, T]; only the functionals that the regime of (alpha, theta) reads
    are computed, and the other one is None: the occupation time in the
    intermediate regime, Int X^-2 theta in the long_range one.  X is
    floored at 1e-9 purely to keep the integrands finite; the floor sits so
    deep in the X -> 0 tail that reaching it has probability ~1e-10 per
    draw, leaving the moment means intact.

    Chi-square sampling consumes a variable number of uniforms, so draws
    are taken jointly across paths from per-STEP substreams keyed by
    (seed, step): step n draws from Philox(SeedSequence(seed,
    spawn_key=(n,))).  The keys of those generators come from one
    vectorized SeedSequence hash (_step_keys), and one Philox is reset to
    each step's key in turn, which is the state a fresh one starts in.
    Results are deterministic for a fixed (seed, n_paths) and independent
    across steps.
    """
    steps = T / dt
    # from 2e6 steps on, step substreams would collide with the bootstrap
    # spawn range
    if not (math.isfinite(steps) and 1 <= round(steps) < 2_000_000):
        raise ValueError(f"dt too small or too large: T / dt = {steps:g} "
                         f"steps, need 1 to 1999999")
    n_steps = round(steps)
    regime = classify_regime(alpha, theta)
    df = 2.0 * (1.0 - alpha)
    floor = 1e-9
    y = np.zeros(n_paths)
    occ = np.zeros(n_paths) if regime == "intermediate" else None
    int_theta = np.zeros(n_paths)
    int_2theta = np.zeros(n_paths) if regime == "long_range" else None
    bitgen = np.random.Philox(seed)
    gen = np.random.Generator(bitgen)
    # the state a fresh Philox starts in: counter 0 and an empty buffer
    zeros = np.zeros(4, dtype=np.uint64)
    fresh = {"bit_generator": "Philox",
             "state": {"counter": zeros, "key": zeros[:2]},
             "buffer": zeros, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for start in range(0, n_steps, _KEY_CHUNK):
        count = min(_KEY_CHUNK, n_steps - start)
        for key in _step_keys(seed, start, count):
            fresh["state"]["key"] = key
            bitgen.state = fresh
            y = dt * gen.noncentral_chisquare(df, y / dt)
            x = np.sqrt(y)
            if occ is not None:
                occ += x <= eps
            xf = np.maximum(x, floor)
            int_theta += xf**-theta
            if int_2theta is not None:
                int_2theta += xf ** (-2.0 * theta)
    return (None if occ is None else occ * dt, int_theta * dt,
            None if int_2theta is None else int_2theta * dt)


@lru_cache(maxsize=64)
def _local_time_calibration(alpha: float, T: float, dt: float, eps: float) -> float:
    """Exact factor making the eps-occupation estimator unbiased for the
    local time.

    Because the grid marginals are sampled exactly, the estimator's mean is
    known in closed form: P(X_t <= eps) is a regularized incomplete gamma
    of the origin density, so the eps-truncation bias can be divided out
    analytically rather than estimated from pilot runs.
    """
    n_steps = int(round(T / dt))
    ts = dt * np.arange(1, n_steps + 1)
    expected_occ = dt * float(gammainc(1.0 - alpha, eps * eps / (2.0 * ts)).sum())
    prefactor = sharp_constant(alpha) / eps ** (2.0 * (1.0 - alpha))
    return local_time_mean(alpha, T) / (prefactor * expected_occ)


def continuum_free_energy_mc(params: ContinuumParams, cp: ContinuumPhasePoint,
                             T: float, dt: float | None = None,
                             n_paths: int = 400, seed: int = 0,
                             eps: float | None = None,
                             n_bootstrap: int = 200,
                             cstar_phi2: float = 1.0) -> McEstimate:
    """Feynman-Kac Monte Carlo for the heavy- and intermediate-tail
    free-energy functionals: (1/T) log of the empirical exponential mean,
    with a bootstrap standard error.

    In the intermediate regime the local-time term carries the lattice
    constant cstar_phi2 (the heavy-tail functional needs only c_tail).
    The local time enters through the eps-occupation estimator with an
    analytic unbiasing factor (see _local_time_calibration).  The estimate
    is flagged when the heaviest path carries over half the total weight
    (variance explosion).
    """
    dt, eps, paths = _mc_paths(params, T, dt, n_paths, seed, eps)
    exponents = _mc_exponents(params, cp, T, dt, eps, paths, cstar_phi2)
    estimate, flagged = _log_mean_exp(exponents, T)
    boot_gen = np.random.Generator(
        np.random.Philox(np.random.SeedSequence(seed, spawn_key=(2_000_000,)))
    )
    idx = boot_gen.integers(0, n_paths, size=(n_bootstrap, n_paths))
    boot = logsumexp(exponents[idx], axis=1) - math.log(n_paths)
    stderr = float(np.std(boot / T, ddof=1))
    return McEstimate(
        estimate=estimate, stderr=stderr, flagged=flagged, n_paths=n_paths,
        T=T, dt=dt, eps=eps, regime=params.regime,
    )


def _mc_paths(params: ContinuumParams, T: float, dt: float | None,
              n_paths: int, seed: int, eps: float | None):
    """The checked step and occupation width of a Monte Carlo run, with its
    seeded path functionals: (dt, eps, _simulate_paths(...))."""
    if params.regime == "short_range":
        raise ValueError(
            "short_range has the explicit formula; use continuum_free_energy_short"
        )
    if T <= 0.0:
        raise ValueError("T must be positive")
    if dt is None:
        dt = 1e-4 * T
    if eps is None:
        eps = max(math.sqrt(dt), 1e-3)
    return dt, eps, _simulate_paths(params.alpha, T, dt, params.theta,
                                    n_paths, seed, eps)


def _mc_exponents(params: ContinuumParams, cp: ContinuumPhasePoint, T: float,
                  dt: float, eps: float, paths, cstar_phi2: float) -> np.ndarray:
    """Per-path Feynman-Kac exponents of the regime's functional at cp."""
    occ, int_theta, int_2theta = paths
    if params.regime == "long_range":
        return (
            0.5 * cp.beta_hat**2 * params.c_tail**2 * int_2theta
            - cp.h_hat * params.c_tail * int_theta
        )
    cal = _local_time_calibration(params.alpha, T, dt, eps)
    prefactor = sharp_constant(params.alpha) / eps ** (2.0 * (1.0 - params.alpha))
    local_time = cal * prefactor * occ
    return (
        0.5 * cp.beta_hat**2 * cstar_phi2 * local_time
        - cp.h_hat * params.c_tail * int_theta
    )


def _log_mean_exp(exponents: np.ndarray, T: float) -> tuple[float, bool]:
    """(1/T) log of the mean of e^exponents, and whether the heaviest path
    carries over half the total weight."""
    weights = np.exp(exponents - exponents.max())
    total = float(weights.sum())
    flagged = bool(weights.max() / total > 0.5)
    return float((exponents.max() + math.log(total / exponents.size)) / T), flagged
