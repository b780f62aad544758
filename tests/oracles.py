"""Independent references the tests hold the package to.

Each computes a number the package computes, by a route that shares no
code with it, or checks one of the paper's own statements that no CLI path
needs: exact enumeration over sign paths and over the paths of a finite
chain, the recursions stepped one site or one step at a time on every site
(bit for bit against the package's class and block steps), the
free-vs-constrained comparison, the start-state invariance of the
localization criterion, the rescaled lower bound, and the Bessel-function
and Dirichlet closed forms.
"""

import itertools
import math
import sys
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import gammaln, iv

import softpin.lattice
from softpin import transfer
from softpin.continuum import _check_bessel_args
from softpin.lattice import layout
from softpin.localization import DIVERGENCE_CAP, annealed_critical_curve
from softpin.model import PotentialSpec, psi
from softpin.transfer import annealed_sweep


# ------------------------------------------------------------ lattices

def layout_as(walk, spec, n: int, signed: bool = False):
    """``lattice.layout(walk, spec, n)``, or, if signed, the signed lattice
    whatever spec's symmetry: a kernel depends on its spec only through
    ``spec.symmetric``, so an asymmetric spec lays that lattice out."""
    return layout(walk, PotentialSpec(kind="copolymer") if signed else spec, n)


def tiled(ker, r: int):
    """``ker`` on r rows laid end to end on one flat lattice, for oracles
    that step every site of many rows at once.  No mass crosses between
    rows, as p_up is 0 on each row's top site and p_down on its bottom
    one."""
    return replace(ker, p_up=np.tile(ker.p_up, r),
                   p_down=np.tile(ker.p_down, r))


def log_step(ker, v, out):
    """``ker.step`` of the flat state v held in logs, one logaddexp per
    site, into ``out``, which must not share memory with v."""
    with np.errstate(divide="ignore"):  # -inf where p is 0: rows never mix
        log_up, log_down = np.log(ker.p_up[:-1]), np.log(ker.p_down[1:])
    np.add(v[:-1], log_up, out=out[1:])
    out[0] = -math.inf
    np.logaddexp(out[:-1], v[1:] + log_down, out=out[:-1])
    return out


# --------------------------------------------------------- enumeration

def path_sum(walk, n: int, f):
    """Sum of P(path) f(path) over all 2^n sign paths of n steps from
    height 0, a path being its heights [S_1, .., S_n] and its probability
    read off the walk's drift step by step.  Only valid while no path can
    reach the truncation height."""
    total = 0.0
    for steps in itertools.product((1, -1), repeat=n):
        s, prob, path = 0, 1.0, []
        for d in steps:
            prob *= 0.5 * (1.0 + d * float(walk.drift(s)))
            s += d
            path.append(s)
        total = total + prob * f(path)
    return total


def enumerate_series(walk, spec, charges, beta, h, tn, k_max):
    """Expansion coefficients by ``path_sum``: (coeff, z_free), where
    coeff[j] = E[e_j(chi(S_1), ..., chi(S_tn))] with e_j the j-th
    elementary symmetric polynomial -- the sum over j chosen time points --
    and z_free = E[prod_n (1 + chi(S_n))], chi = e^psi - 1."""
    def terms(path):
        esym = np.zeros(k_max + 2)  # e_0 .. e_k_max, then the product
        esym[0] = esym[-1] = 1.0
        for s in path:
            c = math.expm1(float(psi(charges, spec, beta, h, s)))
            esym[1:-1] = esym[1:-1] + c * esym[:-2]
            esym[-1] *= 1.0 + c
        return esym
    total = path_sum(walk, tn, terms)
    return total[:-1], float(total[-1])


def enumerate_first_return_sum(p, psi_values, start, m_max):
    """Exhaustive path sum of the weighted first-return series of the
    finite chain p from ``start``."""
    n = p.shape[0]
    w = np.exp(psi_values)
    total = 0.0
    for m in range(1, m_max + 1):
        for interior in itertools.product(range(n), repeat=m - 1):
            if any(s == start for s in interior):
                continue
            path = (start,) + interior + (start,)
            prob = math.prod(p[a, b] for a, b in zip(path[:-1], path[1:]))
            total += prob * math.prod(w[s] for s in path[1:])
    return total


# ------------------------------------- sweeps, one site at a time

def log_space_sweep(ker, log_weights, record_at):
    """The forward recursion of one chain from the origin in logs, one
    ``log_step`` of ``ker`` per step, then the step's log site weights
    log_weights(n).  Exact at any coupling, as no term leaves float range.
    Returns (log_z_free, log_z_constrained)."""
    lv, nxt = np.full(len(ker.heights), -np.inf), np.empty(len(ker.heights))
    lv[ker.origin] = 0.0
    free, con = [], []
    for n in range(1, max(record_at) + 1):
        log_step(ker, lv, nxt)
        nxt += log_weights(n)
        lv, nxt = nxt, lv
        if n in record_at:
            top = lv.max()
            free.append(top + math.log(np.exp(lv - top).sum()))
            con.append(lv[ker.origin])
    return np.array(free), np.array(con)


def full_lattice_sweep(ker, step_weights, record_at):
    """``transfer._sweep``, bit for bit: the same recursion one ``step`` at
    a time on every site of the kernel ``ker`` tiled over the rows
    (``tiled``), the other class's zeros included, with step_weights(n)
    the flat site weights of step n, each row scaled by 2^-e after every
    step, e the binary exponent of its maximum.  Returns (log_z_free,
    log_z_constrained, lost)."""
    pts = record_at.tolist()
    sites, origin = len(ker.heights), ker.origin
    r = len(ker.p_up) // sites
    v, nxt = np.zeros(r * sites), np.empty(r * sites)
    v[origin::sites] = 1.0
    count = np.zeros(r, dtype=np.int64)
    rec_free = np.zeros((r, len(pts)))
    rec_con = np.zeros_like(rec_free)
    lost = np.zeros(r, dtype=bool)
    idx = 1 if pts[0] == 0 else 0
    for n in range(1, pts[-1] + 1):
        ker.step(v, nxt)
        nxt *= step_weights(n)
        if n == pts[idx]:
            lost |= nxt[origin::sites] < transfer._TINY
        by_row = nxt.reshape(r, sites)
        e = np.frexp(by_row.max(axis=1))[1]
        np.ldexp(by_row, -e[:, None], out=by_row)
        count += e
        v, nxt = nxt, v
        if n == pts[idx]:
            log_scale = count * math.log(2.0)
            rec_free[:, idx] = log_scale + np.log(by_row.sum(axis=-1))
            con = v[origin::sites]
            lost |= con < transfer._TINY
            with np.errstate(divide="ignore"):
                rec_con[:, idx] = log_scale + np.log(con)
            idx += 1
    return rec_free, rec_con, lost


def full_lattice_log_sweep(ker, step_log_weights, record_at):
    """``transfer._sweep`` in logs, bit for bit: one ``log_step`` at a time
    on every site of the kernel ``ker`` tiled over the rows, each row
    shifted by the floor of its maximum every _LOG_RESCALE_EVERY steps and
    at record steps, the floors counted in one integer."""
    pts = record_at.tolist()
    sites, origin = len(ker.heights), ker.origin
    r = len(ker.p_up) // sites
    v, nxt = np.full(r * sites, -math.inf), np.empty(r * sites)
    v[origin::sites] = 0.0
    count = np.zeros(r, dtype=np.int64)
    rec_free = np.zeros((r, len(pts)))
    rec_con = np.zeros_like(rec_free)
    idx = 1 if pts[0] == 0 else 0
    for n in range(1, pts[-1] + 1):
        log_step(ker, v, nxt)
        nxt += step_log_weights(n)
        v, nxt = nxt, v
        if n % transfer._LOG_RESCALE_EVERY and n != pts[idx]:
            continue
        by_row = v.reshape(r, sites)
        e = np.floor(by_row.max(axis=1)).astype(np.int64)
        by_row -= e[:, None]
        count += e
        if n == pts[idx]:
            # each row's maximum now lies in [0, 1): no exp overflows
            rec_free[:, idx] = count + np.log(np.exp(by_row).sum(axis=1))
            rec_con[:, idx] = count + v[origin::sites]
            idx += 1
    return rec_free, rec_con


def annealed_partition(walk, spec, charges, beta, h, n: int):
    """(log Z_free, log Z_constrained) after n steps, n even."""
    sw = annealed_sweep(walk, spec, charges, beta, h, [n])
    return float(sw.log_z_free[0]), float(sw.log_z_constrained[0])


def compare_free_constrained(walk, spec, charges, beta, h,
                             ladder) -> np.ndarray:
    """Rows (N, (log Z_free - log Z_constrained)/N) along the ladder.

    The per-step boundary-condition discrepancy; nonnegative, and decaying
    like O(log N / N) whenever the two conditions share a free energy.
    """
    sweep = annealed_sweep(walk, spec, charges, beta, h, ladder)
    diff = (sweep.log_z_free - sweep.log_z_constrained) / sweep.n_values
    return np.column_stack([sweep.n_values.astype(float), diff])


def tiled_series(walk, charges, spec, beta, h, tn, k):
    """``series_coefficient``, bit for bit: its k + 1 layers one ``step``
    at a time on every site of the kernel tiled over them, the other
    class's zeros included."""
    ker = layout(walk, spec, tn)
    chi = np.exp(np.asarray(psi(charges, spec, beta, h, ker.heights),
                            dtype=float)) - 1.0
    layers = np.zeros((k + 1, len(chi)))
    layers[0, ker.origin] = 1.0
    stepped = np.zeros_like(layers)
    ker, flat, flat_stepped = tiled(ker, k + 1), layers.ravel(), stepped.ravel()
    for _ in range(tn):
        ker.step(flat, flat_stepped)
        for j in range(k, 0, -1):
            np.multiply(stepped[j - 1], chi, out=layers[j])
            layers[j] += stepped[j]
        layers[0] = stepped[0]
    return float(layers[k].sum())


# --------------------------------------------------- first passage

def crossed(partial, cap):
    """The one stopping rule: the partial sum passes cap or overflows."""
    return not partial <= min(cap, sys.float_info.max)


def reference_first_passage(ker, log_w, log_w0, m_max, cap):
    """One walk in linear weights, one step at a time."""
    origin = ker.origin
    w = np.exp(np.where(np.arange(len(log_w)) == origin, -math.inf, log_w))
    try:
        w0 = math.exp(log_w0)
    except OverflowError:
        w0 = math.inf
    a = np.zeros(m_max + 1)
    v = np.zeros(len(w))
    v[origin] = 1.0
    partial = 0.0
    for n in range(1, m_max + 1):
        v = ker.step(v)
        if v[origin]:
            a[n] = v[origin] * w0
        v[origin] = 0.0
        v = v * w
        partial += a[n]
        if crossed(partial, cap):
            return a, True, n
    return a, False, m_max


def log_add(x, y):
    """log(e^x + e^y)."""
    if x < y:
        x, y = y, x
    return x if y == -math.inf else x + math.log1p(math.exp(y - x))


def reference_log_passage(ker, log_w, log_w0, m_max, cap):
    """One walk in logs, one site at a time: exact at any weights."""
    sites, origin = len(log_w), ker.origin
    ninf = -math.inf
    log_up = [math.log(p) if p > 0.0 else ninf for p in ker.p_up]
    log_down = [math.log(p) if p > 0.0 else ninf for p in ker.p_down]
    a = np.zeros(m_max + 1)
    v = [ninf] * sites
    v[origin] = 0.0
    partial = 0.0
    for n in range(1, m_max + 1):
        nxt = [ninf] * sites
        for i in range(sites):
            if i > 0:
                nxt[i] = v[i - 1] + log_up[i - 1]
            if i + 1 < sites:
                nxt[i] = log_add(nxt[i], v[i + 1] + log_down[i + 1])
        try:
            a[n] = math.exp(nxt[origin] + log_w0)
        except OverflowError:
            a[n] = math.inf
        nxt[origin] = ninf
        v = [x + y for x, y in zip(nxt, log_w)]
        partial += a[n]
        if crossed(partial, cap):
            return a, True, n
    return a, False, m_max


def one_row_block_loop(ker, log_w, log_w0, m_max, cap):
    """One row by the block recursion written out for it alone, its state
    on the origin's class (the sites o, o +- 2, ..): per block, the returns
    at even steps R @ v on the 33 class sites around the origin times
    math.exp(log_w0), then, if another block follows, v -> M^32 v by one
    einsum on the padded class state."""
    k, o = softpin.lattice.BLOCK, ker.origin
    w = np.exp(np.where(np.arange(len(log_w)) == o, -math.inf, log_w))
    band, ret_rows = softpin.lattice._band_powers(ker, w[None],
                                                  min(k, m_max) // 2 * 2)
    v = np.zeros(len(band) + k)
    v[k // 2 + o // 2] = 1.0
    a = np.zeros(m_max + 1)
    for n0 in range(0, m_max, k):
        h = min(k, m_max - n0)
        a[n0 + 2 : n0 + h + 1 : 2] = (ret_rows[0, : h // 2]
                                      @ v[o // 2 : o // 2 + k + 1]
                                      * math.exp(log_w0))
        if n0 + k < m_max:
            v = np.pad(np.einsum("ij,ij->i", band, np.lib.stride_tricks
                                 .sliding_window_view(v, k + 1)), k // 2)
    past = ~(np.cumsum(a) <= min(cap, sys.float_info.max))
    m_stop = int(past.argmax()) if past.any() else m_max
    a[m_stop + 1 :] = 0.0
    return a, bool(past.any()), m_stop


def tiled_log_passage(ker, log_w, log_w0, m_max, cap):
    """``lattice._log_passage``, bit for bit: one ``log_step`` at a time on
    every site of ``ker`` tiled over the rows, a return read at every
    step, the other class's -inf included."""
    r, sites = log_w.shape
    at = slice(ker.origin, None, sites)
    ker, log_w = tiled(ker, r), log_w.ravel()
    v, nxt = np.full(r * sites, -math.inf), np.empty(r * sites)
    v[at] = 0.0
    a = np.zeros((r, m_max + 1))
    partial = np.zeros(r)
    for n in range(1, m_max + 1):
        log_step(ker, v, nxt)
        np.exp(nxt[at] + log_w0, out=a[:, n])
        nxt += log_w
        v, nxt = nxt, v
        partial += a[:, n]
        if not (partial <= cap).any():
            break
    return a


# ----------------------------------------- localization statements

def rescaled_lower_bound(walk, spec, charges, beta: float, tol: float = 1e-3,
                         m_max: int = 4096):
    """Rescaled annealed curve bounding the quenched critical height from
    below: (1+alpha) * h_c^ann(beta/(1+alpha)), as a ``CriticalBracket``."""
    return annealed_critical_curve(walk, spec, charges, [], [beta], tol=tol,
                                   m_max=m_max)[1][0]


@dataclass(frozen=True)
class StartInvarianceResult:
    values: np.ndarray      # A_x per start state (inf when diverged)
    above: np.ndarray       # A_x > 1 per state
    consistent: bool        # same side of 1 from every start


def criterion_start_invariance(transition: np.ndarray, psi_values: np.ndarray,
                               m_max: int = 4096) -> StartInvarianceResult:
    """First-return criterion evaluated from every state of a finite chain.

    For an irreducible finite chain the predicate A_x > 1 does not depend
    on the start state x (the excursion sums are linked through a Möbius
    relation), even though the values A_x differ.
    """
    p = np.asarray(transition, dtype=float)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise ValueError("transition must be square")
    if np.any(p < 0) or not np.allclose(p.sum(axis=1), 1.0, atol=1e-10):
        raise ValueError("transition rows must be probability vectors")
    w = np.exp(np.asarray(psi_values, dtype=float))
    if len(w) != p.shape[0]:
        raise ValueError("psi_values length mismatch")
    # each start state is a row; a row is inf once its partial sum passes
    # the cap or overflows (first_passage's rule), and may overflow past it
    v, diag = p * w, np.diag_indices(len(w))  # one step out of each state
    values = np.zeros(len(w))
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(m_max):
            values += v[diag]
            v[diag] = 0.0
            if not (values <= DIVERGENCE_CAP).any():
                break
            v = (v @ p) * w
    values[~(values <= DIVERGENCE_CAP)] = math.inf
    above = values > 1.0
    return StartInvarianceResult(
        values=values, above=above, consistent=bool(above.all() or not above.any())
    )


# ------------------------------------------------- continuum closed forms

def bessel_i(alpha: float, z: float) -> float:
    """Modified Bessel function I_{-alpha}(z) for 0 < alpha < 1, z > 0.

    This is the function entering the reflected-diffusion kernel: its
    series has all-positive terms (no cancellation) and shares the
    z -> 0 asymptote (2/z)^alpha / Gamma(1-alpha) with the ordinary
    Bessel function; at alpha = 1/2 it reduces to sqrt(2/(pi z)) cosh z,
    which is what the reflected-Brownian kernel requires.  Evaluated by
    scipy's ``iv``; overflows for z above ~700, where
    ``continuum.log_bessel_i`` does not.
    """
    _check_bessel_args(alpha, z)
    return float(iv(-alpha, z))


def hat_g(alpha: float, t: float, x: float) -> float:
    """Sharp small-target kernel t^(alpha-1) e^(-x^2/2t)."""
    if t <= 0.0:
        raise ValueError("t must be positive")
    if x < 0.0:
        raise ValueError("x must be nonnegative")
    return t ** (alpha - 1.0) * math.exp(-x * x / (2.0 * t))


def dirichlet_ik(theta_param: float, k: int) -> float:
    """Ordered-simplex integral of prod (s_l - s_{l-1})^(-theta) over
    0 < s_1 < ... < s_k < 1: Gamma(1-theta)^k / Gamma(k(1-theta) + 1)."""
    if not 0.0 < theta_param < 1.0:
        raise ValueError("theta_param must lie in (0, 1)")
    if k < 1:
        raise ValueError("k must be a positive integer")
    g = 1.0 - theta_param
    return math.exp(k * gammaln(g) - gammaln(k * g + 1.0))
