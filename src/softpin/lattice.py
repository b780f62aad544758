"""Truncated height-lattice stepping kernel.

Everything downstream walks the same tridiagonal structure: nearest-neighbour
steps on heights truncated at ``|x| = L``, with the outward step at the
boundary folded back onto the inward one so the kernel stays stochastic.
One kernel class carries its sites' ``heights`` and ``origin`` index, on a
*folded* lattice over ``|x| in {0..L}`` (valid whenever the site weights are
symmetric, since the drift is antisymmetric) or a *signed* one over
``x in {-L..L}``.  ``step`` moves one flat state and ``log_step`` one held
in logs; ``tiled`` lays independent rows end to end, and no mass crosses
between them, as p_up is 0 on each row's top site and p_down on its bottom
one.  ``first_passage``, the one killed first-passage recursion, runs the
first-return law and the weighted excursion sums, the latter many phase
points at a time as rows.  It takes log weights, and a row stops for one
reason only: its partial sum passes the cap or overflows.

When the site weights do not change from step to step, recursions take
block steps: the walk is nearest-neighbour, so BLOCK = 32 steps of the
weighted kernel M = diag(w) T form one band matrix M^32 of half-width 32,
and one banded product advances the state by a block.  ``band_steps`` (the
height law, w = 1) and every row of ``first_passage`` whose weights keep
its state below 1e200 run this way; the returns inside a block come from
one small matrix on the 65 sites around the origin.  The band product is
numpy's own and single-threaded, so results do not depend on a BLAS thread
count; they agree with the one-step recursion within 1e-12 relative, with
the same zeros, divergence flags and stopping steps.  Every other row runs
one exact recursion in logs, one ``log_step`` per step, the step the
partition sweeps of ``softpin.transfer`` also take in logs.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

__all__ = [
    "FoldedKernel",
    "SignedKernel",
    "folded_kernel",
    "signed_kernel",
    "layout",
    "first_passage",
    "band_steps",
    "recommended_truncation",
]


def recommended_truncation(n: int) -> int:
    """Truncation height for an n-step horizon: L = ceil(4*sqrt(n)).

    Beyond four standard deviations the missing probability mass changes
    log-partition values at a level below 1e-8 (Gaussian tail of the
    local limit bound); tests pin this by doubling L.
    """
    return max(8, math.ceil(4.0 * math.sqrt(max(n, 1))))


@dataclass(frozen=True)
class _Kernel:
    """Nearest-neighbour kernel; p_up[i] + p_down[i] == 1 for every state.
    ``heights`` and ``origin`` describe one row, p_up and p_down all rows."""

    l: int
    p_up: np.ndarray
    p_down: np.ndarray
    heights: np.ndarray
    origin: int

    def tiled(self, r: int) -> _Kernel:
        """This kernel on r rows laid end to end on one flat lattice."""
        return replace(self, p_up=np.tile(self.p_up, r),
                       p_down=np.tile(self.p_down, r))

    def step(self, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """One transition of the flat state v; ``out`` must not share
        memory with ``v``."""
        if out is None:
            out = np.empty_like(v)
        np.multiply(v[:-1], self.p_up[:-1], out=out[1:])
        out[0] = 0.0
        out[:-1] += v[1:] * self.p_down[1:]
        return out

    @cached_property
    def _log_p(self) -> tuple[np.ndarray, np.ndarray]:
        with np.errstate(divide="ignore"):  # -inf where p is 0: rows never mix
            return np.log(self.p_up[:-1]), np.log(self.p_down[1:])

    def log_step(self, v: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
        """``step`` of a state held in logs, one logaddexp per site; it
        cannot overflow or underflow."""
        log_up, log_down = self._log_p
        if out is None:
            out = np.empty_like(v)
        np.add(v[:-1], log_up, out=out[1:])
        out[0] = -math.inf
        np.logaddexp(out[:-1], v[1:] + log_down, out=out[:-1])
        return out


# The two lattices keep their own names: the benchmark tracer
# (bench/tracer.py) wraps FoldedKernel.step and SignedKernel.step.
class FoldedKernel(_Kernel):
    """Kernel of |S| on {0..L}: p_up[L] = 0 reflects, p_up[0] = 1."""


class SignedKernel(_Kernel):
    """Kernel on {-L..L}; index i is height i - L."""


def folded_kernel(drift_fn, l: int) -> FoldedKernel:
    """Build the folded kernel from a vectorized drift function d(x)."""
    if l < 1:
        raise ValueError("truncation height must be >= 1")
    x = np.arange(l + 1)
    d = drift_fn(x)
    p_up = 0.5 * (1.0 + d)
    p_down = 0.5 * (1.0 - d)
    p_up[0], p_down[0] = 1.0, 0.0
    # reflect: fold the outward step at the truncation height inward
    p_down[l] += p_up[l]
    p_up[l] = 0.0
    return FoldedKernel(l, p_up, p_down, x, 0)


def signed_kernel(drift_fn, l: int) -> SignedKernel:
    if l < 1:
        raise ValueError("truncation height must be >= 1")
    x = np.arange(-l, l + 1)
    d = drift_fn(x)
    p_up = 0.5 * (1.0 + d)
    p_down = 0.5 * (1.0 - d)
    p_down[-1] += p_up[-1]
    p_up[-1] = 0.0
    p_up[0] += p_down[0]
    p_down[0] = 0.0
    return SignedKernel(l, p_up, p_down, x, l)


def layout(walk, spec, n: int, l: int | None = None,
           folded: bool | None = None) -> _Kernel:
    """Kernel of an n-step recursion of walk under spec.

    The folded lattice serves symmetric potentials unless ``folded`` is
    False; l defaults to the walk's truncation height for n steps.
    """
    use_folded = spec.symmetric if folded is None else folded
    if use_folded and not spec.symmetric:
        raise ValueError("folded recursion needs a symmetric potential")
    make = folded_kernel if use_folded else signed_kernel
    return make(walk.drift, l if l is not None else walk.resolve_l(n))


# steps per banded product of a recursion whose site weights do not change.
# Single-row first passage, one core: 32 was fastest at 257 and 445 sites
# and within 4% of 48 or 64 at 1,256; at 64, 257 sites took 50% longer, as
# the band precompute (O(BLOCK^2 sites)) outweighs the blocks it saves
BLOCK = 32


def _band_powers(ker, w, powers) -> list[np.ndarray]:
    """M^h for each h of ``powers`` (ascending, at most BLOCK) in row band
    storage ``b[i, h + d] = M^h[i, i + d]``, where M = diag(w) T is one step
    of ``ker`` followed by the site weights w.

    Built by left products with the tridiagonal M, (M B)[i, i + d] =
    M[i, i - 1] B[i - 1, (i - 1) + (d + 1)] + M[i, i + 1] B[i + 1, (i + 1) +
    (d - 1)], on the diagonals ``bt[BLOCK + d]`` that M^h can reach:
    O(BLOCK^2 sites) in all.
    """
    sites, k = len(w), BLOCK
    up, down = np.zeros(sites), np.zeros(sites)  # M[i, i - 1], M[i, i + 1]
    up[1:] = w[1:] * ker.p_up[:-1]
    down[:-1] = w[:-1] * ker.p_down[1:]
    bt, nxt = np.zeros((2 * k + 1, sites)), np.zeros((2 * k + 1, sites))
    bt[k] = 1.0
    out = []
    for h in range(1, max(powers, default=0) + 1):
        # M^h lives on the diagonals lo..hi, M^(h-1) in bt on the inner
        # ones, and M^(h-2), left in nxt, further in still
        lo, hi = k - h, k + h
        np.multiply(up[1:], bt[lo + 1 : hi, :-1], out=nxt[lo : hi - 1, 1:])
        nxt[lo : hi - 1, 0] = 0.0
        nxt[lo + 2 : hi + 1, :-1] += down[:-1] * bt[lo + 1 : hi, 1:]
        bt, nxt = nxt, bt
        if h in powers:
            out.append(np.ascontiguousarray(bt[lo : hi + 1].T))
    return out


def _windows(pads: np.ndarray, half: int) -> list[np.ndarray]:
    """For each padded state of ``pads``, the 2 half + 1 sites around each
    lattice site, a view."""
    view = np.lib.stride_tricks.sliding_window_view
    return [view(p[BLOCK - half : len(p) - BLOCK + half], 2 * half + 1)
            for p in pads]


def band_steps(ker, v: np.ndarray, n: int) -> np.ndarray:
    """The state v after n steps of ``ker``: T^BLOCK per banded product,
    and T^r for the last r = n mod BLOCK steps."""
    q, r = divmod(n, BLOCK)
    steps = [BLOCK] * q + [r] * (r > 0)
    powers = sorted(set(steps))
    band = dict(zip(powers, _band_powers(ker, np.ones(len(v)), powers)))
    pads = np.zeros((2, len(v) + 2 * BLOCK))  # BLOCK zeros on either side
    pads[0, BLOCK:-BLOCK] = v
    win = {h: _windows(pads, h) for h in powers}
    for i, h in enumerate(steps):
        np.einsum("ij,ij->i", band[h], win[h][i % 2],
                  out=pads[1 - i % 2, BLOCK:-BLOCK])
    return pads[len(steps) % 2, BLOCK:-BLOCK].copy()


def _return_rows(ker, w, k: int) -> np.ndarray:
    """R[j - 1] = e_o T M^(j - 1), j = 1..k, on the 2 BLOCK + 1 sites
    centred on the origin o (zero past the lattice's ends): from the state
    v, the next k steps return R @ v there, one return per step."""
    sites, o = len(w), ker.origin
    rows = np.zeros((k, sites + 2 * BLOCK))
    y = np.zeros(sites)
    y[o] = 1.0
    for j in range(k):  # y -> (y T) w
        x = rows[j, BLOCK : BLOCK + sites]
        np.multiply(y[1:], ker.p_up[:-1], out=x[:-1])
        x[1:] += y[:-1] * ker.p_down[1:]
        y = x * w
    return rows[:, o : o + 2 * BLOCK + 1].copy()


def _block_passage(ker, w, w0: float, m_max: int, cap: float):
    """a of one row of ``first_passage`` whose state cannot overflow, BLOCK
    steps per banded product, up to the block in which its partial sum
    passes cap; w is killed at the origin."""
    o, n_blocks = ker.origin, -(-m_max // BLOCK)
    ret_rows = _return_rows(ker, w, min(BLOCK, m_max))
    band = _band_powers(ker, w, [BLOCK])[0] if n_blocks > 1 else None
    pads = np.zeros((2, len(w) + 2 * BLOCK))  # BLOCK zeros on either side
    pads[0, BLOCK + o] = 1.0
    win = _windows(pads, BLOCK)
    a = np.zeros(m_max + 1)
    run = np.zeros(BLOCK + 1)  # the partial sum, then its values in a block
    for b in range(n_blocks):
        n0, h, i = b * BLOCK, min(BLOCK, m_max - b * BLOCK), b % 2
        ret = ret_rows[:h] @ pads[i, o : o + 2 * BLOCK + 1]
        x = a[n0 + 1 : n0 + h + 1]
        # 0 * inf would poison the sum when w0 overflows
        np.multiply(ret, w0, out=x, where=ret != 0.0)
        run[1 : h + 1] = x
        np.cumsum(run[: h + 1], out=run[: h + 1])
        if not run[h] <= cap:  # partial sums only grow: the block crossed
            break
        run[0] = run[h]
        if b + 1 < n_blocks:
            np.einsum("ij,ij->i", band, win[i], out=pads[1 - i, BLOCK:-BLOCK])
    return a


def _log_passage(ker, log_w, log_w0, m_max: int, cap: float):
    """a of the rows of ``first_passage`` whose state may overflow, one step
    at a time in logs on the tiled lattice, up to the step at which the
    last one's partial sum passes cap; log_w, (rows, sites), is -inf at
    the origin.  No row can overflow, underflow or leak into another."""
    r, sites = log_w.shape
    at = slice(ker.origin, None, sites)
    ker, log_w = ker.tiled(r), log_w.ravel()
    v, nxt = np.full(r * sites, -math.inf), np.empty(r * sites)
    v[at] = 0.0
    a = np.zeros((r, m_max + 1))
    partial = np.zeros(r)
    for n in range(1, m_max + 1):
        ker.log_step(v, nxt)
        with np.errstate(over="ignore"):  # inf: the partial sum overflows
            np.exp(nxt[at] + log_w0, out=a[:, n])
        nxt += log_w
        v, nxt = nxt, v
        partial += a[:, n]
        if not (partial <= cap).any():
            break
    return a


def first_passage(ker, log_w: np.ndarray, log_w0, m_max: int, cap: float):
    """Killed first-passage recursions of walks started at ``ker.origin``.

    Each row of the log site weights log_w, rows + (sites,), and log return
    weights log_w0, rows, is an independent walk.  Each step moves the
    state by ``ker``; the mass on the origin, times e^log_w0, is a[n] and
    is removed, and the rest is multiplied by e^log_w.  Returns (a,
    diverged, m_stop) per row (a bool and an int for rows = ()).  A row
    stops for one reason only: its partial sum of a passes cap or
    overflows.  It then has diverged=True, a zero past m_stop, and a[m_stop]
    may be inf.

    sum(v_n) <= max(w)^n, as the kernel is stochastic and killing only
    removes mass, so a row with max(w)^m_max <= 1e200 cannot overflow: it
    takes BLOCK steps per banded product on e^log_w.  Every other row runs
    one exact recursion in logs, a ``log_step`` per step.  Either way a
    row's bits do not depend on the rows next to it.
    """
    log_w = np.asarray(log_w, dtype=float)
    rows, sites = log_w.shape[:-1], log_w.shape[-1]
    log_w = log_w.reshape(-1, sites).copy()
    log_w[:, ker.origin] = -math.inf  # kills returns
    log_w0 = np.broadcast_to(np.asarray(log_w0, dtype=float), rows).ravel()
    cap = min(cap, sys.float_info.max)  # an overflowed partial sum passes it
    in_logs = m_max * log_w.max(axis=1) > math.log(1e200)
    with np.errstate(over="ignore"):  # inf only on rows that run in logs
        w = np.exp(log_w)
    a = np.zeros((len(w), m_max + 1))
    for i in np.flatnonzero(~in_logs).tolist():
        try:
            w0 = math.exp(log_w0[i])
        except OverflowError:  # the block steps skip zero returns
            w0 = math.inf
        a[i] = _block_passage(ker, w[i], w0, m_max, cap)
    if in_logs.any():
        a[in_logs] = _log_passage(ker, log_w[in_logs], log_w0[in_logs],
                                  m_max, cap)
    past = ~(np.cumsum(a, axis=1) <= cap)  # the stopping rule; sums only grow
    diverged = past.any(axis=1)
    m_stop = np.where(diverged, past.argmax(axis=1), m_max)
    a[np.arange(m_max + 1) > m_stop[:, None]] = 0.0
    if not rows:
        return a[0], bool(diverged[0]), int(m_stop[0])
    return (a.reshape(rows + (-1,)), diverged.reshape(rows),
            m_stop.reshape(rows))
