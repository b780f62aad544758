"""Truncated height-lattice stepping kernel.

Everything downstream walks the same tridiagonal structure: nearest-neighbour
steps on heights truncated at ``|x| = L``, with the outward step at the
boundary folded back onto the inward one so the kernel stays stochastic.
One kernel class carries its sites' ``heights`` and ``origin`` index, on a
*folded* lattice over ``|x| in {0..L}`` (valid whenever the site weights are
symmetric, since the drift is antisymmetric) or a *signed* one over
``x in {-L..L}``.  ``step`` moves one flat state; ``tiled`` lays independent
rows end to end, and no mass crosses between them, as p_up is 0 on each
row's top site and p_down on its bottom one.  ``first_passage``, the one
killed first-passage recursion, runs the first-return law and the weighted
excursion sums, the latter many phase points at a time as rows; it owns
every stopping rule (cap, state blow-up, and reaching an ``inf`` weight).

When the site weights do not change from step to step, recursions take
block steps: the walk is nearest-neighbour, so BLOCK = 32 steps of the
weighted kernel M = diag(w) T form one band matrix M^32 of half-width 32,
and one banded product advances the state by a block.  ``band_steps`` (the
height law, w = 1) and every row of ``first_passage`` whose weights keep
its state below 1e200 run this way; the returns inside a block come from
one small matrix on the 65 sites around the origin.  Only a row that can
overflow steps one at a time, checking its state at every step.  The band
product is numpy's own and single-threaded, so results do not depend on a
BLAS thread count; they agree with the one-step recursion within 1e-12
relative, with the same zeros, divergence flags and stopping steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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
    """One row of ``first_passage`` whose state cannot overflow, BLOCK
    steps per banded product; w is killed at the origin."""
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
            n = n0 + int(np.argmin(run[1 : h + 1] <= cap)) + 1
            a[n + 1 :] = 0.0
            return a, True, n
        run[0] = run[h]
        if b + 1 < n_blocks:
            np.einsum("ij,ij->i", band, win[i], out=pads[1 - i, BLOCK:-BLOCK])
    return a, False, m_max


def _stepwise_passage(ker, w, w0: list, m_max: int, cap: float):
    """The rows of ``first_passage`` whose state may overflow, one step at a
    time on the tiled lattice; w, (rows, sites), is killed at the origin.
    A row also stops once its state stops being finite and below 1e200 (an
    overflowed weight turns 0 * inf into NaN); its state and weights are
    zeroed, and the loop ends with the last row."""
    r, sites = w.shape
    origin, ker = ker.origin, ker.tiled(r)
    w = w.ravel()
    seg = [slice(i * sites, (i + 1) * sites) for i in range(r)]
    at = slice(origin, None, sites)
    v, nxt = np.zeros(r * sites), np.zeros(r * sites)
    v[at] = 1.0
    a = np.zeros((r, m_max + 1))
    partial, m_stop, live = [0.0] * r, [m_max] * r, list(range(r))
    for n in range(1, m_max + 1):
        nxt = ker.step(v, nxt)
        ret = nxt[at].tolist()
        np.multiply(nxt, w, out=nxt)
        v, nxt = nxt, v
        blown = not v.max() <= 1e200
        for i in list(live):
            if ret[i]:  # 0 * inf would poison the sum when w0 overflows
                a[i, n] = x = ret[i] * w0[i]
                partial[i] += x
            if not partial[i] <= cap or blown and not v[seg[i]].max() <= 1e200:
                live.remove(i)
                m_stop[i] = n
                v[seg[i]] = w[seg[i]] = 0.0
        if not live:
            break
    return a, [i not in live for i in range(r)], m_stop


def first_passage(ker, w: np.ndarray, w0, m_max: int, cap: float):
    """Killed first-passage recursions of walks started at ``ker.origin``.

    Each row of the site weights w, rows + (sites,), and return weights w0,
    rows, is an independent walk.  Each step moves the state by ``ker``; the
    mass on the origin, times w0, is a[n] and is removed, and the rest is
    multiplied by w.  Returns (a, diverged, m_stop) per row (a bool and an
    int for rows = ()).  A row stops, with diverged=True and a zero past
    m_stop, once its partial sum of a passes cap, its state stops being
    finite and below 1e200, or its walk can stand on a site x whose weight
    is inf: that happens at step |x|, the first step a nearest-neighbour
    walk can be there, and a site it cannot reach by m_max changes nothing.
    The recursion runs only up to the first step at which every row has
    met such a site, or m_max.

    sum(v_n) <= max(w)^n over the finite weights, as the kernel is
    stochastic and killing only removes mass, so a row with max(w)^n <=
    1e200 over the n steps run cannot overflow: it takes BLOCK steps per
    banded product, locating a cap crossing inside a block from the running
    partial sums.  The other rows step one at a time and check their state
    at every step.
    """
    w = np.asarray(w, dtype=float)
    rows, sites = w.shape[:-1], w.shape[-1]
    w = w.reshape(-1, sites)
    w = np.where(np.arange(sites) == ker.origin, 0.0, w)  # kills returns
    inf = w == math.inf
    reach = np.where(inf, np.abs(ker.heights), m_max + 1).min(axis=1).tolist()
    n = min(m_max, max(reach))
    w[inf] = 0.0
    stepwise = [not (top <= 1.0 or n * math.log(top) <= math.log(1e200))
                for top in w.max(axis=1).tolist()]
    w0 = np.broadcast_to(np.asarray(w0, dtype=float), rows).ravel().tolist()
    a = np.zeros((len(w), m_max + 1))
    diverged, m_stop = [False] * len(w), [m_max] * len(w)
    for i in range(len(w)):
        if not stepwise[i]:
            a[i, : n + 1], diverged[i], m_stop[i] = _block_passage(
                ker, w[i], w0[i], n, cap)
    slow = [i for i in range(len(w)) if stepwise[i]]
    if slow:
        a[slow, : n + 1], d, m = _stepwise_passage(
            ker, w[slow], [w0[i] for i in slow], n, cap)
        for i, d_i, m_i in zip(slow, d, m):
            diverged[i], m_stop[i] = d_i, m_i
    for i, r in enumerate(reach):  # the walk stands on an infinite weight
        if r <= m_max and not (diverged[i] and m_stop[i] <= r):
            diverged[i], m_stop[i] = True, r
            a[i, r + 1 :] = 0.0
    if not rows:
        return a[0], diverged[0], m_stop[0]
    return (a.reshape(rows + (-1,)), np.reshape(diverged, rows),
            np.reshape(m_stop, rows))
