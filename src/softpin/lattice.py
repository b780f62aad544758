"""Truncated height-lattice stepping kernel.

Everything downstream walks the same tridiagonal structure: nearest-neighbour
steps on heights truncated at ``|x| = L``, with the outward step at the
boundary folded back onto the inward one so the kernel stays stochastic.
One ``layout`` builds every kernel, from a walk, which owns the truncation
height L, and a potential.  A kernel carries its sites' ``heights`` and
``origin`` index, on a *folded* lattice over ``|x| in {0..L}`` (valid
whenever the site weights are symmetric, since the drift is antisymmetric)
or a *signed* one over ``x in {-L..L}``.  ``step`` moves one flat state.
``first_passage``, the one killed first-passage recursion, runs the
first-return law and the weighted excursion sums, the latter many phase
points at a time as rows.  It takes log weights, and a row stops for one
reason only: its partial sum passes the cap or overflows.

When the site weights do not change from step to step, recursions take
block steps: the walk is nearest-neighbour and BLOCK = 32 is even, so after
each block a walk from the origin o lies on o's class E = {i : i - o even},
where the 32 steps of the weighted kernel M = diag(w) T form one band
matrix M^32 of 33 diagonals, and one banded product over E advances the
state by a block.  ``height_law`` (w = 1, its last n mod 32 steps one
``step`` each) and every ``first_passage`` row whose state stays
below 1e200 and whose return weight is finite run this way, all rows of a
call in one product; each row's returns inside a block, at even steps,
come from one small matrix on the 33 class sites around the origin, read
off the same band build.  A first-passage block only saves those 33 sites
and takes the product: once per BATCH = 8 blocks, and after the last, one
product weighs the saved blocks' returns, one accumulate extends the
partial sums, and the cap is checked.  The band product is numpy's own and
single-threaded, so results do not depend on a BLAS thread count; they
agree with the one-step recursion within 1e-12 relative, with the same
zeros, divergence flags and stopping steps.

Recursions of rows that move one step at a time step one parity class of
the sites onto the other, in ``step``'s order (``_class_sweep``): after
n steps a walk from the origin lies on n's class.  These are the partition
sweeps of ``softpin.transfer``, the ``first_passage`` rows that run in
logs, where the class step is exact, and the layers of
``softpin.scaling.series_coefficient``.  No row leaks into another, as a
pad ends each row.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FoldedKernel",
    "SignedKernel",
    "layout",
    "first_passage",
    "height_law",
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
    """Nearest-neighbour kernel on the sites ``heights``, walks starting at
    site ``origin``; p_up[i] + p_down[i] == 1 for every state."""

    l: int
    p_up: np.ndarray
    p_down: np.ndarray
    heights: np.ndarray
    origin: int

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


def layout(walk, spec, n: int) -> _Kernel:
    """Kernel of an n-step recursion of walk under spec, truncated at the
    walk's height L = ``walk.resolve_l(n)``.

    The folded lattice serves symmetric potentials, and spec=None (no
    potential); the signed one serves the rest.
    """
    folded = spec is None or spec.symmetric
    l = walk.resolve_l(n)
    x = np.arange(0 if folded else -l, l + 1)
    d = walk.drift(x)
    p_up = 0.5 * (1.0 + d)
    p_down = 0.5 * (1.0 - d)
    # fold the outward step at either end inward: at the truncation height,
    # and at -L, or at 0, from where |S| can only go up (d(0) = 0)
    p_down[-1] += p_up[-1]
    p_up[-1] = 0.0
    p_up[0] += p_down[0]
    p_down[0] = 0.0
    if folded:
        return FoldedKernel(l, p_up, p_down, x, 0)
    return SignedKernel(l, p_up, p_down, x, l)


# steps per banded product of fixed site weights; every output's bits are
# pinned to it.  Longer blocks cut the products of long recursions, but
# every row pays an O(BLOCK^2 sites / 4) band build
BLOCK = 32

# blocks of ``_block_passage`` per batch of returns, partial sums and cap
# check; blocks run past the cap change no output, so no bit depends on it
BATCH = 8


def _band_powers(ker, w, n: int) -> tuple[np.ndarray, np.ndarray]:
    """M^n on the origin's class E = {i : i - o even}, n even and at most
    BLOCK, for each row of the site weights w, (rows, sites), M = diag(w) T
    being one step of ``ker`` followed by w, and the return rows R[s] = e_o
    T M^(2s + 1), s < n / 2, on the BLOCK + 1 class sites o - BLOCK .. o +
    BLOCK (zero past the lattice's ends): from a state v on E, the walk
    returns R[s] @ v at step 2s + 2, and nothing at odd steps.  The rows'
    bands, laid end to end, hold M^n[i, i + 2c] at [a, BLOCK / 2 + c] for
    E's a-th site i.

    Built by left products with the tridiagonal M, (M B)[i, j] = M[i, i -
    1] B[i - 1, j] + M[i, i + 1] B[i + 1, j], for j in E: the walk is
    nearest-neighbour, so M^h[:, E] lives on the rows of h's class, i - o
    = h mod 2.  ``x[p][t, row, a]`` is M^h[i, i + 2t - BLOCK + p] for h of
    parity p and the a-th site i of its class, on the diagonals M^h can
    reach.  R[s] is read off rows o - 1 and o + 1 of M^(2s + 1), the sites
    that step onto o.  O(BLOCK^2 sites / 4) in all.
    """
    (r, sites), k, o = w.shape, BLOCK, ker.origin
    up, down = np.zeros((r, sites)), np.zeros((r, sites))  # M[i, i -/+ 1]
    up[:, 1:] = w[:, 1:] * ker.p_up[:-1]
    down[:, :-1] = w[:, :-1] * ker.p_down[1:]
    x = [np.zeros((k + 1, r, (sites - (o + p) % 2 + 1) // 2)) for p in (0, 1)]
    x[0][k // 2] = 1.0
    ret = np.zeros((r, n // 2, k + 1))
    for h in range(1, n + 1):
        # M^h on the diagonals lo .. hi from M^(h-1) on old[lo + p : hi + p];
        # h's class starts at site f, and its rows s: have a site below
        p, f = h % 2, (o + h) % 2
        new, old, lo, hi = x[p], x[1 - p], (k - h - p) // 2, (k + h - p) // 2
        prev, s, m = old[lo + p : hi + p], 1 - f, old.shape[2] - f
        np.multiply(up[:, f::2][:, s:], prev[:, :, : new.shape[2] - s],
                    out=new[lo:hi, :, s:])
        new[lo:hi, :, :s] = 0.0
        new[lo + 1 : hi + 1, :, :m] += down[:, f::2][:, :m] * prev[:, :, f:]
        if p:
            ret[:, h // 2, 1:] = ker.p_down[o + 1] * new[:k, :, (o + 1) // 2].T
            if o > 0:  # no site below the origin of a folded lattice
                ret[:, h // 2, :k] += (ker.p_up[o - 1]
                                       * new[:k, :, (o - 1) // 2].T)
    return np.ascontiguousarray(x[0].reshape(k + 1, -1).T), ret


def _class_states(r: int, n: int, o: int) -> tuple[np.ndarray, np.ndarray]:
    """Two states of r rows of n class sites, the first 1 at each row's
    origin o, padded with BLOCK / 2 zeros on either end: the unpadded
    states, and the BLOCK + 1 sites around each site, both views."""
    pads = np.zeros((2, r * n + BLOCK))
    pads[0, BLOCK // 2 + o // 2 :: n] = 1.0
    return (pads[:, BLOCK // 2 : -(BLOCK // 2)],
            np.lib.stride_tricks.sliding_window_view(pads, BLOCK + 1, -1))


def _class_sweep(ker, r: int, x, log: bool = False):
    """r rows of ``ker`` laid out on the parity classes c of its sites, i -
    o = c mod 2: one flat state per class, a row of it a pad, then the
    class's sites, in W = (sites + 3) // 2 entries, and one pad after the
    rows; all 0 (-inf in logs) but the origins, 1 (0).  Returns the states'
    rows, (2, r, W); one step per class c, steps[c](), which moves class 1
    - c onto class c in ``step``'s order, out = lo up + hi down, or
    logaddexp(lo + up, hi + down), with up and down 0 (-inf) at pads and
    missing neighbours, and returns class c's rows, so step n is steps[n %
    2](); the site values x, (..., sites), on each class's row, (2, ...,
    W), 0 at pads; and each site's entry in a row of either class, (2,
    sites), its pad off the class."""
    sites, o, i = len(ker.heights), ker.origin, np.arange(len(ker.heights))
    cls, at, width = (i - o) % 2, 1 + i // 2, (sites + 3) // 2
    arrays = np.zeros((3, 2, r * width + 1))
    (v, up, down), xs = arrays, np.zeros((2, *np.shape(x)[:-1], width))
    xs[cls, ..., at] = np.moveaxis(x, -1, 0)  # site i: class cls[i], at[i]
    for a, p in ((up, ker.p_up), (down, ker.p_down)):
        a[:, :-1].reshape(2, r, width)[cls, :, at] = p[:, None]
    v[0, 1 + o // 2 :: width] = 1.0
    if log:
        with np.errstate(divide="ignore"):
            np.log(arrays, out=arrays)
    rows, tmp = v[:, :-1].reshape(2, r, -1), np.empty(r * width)

    def class_step(out, lo, hi, p_up, p_down, by_row):
        if log:
            def step():
                np.add(lo, p_up, out=out)
                np.add(hi, p_down, out=tmp)
                np.logaddexp(out, tmp, out=out)
                return by_row
        else:
            def step():
                np.multiply(lo, p_up, out=out)
                np.multiply(hi, p_down, out=tmp)
                np.add(out, tmp, out=out)
                return by_row
        return step

    # an even site's neighbours sit one entry left of it and at it, an odd
    # site's at it and one entry right
    steps = tuple(class_step(v[c, 1 - (o + c) % 2 : v.shape[1] - (o + c) % 2],
                             v[1 - c, :-1], v[1 - c, 1:], up[1 - c, :-1],
                             down[1 - c, 1:], rows[c]) for c in (0, 1))
    return rows, steps, xs, np.where(cls == np.arange(2)[:, None], at, 0)


def height_law(ker, n: int) -> np.ndarray:
    """Law of S_n over ``ker.heights`` from S_0 at the origin (of |S_n| if
    folded): T^BLOCK per banded product on the origin's class, then one
    ``step`` on all sites for each of the last n mod BLOCK."""
    (q, r), sites, o = divmod(n, BLOCK), len(ker.heights), ker.origin
    band = _band_powers(ker, np.ones((1, sites)), BLOCK)[0]
    states, win = _class_states(1, len(band), o)
    for i in range(q):
        np.einsum("ij,ij->i", band, win[i % 2], out=states[1 - i % 2])
    v = np.zeros(sites)
    v[o % 2 :: 2] = states[q % 2]
    for _ in range(r):
        v = ker.step(v)
    return v


def _block_passage(ker, w, w0, m_max: int, cap: float):
    """a of the rows of ``first_passage`` that cannot overflow, BLOCK steps
    per banded product on the origin's class of the rows laid end to end,
    until every row's partial sum has passed cap; w, (rows, sites), is
    killed at the origin.  The bands and the returns, at even steps only,
    come from one ``_band_powers`` call of min(BLOCK, m_max) powers, less
    one if odd: the most the overflow rule bounds.  A block only saves the
    class sites around each origin and takes the banded product; once per
    BATCH blocks, and after the last, one product weighs the saved blocks'
    returns (none past m_max, where the bound no longer holds), one
    accumulate extends the partial sums and the cap is checked.  Blocks run
    after a row's sum passes cap are zeroed by ``first_passage``.  A band
    is 0 past its row and states are finite: rows cannot mix bits."""
    r, o, n_blocks = len(w), ker.origin, -(-m_max // BLOCK)
    band, ret_rows = _band_powers(ker, w, min(BLOCK, m_max) // 2 * 2)
    n = len(band) // r  # class sites per row
    states, win = _class_states(r, n, o)
    at = win[:, o // 2 :: n, :, None]  # the class sites around each origin
    saved = np.empty((BATCH, r, BLOCK + 1, 1))  # those of a batch's blocks
    a = np.zeros((n_blocks * BLOCK + 1, r))  # whole blocks; steps by row
    ret = a[2::2].reshape(n_blocks, BLOCK // 2, r)  # even steps, by block
    run = np.zeros((BATCH * BLOCK + 1, r))  # partial sums, then a batch's a
    for b in range(n_blocks):
        i, j = b % 2, b % BATCH
        saved[j] = at[i]
        if j + 1 == BATCH or b + 1 == n_blocks:
            b0 = b - j  # the batch's first block, its steps n0 + 1 .. n1
            n0, n1 = b0 * BLOCK, min((b + 1) * BLOCK, m_max)
            full = (n1 - n0) // BLOCK
            # one product for its blocks of BLOCK steps, one for a last
            # block cut short at m_max; k returns per block
            for c0, c1 in ((0, full), (full, j + 1)):
                k = min(BLOCK, n1 - n0 - c0 * BLOCK) // 2
                np.multiply(np.matmul(ret_rows[:, :k], saved[c0:c1])[..., 0]
                            .transpose(0, 2, 1), w0,
                            out=ret[b0 + c0 : b0 + c1, :k])
            run[1 : n1 - n0 + 1] = a[n0 + 1 : n1 + 1]
            np.add.accumulate(run[: n1 - n0 + 1], out=run[: n1 - n0 + 1])
            if cap < min(run[n1 - n0].tolist()):  # partial sums only grow
                break
            run[0] = run[n1 - n0]
        if b + 1 < n_blocks:
            np.einsum("ij,ij->i", band, win[i], out=states[1 - i])
    return a[: m_max + 1].T


def _log_passage(ker, log_w, log_w0, m_max: int, cap: float):
    """a of the rows of ``first_passage`` whose state may overflow, one
    class step at a time in logs (``_class_sweep``), up to the step at
    which the last one's partial sum passes cap; log_w, (rows, sites), is
    -inf at the origin.  No row can overflow, underflow or leak into
    another, and the walk returns at even steps only.  A site of weight
    +inf (overflowed) that the walk has not reached stays at -inf, and an
    infinite value on the origin is killed."""
    _, steps, log_ws, back = _class_sweep(ker, len(log_w), log_w, log=True)
    at = back[0, ker.origin]
    infinite = (log_ws == math.inf).any()
    a = np.zeros((len(log_w), m_max + 1))
    partial = np.zeros(len(log_w))
    for n in range(1, m_max + 1):
        by_row = steps[n % 2]()
        if n % 2 == 0:
            np.exp(by_row[:, at] + log_w0, out=a[:, n])
            partial += a[:, n]
            if not (partial <= cap).any():
                break
        if infinite:  # -inf + inf and inf - inf, 0 mass either way
            with np.errstate(invalid="ignore"):
                by_row += log_ws[n % 2]
            by_row[np.isnan(by_row)] = -math.inf
        else:
            by_row += log_ws[n % 2]
    return a


@np.errstate(over="ignore")  # an overflowing partial sum stops its row
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
    removes mass, so a row with max(w)^m_max <= 1e200 and a finite e^log_w0
    cannot overflow: all such rows take BLOCK steps per banded product on
    e^log_w, together, on the origin's parity class, the only sites their
    state reaches at a block's end; their returns inside a block, at even
    steps, are read off the band build.  Every other row runs one exact
    recursion in logs, one parity-class step per step.  Either way a row's
    bits do not depend on the rows next to it.
    """
    log_w = np.asarray(log_w, dtype=float)
    rows, sites = log_w.shape[:-1], log_w.shape[-1]
    log_w = log_w.reshape(-1, sites).copy()
    log_w[:, ker.origin] = -math.inf  # kills returns
    log_w0 = np.broadcast_to(np.asarray(log_w0, dtype=float), rows).ravel()
    cap = min(cap, sys.float_info.max)  # an overflowed partial sum passes it
    in_logs = ((m_max * log_w.max(axis=1) > math.log(1e200))
               | (log_w0 > math.log(sys.float_info.max)))
    a, block = np.zeros((len(log_w), m_max + 1)), ~in_logs
    if block.any():  # math.exp, whose bits np.exp does not always have
        w0 = np.array([math.exp(x) for x in log_w0[block].tolist()])
        a[block] = _block_passage(ker, np.exp(log_w[block]), w0, m_max, cap)
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
