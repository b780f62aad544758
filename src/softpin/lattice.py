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
killed first-passage loop, runs the first-return law and the weighted
excursion sums, the latter many phase points at a time as rows.
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


def first_passage(ker, w: np.ndarray, w0, m_max: int, cap: float):
    """Killed first-passage recursions of walks started at ``ker.origin``.

    Each row of the site weights w, rows + (sites,), and return weights w0,
    rows, is an independent walk.  Each step moves the state by ``ker``; the
    mass on the origin, times w0, is a[n] and is removed, and the rest is
    multiplied by w.  Returns (a, diverged, m_stop) per row (a bool and an
    int for rows = ()).  A row stops, with diverged=True and a zero past
    m_stop, once its partial sum of a passes cap or its state stops being
    finite and below 1e200 (an overflowed weight turns 0 * inf into NaN);
    its state and weights are zeroed, and the loop ends with the last row.
    """
    w = np.asarray(w, dtype=float)
    rows, sites = w.shape[:-1], w.shape[-1]
    r = math.prod(rows)
    # sum(v_n) <= max(w)^n, as the kernel is stochastic and killing only
    # removes mass: below 1e200 the state needs no per-step check
    w_top = float(w.max())
    bounded = w_top <= 1.0 or m_max * math.log(w_top) <= math.log(1e200)
    origin, ker = ker.origin, ker.tiled(r)
    w = np.where(np.arange(sites) == origin, 0.0, w).ravel()  # kills returns
    seg = [slice(i * sites, (i + 1) * sites) for i in range(r)]
    at = slice(origin, None, sites)
    v, nxt = np.zeros(r * sites), np.zeros(r * sites)
    v[at] = 1.0
    w0 = np.broadcast_to(np.asarray(w0, dtype=float), rows).ravel().tolist()
    a = np.zeros((r, m_max + 1))
    partial, m_stop, live = [0.0] * r, [m_max] * r, list(range(r))
    for n in range(1, m_max + 1):
        nxt = ker.step(v, nxt)
        ret = nxt[at].tolist()
        np.multiply(nxt, w, out=nxt)
        v, nxt = nxt, v
        blown = not (bounded or v.max() <= 1e200)
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
    diverged = [i not in live for i in range(r)]
    if not rows:
        return a[0], diverged[0], m_stop[0]
    return (a.reshape(rows + (-1,)), np.reshape(diverged, rows),
            np.reshape(m_stop, rows))
