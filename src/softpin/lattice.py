"""Truncated height-lattice stepping kernels.

Everything downstream (partition functions, return laws, excursion sums)
walks the same tridiagonal structure: nearest-neighbour steps on heights
truncated at ``|x| = L``, with the outward step at the boundary folded back
onto the inward one so the kernel stays stochastic.  Two layouts are
supported: a *folded* lattice over ``|x| in {0..L}`` (valid whenever the site
weights are symmetric, since the drift is antisymmetric) and a *signed*
lattice over ``x in {-L..L}``.

``first_passage`` is the one killed first-passage loop on these kernels:
the first-return law and the weighted excursion sums both run through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    """Nearest-neighbour kernel; p_up[i] + p_down[i] == 1 for every state."""

    l: int
    p_up: np.ndarray
    p_down: np.ndarray

    def step(self, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """One transition of the mass on the last axis of v, (..., sites).

        Every leading index is an independent row; ``out`` must not share
        memory with ``v``.
        """
        if out is None:
            out = np.empty_like(v)
        np.multiply(v[..., :-1], self.p_up[:-1], out=out[..., 1:])
        out[..., 0] = 0.0
        out[..., :-1] += v[..., 1:] * self.p_down[1:]
        return out


@dataclass(frozen=True)
class FoldedKernel(_Kernel):
    """Transition kernel of |S| on {0..L}.

    p_up[L] = 0 encodes the reflecting truncation, p_up[0] = 1 because both
    signed steps out of the origin land on |x| = 1.
    """


@dataclass(frozen=True)
class SignedKernel(_Kernel):
    """Transition kernel on {-L..L}; index i corresponds to height i - L."""

    @property
    def origin(self) -> int:
        return self.l

    def heights(self) -> np.ndarray:
        return np.arange(-self.l, self.l + 1)


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
    return FoldedKernel(l=l, p_up=p_up, p_down=p_down)


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
    return SignedKernel(l=l, p_up=p_up, p_down=p_down)


def layout(walk, spec, n: int, l: int | None = None,
           folded: bool | None = None):
    """(kernel, heights, origin) for an n-step recursion of walk under spec.

    The folded lattice serves symmetric potentials unless ``folded`` is
    False; l defaults to the walk's truncation height for n steps.
    """
    use_folded = spec.symmetric if folded is None else folded
    if use_folded and not spec.symmetric:
        raise ValueError("folded recursion needs a symmetric potential")
    l_eff = l if l is not None else walk.resolve_l(n)
    if use_folded:
        return folded_kernel(walk.drift, l_eff), np.arange(l_eff + 1), 0
    ker = signed_kernel(walk.drift, l_eff)
    return ker, ker.heights(), ker.origin


def first_passage(ker, origin: int, w: np.ndarray, w0: float, m_max: int,
                  cap: float) -> tuple[np.ndarray, bool, int]:
    """Killed first-passage recursion of a walk started at ``origin``.

    Each step moves the state by ``ker``; the mass that lands on the origin,
    times the return weight w0, is a[n] and is removed, and the rest is
    multiplied by the off-origin site weights w.  Returns (a, diverged,
    m_stop): the loop stops early, with diverged=True and a zero past
    m_stop, once the partial sum of a passes cap or the state stops being
    finite and below 1e200 (an overflowed weight turns 0 * inf into NaN).
    """
    a = np.zeros(m_max + 1)
    v = np.zeros(len(w))
    v[origin] = 1.0
    nxt = np.zeros_like(v)
    partial = 0.0
    bounded = bool(np.all(w <= 1.0))  # v then stays a sub-probability vector
    for n in range(1, m_max + 1):
        nxt = ker.step(v, nxt)
        if nxt[origin]:  # 0 * inf would poison the sum when w0 overflows
            a[n] = nxt[origin] * w0
        nxt[origin] = 0.0
        np.multiply(nxt, w, out=nxt)
        v, nxt = nxt, v
        partial += a[n]
        if not (partial <= cap and (bounded or v.max() <= 1e200)):
            return a, True, n
    return a, False, m_max
