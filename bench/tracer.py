"""Span tracer for softpin's public functions, installed from outside.

``Tracer.install`` wraps each function in ``TRACED`` and rebinds the wrapper
in every loaded ``softpin`` module namespace that holds the original, so
calls made through ``from .module import name`` bindings are seen as well;
``Tracer.restore`` puts every original back.  The package itself is never
edited.

A span is one call: span id, name, op index, thread, parent span id, start,
end, thread-CPU time and a work count taken from the call's arguments or
result.  Spans are kept in memory as flat float64 records, one buffer per
thread, and handed out by ``Tracer.spans``; each pass uses a fresh
tracer.  A span opened in a pool worker thread, whose own stack is empty,
is parented to the open ``cli.run`` span.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
from array import array
from time import perf_counter, thread_time

import numpy as np

# record columns
ID, NAME, OP, THREAD, PARENT, T0, T1, CPU, WORK = range(9)
N_COLUMNS = 9

# the kernel step's numpy operations read or write 13 doubles per site:
# the zero fill, two products (two reads, one temporary) and two in-place
# adds (two reads, one write); a count computed from array sizes, not a
# measured memory traffic
BYTES_PER_SITE = 13 * 8


def _sites(args, result):
    return len(args[1])


def _sweep_steps(args, result):
    return int(result.n_values[-1])


def _rows(args, result):
    return result.n_samples


def _m_stop(args, result):
    return result.m_stop


def _path_steps(args, result):
    return round(result.T / result.dt) * result.n_paths


# (module, attribute path, span name, work count from (args, result))
TRACED = (
    ("softpin.lattice", "FoldedKernel.step", "lattice.step", _sites),
    ("softpin.lattice", "SignedKernel.step", "lattice.step", _sites),
    ("softpin.transfer", "quenched_sweep", "transfer.quenched_sweep",
     _sweep_steps),
    ("softpin.transfer", "quenched_free_energy",
     "transfer.quenched_free_energy", _rows),
    ("softpin.transfer", "annealed_sweep", "transfer.annealed_sweep", None),
    ("softpin.transfer", "renewal_root", "transfer.renewal_root", None),
    ("softpin.localization", "excursion_weights",
     "localization.excursion_weights", _m_stop),
    ("softpin.localization", "excursion_sum", "localization.excursion_sum",
     None),
    ("softpin.localization", "annealed_critical_h",
     "localization.annealed_critical_h", None),
    ("softpin.localization", "quenched_critical_h",
     "localization.quenched_critical_h", None),
    ("softpin.model", "return_law", "model.return_law", None),
    ("softpin.model", "estimate_c_weights", "model.estimate_c_weights", None),
    ("softpin.scaling", "series_coefficient", "scaling.series_coefficient",
     None),
    ("softpin.scaling", "scaled_free_energy", "scaling.scaled_free_energy",
     None),
    ("softpin.continuum", "continuum_free_energy_mc",
     "continuum.continuum_free_energy_mc", _path_steps),
    ("softpin.cli", "run", "cli.run", None),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name, _ in TRACED))
ROOT_SPAN = "cli.run"


class Tracer:
    """Wraps softpin's public functions and records one span per call."""

    def __init__(self):
        self.op = -1  # index of the op being run, set by the benchmark
        self._saved: list[tuple[object, str, object]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers: list[array] = []
        self._ids = itertools.count()
        self._open_root = -1

    # ------------------------------------------------------------ rebinding

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module_name, attr, name, work in TRACED:
            module = importlib.import_module(module_name)
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = getattr(owner, fn_name)
            wrapper = self._wrap(original, SPAN_NAMES.index(name), work,
                                 name == ROOT_SPAN)
            if owner_name:  # a method: the class is the only binding
                self._rebind(owner, fn_name, wrapper)
                continue
            for loaded_name, loaded in list(sys.modules.items()):
                if loaded_name != "softpin" and not loaded_name.startswith(
                        "softpin."):
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        self._rebind(loaded, key, wrapper)

    def _rebind(self, owner, key: str, wrapper) -> None:
        self._saved.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def restore(self) -> None:
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # ---------------------------------------------------------------- spans

    def _thread_state(self):
        local = self._local
        if not hasattr(local, "stack"):
            with self._lock:
                local.thread = len(self._buffers)
                local.buffer = array("d")
                self._buffers.append(local.buffer)
            local.stack = []
        return local

    def _wrap(self, fn, name_index: int, work, is_root: bool):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = tracer._thread_state()
            stack = state.stack
            parent = stack[-1] if stack else tracer._open_root
            span = next(tracer._ids)
            stack.append(span)
            if is_root:
                tracer._open_root = span
            result = None
            t0 = perf_counter()
            c0 = thread_time()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                cpu = thread_time() - c0
                t1 = perf_counter()
                stack.pop()
                if is_root:
                    tracer._open_root = -1
                count = work(args, result) if work and result is not None \
                    else 0
                state.buffer.extend((span, name_index, tracer.op,
                                     state.thread, parent, t0, t1, cpu,
                                     count))

        return traced

    def spans(self) -> np.ndarray:
        """All spans recorded so far as an (n, N_COLUMNS) array sorted by
        id."""
        with self._lock:
            buffers = list(self._buffers)
        flat = np.concatenate([np.frombuffer(b, dtype=np.float64)
                               for b in buffers]) if buffers else np.zeros(0)
        rec = flat.reshape(-1, N_COLUMNS)
        return rec[np.argsort(rec[:, ID], kind="stable")]


# ---------------------------------------------------------------- summaries

def _union_length(starts: np.ndarray, ends: np.ndarray) -> float:
    """Length of the union of the intervals [starts[i], ends[i]]."""
    total, reach = 0.0, -np.inf
    for s, e in sorted(zip(starts.tolist(), ends.tolist())):
        if e > reach:
            total += e - max(s, reach)
            reach = e
    return total


def _parent_rows(rec: np.ndarray):
    """Row of each span's parent (0 where there is none) and a mask of the
    spans that have one."""
    has_parent = rec[:, PARENT] >= 0
    rows = np.searchsorted(rec[:, ID], rec[:, PARENT])
    rows[~has_parent] = 0
    return rows, has_parent


def span_times(rec: np.ndarray):
    """Per-span (self_s, wait_s).

    self_s is the span's duration minus the time its child spans cover.
    Children on the span's own thread run one at a time, so their
    durations add; children on pool threads may overlap and are merged.
    wait_s is the wall time the span's own thread spent in the span outside
    its same-thread children, minus the thread CPU it used there: waiting
    on the interpreter lock, the scheduler, or (for ``cli.run``) the pool.
    """
    n = len(rec)
    dur = rec[:, T1] - rec[:, T0]
    parent_row, has_parent = _parent_rows(rec)
    same = has_parent & (rec[parent_row, THREAD] == rec[:, THREAD])
    kid_dur = np.bincount(parent_row[same], weights=dur[same], minlength=n)
    kid_cpu = np.bincount(parent_row[same], weights=rec[same, CPU],
                          minlength=n)
    cover = kid_dur.copy()
    for p in np.unique(parent_row[has_parent & ~same]):
        kids = has_parent & (parent_row == p)
        cover[p] = _union_length(rec[kids, T0], rec[kids, T1])
    self_s = dur - cover
    wait_s = (dur - kid_dur) - (rec[:, CPU] - kid_cpu)
    return self_s, wait_s


def _child_count(rec: np.ndarray, child: str, parent: str) -> int:
    parent_row, has_parent = _parent_rows(rec)
    is_child = has_parent & (rec[:, NAME] == SPAN_NAMES.index(child))
    return int(np.sum(rec[parent_row[is_child], NAME]
                      == SPAN_NAMES.index(parent)))


def layer_metrics(rec: np.ndarray, wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass whose wall time was ``wall``."""
    self_s, wait_s = span_times(rec)
    out: dict[str, float] = {}
    work = {}
    for k, name in enumerate(SPAN_NAMES):
        mask = rec[:, NAME] == k
        out[f"{name}.calls"] = int(mask.sum())
        out[f"{name}.self_s"] = float(self_s[mask].sum())
        out[f"{name}.wait_s"] = float(wait_s[mask].sum())
        work[name] = int(rec[mask, WORK].sum())
    out["lattice.site_updates"] = work["lattice.step"]
    out["lattice.bytes_computed"] = work["lattice.step"] * BYTES_PER_SITE
    out["transfer.quenched_sweep.steps"] = work["transfer.quenched_sweep"]
    out["transfer.quenched_free_energy.rows"] = \
        work["transfer.quenched_free_energy"]
    out["localization.excursion_weights.steps"] = \
        work["localization.excursion_weights"]
    out["continuum.path_steps"] = work["continuum.continuum_free_energy_mc"]
    out["localization.annealed_critical_h.evals"] = _child_count(
        rec, "localization.excursion_sum", "localization.annealed_critical_h")
    out["localization.quenched_critical_h.evals"] = _child_count(
        rec, "transfer.quenched_free_energy",
        "localization.quenched_critical_h")
    roots = rec[:, NAME] == SPAN_NAMES.index(ROOT_SPAN)
    out["cli.run.cover_frac"] = float(
        np.sum(rec[roots, T1] - rec[roots, T0]) / wall)
    return out
