"""Batch command-line front end.

Subcommands
-----------
free-energy     annealed (optionally quenched Monte Carlo) free-energy ladders
critical-curve  annealed critical heights across a beta grid, with optional
                rescaled lower bound and quenched Monte Carlo brackets; the
                grid's annealed searches run in lockstep, one height per
                search and round, and each gives the bracket it gives alone
localize        excursion-sum localization criterion at one phase point
bessel-check    walk diagnostics: return-law mass, local-limit ratios,
                transition-density normalizations
scaling         weak-coupling ladder N * F_ann and expansion coefficients
continuum       continuum closed forms and Monte Carlo free energy

Configuration
-------------
One YAML document per run (``--config PATH``)::

    seed: 12345                  # optional, default 0; --seed overrides
    model:                       # lattice subcommands only
      walk: {alpha: 0.5, epsilon_corr: 0.0, l_max: null}
      potential: {kind: pinning, amplitude: 1.0}
        # kinds: pinning | copolymer | power_tail (needs 0 < theta < inf)
        #        | table (mapping height -> value)
      charges: {law: gaussian}   # gaussian | bernoulli_pm1 (optional)
    task: {...}                  # subcommand parameters, see below
    numerics: {m_max, l, tol, n_points}            # optional, each key too
    output: {dir: ".", format: csv, prefix: null}  # optional

A key left out of ``model`` or ``numerics`` takes the default of the
library function or class it is passed to.  ``numerics.l``, when set, is
the walk's truncation height for every recursion of the run, and wins over
``model.walk.l_max``.

Task blocks::

    free-energy:    {beta, h, n_max, quenched: {n_samples}?}
    critical-curve: {beta_grid: [..], lower_bound: false,
                     quenched: {n_samples, n_max, detect, tol}?}
    localize:       {beta, h, kappa: 1.0, return_mass: 1.0}
    bessel-check:   {alpha, n, ks: [0..4], n_probe: 4*n?, epsilon_corr: 0.0}
    scaling:        {alpha, theta, beta_hat, h_hat, n_ladder: [..],
                     m_mult: 48, cstar_phi: null, cstar_phi2: null,
                     k_weights: 64, n_probe: 4096, series: {k: 1, T: 1.0}?}
    continuum:      {alpha, theta, c_tail: 1.0, beta_hat, h_hat,
                     cstar_phi: null, cstar_phi2: null,
                     ztilde: {mu, T}?,
                     mc: {T, n_paths, dt?, eps?, n_bootstrap?}?}

``bessel-check`` and ``continuum`` read everything from their task block
and need no model block.

The blocks are checked against the schemas below by ``_check``, which
reads the nine JSON Schema keywords they use, with draft 2020-12's
meaning: ``type`` (1.0 is an integer, handed on as 1; a bool is neither a
number nor an integer), ``enum``, ``minimum``, ``exclusiveMinimum``,
``properties``, ``required``, ``additionalProperties``, ``items`` and
``minItems``.  A message names the first offending place, as in
``config.task.beta``.

Importing this module loads numpy and PyYAML, but no scipy and no schema
library: ``scaling``, ``continuum`` and ``bessel-check`` import the
scipy-backed modules in their handlers.  A partition sweep needs numpy
alone, in logs too, so ``free-energy``, ``critical-curve`` and
``localize`` load no scipy.

Reproducibility
---------------
Outputs depend only on the effective config (the YAML after flag
overrides): re-running the same code with the same config and seed
reproduces every file byte for byte.  Job j of a run draws its seed as the
first 64-bit word of ``numpy.random.SeedSequence(seed, spawn_key=(j,))``;
jobs are numbered in task order (grid position first).  ``--threads`` is
accepted and ignored: jobs run one after another in the calling thread,
because the per-step loops hold the interpreter lock and a thread pool only
slowed runs down.  CSV files open with comment lines carrying the SHA-256
of the numeric config blocks as written (seed, model, task, numerics) and
the toolkit version; JSON files carry the same fields in a leading
``_meta`` object.

Exit codes: 0 success; 2 invalid config (a non-finite number, a
non-integer table height or a non-number table value among them),
unknown subcommand, or unwritable output; 3 numeric non-convergence
(divergence flags, failed brackets, arithmetic failures, non-finite
results, unconverged ladders and flagged Monte Carlo estimates).  The
handler computes every table of the run before ``_write`` checks them all
and opens a file, so a run that stops on an error (exit 2, or exit 3 from
the numerics or a non-finite cell) writes no file.  An unconverged ladder
or a flagged Monte Carlo estimate exits 3 and still writes every file.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import numbers
import os
import sys
from dataclasses import replace

import numpy as np
import yaml

from . import __version__
from .lattice import height_law, layout
from .localization import (
    annealed_critical_curve,
    quenched_critical_h,
    transient_criterion,
)
from .model import (
    ChargeModel,
    PotentialSpec,
    WalkSpec,
    estimate_c_weights,
    return_law,
)
from .transfer import (
    FreeEnergyEstimate,
    annealed_free_energy,
    quenched_free_energy,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

SUBCOMMANDS = (
    "free-energy",
    "critical-curve",
    "localize",
    "bessel-check",
    "scaling",
    "continuum",
)

MODEL_FREE = {"bessel-check", "continuum"}  # read the task block only


class ConfigError(Exception):
    """Invalid configuration: wrong schema, file problems, bad values."""


# ------------------------------------------------------------------- schema

def _num(minimum=None, exclusive=None):
    out = {"type": "number"}
    if minimum is not None:
        out["minimum"] = minimum
    if exclusive is not None:
        out["exclusiveMinimum"] = exclusive
    return out


def _int(minimum=None):
    out = {"type": "integer"}
    if minimum is not None:
        out["minimum"] = minimum
    return out


def _int_list(minimum=1):
    return {"type": "array", "items": _int(minimum), "minItems": 1}


_WALK = {
    "type": "object",
    "properties": {
        "alpha": _num(exclusive=0.0),
        "epsilon_corr": _num(minimum=0.0),
        "l_max": {"type": ["integer", "null"], "minimum": 1},
    },
    "required": ["alpha"],
    "additionalProperties": False,
}

_POTENTIAL = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["pinning", "copolymer", "power_tail", "table"]},
        "amplitude": _num(exclusive=0.0),
        "theta": {"type": ["number", "null"]},
        "table": {"type": "object", "additionalProperties": {"type": "number"}},
    },
    "required": ["kind"],
    "additionalProperties": False,
}

_CHARGES = {
    "type": "object",
    "properties": {"law": {"enum": ["gaussian", "bernoulli_pm1"]}},
    "additionalProperties": False,
}

_MODEL = {
    "type": "object",
    "properties": {"walk": _WALK, "potential": _POTENTIAL, "charges": _CHARGES},
    "required": ["walk", "potential"],
    "additionalProperties": False,
}

_NUMERICS = {
    "type": "object",
    "properties": {
        "m_max": _int(8),
        "l": {"type": ["integer", "null"], "minimum": 1},
        "tol": _num(exclusive=0.0),
        "n_points": _int(2),
    },
    "additionalProperties": False,
}

_OUTPUT = {
    "type": "object",
    "properties": {
        "dir": {"type": "string"},
        "format": {"enum": ["csv", "json"]},
        "prefix": {"type": ["string", "null"]},
    },
    "additionalProperties": False,
}

_TASKS = {
    "free-energy": {
        "type": "object",
        "properties": {
            "beta": _num(minimum=0.0),
            "h": _num(),
            "n_max": _int(16),
            "quenched": {
                "type": "object",
                "properties": {"n_samples": _int(1)},
                "required": ["n_samples"],
                "additionalProperties": False,
            },
        },
        "required": ["beta", "h", "n_max"],
        "additionalProperties": False,
    },
    "critical-curve": {
        "type": "object",
        "properties": {
            "beta_grid": {"type": "array", "items": _num(minimum=0.0),
                          "minItems": 1},
            "lower_bound": {"type": "boolean"},
            "quenched": {
                "type": "object",
                "properties": {
                    "n_samples": _int(1),
                    "n_max": _int(16),
                    "detect": _num(exclusive=0.0),
                    "tol": _num(exclusive=0.0),
                },
                "required": ["n_samples", "n_max"],
                "additionalProperties": False,
            },
        },
        "required": ["beta_grid"],
        "additionalProperties": False,
    },
    "localize": {
        "type": "object",
        "properties": {
            "beta": _num(minimum=0.0),
            "h": _num(),
            "kappa": _num(exclusive=0.0),
            "return_mass": _num(exclusive=0.0),
        },
        "required": ["beta", "h"],
        "additionalProperties": False,
    },
    "bessel-check": {
        "type": "object",
        "properties": {
            "alpha": _num(exclusive=0.0),
            "n": _int(4),
            "ks": _int_list(minimum=0),
            "n_probe": _int(4),
            "epsilon_corr": _num(minimum=0.0),
        },
        "required": ["alpha", "n"],
        "additionalProperties": False,
    },
    "scaling": {
        "type": "object",
        "properties": {
            "alpha": _num(exclusive=0.0),
            "theta": _num(exclusive=0.0),
            "beta_hat": _num(exclusive=0.0),
            "h_hat": _num(exclusive=0.0),
            "n_ladder": _int_list(minimum=2),
            "m_mult": _int(4),
            "cstar_phi": {"type": ["number", "null"]},
            "cstar_phi2": {"type": ["number", "null"]},
            "k_weights": _int(1),
            "n_probe": _int(4),
            "series": {
                "type": "object",
                "properties": {"k": _int(1), "T": _num(exclusive=0.0)},
                "additionalProperties": False,
            },
        },
        "required": ["alpha", "theta", "beta_hat", "h_hat", "n_ladder"],
        "additionalProperties": False,
    },
    "continuum": {
        "type": "object",
        "properties": {
            "alpha": _num(exclusive=0.0),
            "theta": _num(exclusive=0.0),
            "c_tail": _num(exclusive=0.0),
            "beta_hat": _num(exclusive=0.0),
            "h_hat": _num(exclusive=0.0),
            "cstar_phi": {"type": ["number", "null"]},
            "cstar_phi2": {"type": ["number", "null"]},
            "ztilde": {
                "type": "object",
                "properties": {"mu": _num(exclusive=0.0),
                               "T": _num(exclusive=0.0)},
                "required": ["mu", "T"],
                "additionalProperties": False,
            },
            "mc": {
                "type": "object",
                "properties": {
                    "T": _num(exclusive=0.0),
                    "n_paths": _int(2),
                    "dt": _num(exclusive=0.0),
                    "eps": _num(exclusive=0.0),
                    "n_bootstrap": _int(2),
                },
                "required": ["T", "n_paths"],
                "additionalProperties": False,
            },
        },
        "required": ["alpha", "theta", "beta_hat", "h_hat"],
        "additionalProperties": False,
    },
}

_BASE = {
    "type": "object",
    "properties": {
        "seed": _int(0),
        "model": _MODEL,
        "task": {"type": "object"},
        "numerics": _NUMERICS,
        "output": _OUTPUT,
    },
    "required": ["task"],
    "additionalProperties": False,
}


def _at(path: str, key) -> str:
    return path + (f".{key}" if isinstance(key, str) else f"[{key!r}]")


def _nonfinite(obj, path: str = ""):
    """Paths of the non-finite numbers in obj: YAML's .inf and .nan pass
    the schema's number type."""
    if isinstance(obj, float) and not math.isfinite(obj):
        yield path
    elif isinstance(obj, (dict, list)):
        for k, v in obj.items() if isinstance(obj, dict) else enumerate(obj):
            yield from _nonfinite(v, _at(path, k))


def _is_number(v) -> bool:
    return isinstance(v, numbers.Number) and not isinstance(v, bool)


_IS_TYPE = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
    "number": _is_number,
    "integer": lambda v: (v.is_integer() if isinstance(v, float)
                          else isinstance(v, int) and not isinstance(v, bool)),
}


def _check(schema: dict, value, path: str):
    """value with its integer nodes as int (1.0 as 1), or ConfigError at
    the first place it breaks schema, read as draft 2020-12 reads the nine
    keywords of the module docstring."""
    types = schema.get("type", ())
    types = [types] if isinstance(types, str) else types
    if types and not any(_IS_TYPE[t](value) for t in types):
        raise ConfigError(f"{path}: {value!r} is not of type "
                          + " or ".join(map(repr, types)))
    if "integer" in types and isinstance(value, float):
        value = int(value)
    if "enum" in schema and value not in schema["enum"]:
        raise ConfigError(f"{path}: {value!r} is not one of {schema['enum']}")
    if _is_number(value):
        if "minimum" in schema and value < schema["minimum"]:
            raise ConfigError(f"{path}: {value!r} is less than the minimum "
                              f"of {schema['minimum']!r}")
        if "exclusiveMinimum" in schema and \
                value <= schema["exclusiveMinimum"]:
            raise ConfigError(f"{path}: {value!r} is not greater than "
                              f"{schema['exclusiveMinimum']!r}")
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                raise ConfigError(f"{path}: {key!r} is a required property")
        props = schema.get("properties", {})
        extra = schema.get("additionalProperties", True)
        checked = {}
        for key, item in value.items():
            if key in props:
                item = _check(props[key], item, _at(path, key))
            elif extra is False:
                raise ConfigError(f"{path}: unknown key {key!r}")
            elif extra is not True:
                item = _check(extra, item, _at(path, key))
            checked[key] = item
        return checked
    if isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            raise ConfigError(f"{path}: needs at least {schema['minItems']} "
                              "items")
        return [_check(schema.get("items", {}), item, _at(path, i))
                for i, item in enumerate(value)]
    return value


def _validate(config: dict, subcommand: str) -> dict:
    """config checked, with its integer nodes as int for the handlers."""
    if not isinstance(config, dict):
        raise ConfigError("config must be a mapping")
    for path in _nonfinite(config):
        raise ConfigError(f"config{path}: not a finite number")
    checked = _check(_BASE, config, "config")
    if subcommand not in MODEL_FREE and "model" not in config:
        raise ConfigError(f"config: {subcommand} needs a model block")
    checked["task"] = _check(_TASKS[subcommand], config["task"], "config.task")
    return checked


# ----------------------------------------------------------- config plumbing

def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            # libyaml's scanner where PyYAML was built with it; the same
            # SafeConstructor builds the same objects either way
            loaded = yaml.load(fh, Loader=getattr(yaml, "CSafeLoader",
                                                  yaml.SafeLoader))
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    except (yaml.YAMLError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from None
    if loaded is None:
        raise ConfigError("config file is empty")
    return loaded


def _canonical(obj):
    """Nested structure with string keys only, for stable hashing."""
    if isinstance(obj, dict):
        return {str(k): _canonical(obj[k]) for k in sorted(obj, key=str)}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    return obj


def config_digest(config: dict, seed: int) -> str:
    """SHA-256 over the blocks that determine the numbers (not output paths)."""
    payload = _canonical({
        "seed": seed,
        "model": config.get("model", {}),
        "task": config.get("task", {}),
        "numerics": config.get("numerics", {}),
    })
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def job_seed(root: int, j: int) -> int:
    """Seed of job j: first 64-bit word of SeedSequence(root, spawn_key=(j,))."""
    ss = np.random.SeedSequence(root, spawn_key=(j,))
    return int(ss.generate_state(1, np.uint64)[0])


def _present(block: dict, *keys) -> dict:
    """The entries of block named in keys; absent ones keep their default."""
    return {k: block[k] for k in keys if k in block}


def _height(key) -> int:
    """A table key as an integer height: an int, or a string spelling one."""
    try:
        if isinstance(key, str) or (isinstance(key, int)
                                    and not isinstance(key, bool)):
            return int(key)
    except ValueError:
        pass
    raise ConfigError(
        f"config model.potential.table: height {key!r} is not an integer")


def _build_model(config: dict):
    m = config["model"]
    walk = WalkSpec(**m["walk"])
    l = config.get("numerics", {}).get("l")
    if l is not None:  # wins over model.walk.l_max
        walk = replace(walk, l_max=l)
    pot = dict(m["potential"])
    if pot.get("table") is not None:
        pot["table"] = {_height(k): float(v) for k, v in pot["table"].items()}
    kwargs = {k: v for k, v in pot.items() if v is not None}
    spec = PotentialSpec(**kwargs)
    charges = ChargeModel(**m.get("charges", {}))
    return walk, spec, charges


def _plain(v):
    """Collapse numpy scalars so CSV repr and JSON encoding stay canonical."""
    if isinstance(v, np.bool_):
        return bool(v)
    if isinstance(v, np.integer):
        return int(v)
    if isinstance(v, np.floating):
        return float(v)
    return v


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _write(tables, out_dir: str, fmt: str, prefix: str, meta: dict) -> None:
    """Write each (stem, columns, row dicts) table to out_dir as
    ``{prefix}{stem}.{fmt}``; a non-finite cell in any table raises
    FloatingPointError before any file is opened."""
    plain = [(stem, columns, [[_plain(r.get(c)) for c in columns]
                              for r in rows])
             for stem, columns, rows in tables]
    for stem, columns, rows in plain:
        for cells in rows:
            for c, v in zip(columns, cells):
                if isinstance(v, float) and not math.isfinite(v):
                    raise FloatingPointError(
                        f"non-finite {c} = {v!r} in {stem}; no file written")
    for stem, columns, rows in plain:
        path = os.path.join(out_dir, f"{prefix}{stem}.{fmt}")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            if fmt == "csv":
                fh.write(f"# config sha256 {meta['config_sha256']}\n"
                         f"# softpin {meta['version']}\n"
                         f"# subcommand {meta['subcommand']}\n")
                fh.write(",".join(columns) + "\n")
                for cells in rows:
                    fh.write(",".join(map(_cell, cells)) + "\n")
            else:
                json.dump({
                    "_meta": meta,
                    "columns": list(columns),
                    "rows": [dict(zip(columns, cells)) for cells in rows],
                }, fh, indent=2)
                fh.write("\n")


# ------------------------------------------------------------ output columns

LADDER_COLUMNS = ("N", "log_Z_free", "log_Z_constrained", "f_free", "f_constrained")
QUENCHED_COLUMNS = LADDER_COLUMNS + ("sample", "seed")
CURVE_COLUMNS = (
    "beta", "hc_ann_lo", "hc_ann_hi", "hc_lower_bound",
    "hc_que_lo", "hc_que_hi", "confidence",
)
SCALED_COLUMNS = ("N", "beta_N", "h_N", "N_times_F", "continuum_target",
                  "rel_gap", "localized", "diverged")
SERIES_COLUMNS = ("N", "k", "C_TNk", "hatC_gamma_ak", "hatC_gamma_ak_plus1",
                  "rel_gap")


def ladder_csv_rows(estimate: FreeEnergyEstimate) -> list[dict]:
    """Row dicts of the ladder output; quenched runs add sample and seed."""
    rows = []
    for i, sw in enumerate(estimate.sample_sweeps or [estimate.ladder]):
        for j, n in enumerate(sw.n_values):
            row = {
                "N": int(n),
                "log_Z_free": float(sw.log_z_free[j]),
                "log_Z_constrained": float(sw.log_z_constrained[j]),
                "f_free": float(sw.log_z_free[j] / n),
                "f_constrained": float(sw.log_z_constrained[j] / n),
            }
            if estimate.sample_sweeps:
                row.update(sample=i, seed=estimate.seed)
            rows.append(row)
    return rows


# ------------------------------------------------------------------ handlers

def _run_free_energy(config, seed: int):
    walk, spec, charges = _build_model(config)
    task = config["task"]
    num = _present(config.get("numerics", {}), "n_points")
    ann = annealed_free_energy(
        walk, spec, charges, task["beta"], task["h"], task["n_max"], **num)
    tables = [("free_energy_ladder", LADDER_COLUMNS, ladder_csv_rows(ann))]
    summary = {
        "beta": task["beta"], "h": task["h"], "n_max": task["n_max"],
        "f_annealed": ann.value, "annealed_error": ann.error,
        "annealed_converged": ann.converged,
        "f_quenched": None, "quenched_error": None, "n_samples": None,
        "quenched_converged": None,
    }
    code = EXIT_OK if ann.converged else EXIT_NUMERIC
    if "quenched" in task:
        que = quenched_free_energy(
            walk, spec, charges, task["beta"], task["h"], task["n_max"],
            n_samples=task["quenched"]["n_samples"],
            seed=job_seed(seed, 0), **num,
        )
        tables.append(("free_energy_quenched", QUENCHED_COLUMNS,
                       ladder_csv_rows(que)))
        summary.update(
            f_quenched=que.value, quenched_error=que.error,
            n_samples=que.n_samples, quenched_converged=que.converged,
        )
        if not que.converged:
            code = EXIT_NUMERIC
    tables.append(("free_energy_summary", tuple(summary), [summary]))
    return code, tables


def _run_critical_curve(config, seed: int):
    walk, spec, charges = _build_model(config)
    task = config["task"]
    que = task.get("quenched")

    grid = task["beta_grid"]
    brackets, bounds = annealed_critical_curve(
        walk, spec, charges, grid, grid if task.get("lower_bound") else (),
        **_present(config.get("numerics", {}), "tol", "m_max"))
    rows = []
    for j, (beta, ann) in enumerate(zip(grid, brackets)):
        row = {
            "beta": beta, "hc_ann_lo": ann.lo, "hc_ann_hi": ann.hi,
            "hc_lower_bound": bounds[j].lo if bounds else None,
            "hc_que_lo": None, "hc_que_hi": None, "confidence": None,
        }
        if que is not None:
            q = quenched_critical_h(
                walk, spec, charges, beta, n_max=que["n_max"],
                n_samples=que["n_samples"], seed=job_seed(seed, j),
                **_present(que, "tol", "detect"),
            )
            row.update(hc_que_lo=q.lo, hc_que_hi=q.hi,
                       confidence=q.confidence)
        rows.append(row)
    return EXIT_OK, [("critical_curve", CURVE_COLUMNS, rows)]


def _run_localize(config, seed: int):
    walk, spec, charges = _build_model(config)
    task = config["task"]
    cv = transient_criterion(
        walk, spec, charges, task["beta"], task["h"],
        task.get("return_mass", 1.0), **_present(task, "kappa"),
        **_present(config.get("numerics", {}), "m_max"),
    )
    row = {
        "beta": task["beta"], "h": task["h"], "kappa": cv.kappa,
        "m_max": cv.m_max, "partial_sum": cv.value,
        # no tail bound on a sum that did not diverge: an empty cell
        "tail_bound": None if cv.tail_bound == math.inf and not cv.diverged
        else cv.tail_bound, "estimate": cv.estimate,
        "threshold": cv.threshold, "localized": cv.verdict,
        "diverged": cv.diverged,
    }
    return EXIT_OK, [("localize", tuple(row), [row])]


def _half_line_integral(alpha: float, t: float, x: float) -> float:
    from scipy.integrate import quad

    from .continuum import bessel_density

    lo, _ = quad(lambda y: bessel_density(alpha, t, x, y), 0.0, 1.0)
    hi, _ = quad(lambda y: bessel_density(alpha, t, x, y), 1.0, np.inf)
    return lo + hi


def _run_bessel_check(config, seed: int):
    task = config["task"]
    walk = WalkSpec(alpha=task["alpha"], **_present(task, "epsilon_corr"))
    n = task["n"]
    ks = task.get("ks", [0, 1, 2, 3, 4])
    rows = []

    mass = float(return_law(walk, n).sum())
    rows.append({"check": "return_mass", "param": n, "value": mass,
                 "target": 1.0, "ratio": mass})

    # height distribution after n steps, against the local-limit shape;
    # the reference weights come from a longer probe so the ratio is a
    # genuine consistency check, not an identity
    ker = layout(walk, None, n)
    v = height_law(ker, n)
    cw = estimate_c_weights(walk, k_max=max(ks),
                            n_probe=task.get("n_probe", 4 * n))
    for k in ks:
        if (n - k) % 2 != 0 or k > ker.l:
            rows.append({"check": "local_limit", "param": k, "value": 0.0,
                         "target": None, "ratio": None})
            continue
        ratio = n ** (1.0 - walk.alpha) * float(v[k]) / (2.0 * cw[k])
        rows.append({"check": "local_limit", "param": k,
                     "value": float(v[k]), "target": 1.0, "ratio": ratio})

    for x in (0.0, 0.7):
        integral = _half_line_integral(walk.alpha, 1.0, x)
        rows.append({"check": "density_norm", "param": x, "value": integral,
                     "target": 1.0, "ratio": integral})

    return EXIT_OK, [("bessel_check",
                      ("check", "param", "value", "target", "ratio"), rows)]


def _run_scaling(config, seed: int):
    from .continuum import ContinuumParams
    from .scaling import (
        ScalingSchedule,
        _cstar_pair,
        compare_to_continuum,
        scaled_free_energy,
    )

    walk, spec, charges = _build_model(config)
    task = config["task"]
    params = ContinuumParams(alpha=task["alpha"], theta=task["theta"])
    schedule = ScalingSchedule(
        params=params, beta_hat=task["beta_hat"], h_hat=task["h_hat"],
        n_ladder=tuple(task["n_ladder"]),
    )
    kwargs = _present(task, "cstar_phi", "cstar_phi2", "k_weights", "n_probe")
    if params.regime == "short_range":
        # the ladder's target and the series read one pair: estimate it once
        kwargs["cstar_phi"], kwargs["cstar_phi2"] = _cstar_pair(
            schedule, walk, spec, task.get("cstar_phi"),
            task.get("cstar_phi2"), **_present(task, "k_weights", "n_probe"))
    points = scaled_free_energy(
        schedule, walk, charges, spec, **_present(task, "m_mult"), **kwargs,
    )
    tables = [("scaling_ladder", SCALED_COLUMNS, [
        {
            "N": p.n, "beta_N": p.beta_n, "h_N": p.h_n,
            "N_times_F": p.n_times_f, "continuum_target": p.continuum_target,
            "rel_gap": p.rel_gap, "localized": p.localized,
            "diverged": p.diverged,
        }
        for p in points
    ])]
    if "series" in task:
        rows = compare_to_continuum(
            schedule, walk, charges, spec,
            **_present(task["series"], "T", "k"), **kwargs,
        )
        tables.append(("scaling_series", SERIES_COLUMNS, [
            {
                "N": r.n, "k": r.k, "C_TNk": r.c_tnk,
                "hatC_gamma_ak": r.hat_gamma_ak,
                "hatC_gamma_ak_plus1": r.hat_gamma_ak_plus1,
                "rel_gap": r.rel_gap,
            }
            for r in rows
        ]))
    return EXIT_OK, tables


def _run_continuum(config, seed: int):
    from .continuum import (
        ContinuumParams,
        ContinuumPhasePoint,
        continuum_critical_curve,
        continuum_free_energy_mc,
        continuum_free_energy_short,
        critical_exponent,
        sharp_constant,
        ztilde_growth_rate,
    )

    task = config["task"]
    params = ContinuumParams(alpha=task["alpha"], theta=task["theta"],
                             **_present(task, "c_tail"))
    cp = ContinuumPhasePoint(task["beta_hat"], task["h_hat"])
    rows = [
        {"name": "regime", "value": params.regime},
        {"name": "critical_exponent",
         "value": critical_exponent(params.alpha, params.theta)},
        {"name": "sharp_constant", "value": sharp_constant(params.alpha)},
    ]
    cs1, cs2 = task.get("cstar_phi"), task.get("cstar_phi2")
    if params.regime == "short_range" and cs1 is not None and cs2 is not None:
        rows.append({
            "name": "free_energy",
            "value": continuum_free_energy_short(params, cp, cs1, cs2),
        })
        rows.append({
            "name": "critical_h",
            "value": continuum_critical_curve(params, cs1, cs2, cp.beta_hat),
        })
    if "ztilde" in task:
        zt = task["ztilde"]
        rows.append({
            "name": "ztilde_growth_rate",
            "value": ztilde_growth_rate(zt["mu"], params.alpha, zt["T"]),
        })
        rows.append({
            "name": "ztilde_growth_target",
            "value": (zt["mu"] * math.gamma(params.alpha))
            ** (1.0 / params.alpha),
        })
    tables = [("continuum", ("name", "value"), rows)]
    if "mc" not in task:
        return EXIT_OK, tables
    mc = task["mc"]
    est = continuum_free_energy_mc(
        params, cp, T=mc["T"], n_paths=mc["n_paths"],
        seed=job_seed(seed, 0),
        **_present(mc, "dt", "eps", "n_bootstrap"),
        **({} if cs2 is None else {"cstar_phi2": cs2}),
    )
    row = {
        "alpha": params.alpha, "theta": params.theta,
        "beta_hat": cp.beta_hat, "h_hat": cp.h_hat, "T": est.T,
        "dt": est.dt, "n_paths": est.n_paths, "estimate": est.estimate,
        "stderr": est.stderr, "flagged": est.flagged,
    }
    tables.append(("continuum_mc", tuple(row), [row]))
    return EXIT_NUMERIC if est.flagged else EXIT_OK, tables


_HANDLERS = {
    "free-energy": _run_free_energy,
    "critical-curve": _run_critical_curve,
    "localize": _run_localize,
    "bessel-check": _run_bessel_check,
    "scaling": _run_scaling,
    "continuum": _run_continuum,
}


# ---------------------------------------------------------------- entry point

@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args leaves it
    as it was."""
    parser = argparse.ArgumentParser(
        prog="softpin",
        description="Pinning-model numerics: free energies, critical curves, "
                    "localization criteria, and continuum limits.",
    )
    parser.add_argument("--version", action="version",
                        version=f"softpin {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True,
                                metavar="{" + ",".join(SUBCOMMANDS) + "}")
    for name in SUBCOMMANDS:
        sp = sub.add_parser(name, help=f"run the {name} task")
        sp.add_argument("--config", required=True,
                        help="YAML run configuration")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the config seed (unsigned 64-bit)")
        sp.add_argument("--out", default=None,
                        help="override the output directory")
        sp.add_argument("--threads", type=int, default=1,
                        help="accepted and ignored: jobs run serially")
        sp.add_argument("--format", choices=("csv", "json"), default=None,
                        help="override the output format")
    return parser


def run(subcommand: str, config: dict, *, seed: int | None = None,
        out: str | None = None, fmt: str | None = None,
        threads: int = 1) -> int:
    """Validate and execute one subcommand; returns the process exit code.

    The handler computes the run's tables and ``_write`` writes them, so a
    run that raises writes no file.  ``threads`` is ignored; it stays
    because the benchmark's tests still pass it.
    """
    try:
        checked = _validate(config, subcommand)
        output = config.get("output", {})
        eff_seed = seed if seed is not None else checked.get("seed", 0)
        if not 0 <= eff_seed < 2 ** 64:
            raise ConfigError("seed must fit in an unsigned 64-bit integer")
        out_dir = out if out is not None else output.get("dir", ".")
        eff_fmt = fmt if fmt is not None else output.get("format", "csv")
        if eff_fmt not in ("csv", "json"):
            raise ConfigError(f"output format {eff_fmt!r} is not csv or json")
        prefix = output.get("prefix") or ""
        if prefix and not prefix.endswith("_"):
            prefix += "_"
        meta = {
            # over the config as written, where seed may be 1.0
            "config_sha256": config_digest(
                config, seed if seed is not None else config.get("seed", 0)),
            "version": __version__,
            "subcommand": subcommand,
        }
        try:
            os.makedirs(out_dir, exist_ok=True)
            probe = os.path.join(out_dir, ".softpin_write_probe")
            with open(probe, "w", encoding="utf-8"):
                pass
            os.remove(probe)
        except OSError as exc:
            raise ConfigError(f"output directory not writable: {exc}") from None
        code, tables = _HANDLERS[subcommand](checked, eff_seed)
        _write(tables, out_dir, eff_fmt, prefix, meta)
        return code
    except ConfigError as exc:
        print(f"softpin: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, TypeError) as exc:
        print(f"softpin: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"softpin: cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RuntimeError as exc:
        print(f"softpin: numerics did not converge: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ArithmeticError as exc:
        print(f"softpin: numerics failed: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        config = _load_config(args.config)
    except ConfigError as exc:
        print(f"softpin: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return run(args.subcommand, config, seed=args.seed, out=args.out,
               fmt=args.format)


if __name__ == "__main__":
    raise SystemExit(main())
