"""The benchmark's workloads: fixed configs run through the softpin CLI.

Each workload is a list of ops; an op is one CLI subcommand on one config.
The seed is the only input that varies between runs and reaches the
program through the CLI's ``--seed`` flag.  Why each workload exists is
written down in NOTES.md next to this file.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 12345

# ops whose config leaves the bisection tolerance unset use the CLI defaults
ANNEALED_TOL = 1e-3
QUENCHED_TOL = 5e-3


@dataclass(frozen=True)
class Op:
    subcommand: str
    config: dict
    threads: int = 1
    # strong-coupling probe of a known defect: it may exit 0, 2 or 3, and
    # fails only when it raises or writes a non-finite number
    probe: bool = False

    @property
    def label(self) -> str:
        return self.subcommand + (" (probe)" if self.probe else "")


_README_MODEL = {
    "walk": {"alpha": 0.6},
    "potential": {"kind": "power_tail", "theta": 3.0},
    "charges": {"law": "gaussian"},
}

_PINNING_MODEL = {"walk": {"alpha": 0.6}, "potential": {"kind": "pinning"}}

WORKLOADS: dict[str, tuple[Op, ...]] = {
    # time-inhomogeneous disorder sweeps: one evaluation over many rows,
    # then ~15 bisection evaluations over few rows; the only workload on
    # the signed lattice and on +-1 charges
    "disorder": (
        Op("free-energy", {
            "model": _README_MODEL,
            "task": {"beta": 0.5, "h": 0.1, "n_max": 4096,
                     "quenched": {"n_samples": 12}},
            "numerics": {"m_max": 4096, "tol": 0.001},
        }),
        Op("critical-curve", {
            "model": {"walk": {"alpha": 0.6},
                      "potential": {"kind": "copolymer"},
                      "charges": {"law": "bernoulli_pm1"}},
            "task": {"beta_grid": [1.0],
                     "quenched": {"n_samples": 4, "n_max": 2048,
                                  "detect": 1.96}},
        }),
    ),
    # short time-homogeneous excursion recursions driven by bisections, no
    # disorder; the only workload that runs the thread pool, and the
    # strong-coupling probe of a known overflow defect
    "annealed-curve": (
        Op("critical-curve", {
            "model": _README_MODEL,
            "task": {"beta_grid": [0.25, 0.5, 0.75, 1.0], "lower_bound": True},
            "numerics": {"m_max": 4096},
        }, threads=2),
        Op("localize", {"model": _README_MODEL,
                        "task": {"beta": 0.5, "h": 0.1}}),
        Op("free-energy", {"model": _PINNING_MODEL,
                           "task": {"beta": 40.0, "h": 0.0, "n_max": 4096}},
           probe=True),
        Op("localize", {"model": _PINNING_MODEL,
                        "task": {"beta": 40.0, "h": 0.0}}, probe=True),
    ),
    # a few long recursions on a wide lattice plus the Monte Carlo path
    # layer; no bisection, no disorder rows, no pool
    "weak-coupling": (
        Op("scaling", {
            "model": _README_MODEL,
            "task": {"alpha": 0.6, "theta": 3.0, "beta_hat": 1.0,
                     "h_hat": 0.1, "n_ladder": [256, 512, 1024, 2048],
                     "series": {"k": 2, "T": 1.0}},
        }),
        Op("continuum", {
            "task": {"alpha": 0.6, "theta": 0.6, "beta_hat": 1.0,
                     "h_hat": 0.5, "mc": {"T": 4.0, "n_paths": 400}},
        }),
        Op("bessel-check", {"task": {"alpha": 0.6, "n": 4096}}),
    ),
}
