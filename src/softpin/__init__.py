"""Numerics for polymer pinning on soft (spatially extended) potentials.

The package is organised around one lattice model: a nearest-neighbour height
walk with an asymptotically Bessel-like drift, rewarded through a potential
profile that may extend over many heights.  Modules:

- ``model``        potentials, charge laws, walk specification, return law,
                   local-limit weights and the potential-weighted sums built
                   from them
- ``transfer``     free/constrained partition functions and free-energy
                   ladders, annealed and quenched
- ``localization`` excursion-sum localization criterion, annealed critical
                   curves and rescaled lower bounds, quenched bands
- ``continuum``    Bessel-process densities, simplex weight integrals,
                   continuum free energies (closed form and Monte Carlo)
- ``scaling``      weak-coupling schedules, polynomial-chaos style series
                   coefficients, discrete-to-continuum comparisons
- ``cli``          batch front end over the above

The independent references the tests check these against live in
``tests/oracles.py``.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
