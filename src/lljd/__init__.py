"""Local linear estimation of drift and second infinitesimal moment for
jump-diffusions observed through their integral, plus the simulators,
bandwidth selectors, confidence bands and Monte Carlo harness used to
benchmark the estimators.

The package namespace holds only `__version__`. Each name is imported from
the module that defines it, so importing one module loads only what it uses.
"""

__version__ = "0.1.0"
