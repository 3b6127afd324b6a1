"""Importance sampling, population Monte Carlo, and sample-set inflation for
models with factorizing likelihoods.  Import each name from the module that
defines it, for example ``from infmc.pmc import run_pmc``."""

__version__ = "0.1.0"
