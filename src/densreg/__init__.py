"""Additive density-on-scalar regression for discrete, continuous, and mixed
densities, with gradient-boosting estimation and odds-ratio interpretation."""

from .measure import ReferenceMeasure, integrate, make_discrete, make_mixed
from .bayes import ClrElement, DensityElement, clr, clr_inv, decompose_clr

__version__ = "0.1.0"
