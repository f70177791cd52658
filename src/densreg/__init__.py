"""Additive density-on-scalar regression for discrete, continuous, and mixed
densities, with gradient-boosting estimation and odds-ratio interpretation.

Importing the package pins OpenBLAS, OpenMP and MKL to one thread, so that
results are bit-identical whatever the host's core count: a threaded BLAS
splits sums differently by thread count. The variables are overwritten, not
defaulted, so a user's ``OPENBLAS_NUM_THREADS=4`` changes no bit either. The
pin acts only if numpy is not loaded yet, as when the ``densreg`` command or
``python -m densreg.cli`` starts. It cannot act for a caller that imports
numpy first, such as a library user or ``perfbench/launch.py``; such a
caller sets the thread count itself.
"""
import os

# before the imports below load numpy
os.environ.update(
    dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")
)

from .measure import ReferenceMeasure, integrate, make_discrete, make_mixed  # noqa: E402
from .bayes import ClrElement, DensityElement, clr, clr_inv, decompose_clr  # noqa: E402

__version__ = "0.1.0"
