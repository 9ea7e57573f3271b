"""Diffusion-model density estimation on factorizable densities."""

import os

# The matrices here are small (widths <= a few hundred); threaded BLAS only
# adds spin-wait overhead, which is catastrophic on constrained VMs, and
# single-threaded kernels keep results reproducible across machines.  Set
# before numpy loads; explicit user settings win.  OpenBLAS reads these only
# when numpy first loads it, so a process that imports numpy before diffden
# keeps numpy's own thread count (one per core), and nothing warns about it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .numerics import McEstimate, Rng

__version__ = "0.1.0"

__all__ = ["McEstimate", "Rng", "__version__"]
