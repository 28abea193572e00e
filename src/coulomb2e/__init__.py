"""Variational bound states of two-electron atoms, ions, and molecules.

Exponential trial bases whose matrix elements are exact mixed derivatives of
closed-form generating functions; a Rayleigh-Ritz engine on top; stability
scans for three- and four-body Coulomb systems.
"""

__version__ = "0.1.0"

from .model import (SystemSpec, MatBlock, TwoBodyThreshold, VariationalResult,
                    STABILITY_TOL, NATURAL, UNNATURAL, threshold_for,
                    hminus_spec, ps2_spec)
from .solve import (MinimizerConfig, NonConvergenceError,
                    optimize_ion, optimize_chandrasekhar, optimize_minmax,
                    optimize_ps2, molecule_result)

__all__ = [
    "SystemSpec", "MatBlock", "TwoBodyThreshold",
    "VariationalResult", "STABILITY_TOL", "NATURAL", "UNNATURAL",
    "threshold_for", "hminus_spec", "ps2_spec",
    "MinimizerConfig", "NonConvergenceError",
    "optimize_ion", "optimize_chandrasekhar", "optimize_minmax", "optimize_ps2",
    "molecule_result",
]
