"""Superradiance of two-level emitters coupled to a photon-blockaded cavity.

Deterministic Lindblad dynamics in the permutation- and charge-reduced
operator basis (dimension ~ N^2 (M+1)^2 instead of 4^N (M+1)^2), cumulant
analytics for the large-N limit, and a brute-force full-space reference
solver for validation at small N.
"""

from .model import DerivedScales, ModelParams, derive_scales, validate
from .symbasis import BasisElement, SectorBasis, enumerate_sector, sector_dimension
from .liouvillian import (Superoperator, build_liouvillian, liouvillian_for,
                          photon_trace_weights, trace_functional)
from .dynamics import (DegenerateSteadyStateError, PrecisionLossError,
                       Propagation, SlowMode, SolverError, SymmetricState,
                       initial_mixed_state, propagate, slow_eigenmode,
                       steady_state)
from .observables import (CorrelationTrace, LinewidthFit, PoorFitError,
                          Spectrum, correlation_times, effective_rabi,
                          expect_photon_number, expect_sigma_z,
                          expect_spin_spin, fit_linewidth, g1_trace, g2_trace,
                          power_spectrum)
from .cumulant import (CumulantState, closed_form_linewidth,
                       closed_form_photon, cumulant_jacobian, cumulant_rhs,
                       cumulant_steady, large_n_linewidth)

__version__ = "0.1.0"

__all__ = [
    "ModelParams", "DerivedScales", "validate", "derive_scales",
    "BasisElement", "SectorBasis", "enumerate_sector", "sector_dimension",
    "Superoperator", "build_liouvillian", "liouvillian_for",
    "photon_trace_weights", "trace_functional",
    "SymmetricState", "initial_mixed_state", "propagate",
    "Propagation", "steady_state", "SlowMode", "slow_eigenmode",
    "SolverError", "DegenerateSteadyStateError", "PrecisionLossError",
    "CorrelationTrace", "Spectrum", "LinewidthFit", "PoorFitError",
    "correlation_times", "effective_rabi", "expect_photon_number",
    "expect_sigma_z", "expect_spin_spin", "fit_linewidth", "g1_trace",
    "g2_trace", "power_spectrum",
    "CumulantState", "cumulant_rhs", "cumulant_jacobian", "cumulant_steady",
    "closed_form_photon", "closed_form_linewidth", "large_n_linewidth",
    "__version__",
]
