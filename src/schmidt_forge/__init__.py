"""Optimal single-copy entanglement concentration for bipartite qudit states.

The package plans diagonal local filters that either maximize a
probability-entanglement payoff or maximize entanglement at a fixed success
probability, and certifies the closed-form plans against brute-force and
numerical oracles.
"""

from .efficiency import (
    ConcentrationOutcome,
    ConcentrationPlan,
    ReferenceLevel,
    apply_plan,
    efficiency_q,
    optimal_plan_efficiency,
    reference_from,
)
from .errors import SchmidtForgeError
from .fixedprob import FixedProbRequest, duality_check, optimal_plan_fixed
from .interp import InterpPoint, default_xi_grid, interp_sweep, interpolate
from .sampling import SampleSpec, sample_haar_spectrum
from .spectrum import (
    Measures,
    SchmidtSpectrum,
    make_spectrum,
    measures,
    sort_descending,
)
from .sweep import sweep_table

__all__ = [
    "ConcentrationOutcome",
    "ConcentrationPlan",
    "FixedProbRequest",
    "InterpPoint",
    "Measures",
    "OracleReport",
    "ReferenceLevel",
    "SampleSpec",
    "SchmidtForgeError",
    "SchmidtSpectrum",
    "appendix_a_check",
    "appendix_b_check",
    "apply_plan",
    "default_xi_grid",
    "duality_check",
    "efficiency_q",
    "enumerate_configurations",
    "enumerate_fixed_configurations",
    "interp_sweep",
    "interpolate",
    "make_spectrum",
    "measures",
    "numeric_qp_ascent",
    "optimal_plan_efficiency",
    "optimal_plan_fixed",
    "reference_from",
    "relative_diffs",
    "run_validation",
    "sample_haar_spectrum",
    "sort_descending",
    "sweep_table",
]

__version__ = "0.1.0"

#: names of the oracle module, imported on first use: only ``validate`` and
#: the tests need them, and every CLI start would pay for the import
_ORACLE_NAMES = frozenset({
    "OracleReport", "appendix_a_check", "appendix_b_check",
    "enumerate_configurations", "enumerate_fixed_configurations", "numeric_qp_ascent",
    "relative_diffs", "run_validation",
})


def __getattr__(name: str):
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
