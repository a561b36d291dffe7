"""Optimal single-copy entanglement concentration for bipartite qudit states.

The package plans diagonal local filters that either maximize a
probability-entanglement payoff or maximize entanglement at a fixed success
probability. The brute-force and numerical verifiers that certify the plans
are imported from ``schmidt_forge.oracle``; importing the package does not
load them.
"""

from .efficiency import (
    ConcentrationOutcome,
    ConcentrationPlan,
    optimal_plan_efficiency,
    reference_from,
)
from .errors import SchmidtForgeError
from .fixedprob import FixedProbRequest, optimal_plan_fixed
from .interp import InterpPoint, interpolate
from .sampling import sample_haar_spectrum
from .spectrum import Measures, SchmidtSpectrum, make_spectrum, measures
from .sweep import sweep_table

__all__ = [
    "ConcentrationOutcome",
    "ConcentrationPlan",
    "FixedProbRequest",
    "InterpPoint",
    "Measures",
    "SchmidtForgeError",
    "SchmidtSpectrum",
    "interpolate",
    "make_spectrum",
    "measures",
    "optimal_plan_efficiency",
    "optimal_plan_fixed",
    "reference_from",
    "sample_haar_spectrum",
    "sweep_table",
]

__version__ = "0.1.0"
