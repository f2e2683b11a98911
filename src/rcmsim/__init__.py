"""Simulation and quadrature toolkit for Poisson random connection networks.

Nodes form a Poisson process of density rho on the unit cell; a pair at
distance d connects independently with probability g(d / r), where the
connection scale r = sqrt((log rho + b) / (C rho)) ties the offset b to the
expected number of isolated nodes.  The package samples such networks
reproducibly (torus and square metrics, coupled on one point set), counts
isolated nodes and components, and evaluates the matching finite-density
expectations, Poisson approximation bounds, and degree statistics by
quadrature.
"""

from .errors import (ConfigError, ModelError, ParameterError, QuadratureError,
                     RcmError)
from .geometry import Metric, distance_arrays
from .models import (ConnectionModel, ModelValidationReport, connection_radius,
                     gaussian, load_table, log_normal, table_model, unit_disk,
                     validate_model)
from .sampler import (CoupledSample, NetworkSample, SampleParams, build_graph,
                      couple_torus_to_square, sample_points, truncation_bias)
from .analysis import (TrialRecord, components, coupled_statistics,
                       isolated_count, trial_statistics)
from .theory import (ChenSteinParams, TheoryReport, chen_stein_terms,
                     expected_isolated, theory_report, tv_to_poisson)

__version__ = "0.1.0"

__all__ = [
    "ChenSteinParams",
    "ConfigError",
    "ConnectionModel",
    "CoupledSample",
    "Metric",
    "ModelError",
    "ModelValidationReport",
    "NetworkSample",
    "ParameterError",
    "QuadratureError",
    "RcmError",
    "SampleParams",
    "TheoryReport",
    "TrialRecord",
    "build_graph",
    "chen_stein_terms",
    "components",
    "connection_radius",
    "couple_torus_to_square",
    "coupled_statistics",
    "distance_arrays",
    "expected_isolated",
    "gaussian",
    "isolated_count",
    "load_table",
    "log_normal",
    "sample_points",
    "table_model",
    "theory_report",
    "trial_statistics",
    "truncation_bias",
    "tv_to_poisson",
    "unit_disk",
    "validate_model",
]
