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
from .geometry import Metric, Point2, distance, distance_arrays
from .models import (ConnectionModel, ModelValidationReport, connection_radius,
                     eval_g, gaussian, integral_C, load_table, log_normal,
                     table_model, unit_disk, validate_model)
from .sampler import (CoupledSample, NetworkSample, SampleParams, build_graph,
                      couple_torus_to_square, sample_points, thin_edges,
                      truncation_bias, write_edge_list)
from .analysis import (TrialRecord, components, coupled_statistics,
                       isolated_count, trial_statistics)
from .theory import (ChenSteinParams, DiscreteDistribution, TheoryReport,
                     asymptotic_report, chen_stein_terms, chen_stein_tv_bound,
                     empirical_distribution, expected_isolated,
                     pair_correlation_factor, poisson_pmf, theory_report,
                     tv_distance)

__version__ = "0.1.0"

__all__ = [
    "ChenSteinParams",
    "ConfigError",
    "ConnectionModel",
    "CoupledSample",
    "DiscreteDistribution",
    "Metric",
    "ModelError",
    "ModelValidationReport",
    "NetworkSample",
    "ParameterError",
    "Point2",
    "QuadratureError",
    "RcmError",
    "SampleParams",
    "TheoryReport",
    "TrialRecord",
    "asymptotic_report",
    "build_graph",
    "chen_stein_terms",
    "chen_stein_tv_bound",
    "components",
    "connection_radius",
    "couple_torus_to_square",
    "coupled_statistics",
    "distance",
    "distance_arrays",
    "empirical_distribution",
    "eval_g",
    "expected_isolated",
    "gaussian",
    "integral_C",
    "isolated_count",
    "load_table",
    "log_normal",
    "pair_correlation_factor",
    "poisson_pmf",
    "sample_points",
    "table_model",
    "theory_report",
    "thin_edges",
    "trial_statistics",
    "truncation_bias",
    "tv_distance",
    "unit_disk",
    "validate_model",
    "write_edge_list",
]
