"""Per-trial graph statistics: isolation, components, degrees."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .sampler import CoupledSample, NetworkSample


@dataclass(frozen=True)
class TrialRecord:
    """Flat summary of one trial, ready for the output table.

    The three trailing fields are populated only for coupled trials, where
    the base fields describe the square (physical) graph and
    isolated_boundary = isolated_square - isolated_torus >= 0.
    """

    rho: float
    b: float
    metric: str
    trial: int
    n_points: int
    n_edges: int
    isolated: int
    n_components: int
    connected: bool
    mean_degree: float
    isolated_torus: int | None = None
    isolated_square: int | None = None
    isolated_boundary: int | None = None


def isolated_count(sample: NetworkSample) -> int:
    """Number of degree-zero nodes."""
    return int(np.count_nonzero(sample.degrees() == 0))


def components(sample: NetworkSample) -> tuple[int, bool]:
    """(number of connected components, whether the graph is connected).

    Empty and singleton graphs count as connected.
    """
    n = sample.n_points
    edges = sample.edges
    graph = coo_matrix((np.ones(edges.shape[0], dtype=np.int8),
                        (edges[:, 0], edges[:, 1])), shape=(n, n))
    count = int(connected_components(graph, directed=False, return_labels=False))
    return count, count <= 1


def trial_statistics(sample: NetworkSample) -> TrialRecord:
    """Assemble the per-trial record for a plain (uncoupled) sample."""
    n = sample.n_points
    m = sample.n_edges
    n_components, connected = components(sample)
    return TrialRecord(
        rho=sample.params.rho,
        b=sample.params.b,
        metric=sample.params.metric.value,
        trial=sample.params.trial_index,
        n_points=n,
        n_edges=m,
        isolated=isolated_count(sample),
        n_components=n_components,
        connected=connected,
        mean_degree=(2.0 * m / n) if n else 0.0,
    )


def coupled_statistics(coupled: CoupledSample) -> TrialRecord:
    """Record for a coupled trial: square-graph stats plus the isolation
    split across the two metrics."""
    square = coupled.square_sample()
    torus = coupled.torus_sample()
    base = trial_statistics(square)
    iso_t = isolated_count(torus)
    iso_s = base.isolated
    return TrialRecord(
        rho=base.rho,
        b=base.b,
        metric="coupled",
        trial=base.trial,
        n_points=base.n_points,
        n_edges=base.n_edges,
        isolated=iso_s,
        n_components=base.n_components,
        connected=base.connected,
        mean_degree=base.mean_degree,
        isolated_torus=iso_t,
        isolated_square=iso_s,
        isolated_boundary=iso_s - iso_t,
    )
