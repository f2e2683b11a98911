"""Per-trial graph statistics: isolation, components, degrees."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

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

    Empty and singleton graphs count as connected.  The CSR adjacency is
    read straight off the edge list, which relies on the NetworkSample
    contract: edges sorted lexicographically with i < j, so row i's
    neighbours are one sorted slice of edges[:, 1].
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    n = sample.n_points
    edges = sample.edges
    indptr = np.concatenate(([0], np.cumsum(np.bincount(edges[:, 0], minlength=n))))
    # float64 weights, as connected_components would copy any other dtype
    graph = csr_matrix((np.ones(edges.shape[0]), edges[:, 1], indptr), shape=(n, n))
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
    base = trial_statistics(coupled.square_sample())
    iso_t = isolated_count(coupled.torus_sample())
    return replace(base, metric="coupled", isolated_torus=iso_t,
                   isolated_square=base.isolated,
                   isolated_boundary=base.isolated - iso_t)
