"""Per-trial graph statistics: isolation, components, degrees.

The statistics of a batch of trials stacked by the sampler come from one
pass over the stack; a single graph is the batch of one trial.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sampler import CoupledSample, NetworkSample, SampleParams


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
    offsets = np.array([0, sample.n_points])
    return int(_isolated(offsets, _alone(offsets, sample.edges))[0])


def components(sample: NetworkSample) -> tuple[int, bool]:
    """(number of connected components, whether the graph is connected).

    Empty and singleton graphs count as connected.
    """
    count = int(_components(np.array([0, sample.n_points]), sample.edges)[0])
    return count, count <= 1


def trial_statistics(sample: NetworkSample) -> TrialRecord:
    """Assemble the per-trial record for a plain (uncoupled) sample."""
    return stack_records(sample.params, np.array([0, sample.n_points]), sample.edges)[0]


def coupled_statistics(coupled: CoupledSample) -> TrialRecord:
    """Record for a coupled trial: square-graph stats plus the isolation
    split across the two metrics."""
    return stack_records(coupled.params, np.array([0, coupled.n_points]),
                         coupled.square_edges, coupled.removed_edges)[0]


def stack_records(params: SampleParams, offsets: np.ndarray, edges: np.ndarray,
                  seam_edges: np.ndarray | None = None,
                  alone: np.ndarray | None = None) -> list[TrialRecord]:
    """Records of the trials params.trial_index, ... stacked as
    sampler.stack_points stacks them, trial k on the rows offsets[k] ..
    offsets[k + 1] - 1, with edges over the stacked rows as
    sampler.stack_edges gives them.  With seam_edges the trials are
    coupled: edges is the square graph, seam_edges holds torus edges
    across the seam, and a node that neither touches is torus-isolated.
    The seam edges need only be complete at the nodes that edges leaves
    isolated, as sampler.stack_coupled_edges gives them.  alone, the mask
    of those nodes, is counted here unless given (stack_coupled_edges has
    it already); with seam_edges it is overwritten."""
    n_points = np.diff(offsets).tolist()
    # edges are sorted by their first column, so each trial's are a block
    n_edges = np.diff(np.searchsorted(edges[:, 0], offsets.astype(edges.dtype))).tolist()
    if alone is None:
        alone = _alone(offsets, edges)
    isolated = _isolated(offsets, alone).tolist()
    n_components = _components(offsets, edges).tolist()
    metric, split = params.metric.value, [{}] * len(n_points)
    if seam_edges is not None:
        alone[seam_edges[:, 0]] = False
        alone[seam_edges[:, 1]] = False
        metric = "coupled"
        split = [dict(isolated_torus=t, isolated_square=i, isolated_boundary=i - t)
                 for i, t in zip(isolated, _isolated(offsets, alone).tolist())]
    return [TrialRecord(rho=params.rho, b=params.b, metric=metric, trial=params.trial_index + k,
                        n_points=n, n_edges=m, isolated=i, n_components=c, connected=c <= 1,
                        mean_degree=(2.0 * m / n) if n else 0.0, **extra)
            for k, (n, m, i, c, extra) in enumerate(zip(n_points, n_edges, isolated,
                                                        n_components, split))]


def _alone(offsets: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Mask of the degree-zero nodes 0 .. offsets[-1] - 1."""
    # a column at a time, as bincount reads int32 through an int64 copy
    degree = np.bincount(edges[:, 0], minlength=offsets[-1])
    degree += np.bincount(edges[:, 1], minlength=offsets[-1])
    return degree == 0


def _isolated(offsets: np.ndarray, alone: np.ndarray) -> np.ndarray:
    """The nodes that alone marks in each stacked trial, trial k on the
    nodes offsets[k] .. offsets[k + 1] - 1."""
    return np.diff(np.searchsorted(np.flatnonzero(alone), offsets))


def _components(offsets: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Connected components of each stacked trial, trial k on the nodes
    offsets[k] .. offsets[k + 1] - 1, from one connected_components call
    over their block-diagonal union.  The CSR adjacency is read straight
    off the edge list, sorted lexicographically with i < j, so row i's
    neighbours are one sorted slice of edges[:, 1].  A component lies in
    one trial, which owns it; an empty trial owns none."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    n, trials = int(offsets[-1]), offsets.size - 1
    # zero weights, which a sparse csgraph keeps as edges: fresh zeros take
    # no memory until written, and scipy only reads them for its transpose.
    # The indices go contiguous, as connected_components fails on strided ones
    graph = csr_matrix((np.zeros(edges.shape[0]), np.ascontiguousarray(edges[:, 1]),
                        np.concatenate(([0], np.cumsum(np.bincount(edges[:, 0], minlength=n))))),
                       shape=(n, n))
    count, labels = connected_components(graph, directed=False)
    owner = np.empty(count, dtype=np.intp)
    owner[labels] = np.repeat(np.arange(trials), np.diff(offsets))
    return np.bincount(owner, minlength=trials)
