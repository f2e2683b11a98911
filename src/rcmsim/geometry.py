"""Points on the unit cell and the two distances built on it.

The domain is the half-open unit square [-1/2, 1/2)^2, read either with
the plain Euclidean metric or as a flat torus.  The toroidal distance is
the minimum Euclidean distance over the integer translates, which for
coordinates inside a unit cell folds each axis to its nearest image.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

LO = -0.5
HI = 0.5


class Metric(Enum):
    TORUS = "torus"
    SQUARE = "square"


def distance_arrays(
    metric: Metric,
    ax: np.ndarray,
    ay: np.ndarray,
    bx: np.ndarray,
    by: np.ndarray,
) -> np.ndarray:
    """Distances between the points (ax, ay) and (bx, by), elementwise.

    Euclidean for Metric.SQUARE.  The toroidal branch folds each axis to
    its nearest image, which equals the minimum over the nine integer
    translates because the metric separates per axis; the tests check it
    against that scalar scan.
    """
    dx = np.asarray(ax, dtype=np.float64) - np.asarray(bx, dtype=np.float64)
    dy = np.asarray(ay, dtype=np.float64) - np.asarray(by, dtype=np.float64)
    if metric is Metric.TORUS:
        dx = dx - np.round(dx)
        dy = dy - np.round(dy)
    return np.hypot(dx, dy)
