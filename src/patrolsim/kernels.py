"""The four numeric kernels of the step loop, written as numpy array code.

Callers reach them through the module attribute (``kernels.top_s(...)``),
never by from-import, so a profiler can wrap each one in place. Float results
use numpy's ufuncs (``np.exp``, ``np.ceil``); on some builds these differ
from the ``math`` module in the last ulp, so golden digests are exact per
numpy build and CPU.
"""

import numpy as np


def completions(positions, centers, rho):
    """(robot_row, grid) index pairs with Euclidean distance <= rho."""
    d2 = ((positions[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    rows, grids = np.nonzero(d2 <= rho * rho)
    return rows.astype(np.int64), grids.astype(np.int64)


def merge_slice(assumed, utime, grids, ivals, tvals):
    """Adopt received entries whose update time is strictly newer (in place)."""
    newer = tvals > utime[grids]
    g = grids[newer]
    assumed[g] = ivals[newer]
    utime[g] = tvals[newer]


def top_s(utime, s):
    """Indices of the s most recently updated entries, ties to smaller index."""
    k = utime.shape[0]
    key = utime * k + (k - 1 - np.arange(k, dtype=np.int64))
    order = np.argsort(-key, kind="stable")
    return order[: min(s, k)]


def utilities(assumed, dists, cheb, p, p_max, sigma, v_max, use_alpha):
    """Per-candidate utility alpha * (i + delta) / delta with delta >= 1."""
    delta = np.ceil(dists / v_max)
    np.maximum(delta, 1.0, out=delta)
    u = (assumed + delta) / delta
    if use_alpha:
        d = cheb - (p_max - p)
        u = u * np.exp(-(d * d) / (2.0 * sigma * sigma))
    return u
