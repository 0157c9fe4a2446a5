"""The four numeric kernels of the step loop, written as numpy array code.

Callers reach them through the module attribute (``kernels.top_s(...)``),
never by from-import, so a profiler can wrap each one in place. Float results
use numpy's ufuncs (``np.ceil`` here, ``np.exp`` in the Gaussian pull that
`strategy.select_patrol_target` applies to `utilities`); on some builds these
differ from the ``math`` module in the last ulp, so golden digests are exact
per numpy build and CPU. `utilities` has no mode: lr-pt and er share it.

Squared distances, here and in `comms` and `strategy`, are computed as
``dx * dx + dy * dy`` from split x and y columns. A numpy reduce over a
length-2 coordinate axis is several times slower, and gives the same bits:
``x ** 2`` is ``x * x``, and a reduce over two elements is ``a0 + a1``.

`top_s` returns ``arange(K)`` without sorting when ``s >= K``: the slice then
ships the whole base, and a merge does not depend on the order of a slice
(its grids are unique and newness is decided before any write).
"""

import numpy as np


def completions(positions, centers, rho):
    """(robot_row, grid) index pairs with Euclidean distance <= rho."""
    dx = positions[:, 0, None] - centers[:, 0]
    dy = positions[:, 1, None] - centers[:, 1]
    rows, grids = np.nonzero(dx * dx + dy * dy <= rho * rho)
    return rows.astype(np.int64), grids.astype(np.int64)


def merge_slice(assumed, utime, grids, ivals, tvals):
    """Adopt received entries whose update time is strictly newer (in place)."""
    newer = tvals > utime[grids]
    g = grids[newer]
    assumed[g] = ivals[newer]
    utime[g] = tvals[newer]


def top_s(utime, s):
    """Indices of the s most recently updated entries, ties to smaller index.

    Newest first when s < K; every index in ascending order when s >= K.
    """
    k = utime.shape[0]
    if s >= k:
        return np.arange(k)
    key = utime * k + (k - 1 - np.arange(k, dtype=np.int64))
    order = np.argsort(-key, kind="stable")
    return order[:s]


def utilities(assumed, dists, v_max):
    """Per-candidate utility (i + delta) / delta with delta = max(1, ceil(d / v_max))."""
    delta = np.ceil(dists / v_max)
    np.maximum(delta, 1.0, out=delta)
    return (assumed + delta) / delta
