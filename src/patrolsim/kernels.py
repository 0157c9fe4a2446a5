"""The four numeric kernels of the step loop.

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

`completions` is not dense: it tests only the cells whose centre can lie
within rho of a robot, in Python floats. A centre (j + 0.5) * g within rho
of x satisfies (x - rho) / g - 0.5 <= j <= (x + rho) / g - 0.5, so the
range floor((x - rho) / g) .. floor((x + rho) / g) holds every qualifying
j for any rho: rounding cannot move a floor across that 0.5 of slack. The
centre ``(ix + 0.5) * g`` and ``dx * dx + dy * dy <= rho * rho`` are the
operations `world.build_grid_map` and the dense check perform, and Python
float arithmetic is the same correctly rounded float64 arithmetic as
numpy's ufuncs, so the pairs are the dense kernel's, bit for bit. A robot
then tests one or a few cells instead of all K.

`top_s` returns ``arange(K)`` without sorting when ``s >= K``: the slice then
ships the whole base, and a merge does not depend on the order of a slice
(its grids are unique and newness is decided before any write).
"""

import math

import numpy as np


def completions(positions, grid_map, rho):
    """(robot_row, grid) index pairs with Euclidean distance <= rho, rows
    ascending and grids ascending within a row."""
    g, width = grid_map.grid_size, grid_map.width
    last_x, last_y = width - 1, grid_map.height - 1
    r2 = rho * rho
    rows, grids = [], []
    for row, (x, y) in enumerate(positions.tolist()):
        x0, x1 = max(math.floor((x - rho) / g), 0), min(math.floor((x + rho) / g), last_x)
        for iy in range(max(math.floor((y - rho) / g), 0),
                        min(math.floor((y + rho) / g), last_y) + 1):
            dy = y - (iy + 0.5) * g
            for ix in range(x0, x1 + 1):
                dx = x - (ix + 0.5) * g
                if dx * dx + dy * dy <= r2:
                    rows.append(row)
                    grids.append(iy * width + ix)
    return np.array(rows, dtype=np.int64), np.array(grids, dtype=np.int64)


def merge_slice(assumed, utime, grids, ivals, tvals):
    """Adopt entries whose update time is strictly newer, in place; returns how
    many. With none (the common case) it returns before any write; it counts
    with np.count_nonzero, a third of ndarray.any's 1 us per call."""
    newer = tvals > utime[grids]
    adopted = np.count_nonzero(newer)
    if not adopted:
        return 0
    g = grids[newer]
    assumed[g] = ivals[newer]
    utime[g] = tvals[newer]
    return int(adopted)


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
