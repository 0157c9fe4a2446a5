"""Target selection: utility evaluation over nearby grids plus baselines.

The main strategy scores each candidate grid by
``alpha * (assumed_idleness + travel_steps) / travel_steps`` where alpha is
a Gaussian in the grid's Chebyshev coordinate centered at p_max - p: a robot
with a pressing need to report favors grids near the origin corner (the BS),
an unburdened one favors the far field. `kernels.utilities` gives the factor
without alpha, which is all of the ER baseline's score. Each strategy
returns its target grid; the scenario approaches it one adjacent grid at a
time through `temporary_target`, which steps by the sign of the coordinate
difference on each axis. That is the 8-neighbor closest to the target's
center: the squared distance from neighbor (dx, dy) is
``g^2 ((a - dx)^2 + (b - dy)^2)`` for integer a and b, and each term has its
unique minimum at dx = sign(a), dy = sign(b). Each temporary-target
completion triggers a fresh selection.
"""

import numpy as np

from . import kernels
from .world import GridMap

LR_PT = "lr-pt"
EXPECTED_REACTIVE = "er"
RANDOM_WALK = "random"
STRATEGIES = (LR_PT, EXPECTED_REACTIVE, RANDOM_WALK)


def candidate_grids(position, delta: float, grid_map: GridMap) -> np.ndarray:
    """Grids whose center lies within delta of the position, ascending.

    Never empty: falls back to the containing grid when delta is smaller
    than the distance to every center.
    """
    position = np.asarray(position, dtype=np.float64)
    dx = grid_map.centers[:, 0] - position[0]
    dy = grid_map.centers[:, 1] - position[1]
    idx = np.nonzero(dx * dx + dy * dy <= delta * delta)[0]
    if idx.size == 0:
        return np.array([grid_map.cell_of(position)], dtype=np.int64)
    return idx.astype(np.int64)


def _travel_utilities(position, cand, assumed, grid_map, v_max):
    centers = grid_map.centers[cand]
    dists = np.hypot(centers[:, 0] - position[0], centers[:, 1] - position[1])
    return kernels.utilities(assumed[cand], dists, v_max)


def select_patrol_target(
    position,
    assumed: np.ndarray,
    p: float,
    grid_map: GridMap,
    delta: float,
    v_max: float,
    p_max: float,
    sigma: float,
) -> int:
    """Argmax of the utility over the delta-ball of grids, ties to smaller index."""
    cand = candidate_grids(position, delta, grid_map)
    util = _travel_utilities(position, cand, assumed, grid_map, v_max)
    d = grid_map.chebyshev[cand] - (p_max - p)
    util = util * np.exp(-(d * d) / (2.0 * sigma * sigma))
    return int(cand[int(np.argmax(util))])


def er_select(position, assumed: np.ndarray, grid_map: GridMap, v_max: float) -> int:
    """Reconstructed idleness/travel-cost baseline: alpha == 1, all K grids."""
    cand = np.arange(grid_map.K, dtype=np.int64)
    util = _travel_utilities(position, cand, assumed, grid_map, v_max)
    return int(np.argmax(util))


def random_select(current_grid: int, grid_map: GridMap, rng) -> int:
    """Sanity baseline: a uniformly random adjacent grid."""
    neigh = grid_map.neighbors8(current_grid)
    return int(neigh[rng.integers(len(neigh))])


def temporary_target(current_grid: int, target_grid: int, grid_map: GridMap) -> int:
    """The adjacent grid on the way to the target: one signed step per axis.

    The target itself when it is the current grid or an 8-neighbor.
    """
    cy, cx = divmod(current_grid, grid_map.width)
    ty, tx = divmod(target_grid, grid_map.width)
    return grid_map.cell_index(cx + (tx > cx) - (tx < cx), cy + (ty > cy) - (ty < cy))
