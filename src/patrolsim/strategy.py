"""Target selection: utility evaluation over nearby grids plus baselines.

The main strategy scores each candidate grid by
``alpha * (assumed_idleness + travel_steps) / travel_steps`` where alpha is
a Gaussian in the grid's Chebyshev coordinate centered at p_max - p: a robot
with a pressing need to report favors grids near the origin corner (the BS),
an unburdened one favors the far field. The chosen target is approached one
adjacent grid at a time; each temporary-target completion triggers a fresh
selection.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .world import GridMap

LR_PT = "lr-pt"
EXPECTED_REACTIVE = "er"
RANDOM_WALK = "random"
STRATEGIES = (LR_PT, EXPECTED_REACTIVE, RANDOM_WALK)


@dataclass
class TargetSelection:
    target_grid: int
    temporary_grid: int


def candidate_grids(position, delta: float, grid_map: GridMap) -> np.ndarray:
    """Grids whose center lies within delta of the position, ascending.

    Never empty: falls back to the containing grid when delta is smaller
    than the distance to every center.
    """
    d2 = ((grid_map.centers - np.asarray(position, dtype=np.float64)) ** 2).sum(axis=1)
    idx = np.nonzero(d2 <= delta * delta)[0]
    if idx.size == 0:
        return np.array([grid_map.cell_of(position)], dtype=np.int64)
    return idx.astype(np.int64)


def _evaluate(position, cand, assumed, p, p_max, sigma, v_max, grid_map, use_alpha):
    centers = grid_map.centers[cand]
    dists = np.hypot(centers[:, 0] - position[0], centers[:, 1] - position[1])
    return kernels.utilities(
        assumed[cand].astype(np.float64),
        dists,
        grid_map.chebyshev[cand],
        float(p),
        float(p_max),
        float(sigma),
        float(v_max),
        use_alpha,
    )


def select_patrol_target(
    position,
    current_grid: int,
    assumed: np.ndarray,
    p: float,
    grid_map: GridMap,
    delta: float,
    v_max: float,
    p_max: float,
    sigma: float,
) -> TargetSelection:
    """Argmax of the utility over the delta-ball of grids, ties to smaller index."""
    cand = candidate_grids(position, delta, grid_map)
    util = _evaluate(position, cand, assumed, p, p_max, sigma, v_max, grid_map, True)
    target = int(cand[int(np.argmax(util))])
    return TargetSelection(target, temporary_target(current_grid, target, grid_map))


def er_select(
    position,
    current_grid: int,
    assumed: np.ndarray,
    grid_map: GridMap,
    v_max: float,
) -> TargetSelection:
    """Reconstructed idleness/travel-cost baseline: alpha == 1, all K grids."""
    cand = np.arange(grid_map.K, dtype=np.int64)
    util = _evaluate(position, cand, assumed, 0.0, 0.0, 1.0, v_max, grid_map, False)
    target = int(np.argmax(util))
    return TargetSelection(target, temporary_target(current_grid, target, grid_map))


def random_select(current_grid: int, grid_map: GridMap, rng) -> TargetSelection:
    """Sanity baseline: a uniformly random adjacent grid."""
    neigh = grid_map.neighbors8(current_grid)
    target = int(neigh[rng.integers(len(neigh))])
    return TargetSelection(target, target)


def temporary_target(current_grid: int, target_grid: int, grid_map: GridMap) -> int:
    """The adjacent grid on the way to the target.

    The target itself when it is the current grid or an 8-neighbor; otherwise
    the 8-neighbor of the current grid closest (Euclidean) to the target's
    center, ties to the smaller index.
    """
    if target_grid == current_grid:
        return target_grid
    neigh = grid_map.neighbors8(current_grid)
    if target_grid in neigh:
        return target_grid
    tc = grid_map.centers[target_grid]
    d2 = ((grid_map.centers[neigh] - tc) ** 2).sum(axis=1)
    return int(neigh[int(np.argmin(d2))])
