"""Scalar reference implementations the tests check the package against."""

import math
from typing import Tuple

import numpy as np

from patrolsim.world import GridMap


def new_base(K: int) -> Tuple[np.ndarray, np.ndarray]:
    """All entries (0, 0): nothing visited, nothing heard."""
    return np.zeros(K, dtype=np.int64), np.zeros(K, dtype=np.int64)


def tick_assumptions(assumed: np.ndarray) -> np.ndarray:
    """Age every assumed idleness by one step; update times stay put."""
    assumed += 1
    return assumed


def expected_travel_time(position, grid: int, v_max: float, grid_map: GridMap) -> int:
    """ceil(distance / v_max), floored at one step."""
    c = grid_map.centers[grid]
    dist = math.hypot(c[0] - position[0], c[1] - position[1])
    return max(1, math.ceil(dist / v_max))


def adjustment_alpha(grid: int, p: float, p_max: float, sigma: float, grid_map: GridMap) -> float:
    c = grid_map.chebyshev[grid]
    d = c - (p_max - p)
    return math.exp(-(d * d) / (2.0 * sigma * sigma))


def grid_utility(assumed_idleness: float, travel_steps: int, alpha: float) -> float:
    return alpha * (assumed_idleness + travel_steps) / travel_steps


# Dense distance forms: each squared distance as a reduce over the coordinate
# axis. The package computes dx * dx + dy * dy from split columns; a reduce
# over two elements is a0 + a1, so both must give the same bits.

def completions_dense(positions, centers, rho):
    d2 = ((positions[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    rows, grids = np.nonzero(d2 <= rho * rho)
    return rows.astype(np.int64), grids.astype(np.int64)


def connectivity_dense(positions, alive, d_c):
    diff = positions[:, None, :] - positions[None, :, :]
    adj = (diff ** 2).sum(axis=2) <= d_c * d_c
    np.fill_diagonal(adj, False)
    return adj & alive[:, None] & alive[None, :]


def candidate_grids_dense(position, delta, grid_map: GridMap):
    d2 = ((grid_map.centers - np.asarray(position, dtype=np.float64)) ** 2).sum(axis=1)
    idx = np.nonzero(d2 <= delta * delta)[0]
    if idx.size == 0:
        return np.array([grid_map.cell_of(position)], dtype=np.int64)
    return idx.astype(np.int64)


def top_s_sorted(utime, s):
    """Indices of the s most recently updated entries, newest first, ties to
    the smaller index, by a full stable sort of all K entries."""
    k = utime.shape[0]
    key = utime * k + (k - 1 - np.arange(k, dtype=np.int64))
    order = np.argsort(-key, kind="stable")
    return order[: min(s, k)]
