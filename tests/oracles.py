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
