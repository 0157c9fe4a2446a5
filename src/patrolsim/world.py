"""Grid field geometry, ground-truth idleness, and patrol-completion detection.

The field is a rectangular grid of square cells. Cell k maps to integer
coordinates (ix, iy) = (k mod width, k div width) with its center at
((ix + 0.5) * grid_size, (iy + 0.5) * grid_size), so every center lies
strictly inside the first quadrant and the base station sits at the origin
corner. A patrol visit is one `time, robot, grid` row of an (n, 3) int64
array, the layout of `TrialResult.events` and of `events.log`.
"""

from dataclasses import dataclass, field

import numpy as np

from . import kernels


@dataclass(frozen=True)
class GridMap:
    width: int
    height: int
    grid_size: float
    centers: np.ndarray = field(repr=False)   # (K, 2) cell centers, meters
    chebyshev: np.ndarray = field(repr=False)  # (K,) max{x, y} per center

    @property
    def K(self) -> int:
        return self.width * self.height

    def cell_index(self, ix: int, iy: int) -> int:
        return iy * self.width + ix

    def cell_of(self, position) -> int:
        """Index of the cell containing a position (clipped to the map)."""
        ix = min(max(int(position[0] // self.grid_size), 0), self.width - 1)
        iy = min(max(int(position[1] // self.grid_size), 0), self.height - 1)
        return self.cell_index(ix, iy)

    def neighbors8(self, k: int) -> np.ndarray:
        """Indices of the up-to-8 adjacent cells, ascending."""
        ix, iy = k % self.width, k // self.width
        out = []
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                if dx == 0 and dy == 0:
                    continue
                nx, ny = ix + dx, iy + dy
                if 0 <= nx < self.width and 0 <= ny < self.height:
                    out.append(self.cell_index(nx, ny))
        return np.array(out, dtype=np.int64)


def build_grid_map(width_grids: int, height_grids: int, grid_size: float) -> GridMap:
    k = np.arange(width_grids * height_grids)
    ix = k % width_grids
    iy = k // width_grids
    centers = np.column_stack(((ix + 0.5) * grid_size, (iy + 0.5) * grid_size))
    chebyshev = np.maximum(centers[:, 0], centers[:, 1])
    return GridMap(width_grids, height_grids, float(grid_size), centers, chebyshev)


@dataclass
class WorldState:
    """Global clock plus ground-truth idleness, one step = one second."""

    t: int
    idleness: np.ndarray  # (K,) int64, steps since the last visit (since t = 0 if none)


def new_world(K: int) -> WorldState:
    return WorldState(0, np.zeros(K, dtype=np.int64))


def advance_time(world: WorldState) -> None:
    world.t += 1
    world.idleness += 1


def detect_patrol_completions(
    world: WorldState,
    grid_map: GridMap,
    positions: np.ndarray,
    robot_ids: np.ndarray,
    rho: float,
) -> np.ndarray:
    """One `time, robot, grid` row per (robot, grid) pair within rho, robots
    ascending, and a reset of each visited grid's idleness.

    `positions` holds operational patrollers only, and `robot_ids` their
    1-based ids. Several robots on one grid yield several rows but a single
    reset; no (robot, grid) pair repeats within a step, and a step without
    one writes nothing.
    """
    rows, grids = kernels.completions(positions, grid_map, rho)
    if not rows.size:
        return np.empty((0, 3), dtype=np.int64)
    events = np.empty((rows.size, 3), dtype=np.int64)
    events[:, 0] = world.t
    events[:, 1] = robot_ids[rows]
    events[:, 2] = grids
    world.idleness[grids] = 0
    return events
