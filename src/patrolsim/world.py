"""Grid field geometry, ground-truth idleness, and patrol-completion detection.

The field is a rectangular grid of square cells. Cell k maps to integer
coordinates (ix, iy) = (k mod width, k div width) with its center at
((ix + 0.5) * grid_size, (iy + 0.5) * grid_size), so every center lies
strictly inside the first quadrant and the base station sits at the origin
corner.
"""

from dataclasses import dataclass, field
from typing import List, NamedTuple

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


class VisitEvent(NamedTuple):
    robot_id: int  # 1-based; the base station (id 1) never appears
    grid: int
    time: int


def detect_patrol_completions(
    world: WorldState,
    grid_map: GridMap,
    positions: np.ndarray,
    robot_ids,
    rho: float,
) -> List[VisitEvent]:
    """Emit a VisitEvent per (robot, grid) pair within rho and reset idleness.

    `positions` holds operational patrollers only, and `robot_ids` their ids
    as Python ints. Several robots on one grid yield several events but a
    single reset.
    """
    rows, grids = kernels.completions(positions, grid_map, rho)
    t = world.t
    events = [VisitEvent(robot_ids[r], g, t) for r, g in zip(rows.tolist(), grids.tolist())]
    world.idleness[grids] = 0
    return events
