"""Idleness and situation-awareness metrics plus per-robot visit heatmaps.

Instantaneous values are sampled at the end of each timestep (after visit
resets), accumulated only from the warm-up step onward. The unfiltered time
series is kept for plotting regardless of warm-up, one list per
`SERIES_KEYS` entry. `finalize` turns the accumulator into (I_G, I_W, D_MSA,
D_WSA). `normalize` scales a metric by a patroller count over K: N-1 for
metrics.csv and `verify`, the operational patrollers at t for
timeseries.csv.
"""

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from .world import WorldState

SERIES_KEYS = ("t", "i_g", "i_w", "d_msa", "d_wsa", "n_active")


@dataclass
class MetricsAccumulator:
    K: int
    n_robots: int  # total including the BS
    warmup_t0: int
    record_series: bool = True
    sum_ig: float = 0.0
    max_iw: int = 0
    sum_dmsa: float = 0.0
    max_dwsa: int = 0
    samples: int = 0
    visit_counts: np.ndarray = field(init=False)  # row = robot id - 1
    series: Dict[str, List] = field(init=False)

    def __post_init__(self):
        self.visit_counts = np.zeros((self.n_robots, self.K), dtype=np.int64)
        self.series = {k: [] for k in SERIES_KEYS}


def sample_instantaneous(
    world: WorldState,
    bs_utimes: np.ndarray,
    acc: MetricsAccumulator,
    n_active: int,
) -> None:
    """Sample I_G, I_W and the BS's information age D_MSA, D_WSA at world.t.

    The means are exact integer sums divided once, which is what ``np.mean``
    of int64 computes: every partial sum is an integer below 2**53, so it is
    exact in float64 too. The age of grid k is t - bs_utimes[k], so its sum
    is t * K - sum(bs_utimes) and its maximum t - min(bs_utimes).
    """
    t, k = world.t, world.idleness.size
    i_g = int(world.idleness.sum()) / k
    i_w = int(world.idleness.max())
    d_msa = (t * k - int(bs_utimes.sum())) / k
    d_wsa = t - int(bs_utimes.min())
    if t >= acc.warmup_t0:
        acc.sum_ig += i_g
        acc.max_iw = max(acc.max_iw, i_w)
        acc.sum_dmsa += d_msa
        acc.max_dwsa = max(acc.max_dwsa, d_wsa)
        acc.samples += 1
    if acc.record_series:
        s = acc.series
        s["t"].append(t)
        s["i_g"].append(i_g)
        s["i_w"].append(i_w)
        s["d_msa"].append(d_msa)
        s["d_wsa"].append(d_wsa)
        s["n_active"].append(n_active)


def record_visit(acc: MetricsAccumulator, events: np.ndarray) -> None:
    """Count `time, robot, grid` rows into the (N, K) heatmaps, with one
    unbuffered add, so repeated pairs count every time."""
    np.add.at(acc.visit_counts, (events[:, 1] - 1, events[:, 2]), 1)


def finalize(acc: MetricsAccumulator):
    """(I_G, I_W, D_MSA, D_WSA) over the sampled (post-warm-up) window.

    The accumulator must hold at least one sample. A finished mission always
    does: `ScenarioConfig.validate` rejects `warmup_t0 > mission_steps`.
    """
    return (
        acc.sum_ig / acc.samples,
        acc.max_iw,
        acc.sum_dmsa / acc.samples,
        acc.max_dwsa,
    )


def normalize(metric: float, patrollers: int, K: int) -> float:
    """Scale by patrollers/K; the BS does not patrol, so it is never counted."""
    return metric * patrollers / K
