"""Scalar reference implementations the tests check the package against."""

import contextlib
import math
from typing import Dict, List, Tuple
from unittest import mock

import numpy as np

from patrolsim import kernels, metrics, scenario, strategy
from patrolsim.errors import VerificationError
from patrolsim.export import _read_text
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


def sa_delays(t: int, bs_utimes: np.ndarray) -> np.ndarray:
    """Per-grid information age at the BS: t minus its update times."""
    return t - bs_utimes


def instantaneous_dense(t: int, idleness: np.ndarray, bs_utimes: np.ndarray):
    """(i_g, i_w, d_msa, d_wsa) as ``np.mean``/``max`` over K-long temporaries."""
    d = sa_delays(t, bs_utimes)
    return float(idleness.mean()), int(idleness.max()), float(d.mean()), int(d.max())


def deliver_per_sender(envelopes: Dict[int, object], graph_prev: np.ndarray) -> List[List[object]]:
    """Inboxes filled one sender at a time, senders in ascending row order."""
    inboxes: List[List[object]] = [[] for _ in range(graph_prev.shape[0])]
    for sender_row in sorted(envelopes):
        for recipient in np.nonzero(graph_prev[sender_row])[0]:
            inboxes[recipient].append(envelopes[sender_row])
    return inboxes


def update_report_priority_vectorised(p, omega, heard, update, connected_to_bs,
                                      now, p_max, eta):
    """The priority fold as numpy array code, one adopting sender at a time."""
    heard = heard & update
    new_omega = np.where(heard[0], now, omega)
    # omega changes only at the BS sender, row 0, which folds first
    adopt = heard[1:] & (omega[1:, None] < new_omega)
    new_p = np.where(update & ~connected_to_bs, np.minimum(p_max, p + 1.0), p)
    for j in np.flatnonzero(adopt.any(axis=1)):
        mine, theirs = new_p[adopt[j]], p[j + 1]
        new_p[adopt[j]] = np.maximum(mine, theirs) + eta * np.minimum(mine, theirs)
    reached = heard.any(axis=0)
    new_p[reached & ~heard[0] & ~adopt.any(axis=0)] = 0.0
    np.minimum(new_p, p_max * (1.0 + eta), out=new_p, where=reached)
    return new_p, new_omega


def sample_instantaneous_dense(world, bs_utimes, acc, n_active):
    """`metrics.sample_instantaneous` with its four values from
    `instantaneous_dense`, accumulated the same way."""
    t = world.t
    i_g, i_w, d_msa, d_wsa = instantaneous_dense(t, world.idleness, bs_utimes)
    if t >= acc.warmup_t0:
        acc.sum_ig += i_g
        acc.max_iw = max(acc.max_iw, i_w)
        acc.sum_dmsa += d_msa
        acc.max_dwsa = max(acc.max_dwsa, d_wsa)
        acc.samples += 1
    if acc.record_series:
        for key, value in zip(metrics.SERIES_KEYS, (t, i_g, i_w, d_msa, d_wsa, n_active)):
            acc.series[key].append(value)


# (owner, name, reference): each fast path of the step at the name the step
# looks it up by, with the reference that replaces it there
REFERENCES = [
    (kernels, "completions",
     lambda positions, grid_map, rho: completions_dense(positions, grid_map.centers, rho)),
    (kernels, "top_s", top_s_sorted),
    (scenario, "deliver", deliver_per_sender),
    (scenario, "update_report_priority", update_report_priority_vectorised),
    (scenario, "compute_connectivity", connectivity_dense),
    (strategy, "candidate_grids", candidate_grids_dense),
    (metrics, "sample_instantaneous", sample_instantaneous_dense),
]


@contextlib.contextmanager
def reference_step():
    """Run every `Simulation` step on the references: each of `REFERENCES`
    is installed at its name, and the fast path restored on exit."""
    with contextlib.ExitStack() as stack:
        for owner, name, reference in REFERENCES:
            stack.enter_context(mock.patch.object(owner, name, reference))
        yield


def read_events_per_line(path) -> List[List[int]]:
    """events.log parsed one line at a time, as `time, robot, grid` rows in
    file order."""
    events = []
    for lineno, line in enumerate(_read_text(path).splitlines(), start=1):
        if not line.strip():
            continue
        try:
            t, robot, grid = (int(v) for v in line.split(","))
        except ValueError as exc:
            raise VerificationError(
                f"{path}:{lineno}: expected 'time,robot,grid' integers, got {line!r}"
            ) from exc
        events.append([t, robot, grid])
    return events


def replay_events_per_step(events, config) -> Tuple[float, int, np.ndarray]:
    """I_G, I_W and visit counts from `time, robot, grid` rows by the idleness
    recursion, one step at a time: increment every grid, reset visited grids,
    sample after resets, accumulate from warmup_t0. Out-of-range events raise
    VerificationError."""
    K = config.K
    idleness = np.zeros(K, dtype=np.int64)
    counts = np.zeros((config.n_robots, K), dtype=np.int64)
    by_time: Dict[int, List[Tuple[int, int]]] = {}
    for t, robot, grid in events:
        if not (1 <= t <= config.mission_steps
                and 2 <= robot <= config.n_robots and 0 <= grid < K):
            raise VerificationError(
                f"event {t},{robot},{grid}: time must be in "
                f"1..{config.mission_steps}, robot in 2..{config.n_robots} "
                f"and grid in 0..{K - 1}"
            )
        by_time.setdefault(t, []).append((robot, grid))
    sum_ig = 0.0
    max_iw = 0
    samples = 0  # >= 1: a valid config has warmup_t0 <= mission_steps
    for t in range(1, config.mission_steps + 1):
        idleness += 1
        for robot, grid in by_time.get(t, ()):
            idleness[grid] = 0
            counts[robot - 1, grid] += 1
        if t >= config.warmup_t0:
            sum_ig += float(idleness.mean())
            max_iw = max(max_iw, int(idleness.max()))
            samples += 1
    return sum_ig / samples, max_iw, counts
