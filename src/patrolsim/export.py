"""File emission and the event-log replay oracle.

Artifact set for one trial:
  metrics.csv        one row: seed, swarm/map/bandwidth echo, raw and
                     normalized metrics
  timeseries.csv     per-step instantaneous metrics, unfiltered by warm-up
  heatmap_robot_<id>.csv   height x width integer matrix, row = y ascending
  heatmap_total.csv  elementwise sum over robots
  events.log         one `time,robot,grid` row per visit event

`verify` recomputes I_G, I_W, and the heatmaps from events.log alone and
checks them against the emitted files.
"""

import csv
import math
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from .errors import VerificationError
from .metrics import normalize_active
from .scenario import ScenarioConfig, TrialResult
from .world import VisitEvent

METRICS_FIELDS = [
    "seed", "n_robots", "K", "bandwidth_s", "strategy",
    "I_G", "I_W", "D_MSA", "D_WSA",
    "norm_I_G", "norm_I_W", "norm_D_MSA", "norm_D_WSA",
]

TIMESERIES_FIELDS = [
    "t", "I_g", "I_w", "D_mSA", "D_wSA", "n_active", "norm_I_g", "norm_D_mSA",
]


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _metrics_row(result: TrialResult) -> Dict[str, object]:
    cfg = result.config
    row = {
        "seed": result.seed,
        "n_robots": cfg.n_robots,
        "K": cfg.K,
        "bandwidth_s": cfg.bandwidth_s,
        "strategy": cfg.strategy,
    }
    row.update(result.metric_row())
    return row


def write_metrics_csv(results: List[TrialResult], path: Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRICS_FIELDS)
        for result in results:
            row = _metrics_row(result)
            writer.writerow([_fmt(row[k]) for k in METRICS_FIELDS])


def write_run_artifacts(result: TrialResult, out_dir) -> List[Path]:
    """Emit the full artifact set for one trial; returns the written paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cfg = result.config
    written = []

    path = out / "metrics.csv"
    write_metrics_csv([result], path)
    written.append(path)

    path = out / "timeseries.csv"
    s = result.series
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TIMESERIES_FIELDS)
        for j in range(len(s["t"])):
            n_active = int(s["n_active"][j])
            writer.writerow([
                _fmt(int(s["t"][j])),
                _fmt(float(s["i_g"][j])),
                _fmt(int(s["i_w"][j])),
                _fmt(float(s["d_msa"][j])),
                _fmt(int(s["d_wsa"][j])),
                _fmt(n_active),
                _fmt(normalize_active(float(s["i_g"][j]), n_active, cfg.K)),
                _fmt(normalize_active(float(s["d_msa"][j]), n_active, cfg.K)),
            ])
    written.append(path)

    shape = (cfg.height_grids, cfg.width_grids)
    for robot_id in range(2, cfg.n_robots + 1):
        path = out / f"heatmap_robot_{robot_id}.csv"
        _write_matrix(result.visit_counts[robot_id - 1].reshape(shape), path)
        written.append(path)
    path = out / "heatmap_total.csv"
    _write_matrix(result.visit_counts.sum(axis=0).reshape(shape), path)
    written.append(path)

    path = out / "events.log"
    with open(path, "w") as fh:
        for ev in result.events:
            fh.write(f"{ev.time},{ev.robot_id},{ev.grid}\n")
    written.append(path)
    return written


def _write_matrix(matrix: np.ndarray, path: Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in matrix:
            writer.writerow([str(int(v)) for v in row])


def _read_matrix(path: Path) -> np.ndarray:
    try:
        with open(path, newline="") as fh:
            return np.array([[int(v) for v in row] for row in csv.reader(fh)],
                            dtype=np.int64)
    except (ValueError, OverflowError) as exc:
        raise VerificationError(f"{path}: expected a rectangular matrix of integers") from exc


def read_events(path) -> List[VisitEvent]:
    events = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            t, robot, grid = (int(v) for v in line.split(","))
        except ValueError as exc:
            raise VerificationError(
                f"{path}:{lineno}: expected 'time,robot,grid' integers, got {line!r}"
            ) from exc
        events.append(VisitEvent(robot, grid, t))
    return events


def replay_events(
    events: List[VisitEvent], config: ScenarioConfig
) -> Tuple[float, int, np.ndarray]:
    """Independent recomputation of I_G, I_W, and visit counts from events.

    Replays the idleness recursion directly: increment every grid each step,
    reset visited grids, sample after resets, accumulate from warmup_t0.
    An event that the mission cannot have produced raises VerificationError:
    a time outside 1..mission_steps, a robot outside 2..n_robots (the BS never
    patrols) or a grid outside the map.
    """
    K = config.K
    idleness = np.zeros(K, dtype=np.int64)
    counts = np.zeros((config.n_robots, K), dtype=np.int64)
    by_time: Dict[int, List[VisitEvent]] = {}
    for ev in events:
        if not (1 <= ev.time <= config.mission_steps
                and 2 <= ev.robot_id <= config.n_robots and 0 <= ev.grid < K):
            raise VerificationError(
                f"event {ev.time},{ev.robot_id},{ev.grid}: time must be in "
                f"1..{config.mission_steps}, robot in 2..{config.n_robots} "
                f"and grid in 0..{K - 1}"
            )
        by_time.setdefault(ev.time, []).append(ev)
    sum_ig = 0.0
    max_iw = 0
    samples = 0
    for t in range(1, config.mission_steps + 1):
        idleness += 1
        for ev in by_time.get(t, ()):
            idleness[ev.grid] = 0
            counts[ev.robot_id - 1, ev.grid] += 1
        if t >= config.warmup_t0:
            sum_ig += float(idleness.mean())
            max_iw = max(max_iw, int(idleness.max()))
            samples += 1
    if samples == 0:
        raise VerificationError("mission shorter than warm-up; nothing to verify")
    return sum_ig / samples, max_iw, counts


def _close(a: float, b: float, rel: float = 1e-9) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=1e-12)


def verify_artifacts(events_path, config: ScenarioConfig, artifact_dir=None) -> List[str]:
    """Replay events.log and check metrics.csv and the heatmaps against it.

    Returns a list of mismatch descriptions; empty means verified. A file
    that cannot be read as the artifact it names raises VerificationError.
    """
    events_path = Path(events_path)
    out = Path(artifact_dir) if artifact_dir is not None else events_path.parent
    heatmaps = [out / f"heatmap_robot_{i}.csv" for i in range(2, config.n_robots + 1)]
    for path in (events_path, out / "metrics.csv", out / "heatmap_total.csv", *heatmaps):
        if not path.is_file():
            raise VerificationError(f"missing artifact {path}")
    events = read_events(events_path)
    i_g, i_w, counts = replay_events(events, config)

    mismatches = []
    with open(out / "metrics.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != 1:
        mismatches.append(f"metrics.csv: expected 1 row, found {len(rows)}")
        return mismatches
    row = rows[0]
    try:
        recorded_ig, recorded_iw = float(row["I_G"]), int(row["I_W"])
        recorded_norm = float(row["norm_I_G"])
    except (KeyError, TypeError, ValueError) as exc:
        raise VerificationError(
            f"{out / 'metrics.csv'}: expected numeric I_G, I_W and norm_I_G columns"
        ) from exc
    if not _close(recorded_ig, i_g):
        mismatches.append(f"I_G: recorded {row['I_G']}, replay {i_g!r}")
    if recorded_iw != i_w:
        mismatches.append(f"I_W: recorded {row['I_W']}, replay {i_w}")
    norm = (config.n_robots - 1) / config.K
    if not _close(recorded_norm, i_g * norm):
        mismatches.append(f"norm_I_G: recorded {row['norm_I_G']}, replay {i_g * norm!r}")

    shape = (config.height_grids, config.width_grids)
    for robot_id, path in enumerate(heatmaps, start=2):
        recorded = _read_matrix(path)
        if not np.array_equal(recorded, counts[robot_id - 1].reshape(shape)):
            mismatches.append(f"{path.name}: does not match event replay")
    total = _read_matrix(out / "heatmap_total.csv")
    if not np.array_equal(total, counts.sum(axis=0).reshape(shape)):
        mismatches.append("heatmap_total.csv: does not match event replay")
    return mismatches
