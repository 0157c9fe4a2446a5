"""File emission and the event-log replay oracle.

Artifact set for one trial:
  metrics.csv        one row: seed, swarm/map/bandwidth echo, the raw metrics
                     and `TrialResult.metric_row()`'s norm_* values, which
                     scale by (N-1)/K
  timeseries.csv     per-step instantaneous metrics, unfiltered by warm-up:
                     the `TrialResult.series` columns, then I_g and D_mSA
                     scaled by n_active/K (the operational patrollers at t)
  heatmap_robot_<id>.csv   height x width integer matrix, row = y ascending
  heatmap_total.csv  elementwise sum over robots
  events.log         one `time,robot,grid` row per visit event

Floats are written with 17 significant digits, so they read back exactly.

`verify` checks the swarm/map/bandwidth echo in metrics.csv against the
config, then recomputes I_G, I_W, norm_I_G, norm_I_W and the heatmaps from
events.log alone and checks them against the emitted files.
"""

import csv
import io
import math
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from .errors import VerificationError
from .metrics import SERIES_KEYS, normalize
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
    return format(value, ".17g") if isinstance(value, float) else str(value)


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
    columns = (result.series[k].tolist() for k in SERIES_KEYS)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TIMESERIES_FIELDS)
        writer.writerows(
            [_fmt(v) for v in (t, i_g, i_w, d_msa, d_wsa, n_active,
                               normalize(i_g, n_active, cfg.K),
                               normalize(d_msa, n_active, cfg.K))]
            for t, i_g, i_w, d_msa, d_wsa, n_active in zip(*columns)
        )
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
        csv.writer(fh).writerows(matrix.tolist())


def _read_text(path) -> str:
    """An artifact's text, line endings untranslated (as csv wants them)."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise VerificationError(f"{path}: not UTF-8 text (byte {exc.start})") from exc


def _read_matrix(path: Path) -> np.ndarray:
    rows = csv.reader(io.StringIO(_read_text(path), newline=""))
    try:
        return np.array([[int(v) for v in row] for row in rows], dtype=np.int64)
    except (ValueError, OverflowError, csv.Error) as exc:
        raise VerificationError(f"{path}: expected a rectangular matrix of integers") from exc


def read_events(path) -> List[VisitEvent]:
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
    samples = 0  # >= 1: a valid config has warmup_t0 <= mission_steps
    for t in range(1, config.mission_steps + 1):
        idleness += 1
        for ev in by_time.get(t, ()):
            idleness[ev.grid] = 0
            counts[ev.robot_id - 1, ev.grid] += 1
        if t >= config.warmup_t0:
            sum_ig += float(idleness.mean())
            max_iw = max(max_iw, int(idleness.max()))
            samples += 1
    return sum_ig / samples, max_iw, counts


# metrics.csv columns that verify recomputes from events.log, with their types
REPLAYED = {"I_G": float, "I_W": int, "norm_I_G": float, "norm_I_W": float}


def _close(a: float, b: float, rel: float = 1e-9) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=1e-12)


def _require(*paths: Path) -> None:
    for path in paths:
        if not path.is_file():
            raise VerificationError(f"missing artifact {path}")


def verify_artifacts(events_path, config: ScenarioConfig, artifact_dir=None) -> List[str]:
    """Check the config echo in metrics.csv, then replay events.log and check
    metrics.csv and the heatmaps against it.

    Returns a list of mismatch descriptions; empty means verified. An echoed
    field (`n_robots`, `K`, `bandwidth_s`, `strategy`) that differs from the
    config is reported without a replay, which would then differ everywhere.
    A file that cannot be read as the artifact it names raises
    VerificationError.
    """
    events_path = Path(events_path)
    out = Path(artifact_dir) if artifact_dir is not None else events_path.parent
    metrics_path = out / "metrics.csv"
    _require(events_path, metrics_path)
    text = io.StringIO(_read_text(metrics_path), newline="")
    try:
        rows = list(csv.DictReader(text))
    except csv.Error as exc:
        raise VerificationError(f"{metrics_path}: {exc}") from exc
    if len(rows) != 1:
        return [f"metrics.csv: expected 1 row, found {len(rows)}"]
    row = rows[0]
    try:
        echo = {name: int(row[name]) for name in ("n_robots", "K", "bandwidth_s")}
        echo["strategy"] = row["strategy"]
        recorded_metrics = {name: parse(row[name]) for name, parse in REPLAYED.items()}
    except (KeyError, TypeError, ValueError) as exc:
        raise VerificationError(
            f"{metrics_path}: expected integer n_robots, K and bandwidth_s, a strategy "
            f"and numeric {', '.join(REPLAYED)} columns"
        ) from exc
    mismatches = [f"{name}: recorded {value}, config {getattr(config, name)}"
                  for name, value in echo.items() if value != getattr(config, name)]
    if mismatches:
        return mismatches

    heatmaps = [out / f"heatmap_robot_{i}.csv" for i in range(2, config.n_robots + 1)]
    _require(out / "heatmap_total.csv", *heatmaps)
    i_g, i_w, counts = replay_events(read_events(events_path), config)
    patrollers = config.n_robots - 1
    replay = {"I_G": i_g, "I_W": i_w,
              "norm_I_G": normalize(i_g, patrollers, config.K),
              "norm_I_W": normalize(i_w, patrollers, config.K)}
    for name, value in replay.items():
        if isinstance(value, int):  # I_W matches exactly, the reals within _close
            same = recorded_metrics[name] == value
        else:
            same = _close(recorded_metrics[name], value)
        if not same:
            mismatches.append(f"{name}: recorded {row[name]}, replay {value!r}")

    shape = (config.height_grids, config.width_grids)
    for robot_id, path in enumerate(heatmaps, start=2):
        recorded = _read_matrix(path)
        if not np.array_equal(recorded, counts[robot_id - 1].reshape(shape)):
            mismatches.append(f"{path.name}: does not match event replay")
    total = _read_matrix(out / "heatmap_total.csv")
    if not np.array_equal(total, counts.sum(axis=0).reshape(shape)):
        mismatches.append("heatmap_total.csv: does not match event replay")
    return mismatches
