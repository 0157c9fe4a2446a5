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
  events.log         `TrialResult.event_log()`: one `time,robot,grid` row per visit

Floats are written with 17 significant digits, so they read back exactly.

`verify` checks the swarm/map/bandwidth echo in metrics.csv against the
config, then recomputes I_G, I_W, norm_I_G, norm_I_W and the heatmaps from
events.log alone and checks them against the emitted files. The replay works
from visit gaps, in O(events + K) whatever the mission length: I_G is one
exact integer total divided once, so it can differ from the simulator's sum
of per-step means in the last bits. Integers must match exactly, reals to
1e-9 relative.

Writing and reading cost O(rows): timeseries.csv and events.log are each
written as one string, formatted once per row, and events.log and the
heatmaps are parsed in bulk, one `int` per field.
"""

import csv
import io
import math
from itertools import repeat
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from .errors import VerificationError
from .metrics import SERIES_KEYS, normalize
from .scenario import ScenarioConfig, TrialResult

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
    series = result.series
    columns = [series[k] for k in SERIES_KEYS]
    columns += [normalize(series[k], series["n_active"], cfg.K) for k in ("i_g", "d_msa")]
    # what _fmt writes: integers as they are, floats to 17 significant digits
    row = ",".join("%d" if c.dtype.kind == "i" else "%.17g" for c in columns) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(TIMESERIES_FIELDS) + "\r\n")  # csv's line ending
        fh.write("".join([row % values for values in zip(*(c.tolist() for c in columns))]))
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
        fh.write(result.event_log())
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


def _int_fields(lines: List[str], width: int) -> List[int]:
    """The integers of `lines`, row after row: each line must hold `width`
    comma-separated fields that `int` accepts, else ValueError."""
    if not lines:
        return []
    if set(map(str.count, lines, repeat(","))) != {width - 1}:
        raise ValueError(f"expected {width} fields on every line")
    return list(map(int, ",".join(lines).split(",")))


def _read_matrix(path: Path) -> np.ndarray:
    lines = _read_text(path).splitlines()
    width = lines[0].count(",") + 1 if lines else 0
    try:
        return np.array(_int_fields(lines, width), dtype=np.int64).reshape(len(lines), width)
    except (ValueError, OverflowError) as exc:
        raise VerificationError(f"{path}: expected a rectangular matrix of integers") from exc


def read_events(path) -> np.ndarray:
    """events.log as an (n, 3) int64 array of `time, robot, grid` rows in file
    order; blank lines are skipped.

    A value beyond int64 lies outside every mission. Such a file comes back
    as an object array of Python ints, so that `replay_events` names the
    event in its range error as the file spells it.
    """
    text = _read_text(path)
    try:
        values = _int_fields(list(filter(str.strip, text.splitlines())), 3)
    except ValueError:
        for lineno, line in enumerate(text.splitlines(), start=1):
            try:
                _int_fields([line] if line.strip() else [], 3)
            except ValueError as exc:
                raise VerificationError(
                    f"{path}:{lineno}: expected 'time,robot,grid' integers, got {line!r}"
                ) from exc
        raise
    try:
        return np.array(values, dtype=np.int64).reshape(-1, 3)
    except OverflowError:
        return np.array(values, dtype=object).reshape(-1, 3)


def replay_events(events: np.ndarray, config: ScenarioConfig) -> Tuple[float, int, np.ndarray]:
    """Independent recomputation of I_G, I_W and the visit counts from the
    `time, robot, grid` rows of `read_events`, by visit gaps.

    Idleness of a grid at step t is t minus its last visit at or before t (0
    if none), counted after that step's resets. So each visit v of a grid,
    and a virtual visit at 0, opens a gap that lasts until the grid's next
    visit minus 1, or until mission_steps; a second visit of a grid in the
    same step leaves the first one an empty gap. Over the part of a gap
    inside the sampled window [max(1, warmup_t0), mission_steps], m steps
    from lo, idleness sums to m*(lo - v) + m*(m-1)/2 and peaks at its end.
    I_G is the exact integer total of all gaps divided once by K times the
    number of samples; I_W is the largest peak. The cost is O(events + K),
    independent of mission_steps. The int64 total is exact while
    K * mission_steps**2 < 2**63: for K = 400, up to 1.5e8 steps.

    An event that the mission cannot have produced raises VerificationError,
    naming the first such row in file order: a time outside
    1..mission_steps, a robot outside 2..n_robots (the BS never patrols) or
    a grid outside the map.
    """
    K, n, steps = config.K, config.n_robots, config.mission_steps
    time, robot, grid = events.T
    bad = (time < 1) | (time > steps) | (robot < 2) | (robot > n) | (grid < 0) | (grid >= K)
    if bad.any():
        t, r, g = events[np.argmax(bad)].tolist()
        raise VerificationError(
            f"event {t},{r},{g}: time must be in 1..{steps}, robot in 2..{n} "
            f"and grid in 0..{K - 1}"
        )
    counts = np.bincount((robot - 1) * K + grid, minlength=n * K).reshape(n, K)

    span = steps + 1
    first = max(1, config.warmup_t0)  # <= steps: a valid config samples once
    visits = np.sort(np.concatenate([grid * span + time, np.arange(K) * span]))
    cell, v = np.divmod(visits, span)
    end = np.append(v[1:] - 1, steps)
    end[:-1][cell[1:] != cell[:-1]] = steps  # a grid's last visit lasts to the end
    lo = np.maximum(v, first)
    m = end - lo + 1
    sampled = m > 0
    m, lo, v, end = m[sampled], lo[sampled], v[sampled], end[sampled]
    total = int((m * (lo - v) + m * (m - 1) // 2).sum())
    return total / (K * (steps - first + 1)), int((end - v).max()), counts


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
