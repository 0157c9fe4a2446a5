"""Configuration, seeded initialization, the per-timestep loop, and batches.

`Simulation.step` runs one timestep t as a fixed sequence of phases, each a
method that reads t from the world clock:
  1. `_clock`: apply the failure schedule, advance the clock and ground-truth
     idleness, and age operational bases (frozen robots keep state)
  2. `deliver`: envelopes enqueued at t-1 reach the t-1 neighbors
  3. `_merge`: operational robots merge received knowledge; operational
     patrollers update their report priority from the t-1 priorities of the
     robots they heard at t-1
  4. `_move`: operational patrollers take one kinematic step toward the
     temporary grid
  5. `_complete`: detect the step's patrol completions as one block of
     `time, robot, grid` rows (`_result` counts all blocks' visits once),
     reset idleness, record own-patrol entries, and re-select targets for
     robots whose temporary grid completed or that recovered at t
  6. `_broadcast`: compute the connectivity graph at t and enqueue each
     connected robot's top-s slice for delivery at t+1, re-cut only for a row
     whose utimes rose since its last cut: utimes never fall, so an unchanged
     row has the same top s (its idleness values age, and are read each step)
  7. `_sample`: sample instantaneous metrics

All mutation is single-threaded within a trial; trials in a batch are
independent and reproducible from (config, seed) alone.
"""

import dataclasses
import hashlib
import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from . import knowledge, metrics, strategy
from .comms import MessageEnvelope, compute_connectivity, deliver, truncate_knowledge
from .errors import ConfigurationError
from .motion import KinematicLimits, holonomic_step, step_toward
from .priority import update_report_priority
from .world import advance_time, build_grid_map, detect_patrol_completions, new_world


@dataclass(frozen=True)
class ScenarioConfig:
    n_robots: int = 10          # total robots including the BS (r_1)
    width_grids: int = 20
    height_grids: int = 20
    grid_size: float = 30.0     # m
    rho: float = 3.0            # m, patrol completion threshold
    mission_steps: int = 43200  # timesteps (1 step = 1 s)
    warmup_t0: int = 10000      # metrics accumulate from this step onward
    v_max: float = 1.5          # m/s
    phi_max: float = 1.0        # rad/s
    d_c: float = 180.0          # m, communication range
    d_s: float = 90.0           # m, sensor range (carried, no behavior)
    delta: float = 180.0        # m, target-candidate search range
    eta: float = 0.40           # priority handoff discount
    p_max: float = 703.0        # priority ceiling
    sigma: float = 304.0        # width of the Gaussian location bias
    bandwidth_s: int = 400      # knowledge entries per broadcast
    strategy: str = strategy.LR_PT
    seed: int = 1
    trials: int = 10
    fail_fraction: float = 0.0  # fraction of patrollers that fail
    fail_at: int = 0
    recover_at: int = 0
    holonomic: bool = False

    def __post_init__(self):
        self.validate()

    @property
    def K(self) -> int:
        return self.width_grids * self.height_grids

    def validate(self) -> "ScenarioConfig":
        values = vars(self)
        for name, accepted, is_bool in _TYPE_CHECKS:  # precomputed: every construction validates
            value = values[name]
            if not isinstance(value, accepted) or (type(value) is bool) is not is_bool:
                raise ConfigurationError(
                    f"{name} must be of type {FIELD_TYPES[name].__name__}, got {value!r}")
        for name in _FLOAT_FIELDS:
            if not math.isfinite(values[name]):
                raise ConfigurationError(f"{name} must be finite, got {values[name]}")
        if self.n_robots < 2:
            raise ConfigurationError(f"n_robots must be >= 2, got {self.n_robots}")
        if self.width_grids < 1 or self.height_grids < 1:
            raise ConfigurationError("width_grids and height_grids must be >= 1")
        for name in ("grid_size", "rho", "v_max", "phi_max", "d_c", "d_s", "delta",
                     "p_max", "sigma"):
            if values[name] <= 0:
                raise ConfigurationError(f"{name} must be > 0, got {values[name]}")
        if self.mission_steps < 1:
            raise ConfigurationError("mission_steps must be >= 1")
        if self.warmup_t0 < 0:
            raise ConfigurationError("warmup_t0 must be >= 0")
        if self.delta > self.d_c:
            raise ConfigurationError(
                f"delta ({self.delta}) must not exceed d_c ({self.d_c})"
            )
        if not 0.0 <= self.eta < 1.0:
            raise ConfigurationError(f"eta must be in [0, 1), got {self.eta}")
        if self.bandwidth_s < 1:
            raise ConfigurationError("bandwidth_s must be >= 1")
        if self.strategy not in strategy.STRATEGIES:
            raise ConfigurationError(
                f"strategy must be one of {strategy.STRATEGIES}, got {self.strategy!r}"
            )
        if self.strategy == strategy.RANDOM_WALK and self.K == 1:
            raise ConfigurationError(
                "strategy random needs a map of at least 2 cells: "
                "the only cell of a 1x1 map has no neighbour to walk to"
            )
        if self.trials < 1:
            raise ConfigurationError("trials must be >= 1")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 <= self.fail_fraction <= 1.0:
            raise ConfigurationError("fail_fraction must be in [0, 1]")
        if self.fail_fraction > 0.0:
            if not 0 < self.fail_at < self.recover_at <= self.mission_steps:
                raise ConfigurationError(
                    "failure schedule requires 0 < fail_at < recover_at <= mission_steps"
                )
        if self.warmup_t0 > self.mission_steps:
            raise ConfigurationError(
                f"warm-up warmup_t0={self.warmup_t0} exceeds mission_steps="
                f"{self.mission_steps}: no step would be sampled"
            )
        return self


FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(ScenarioConfig)}
_FLOAT_FIELDS = tuple(name for name, typ in FIELD_TYPES.items() if typ is float)
# (field, accepted types, is the bool field); a float field also takes an int
_TYPE_CHECKS = tuple((name, (int, float) if typ is float else typ, typ is bool)
                     for name, typ in FIELD_TYPES.items())


def _parse_value(key: str, raw: str):
    typ = FIELD_TYPES[key]
    raw = raw.strip()
    try:
        if typ is bool:
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        if typ is int:
            return int(raw)
        if typ is float:
            return float(raw)
        return raw
    except ValueError as exc:
        raise ConfigurationError(f"bad value for {key}: {raw!r}") from exc


def parse_config(path, **overrides) -> ScenarioConfig:
    """Load a flat `key = value` config file; '#' starts a comment.

    `overrides` (ScenarioConfig fields) replace the file's values before the
    config is built, so they can complete a file that is invalid on its own.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"config file {path} is not UTF-8 text (byte {exc.start})") from exc
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{lineno}: expected 'key = value'")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in FIELD_TYPES:
            raise ConfigurationError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigurationError(f"{path}:{lineno}: {key!r} is set twice")
        values[key] = _parse_value(key, raw)
    return ScenarioConfig(**{**values, **overrides})


def scheduled_failures(config: ScenarioConfig) -> List[int]:
    """Row indices of the patrollers scheduled to fail: the largest ids."""
    if config.fail_fraction <= 0.0:
        return []
    count = math.ceil(config.fail_fraction * (config.n_robots - 1))
    return list(range(config.n_robots - count, config.n_robots))


class Simulation:
    """One seeded trial. Robot row 0 is the BS; rows 1..N-1 patrol."""

    def __init__(self, config: ScenarioConfig, seed: int, record_series: bool = True):
        self.config = config = replace(config, seed=seed)
        self.rng = np.random.default_rng(seed)
        self.grid_map = build_grid_map(
            config.width_grids, config.height_grids, config.grid_size
        )
        n = config.n_robots
        K = self.grid_map.K
        self.world = new_world(K)
        self.limits = KinematicLimits(config.v_max, config.phi_max)

        # BS at the origin; patrollers uniform over the first-quadrant
        # quarter disc of radius 2*sqrt(N)
        self.pos = np.zeros((n, 2), dtype=np.float64)
        radius = 2.0 * math.sqrt(n)
        r = radius * np.sqrt(self.rng.uniform(0.0, 1.0, n - 1))
        ang = self.rng.uniform(0.0, math.pi / 2.0, n - 1)
        self.pos[1:, 0] = r * np.cos(ang)
        self.pos[1:, 1] = r * np.sin(ang)
        self.heading = self.rng.uniform(-math.pi, math.pi, n)
        self.heading[0] = 0.0

        self.assumed = np.zeros((n, K), dtype=np.int64)
        self.utime = np.zeros((n, K), dtype=np.int64)
        self.p = np.zeros(n, dtype=np.float64)
        self.omega = np.zeros(n, dtype=np.int64)
        self.alive = np.ones(n, dtype=bool)
        self.temp = np.full(n, -1, dtype=np.int64)
        self.need_select = set()  # rows that `_complete` re-selects
        self.fail_rows = scheduled_failures(config)
        self.patrollers = np.arange(1, n), np.arange(2, n + 1)  # operational rows, their ids

        for i in range(1, n):
            self._select_target(i)

        self.prev_graph = compute_connectivity(self.pos, self.alive, config.d_c)
        self.sent = np.zeros(n, dtype=bool)  # rows that broadcast at t-1
        self.outbox: Dict[int, MessageEnvelope] = {}
        self.cuts = [None] * n  # row -> (grids, utimes) of its last slice; None when stale
        self.metrics = metrics.MetricsAccumulator(K, n, config.warmup_t0, record_series)
        self.event_blocks = [np.empty((0, 3), dtype=np.int64)]  # then one per step with visits

    def _select_target(self, i: int) -> None:
        cfg = self.config
        cur = self.grid_map.cell_of(self.pos[i].tolist())
        if cfg.strategy == strategy.LR_PT:
            target = strategy.select_patrol_target(
                self.pos[i], self.assumed[i], self.p[i], self.grid_map,
                cfg.delta, cfg.v_max, cfg.p_max, cfg.sigma,
            )
        elif cfg.strategy == strategy.EXPECTED_REACTIVE:
            target = strategy.er_select(self.pos[i], self.assumed[i], self.grid_map, cfg.v_max)
        else:
            target = strategy.random_select(cur, self.grid_map, self.rng)
        self.temp[i] = strategy.temporary_target(cur, target, self.grid_map)

    def step(self) -> np.ndarray:
        self._clock()
        self._merge(deliver(self.outbox, self.prev_graph))
        self._move()
        events = self._complete()
        self._broadcast()
        self._sample()
        return events

    def _clock(self) -> None:
        cfg = self.config
        t = self.world.t + 1
        if t == cfg.fail_at:
            self.alive[self.fail_rows] = False
        if t == cfg.recover_at:
            self.alive[self.fail_rows] = True
            self.p[self.fail_rows] = 0.0  # a fresh returner must not hijack reporting
            self.need_select.update(self.fail_rows)
        if t in (cfg.fail_at, cfg.recover_at):
            rows = np.flatnonzero(self.alive[1:]) + 1
            self.patrollers = rows, rows + 1
        advance_time(self.world)
        self.assumed += self.alive[:, None]

    def _merge(self, inboxes: List[List[MessageEnvelope]]) -> None:
        cfg = self.config
        for i in range(cfg.n_robots):
            if self.alive[i] and inboxes[i]:
                if knowledge.merge_received(self.assumed[i], self.utime[i], inboxes[i], cfg.K):
                    self.cuts[i] = None
        patrolling = self.alive.copy()
        patrolling[0] = False
        self.p, self.omega = update_report_priority(
            self.p, self.omega, self.prev_graph & self.sent[:, None], patrolling,
            self.prev_graph[:, 0], self.world.t, cfg.p_max, cfg.eta,
        )

    def _move(self) -> None:
        """One step per operational patroller over Python floats: a float64
        round-trip through a Python float is exact, and `motion` works in
        `math` either way."""
        mover = holonomic_step if self.config.holonomic else step_toward
        pos, heading = self.pos.tolist(), self.heading.tolist()
        waypoints = self.grid_map.centers[self.temp].tolist()
        for i, alive in enumerate(self.alive.tolist()):
            if i and alive:
                x, y = pos[i]
                wx, wy = waypoints[i]
                pos[i][0], pos[i][1], heading[i] = mover(x, y, heading[i], wx, wy, self.limits)
        self.pos[:] = pos
        self.heading[:] = heading

    def _complete(self) -> np.ndarray:
        """Record completions; re-select, in ascending row order, every row in
        `need_select`: completed temporary grids and robots that recovered."""
        rows, ids = self.patrollers
        events = detect_patrol_completions(
            self.world, self.grid_map, self.pos[rows], ids, self.config.rho
        )
        if len(events):
            self.event_blocks.append(events)
            robots, grids = events[:, 1] - 1, events[:, 2]
            knowledge.record_patrol(self.assumed, self.utime, robots, grids, self.world.t)
            for i in robots.tolist():
                self.cuts[i] = None
            self.need_select.update(robots[grids == self.temp[robots]].tolist())
        for i in sorted(self.need_select):
            self._select_target(i)
        self.need_select.clear()
        return events

    def _broadcast(self) -> None:
        graph = compute_connectivity(self.pos, self.alive, self.config.d_c)
        self.sent = graph.any(axis=1)  # the graph only links operational robots
        self.outbox, cuts, s = {}, self.cuts, self.config.bandwidth_s
        for i in np.flatnonzero(self.sent).tolist():
            if cuts[i] is None:
                grids, idleness, utimes = truncate_knowledge(self.assumed[i], self.utime[i], s)
                cuts[i] = grids, utimes
            else:
                grids, utimes = cuts[i]
                idleness = self.assumed[i][grids]
            self.outbox[i] = MessageEnvelope(grids, idleness, utimes)
        self.prev_graph = graph

    def _sample(self) -> None:
        n_active = len(self.patrollers[0])
        metrics.sample_instantaneous(self.world, self.utime[0], self.metrics, n_active)

    def run(self) -> "TrialResult":
        for _ in range(self.config.mission_steps):
            self.step()
        return self._result()

    def _result(self) -> "TrialResult":
        events = np.concatenate(self.event_blocks)
        metrics.record_visit(self.metrics, events)
        return TrialResult(
            self.config,
            *metrics.finalize(self.metrics),
            visit_counts=self.metrics.visit_counts.copy(),
            series={k: np.asarray(v) for k, v in self.metrics.series.items()},
            events=events,
        )


@dataclass
class TrialResult:
    config: ScenarioConfig  # reproduces the trial: run_trial(config, config.seed)
    I_G: float
    I_W: int
    D_MSA: float
    D_WSA: int
    visit_counts: np.ndarray            # (N, K); row 0 (the BS) stays zero
    series: Dict[str, np.ndarray]
    events: np.ndarray                  # (n, 3) int64 rows `time, robot, grid`

    @property
    def seed(self) -> int:
        return self.config.seed

    def metric_row(self) -> Dict[str, float]:
        """The four metrics, then each scaled by (N-1)/K as `norm_<name>`."""
        raw = {"I_G": self.I_G, "I_W": self.I_W, "D_MSA": self.D_MSA, "D_WSA": self.D_WSA}
        patrollers, K = self.config.n_robots - 1, self.config.K
        return {**raw,
                **{f"norm_{k}": metrics.normalize(v, patrollers, K) for k, v in raw.items()}}

    def event_log(self) -> str:
        """The text of events.log: one `time,robot,grid` line per visit."""
        return ("%d,%d,%d\n" * len(self.events)) % tuple(self.events.ravel().tolist())

    def event_digest(self) -> str:
        return hashlib.sha256(self.event_log().encode()).hexdigest()


def run_trial(config: ScenarioConfig, seed: int, record_series: bool = True) -> TrialResult:
    return Simulation(config, seed, record_series).run()


def run_batch(
    config: ScenarioConfig,
    *configs: ScenarioConfig,
    workers: int = 1,
    record_series: bool = True,
) -> Tuple[List[TrialResult], Dict[str, Dict[str, float]]]:
    """Every given config's `trials` trials, config by config, with seeds
    c.seed, c.seed+1, ... each, on one pool of at most that many worker
    processes (serially when that is 1). The summary covers every result."""
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    pairs = [(c, seed) for c in (config, *configs) for seed in range(c.seed, c.seed + c.trials)]
    jobs = (*zip(*pairs), itertools.repeat(record_series))
    workers = min(workers, len(pairs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_trial, *jobs))
    else:
        results = list(map(run_trial, *jobs))
    return results, summarize(results)


def summarize(results: List[TrialResult]) -> Dict[str, Dict[str, float]]:
    rows = [r.metric_row() for r in results]
    summary: Dict[str, Dict[str, float]] = {}
    for key in rows[0]:
        vals = np.array([row[key] for row in rows], dtype=np.float64)
        summary[key] = {
            "mean": float(vals.mean()),
            "min": float(vals.min()),
            "max": float(vals.max()),
        }
    return summary


def sweep_points(config: ScenarioConfig, etas, p_maxes, sigmas) -> List[ScenarioConfig]:
    """The config of every point of the {eta} x {p_max} x {sigma} grid;
    raises ConfigurationError for an empty grid or an invalid point."""
    points = [replace(config, eta=eta, p_max=p_max, sigma=sigma)
              for eta, p_max, sigma in itertools.product(etas, p_maxes, sigmas)]
    if not points:
        raise ConfigurationError("parameter sweep grid is empty")
    return points


def parameter_sweep(
    config: ScenarioConfig,
    etas,
    p_maxes,
    sigmas,
    trials: int,
    base_seed: int,
    workers: int = 1,
) -> List[Dict[str, float]]:
    """Exhaustive sweep over {eta} x {p_max} x {sigma}: `trials` trials per
    point, with seeds base_seed, base_seed+1, ... at every point, run as one
    `run_batch` of points x `trials` jobs and summarized point by point."""
    point_cfgs = sweep_points(replace(config, trials=trials, seed=base_seed),
                              etas, p_maxes, sigmas)
    results, _ = run_batch(*point_cfgs, workers=workers, record_series=False)
    rows = []
    for j, point_cfg in enumerate(point_cfgs):
        summary = summarize(results[j * trials:(j + 1) * trials])
        rows.append({
            "eta": point_cfg.eta,
            "p_max": point_cfg.p_max,
            "sigma": point_cfg.sigma,
            "mean_I_G": summary["I_G"]["mean"],
            "mean_I_W": summary["I_W"]["mean"],
            "mean_norm_I_G": summary["norm_I_G"]["mean"],
            "mean_norm_I_W": summary["norm_I_W"]["mean"],
        })
    return rows
