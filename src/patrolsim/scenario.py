"""Configuration, seeded initialization, the per-timestep loop, and batches.

Fixed phase order per timestep t:
  1. advance the clock and ground-truth idleness; age operational bases
  2. deliver envelopes enqueued at t-1 (recipients fixed by the t-1 graph)
  3. operational robots merge received knowledge; operational patrollers
     update their report priority from the t-1 priorities of the robots
     they heard at t-1
  4. operational patrollers take one kinematic step toward the temporary grid
  5. detect patrol completions, reset idleness, record own-patrol entries,
     and re-select targets for robots whose temporary grid completed
  6. compute the connectivity graph at t and enqueue each connected robot's
     top-s knowledge slice for delivery at t+1
  7. sample instantaneous metrics

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
from .world import (
    VisitEvent,
    advance_time,
    build_grid_map,
    detect_patrol_completions,
    new_world,
)


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

    @property
    def K(self) -> int:
        return self.width_grids * self.height_grids

    def validate(self) -> "ScenarioConfig":
        def positive(name):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be > 0, got {getattr(self, name)}")

        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.type is float and not math.isfinite(value):
                raise ConfigurationError(f"{f.name} must be finite, got {value}")
        if self.n_robots < 2:
            raise ConfigurationError(f"n_robots must be >= 2, got {self.n_robots}")
        if self.width_grids < 1 or self.height_grids < 1:
            raise ConfigurationError("width_grids and height_grids must be >= 1")
        for name in ("grid_size", "rho", "v_max", "phi_max", "d_c", "d_s", "delta",
                     "p_max", "sigma"):
            positive(name)
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
        if self.trials < 1:
            raise ConfigurationError("trials must be >= 1")
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


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(ScenarioConfig)}


def _parse_value(key: str, raw: str):
    typ = _FIELD_TYPES[key]
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


def parse_config(path) -> ScenarioConfig:
    """Load a flat `key = value` config file; '#' starts a comment.

    Keys and value types are checked here; the value ranges are not, so that
    overrides can still fix them. Call `validate()` on the final config.
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc.strerror}") from exc
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{lineno}: expected 'key = value'")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in _FIELD_TYPES:
            raise ConfigurationError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = _parse_value(key, raw)
    return ScenarioConfig(**values)


def scheduled_failures(config: ScenarioConfig) -> List[int]:
    """Row indices of the patrollers scheduled to fail: the largest ids."""
    if config.fail_fraction <= 0.0:
        return []
    count = math.ceil(config.fail_fraction * (config.n_robots - 1))
    return list(range(config.n_robots - count, config.n_robots))


class Simulation:
    """One seeded trial. Robot row 0 is the BS; rows 1..N-1 patrol."""

    def __init__(self, config: ScenarioConfig, seed: int, record_series: bool = True):
        config.validate()
        self.config = config
        self.seed = seed
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
        self.need_select = np.zeros(n, dtype=bool)
        self.fail_rows = scheduled_failures(config)

        for i in range(1, n):
            self._select_target(i)

        self.prev_graph = compute_connectivity(self.pos, self.alive, config.d_c)
        self.sent = np.zeros(n, dtype=bool)  # rows that broadcast at t-1
        self.outbox: Dict[int, MessageEnvelope] = {}
        self.metrics = metrics.MetricsAccumulator(K, n, config.warmup_t0, record_series)
        self.events: List[VisitEvent] = []

    def _select_target(self, i: int) -> None:
        cfg = self.config
        cur = self.grid_map.cell_of(self.pos[i])
        if cfg.strategy == strategy.LR_PT:
            sel = strategy.select_patrol_target(
                self.pos[i], cur, self.assumed[i], self.p[i], self.grid_map,
                cfg.delta, cfg.v_max, cfg.p_max, cfg.sigma,
            )
        elif cfg.strategy == strategy.EXPECTED_REACTIVE:
            sel = strategy.er_select(
                self.pos[i], cur, self.assumed[i], self.grid_map, cfg.v_max
            )
        else:
            sel = strategy.random_select(cur, self.grid_map, self.rng)
        self.temp[i] = sel.temporary_grid

    def _apply_failure_schedule(self, t: int) -> None:
        if not self.fail_rows:
            return
        if t == self.config.fail_at:
            for i in self.fail_rows:
                self.alive[i] = False
        if t == self.config.recover_at:
            for i in self.fail_rows:
                self.alive[i] = True
                self.p[i] = 0.0       # a fresh returner must not hijack reporting
                self.need_select[i] = True

    def step(self) -> List[VisitEvent]:
        cfg = self.config
        gmap = self.grid_map
        n = cfg.n_robots
        K = gmap.K
        t = self.world.t + 1
        self._apply_failure_schedule(t)

        # phase 1: clock, ground truth, knowledge aging (frozen robots keep state)
        advance_time(self.world)
        self.assumed[self.alive] += 1

        # phase 2: delivery of t-1 envelopes
        inboxes = deliver(self.outbox, self.prev_graph)

        # phase 3: merge + priority from frozen t-1 snapshots
        for i in range(n):
            if not self.alive[i] or not inboxes[i]:
                continue
            knowledge.merge_received(self.assumed[i], self.utime[i], inboxes[i], K)
        patrolling = self.alive.copy()
        patrolling[0] = False
        self.p, self.omega = update_report_priority(
            self.p, self.omega, self.prev_graph & self.sent[:, None], patrolling,
            self.prev_graph[:, 0], t, cfg.p_max, cfg.eta,
        )

        # phase 4: motion
        mover = holonomic_step if cfg.holonomic else step_toward
        for i in range(1, n):
            if not self.alive[i] or self.temp[i] < 0:
                continue
            wx, wy = gmap.centers[self.temp[i]]
            x, y, th = mover(
                self.pos[i, 0], self.pos[i, 1], self.heading[i], wx, wy, self.limits
            )
            self.pos[i, 0] = x
            self.pos[i, 1] = y
            self.heading[i] = th

        # phase 5: completions, own-patrol recording, re-selection
        rows = [i for i in range(1, n) if self.alive[i]]
        events = detect_patrol_completions(
            self.world, gmap, self.pos[rows], [i + 1 for i in rows], cfg.rho
        )
        completed = set()
        for ev in events:
            self.events.append(ev)
            metrics.record_visit(self.metrics, ev)
            i = ev.robot_id - 1
            knowledge.record_patrol(self.assumed[i], self.utime[i], ev.grid, t)
            if ev.grid == self.temp[i]:
                completed.add(i)
        for i in rows:
            if i in completed or self.need_select[i]:
                self._select_target(i)
                self.need_select[i] = False

        # phase 6: connectivity at t and broadcast
        graph = compute_connectivity(self.pos, self.alive, cfg.d_c)
        self.sent = graph.any(axis=1)  # the graph only links operational robots
        outbox: Dict[int, MessageEnvelope] = {}
        for i in np.flatnonzero(self.sent):
            grids, ivals, tvals = truncate_knowledge(
                self.assumed[i], self.utime[i], cfg.bandwidth_s
            )
            outbox[i] = MessageEnvelope(i + 1, grids, ivals, tvals)
        self.outbox = outbox
        self.prev_graph = graph

        # phase 7: metrics
        n_active = int(self.alive[1:].sum())
        metrics.sample_instantaneous(self.world, self.utime[0], self.metrics, n_active)
        return events

    def run(self) -> "TrialResult":
        for _ in range(self.config.mission_steps):
            self.step()
        return self._result()

    def _result(self) -> "TrialResult":
        cfg = self.config
        i_g, i_w, d_msa, d_wsa = metrics.finalize(self.metrics)
        norm = {
            "I_G": metrics.normalize(i_g, cfg.n_robots, cfg.K),
            "I_W": metrics.normalize(i_w, cfg.n_robots, cfg.K),
            "D_MSA": metrics.normalize(d_msa, cfg.n_robots, cfg.K),
            "D_WSA": metrics.normalize(d_wsa, cfg.n_robots, cfg.K),
        }
        series = {k: np.asarray(v) for k, v in self.metrics.series.items()}
        return TrialResult(
            config=cfg,
            seed=self.seed,
            I_G=i_g,
            I_W=i_w,
            D_MSA=d_msa,
            D_WSA=d_wsa,
            normalized=norm,
            visit_counts=self.metrics.visit_counts.copy(),
            series=series,
            events=list(self.events),
        )


@dataclass
class TrialResult:
    config: ScenarioConfig
    seed: int
    I_G: float
    I_W: int
    D_MSA: float
    D_WSA: int
    normalized: Dict[str, float]
    visit_counts: np.ndarray            # (N, K); row 0 (the BS) stays zero
    series: Dict[str, np.ndarray]
    events: List[VisitEvent]

    def metric_row(self) -> Dict[str, float]:
        return {
            "I_G": self.I_G,
            "I_W": self.I_W,
            "D_MSA": self.D_MSA,
            "D_WSA": self.D_WSA,
            "norm_I_G": self.normalized["I_G"],
            "norm_I_W": self.normalized["I_W"],
            "norm_D_MSA": self.normalized["D_MSA"],
            "norm_D_WSA": self.normalized["D_WSA"],
        }

    def event_digest(self) -> str:
        h = hashlib.sha256()
        for ev in self.events:
            h.update(f"{ev.time},{ev.robot_id},{ev.grid}\n".encode())
        return h.hexdigest()


def run_trial(config: ScenarioConfig, seed: int, record_series: bool = True) -> TrialResult:
    return Simulation(config, seed, record_series).run()


def _batch_worker(args) -> TrialResult:
    config, seed, record_series = args
    return run_trial(config, seed, record_series)


def run_batch(
    config: ScenarioConfig,
    trials: int,
    base_seed: int,
    workers: int = 1,
    record_series: bool = True,
) -> Tuple[List[TrialResult], Dict[str, Dict[str, float]]]:
    """Independent trials with seeds base_seed..base_seed+trials-1."""
    if trials < 1:
        raise ConfigurationError("trials must be >= 1")
    jobs = [(config, base_seed + i, record_series) for i in range(trials)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_batch_worker, jobs))
    else:
        results = [_batch_worker(job) for job in jobs]
    summary = summarize(results)
    return results, summary


def summarize(results: List[TrialResult]) -> Dict[str, Dict[str, float]]:
    summary: Dict[str, Dict[str, float]] = {}
    for key in results[0].metric_row():
        vals = np.array([r.metric_row()[key] for r in results], dtype=np.float64)
        summary[key] = {
            "mean": float(vals.mean()),
            "min": float(vals.min()),
            "max": float(vals.max()),
        }
    return summary


def parameter_sweep(
    config: ScenarioConfig,
    etas,
    p_maxes,
    sigmas,
    trials: int,
    base_seed: int,
    workers: int = 1,
) -> List[Dict[str, float]]:
    """Exhaustive sweep over {eta} x {p_max} x {sigma}, deterministic seeding."""
    points = list(itertools.product(etas, p_maxes, sigmas))
    if not points:
        raise ConfigurationError("parameter sweep grid is empty")
    point_cfgs = [
        replace(config, eta=eta, p_max=p_max, sigma=sigma).validate()
        for eta, p_max, sigma in points
    ]
    rows = []
    for point_cfg in point_cfgs:
        results, summary = run_batch(
            point_cfg, trials, base_seed, workers=workers, record_series=False
        )
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
