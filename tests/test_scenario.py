import math
from dataclasses import asdict, replace

import numpy as np
import pytest

from patrolsim.errors import ConfigurationError
from patrolsim.scenario import (
    ScenarioConfig,
    Simulation,
    parameter_sweep,
    parse_config,
    run_batch,
    run_trial,
    scheduled_failures,
    summarize,
)

SMALL = ScenarioConfig(
    n_robots=4,
    width_grids=8,
    height_grids=8,
    grid_size=30.0,
    mission_steps=600,
    warmup_t0=100,
    d_c=120.0,
    delta=120.0,
    eta=0.5,
    p_max=200.0,
    sigma=150.0,
    bandwidth_s=64,
)

# (field, invalid value, message) for SMALL
INVALID_VALUES = [
    ("rho", math.nan, "rho must be finite"),
    ("sigma", math.nan, "sigma must be finite"),
    ("v_max", math.inf, "v_max must be finite"),
    ("warmup_t0", 601, "warm-up"),
    ("seed", -1, "seed must be >= 0"),
    ("width_grids", 0, "width_grids and height_grids must be >= 1"),
    ("grid_size", 0.0, "grid_size must be > 0"),
]


# (field, value of the wrong type): each runs or fails wrongly if accepted
WRONG_TYPES = [
    ("holonomic", "no"),        # truthy: ran holonomic
    ("holonomic", 0),
    ("bandwidth_s", 8.7),       # ran as 8, and metrics.csv failed verify
    ("mission_steps", 300.0),   # TypeError inside the run
    ("n_robots", 4.0),
    ("n_robots", True),
    ("seed", 1.5),
    ("seed", None),
    ("rho", True),
    ("rho", "3"),
    ("strategy", None),
]


class TestConfig:
    def test_parse_round_trip(self, tmp_path):
        path = tmp_path / "mission.cfg"
        path.write_text(
            "# comment line\n"
            "n_robots = 5\n"
            "eta = 0.55   # inline comment\n"
            "strategy = er\n"
            "holonomic = true\n"
        )
        cfg = parse_config(path)
        assert cfg.n_robots == 5
        assert cfg.eta == 0.55
        assert cfg.strategy == "er"
        assert cfg.holonomic is True

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("robots = 5\n")
        with pytest.raises(ConfigurationError, match="unknown key"):
            parse_config(path)

    def test_repeated_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("n_robots = 5\neta = 0.5\nn_robots = 4\n")
        with pytest.raises(ConfigurationError, match=r":3: 'n_robots' is set twice"):
            parse_config(path)

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("n_robots = many\n")
        with pytest.raises(ConfigurationError):
            parse_config(path)

    def test_overrides_complete_the_file(self, tmp_path):
        # the file alone is invalid (failures without a schedule)
        path = tmp_path / "mission.cfg"
        path.write_text("mission_steps = 300\nwarmup_t0 = 50\nfail_fraction = 0.3\n")
        with pytest.raises(ConfigurationError, match="failure schedule"):
            parse_config(path)
        cfg = parse_config(path, fail_at=100, recover_at=200)
        assert (cfg.fail_fraction, cfg.fail_at, cfg.recover_at) == (0.3, 100, 200)
        assert parse_config(path, fail_fraction=0.0).fail_fraction == 0.0

    def test_delta_must_not_exceed_comm_range(self):
        with pytest.raises(ConfigurationError, match="delta"):
            ScenarioConfig(delta=200.0, d_c=180.0)

    @pytest.mark.parametrize("field, value, match", INVALID_VALUES)
    def test_invalid_value_rejected_before_any_step(self, field, value, match):
        with pytest.raises(ConfigurationError, match=match):
            Simulation(replace(SMALL, **{field: value}), 1)

    @pytest.mark.parametrize("field, value, match", INVALID_VALUES)
    def test_invalid_value_rejected_at_construction(self, tmp_path, field, value, match):
        values = {**asdict(SMALL), field: value}
        with pytest.raises(ConfigurationError, match=match):
            replace(SMALL, **{field: value})
        with pytest.raises(ConfigurationError, match=match):
            ScenarioConfig(**values)
        path = tmp_path / "mission.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        with pytest.raises(ConfigurationError, match=match):
            parse_config(path)

    @pytest.mark.parametrize("field, value", WRONG_TYPES)
    def test_wrong_type_rejected(self, field, value):
        match = f"{field} must be of type"
        with pytest.raises(ConfigurationError, match=match):
            ScenarioConfig(**{**asdict(SMALL), field: value})
        with pytest.raises(ConfigurationError, match=match):
            replace(SMALL, **{field: value})
        with pytest.raises(ConfigurationError, match=match):
            if field == "seed":  # the trial seed is checked like the field
                Simulation(SMALL, value)
            else:
                Simulation(replace(SMALL, **{field: value}), 1)

    def test_random_walk_needs_two_cells(self):
        one_cell = replace(SMALL, width_grids=1, height_grids=1, mission_steps=150,
                           warmup_t0=50)
        with pytest.raises(ConfigurationError, match="strategy random"):
            Simulation(replace(one_cell, strategy="random"), 1)
        for name in ("lr-pt", "er"):
            assert run_trial(replace(one_cell, strategy=name), 1).I_W >= 0

    def test_negative_trial_seed_rejected(self):
        # numpy's generator would raise ValueError; the seed argument is
        # checked like a config field
        with pytest.raises(ConfigurationError, match="seed must be >= 0"):
            Simulation(SMALL, -1)

    def test_failure_schedule_consistency(self):
        with pytest.raises(ConfigurationError):
            ScenarioConfig(fail_fraction=0.2, fail_at=100, recover_at=50,
                           mission_steps=200)

    def test_shipped_configs(self):
        from pathlib import Path

        configs = Path(__file__).resolve().parent.parent / "configs"
        for name, n in (("swarm5.cfg", 5), ("swarm10.cfg", 10), ("swarm15.cfg", 15)):
            cfg = parse_config(configs / name)
            assert cfg.n_robots == n
            assert cfg.K == 400


class TestInitMission:
    def test_placement_radius(self):
        cfg = replace(SMALL, n_robots=10, p_max=703.0)
        sim = Simulation(cfg, 3)
        assert (sim.pos[0] == 0).all()  # BS at the origin
        norms = np.hypot(sim.pos[1:, 0], sim.pos[1:, 1])
        assert (norms <= 2 * math.sqrt(10)).all()
        assert (sim.pos[1:] >= 0).all()  # first quadrant

    def test_deterministic_init(self):
        a, b = Simulation(SMALL, 11), Simulation(SMALL, 11)
        assert np.array_equal(a.pos, b.pos)
        assert np.array_equal(a.heading, b.heading)
        assert np.array_equal(a.temp, b.temp)

    def test_minimal_swarm(self):
        cfg = replace(SMALL, n_robots=2, mission_steps=150, warmup_t0=50)
        result = run_trial(cfg, 1)
        assert result.I_G > 0

    @pytest.mark.parametrize("strategy", ["lr-pt", "er", "random"])
    def test_initial_targets_selected(self, strategy):
        # every patroller heads for its own cell or one of its 8 neighbours
        sim = Simulation(replace(SMALL, strategy=strategy), 2)
        gmap = sim.grid_map
        for i in range(1, SMALL.n_robots):
            cur = gmap.cell_of(sim.pos[i])
            assert sim.temp[i] == cur or sim.temp[i] in gmap.neighbors8(cur)

    def test_no_bs_contact_before_first_broadcast(self):
        # every patroller starts within d_c of the BS, but nothing has been
        # sent at t = 1, so no contact timestamp may be taken
        sim = Simulation(SMALL, 2)
        assert sim.prev_graph[1:, 0].all()
        sim.step()
        assert (sim.omega[1:] == 0).all()


class TestRunTrial:
    def test_determinism(self):
        r1 = run_trial(SMALL, 5)
        r2 = run_trial(SMALL, 5)
        assert r1.event_digest() == r2.event_digest()
        assert r1.metric_row() == r2.metric_row()
        assert np.array_equal(r1.visit_counts, r2.visit_counts)

    def test_mission_shorter_than_warmup_fails(self):
        with pytest.raises(Exception, match="warm-up|samples"):
            run_trial(replace(SMALL, mission_steps=50, warmup_t0=100), 1)

    def test_idleness_matches_event_replay(self):
        # the world's idleness state is reproducible from the event log alone
        sim = Simulation(SMALL, 9)
        by_time = {}
        for _ in range(SMALL.mission_steps):
            for t, _, grid in sim.step().tolist():
                by_time.setdefault(t, []).append(grid)
        idleness = np.zeros(SMALL.K, dtype=np.int64)
        for t in range(1, SMALL.mission_steps + 1):
            idleness += 1
            for grid in by_time.get(t, ()):
                idleness[grid] = 0
        assert np.array_equal(idleness, sim.world.idleness)

    def test_event_count_equals_heatmap_sum(self):
        r = run_trial(SMALL, 7)
        assert len(r.events) == r.visit_counts.sum()

    def test_visit_counts_are_bincount_of_events(self):
        r = run_trial(SMALL, 7)
        n, K = SMALL.n_robots, SMALL.K
        counts = np.bincount((r.events[:, 1] - 1) * K + r.events[:, 2], minlength=n * K)
        assert np.array_equal(counts.reshape(n, K), r.visit_counts)

    def test_step_blocks_concatenate_to_events(self):
        sim = Simulation(SMALL, 7)
        blocks = [sim.step() for _ in range(SMALL.mission_steps)]
        assert all(b.dtype == np.int64 and b.shape[1:] == (3,) for b in blocks)
        events = sim._result().events
        assert events.dtype == np.int64
        assert np.array_equal(np.concatenate(blocks), events)
        assert np.array_equal(events, run_trial(SMALL, 7).events)

    def test_knowledge_entries_map_to_real_visits(self):
        sim = Simulation(SMALL, 13)
        visited = set()
        for _ in range(SMALL.mission_steps):
            for t, _, grid in sim.step().tolist():
                visited.add((grid, t))
        for i in range(SMALL.n_robots):
            for k in range(SMALL.K):
                if sim.utime[i, k] > 0:
                    assert (k, int(sim.utime[i, k])) in visited
        assert (sim.assumed <= sim.world.t - sim.utime).all()


class TestFailureSchedule:
    def test_largest_ids_fail(self):
        cfg = ScenarioConfig(n_robots=10, fail_fraction=0.2, fail_at=43200,
                             recover_at=86400, mission_steps=129600)
        rows = scheduled_failures(cfg)
        assert [r + 1 for r in rows] == [9, 10]  # r_9 and r_10

    def test_failed_robot_isolated_and_frozen(self):
        cfg = replace(SMALL, fail_fraction=0.5, fail_at=100, recover_at=200,
                      mission_steps=300, warmup_t0=10)
        sim = Simulation(cfg, 3)
        for _ in range(99):
            sim.step()
        pos_before = sim.pos.copy()
        for _ in range(50):  # t in [100, 150)
            sim.step()
            assert not sim.prev_graph[2].any() and not sim.prev_graph[3].any()
        assert np.array_equal(sim.pos[2:], pos_before[2:])

    def test_recovery_resets_priority_and_reselects(self):
        cfg = replace(SMALL, fail_fraction=0.5, fail_at=100, recover_at=200,
                      mission_steps=300, warmup_t0=10)
        sim = Simulation(cfg, 3)
        for _ in range(199):
            sim.step()
        sim.step()  # t = 200: recovery step
        assert sim.alive.all()
        # reset to 0 at recovery, then at most the regular +1 growth this step
        assert sim.p[2] <= 1.0 and sim.p[3] <= 1.0

    def test_no_events_from_failed_robots(self):
        # at fail_fraction 1.0 every patroller is down from t = 100 to 199
        for fail_fraction, failed in ((0.5, (3, 4)), (1.0, (2, 3, 4))):
            cfg = replace(SMALL, fail_fraction=fail_fraction, fail_at=100,
                          recover_at=200, mission_steps=300, warmup_t0=10)
            r = run_trial(cfg, 3)
            for t, robot, _ in r.events.tolist():
                if 100 <= t < 200:
                    assert robot not in failed
            assert any(t >= 200 for t in r.events[:, 0].tolist())


@pytest.fixture
def pools(monkeypatch):
    """The size of every pool that run_batch starts; each maps in this process."""
    from patrolsim import scenario

    started = []

    class InProcessPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(scenario, "ProcessPoolExecutor", InProcessPool)
    return started


class TestBatchAndSweep:
    def test_batch_aggregate_mean(self):
        results, summary = run_batch(replace(SMALL, trials=3, seed=10))
        assert [r.seed for r in results] == [10, 11, 12]
        mean = sum(r.I_G for r in results) / 3
        assert summary["I_G"]["mean"] == pytest.approx(mean)

    def test_single_trial_summary(self):
        results, summary = run_batch(replace(SMALL, trials=1, seed=4))
        assert summary["I_W"]["mean"] == results[0].I_W

    def test_batch_deterministic(self):
        _, s1 = run_batch(replace(SMALL, trials=2, seed=3))
        _, s2 = run_batch(replace(SMALL, trials=2, seed=3))
        assert s1 == s2

    def test_results_reproduce_from_their_config(self, monkeypatch):
        # a result's config is the one that reproduces it, seed included
        from patrolsim import scenario

        cfg = replace(SMALL, mission_steps=150, warmup_t0=10)
        batch, _ = run_batch(replace(cfg, trials=3, seed=20))
        assert [r.config.seed for r in batch] == [20, 21, 22]
        swept = []
        calls = []
        run = scenario.run_batch

        def keep(*args, **kwargs):
            results, summary = run(*args, **kwargs)
            calls.append(args)
            swept.extend(results)
            return results, summary

        monkeypatch.setattr(scenario, "run_batch", keep)
        parameter_sweep(cfg, [0.4, 0.6], [200.0], [150.0], 2, 30)
        # one batch of every point's trials, point by point: what a caller
        # that wraps run_batch to collect a sweep's trials relies on
        assert [[c.eta for c in args] for args in calls] == [[0.4, 0.6]]
        assert [(r.config.eta, r.config.seed) for r in swept] == [
            (0.4, 30), (0.4, 31), (0.6, 30), (0.6, 31)]
        for r in batch + swept:
            again = run_trial(r.config, r.config.seed)
            assert again.event_digest() == r.event_digest()
            assert again.metric_row() == r.metric_row()

    def test_sweep_counts_and_single_point(self):
        rows = parameter_sweep(SMALL, [0.4, 0.5], [200.0, 300.0], [150.0], 1, 8)
        assert len(rows) == 4
        single = parameter_sweep(SMALL, [SMALL.eta], [SMALL.p_max], [SMALL.sigma], 2, 8)
        _, batch = run_batch(replace(SMALL, trials=2, seed=8))
        assert single[0]["mean_I_G"] == pytest.approx(batch["I_G"]["mean"])

    def test_batch_starts_at_most_trials_workers(self, pools):
        cfg = replace(SMALL, mission_steps=150, warmup_t0=10, trials=2, seed=5)
        serial, _ = run_batch(cfg)
        assert pools == []
        pooled, _ = run_batch(cfg, workers=64)
        assert pools == [2]
        single, _ = run_batch(replace(cfg, trials=1), workers=4)
        assert pools == [2]
        assert [r.metric_row() for r in pooled] == [r.metric_row() for r in serial]
        assert [r.event_digest() for r in pooled] == [r.event_digest() for r in serial]
        assert single[0].event_digest() == serial[0].event_digest()

    def test_sweep_starts_one_pool_for_all_points(self, pools):
        cfg = replace(SMALL, mission_steps=150, warmup_t0=10)
        grid = ([0.4, 0.5], [200.0], [150.0])
        pooled = parameter_sweep(cfg, *grid, 1, 8, workers=4)
        assert pools == [2]
        assert repr(pooled) == repr(parameter_sweep(cfg, *grid, 1, 8))
        assert pools == [2]

    def test_pooled_sweep_rows_equal_serial(self):
        cfg = replace(SMALL, mission_steps=150, warmup_t0=10)
        grid = ([0.4, 0.5], [200.0], [150.0])
        pooled = parameter_sweep(cfg, *grid, 1, 8, workers=2)
        assert repr(pooled) == repr(parameter_sweep(cfg, *grid, 1, 8))

    def test_batch_of_configs_is_their_batches_in_order(self):
        a = replace(SMALL, mission_steps=150, warmup_t0=10, trials=2, seed=3)
        b = replace(a, eta=0.3, trials=1, seed=9)
        both, summary = run_batch(a, b)
        apart = run_batch(a)[0] + run_batch(b)[0]
        assert [r.seed for r in both] == [r.seed for r in apart] == [3, 4, 9]
        assert [r.event_digest() for r in both] == [r.event_digest() for r in apart]
        assert [r.metric_row() for r in both] == [r.metric_row() for r in apart]
        assert summary == summarize(apart)

    def test_batch_without_config_fails_before_any_pool_or_trial(self, monkeypatch, pools):
        from patrolsim import scenario

        calls = []
        monkeypatch.setattr(scenario, "run_trial", lambda *a: calls.append(a))
        with pytest.raises(TypeError, match="config"):
            run_batch(workers=2)
        assert pools == [] and calls == []

    @pytest.mark.parametrize("workers", [0, -2])
    def test_workers_below_one_rejected_before_any_trial(self, monkeypatch, workers):
        from patrolsim import scenario

        calls = []
        monkeypatch.setattr(scenario, "run_trial", lambda *a: calls.append(a))
        with pytest.raises(ConfigurationError, match=f"workers must be >= 1, got {workers}"):
            run_batch(replace(SMALL, trials=2, seed=1), workers=workers)
        with pytest.raises(ConfigurationError, match="workers must be >= 1"):
            parameter_sweep(SMALL, [0.4, 0.5], [200.0], [150.0], 1, 8, workers=workers)
        assert calls == []

    def test_sweep_empty_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            parameter_sweep(SMALL, [], [200.0], [150.0], 1, 8)

    def test_sweep_bad_last_point_rejected_before_any_batch(self, monkeypatch):
        from patrolsim import scenario

        calls = []
        monkeypatch.setattr(scenario, "run_batch", lambda *a, **kw: calls.append(a))
        with pytest.raises(ConfigurationError, match="eta"):
            parameter_sweep(SMALL, [0.4, 1.5], [200.0], [150.0], 1, 8)
        assert calls == []
