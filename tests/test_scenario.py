import math
from dataclasses import replace

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

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("n_robots = many\n")
        with pytest.raises(ConfigurationError):
            parse_config(path)

    def test_delta_must_not_exceed_comm_range(self):
        with pytest.raises(ConfigurationError, match="delta"):
            ScenarioConfig(delta=200.0, d_c=180.0).validate()

    @pytest.mark.parametrize("field, value, match", [
        ("rho", math.nan, "rho must be finite"),
        ("sigma", math.nan, "sigma must be finite"),
        ("v_max", math.inf, "v_max must be finite"),
        ("warmup_t0", 601, "warm-up"),
    ])
    def test_invalid_value_rejected_before_any_step(self, field, value, match):
        cfg = replace(SMALL, **{field: value})
        with pytest.raises(ConfigurationError, match=match):
            Simulation(cfg, 1)

    def test_failure_schedule_consistency(self):
        with pytest.raises(ConfigurationError):
            ScenarioConfig(fail_fraction=0.2, fail_at=100, recover_at=50,
                           mission_steps=200).validate()

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

    def test_initial_targets_selected(self):
        sim = Simulation(SMALL, 2)
        assert (sim.temp[1:] >= 0).all()

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
        cfg = replace(SMALL, mission_steps=50, warmup_t0=100)
        with pytest.raises(Exception, match="warm-up|samples"):
            run_trial(cfg, 1)

    def test_idleness_matches_event_replay(self):
        # the world's idleness state is reproducible from the event log alone
        sim = Simulation(SMALL, 9)
        by_time = {}
        for _ in range(SMALL.mission_steps):
            for ev in sim.step():
                by_time.setdefault(ev.time, []).append(ev)
        idleness = np.zeros(SMALL.K, dtype=np.int64)
        for t in range(1, SMALL.mission_steps + 1):
            idleness += 1
            for ev in by_time.get(t, ()):
                idleness[ev.grid] = 0
        assert np.array_equal(idleness, sim.world.idleness)

    def test_event_count_equals_heatmap_sum(self):
        r = run_trial(SMALL, 7)
        assert len(r.events) == r.visit_counts.sum()

    def test_knowledge_entries_map_to_real_visits(self):
        sim = Simulation(SMALL, 13)
        visited = set()
        for _ in range(SMALL.mission_steps):
            for ev in sim.step():
                visited.add((ev.grid, ev.time))
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
        cfg = replace(SMALL, fail_fraction=0.5, fail_at=100, recover_at=200,
                      mission_steps=300, warmup_t0=10)
        r = run_trial(cfg, 3)
        for ev in r.events:
            if 100 <= ev.time < 200:
                assert ev.robot_id not in (3, 4)


class TestBatchAndSweep:
    def test_batch_aggregate_mean(self):
        results, summary = run_batch(SMALL, 3, base_seed=10)
        assert [r.seed for r in results] == [10, 11, 12]
        mean = sum(r.I_G for r in results) / 3
        assert summary["I_G"]["mean"] == pytest.approx(mean)

    def test_single_trial_summary(self):
        results, summary = run_batch(SMALL, 1, base_seed=4)
        assert summary["I_W"]["mean"] == results[0].I_W

    def test_batch_deterministic(self):
        _, s1 = run_batch(SMALL, 2, base_seed=3)
        _, s2 = run_batch(SMALL, 2, base_seed=3)
        assert s1 == s2

    def test_sweep_counts_and_single_point(self):
        rows = parameter_sweep(SMALL, [0.4, 0.5], [200.0, 300.0], [150.0], 1, 8)
        assert len(rows) == 4
        single = parameter_sweep(SMALL, [SMALL.eta], [SMALL.p_max], [SMALL.sigma], 2, 8)
        _, batch = run_batch(SMALL, 2, base_seed=8)
        assert single[0]["mean_I_G"] == pytest.approx(batch["I_G"]["mean"])

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
