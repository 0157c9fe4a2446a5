"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line so the whole gate can be read off a
plain `pytest -v -s tests/test_acceptance.py` run. The heavy full-length
missions are shared through module-scoped fixtures; everything is seeded,
so the suite is reproducible bit for bit.
"""

from dataclasses import replace

import numpy as np
import pytest

from patrolsim.export import write_run_artifacts, verify_artifacts
from patrolsim.scenario import ScenarioConfig, Simulation, run_batch, run_trial
from patrolsim.strategy import candidate_grids, select_patrol_target
from patrolsim.world import build_grid_map

from oracles import adjustment_alpha, expected_travel_time, grid_utility
from test_knowledge import StaticNet
from test_priority import upd

# full-mission configurations for 5- and 10-robot swarms (tuned parameter
# triples (eta, p_max, sigma) per swarm size)
SWARM5 = ScenarioConfig(n_robots=5, eta=0.55, p_max=1088.0, sigma=356.0)
SWARM10 = ScenarioConfig()  # defaults carry the 10-robot tuning
SEEDS = 5


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"\ncriterion {num:02d} [{name}]: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num:02d} {name}: {detail}"


# ---------------------------------------------------------------- fixtures


@pytest.fixture(scope="module")
def swarm5_batch():
    results, summary = run_batch(replace(SWARM5, trials=SEEDS, seed=1), workers=SEEDS,
                                 record_series=False)
    return results, summary


@pytest.fixture(scope="module")
def swarm10_batch():
    results, summary = run_batch(replace(SWARM10, trials=SEEDS, seed=1), workers=SEEDS,
                                 record_series=False)
    return results, summary


@pytest.fixture(scope="module")
def reactive10_batch():
    cfg = replace(SWARM10, strategy="er", trials=SEEDS, seed=1)
    results, summary = run_batch(cfg, workers=SEEDS,
                                 record_series=False)
    return results, summary


@pytest.fixture(scope="module")
def swarm5_narrowband_batch():
    cfg = replace(SWARM5, bandwidth_s=8, trials=SEEDS, seed=1)
    results, summary = run_batch(cfg, workers=SEEDS,
                                 record_series=False)
    return results, summary


@pytest.fixture(scope="module")
def swarm5_traced():
    """Single full 5-robot mission stepped by hand with consistency tracing."""
    sim = Simulation(SWARM5, seed=1, record_series=False)
    visited = set()
    invariant_ok = True
    for step in range(SWARM5.mission_steps):
        for t, _, grid in sim.step().tolist():
            visited.add((grid, t))
        if step % 500 == 0 and not (sim.assumed <= sim.world.t - sim.utime).all():
            invariant_ok = False
    result = sim._result()
    return sim, visited, invariant_ok, result


@pytest.fixture(scope="module")
def failure_run():
    cfg = replace(SWARM10, mission_steps=129600, fail_fraction=0.2,
                  fail_at=43200, recover_at=86400)
    return run_trial(cfg, 1, record_series=True)


# ---------------------------------------------------------------- criteria


def test_01_replay_oracle_equivalence(tmp_path):
    # 20 randomized missions on a 10x10 map; the event-log replay verifier
    # must reproduce the emitted metrics and heatmaps exactly
    rng = np.random.default_rng(2026)
    failures = []
    for i in range(20):
        cfg = ScenarioConfig(
            n_robots=int(rng.choice([3, 5])),
            width_grids=10,
            height_grids=10,
            mission_steps=5000,
            warmup_t0=1000,
            bandwidth_s=int(rng.choice([100, 16])),
            eta=0.5,
            p_max=300.0,
            sigma=200.0,
        )
        seed = int(rng.integers(1, 1_000_000))
        out = tmp_path / f"case_{i:02d}"
        write_run_artifacts(run_trial(cfg, seed, record_series=True), out)
        mismatches = verify_artifacts(out / "events.log", cfg, artifact_dir=out)
        if mismatches:
            failures.append((i, seed, mismatches))
    report(1, "replay oracle equivalence", not failures, str(failures[:2]))


def test_02_knowledge_consistency(swarm5_traced):
    sim, visited, invariant_ok, _ = swarm5_traced
    # every positive update time in any robot's knowledge corresponds to a
    # real visit event at exactly that time
    grounded = all(
        (k, int(sim.utime[i, k])) in visited
        for i in range(SWARM5.n_robots)
        for k in range(SWARM5.K)
        if sim.utime[i, k] > 0
    )
    final_ok = bool((sim.assumed <= sim.world.t - sim.utime).all())

    # stationary 3-robot chain: the assumed idleness lags ground truth by
    # exactly one step per gossip hop
    net = StaticNet([[0, 0], [100, 0], [200, 0]], d_c=100, K=4, s=4)
    net.step(visits=[(0, 1)])  # visit at t = 1
    for _ in range(6):
        net.step()
    chain_ok = all(
        net.assumed[hop][1] == (net.t - 1) - hop and net.utime[hop][1] == 1
        for hop in range(3)
    )
    ok = grounded and invariant_ok and final_ok and chain_ok
    report(2, "knowledge consistency", ok,
           f"grounded={grounded} bound={invariant_ok and final_ok} chain={chain_ok}")


def test_03_priority_bound_and_handoff():
    p_max, eta = 703.0, 0.40
    cap = p_max * (1.0 + eta)
    rng = np.random.default_rng(7)
    bound_ok = True
    for _ in range(10_000):
        p, omega = float(rng.uniform(0, cap)), int(rng.integers(0, 50))
        inbox = [
            (int(s) + 2, False, float(rng.uniform(0, cap)), int(rng.integers(0, 50)))
            for s in range(rng.integers(0, 4))
        ]
        if rng.random() < 0.2:
            inbox.append((1, True, 0.0, 0))
        out = upd(p, omega, inbox, bool(rng.random() < 0.3),
                  now=int(rng.integers(1, 1000)), p_max=p_max, eta=eta)
        if out.p > cap + 1e-12:
            bound_ok = False
            break

    # pairwise handoff: the robot with the fresher base-station contact
    # absorbs max + eta * min; the other side resets to zero
    p_a, p_b = 120.0, 300.0
    a = upd(p_a, 40, [(3, False, p_b, 10)],
            connected=True, now=50, p_max=p_max, eta=eta)
    b = upd(p_b, 10, [(2, False, p_a, 40)],
            connected=True, now=50, p_max=p_max, eta=eta)
    handoff_ok = (a.p == max(p_a, p_b) + eta * min(p_a, p_b)) and b.p == 0.0
    report(3, "priority bound and handoff", bound_ok and handoff_ok,
           f"bound={bound_ok} handoff={handoff_ok}")


def test_04_alpha_pull_regime():
    # single row of grids whose Chebyshev coordinate equals the x center:
    # the Gaussian pull peaks at coordinate p_max - p and equals 1 there
    gmap = build_grid_map(30, 1, 40.0)  # centers x = 20, 60, ..., cheb = x
    p_max, sigma = 600.0, 200.0
    alphas_low = [adjustment_alpha(k, 100.0, p_max, sigma, gmap) for k in range(30)]
    alphas_high = [adjustment_alpha(k, 500.0, p_max, sigma, gmap) for k in range(30)]
    k_low, k_high = int(np.argmax(alphas_low)), int(np.argmax(alphas_high))
    ok = (
        gmap.chebyshev[k_low] == 500.0          # nearest 500 at p = 100
        and gmap.chebyshev[k_high] == 100.0     # nearest 100 at p = 500
        and abs(alphas_low[k_low] - 1.0) <= 1e-12
        and abs(alphas_high[k_high] - 1.0) <= 1e-12
    )
    report(4, "alpha pull regime", ok,
           f"peaks at cheb {gmap.chebyshev[k_low]}, {gmap.chebyshev[k_high]}")


def test_05_selection_matches_brute_force(gmap20):
    p_max, sigma, v_max, delta = 703.0, 304.0, 1.5, 180.0
    rng = np.random.default_rng(11)
    mismatches = 0
    for _ in range(1000):
        pos = rng.uniform(0, 600, 2)
        assumed = rng.integers(0, 5000, gmap20.K)
        p = float(rng.uniform(0, p_max * 1.4))
        target = select_patrol_target(pos, assumed, p, gmap20, delta, v_max, p_max, sigma)
        best, best_u = -1, -1.0
        for k in candidate_grids(pos, delta, gmap20):
            dt = expected_travel_time(pos, k, v_max, gmap20)
            u = grid_utility(assumed[k], dt,
                             adjustment_alpha(k, p, p_max, sigma, gmap20))
            if u > best_u:
                best, best_u = int(k), u
        if target != best:
            mismatches += 1
    report(5, "selection equals exhaustive argmax", mismatches == 0,
           f"{mismatches}/1000 mismatches")


def test_06_swarm_size_scaling(swarm5_batch, swarm10_batch):
    m5 = swarm5_batch[1]["norm_I_G"]["mean"]
    m10 = swarm10_batch[1]["norm_I_G"]["mean"]
    ok = abs(m10 - m5) <= 0.30 * m5
    report(6, "normalized idleness scales with swarm size", ok,
           f"norm I_G mean: N=5 {m5:.3f} vs N=10 {m10:.3f}")


def test_07_awareness_beats_reactive_baseline(swarm10_batch, reactive10_batch):
    lr, er = swarm10_batch[1], reactive10_batch[1]
    ok = (lr["D_MSA"]["mean"] < er["D_MSA"]["mean"]
          and lr["D_WSA"]["mean"] < er["D_WSA"]["mean"])
    report(7, "base-station awareness beats reactive baseline", ok,
           f"D_MSA {lr['D_MSA']['mean']:.1f} vs {er['D_MSA']['mean']:.1f}, "
           f"D_WSA {lr['D_WSA']['mean']:.1f} vs {er['D_WSA']['mean']:.1f}")


def test_08_emergent_partitioning(swarm5_traced):
    _, _, _, result = swarm5_traced
    gmap = build_grid_map(SWARM5.width_grids, SWARM5.height_grids, SWARM5.grid_size)
    means = []
    for row in result.visit_counts[1:]:
        assert row.sum() > 0
        means.append(float((row * gmap.chebyshev).sum() / row.sum()))
    spread = max(means) - min(means)
    total = result.visit_counts.sum(axis=0)
    cv = float(total.std() / total.mean())
    ok = spread >= 150.0 and cv <= 0.6 and total.min() > 0
    report(8, "roles differentiate while coverage stays even", ok,
           f"spread={spread:.1f} m, visit-count CV={cv:.3f}")


def test_09_bandwidth_truncation_robustness(swarm5_batch, swarm5_narrowband_batch):
    full = swarm5_batch[1]["norm_I_G"]["mean"]
    narrow = swarm5_narrowband_batch[1]["norm_I_G"]["mean"]
    degradation = (narrow - full) / full
    report(9, "idleness robust to broadcast truncation", degradation <= 0.25,
           f"norm I_G {full:.3f} -> {narrow:.3f} ({degradation:+.1%})")


def test_10_failure_recovery_stability(failure_run):
    r = failure_run
    cfg = r.config
    t = r.series["t"]
    ig = r.series["i_g"] * r.series["n_active"] / cfg.K  # active-normalized
    phases = [
        (t >= cfg.warmup_t0) & (t < cfg.fail_at),
        (t >= cfg.fail_at) & (t < cfg.recover_at),
        (t >= cfg.recover_at),
    ]
    means = [float(ig[m].mean()) for m in phases]
    pairwise_ok = all(
        abs(a - b) <= 0.35 * max(a, b)
        for i, a in enumerate(means) for b in means[i + 1:]
    )
    covered = []
    for lo, hi in ((1, cfg.fail_at), (cfg.fail_at, cfg.recover_at),
                   (cfg.recover_at, cfg.mission_steps + 1)):
        time, grid = r.events[:, 0], r.events[:, 2]
        grids = set(grid[(lo <= time) & (time < hi)].tolist())
        covered.append(len(grids) == cfg.K)
    ok = pairwise_ok and all(covered)
    report(10, "stable through failure and recovery", ok,
           f"phase means={['%.3f' % m for m in means]} coverage={covered}")


def test_11_byte_identical_reruns(tmp_path):
    from patrolsim.cli import main

    cfg_path = tmp_path / "mission.cfg"
    cfg_path.write_text(
        "n_robots = 4\nwidth_grids = 8\nheight_grids = 8\n"
        "mission_steps = 600\nwarmup_t0 = 100\nd_c = 120\ndelta = 120\n"
        "eta = 0.5\np_max = 200\nsigma = 150\nbandwidth_s = 64\n"
    )
    outs = [tmp_path / f"b{i}" for i in range(3)]
    for out, workers in zip(outs, ("1", "1", "2")):
        assert main(["batch", "--config", str(cfg_path), "--trials", "2",
                     "--base-seed", "1", "--out", str(out),
                     "--workers", workers]) == 0
    ok = True
    for name in ("metrics.csv", "trial_000/events.log", "trial_001/events.log"):
        blobs = [(out / name).read_bytes() for out in outs]
        ok = ok and blobs[0] == blobs[1] == blobs[2]
    report(11, "byte-identical reruns across worker counts", ok)
