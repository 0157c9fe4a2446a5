import csv

import numpy as np
import pytest

from patrolsim.cli import main
from patrolsim.errors import VerificationError
from patrolsim.export import (
    read_events,
    replay_events,
    verify_artifacts,
    write_run_artifacts,
)
from patrolsim.scenario import ScenarioConfig, run_trial

CFG = ScenarioConfig(
    n_robots=4,
    width_grids=8,
    height_grids=8,
    mission_steps=500,
    warmup_t0=100,
    d_c=120.0,
    delta=120.0,
    eta=0.5,
    p_max=200.0,
    sigma=150.0,
    bandwidth_s=64,
)


@pytest.fixture(scope="module")
def trial(tmp_path_factory):
    result = run_trial(CFG, 21)
    out = tmp_path_factory.mktemp("artifacts")
    write_run_artifacts(result, out)
    return result, out


def _copy_trial(trial, dst):
    """Copy the fixture's artifacts to dst; returns the copied events.log."""
    for p in trial[1].iterdir():
        (dst / p.name).write_bytes(p.read_bytes())
    return dst / "events.log"


def _cli_verify(events, tmp_path) -> int:
    """`patrolsim verify` on events with a config file that matches CFG."""
    cfg_path = tmp_path / "mission.cfg"
    cfg_path.write_text(
        "n_robots = 4\nwidth_grids = 8\nheight_grids = 8\n"
        "mission_steps = 500\nwarmup_t0 = 100\nd_c = 120\ndelta = 120\n"
        "eta = 0.5\np_max = 200\nsigma = 150\nbandwidth_s = 64\n"
    )
    return main(["verify", str(events), "--config", str(cfg_path)])


def _set_metric(text, key, value):
    """metrics.csv text with one column of its single row replaced."""
    header, row = (line.split(",") for line in text.splitlines())
    row[header.index(key)] = value
    return ",".join(header) + "\n" + ",".join(row) + "\n"


class TestArtifacts:
    def test_file_set(self, trial):
        _, out = trial
        names = {p.name for p in out.iterdir()}
        expected = {"metrics.csv", "timeseries.csv", "events.log", "heatmap_total.csv"}
        expected |= {f"heatmap_robot_{i}.csv" for i in (2, 3, 4)}
        assert names == expected

    def test_events_rows(self, trial):
        result, out = trial
        events = read_events(out / "events.log")
        assert len(events) == len(result.events)
        assert events == result.events

    def test_heatmap_total_is_sum(self, trial):
        result, out = trial
        total = np.loadtxt(out / "heatmap_total.csv", delimiter=",", dtype=np.int64)
        parts = sum(
            np.loadtxt(out / f"heatmap_robot_{i}.csv", delimiter=",", dtype=np.int64)
            for i in (2, 3, 4)
        )
        assert np.array_equal(total, parts)
        assert total.shape == (CFG.height_grids, CFG.width_grids)

    def test_metrics_round_trip_exact(self, trial):
        result, out = trial
        with open(out / "metrics.csv", newline="") as fh:
            row = next(csv.DictReader(fh))
        assert int(row["seed"]) == result.seed
        assert float(row["I_G"]) == result.I_G
        assert int(row["I_W"]) == result.I_W
        assert float(row["norm_D_MSA"]) == result.normalized["D_MSA"]

    def test_timeseries_length(self, trial):
        _, out = trial
        with open(out / "timeseries.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == CFG.mission_steps
        assert rows[0]["t"] == "1"


class TestVerify:
    def test_untampered_output_verifies(self, trial):
        _, out = trial
        assert verify_artifacts(out / "events.log", CFG) == []

    def test_replay_is_independent_oracle(self, trial):
        result, out = trial
        i_g, i_w, counts = replay_events(read_events(out / "events.log"), CFG)
        assert i_g == pytest.approx(result.I_G, rel=1e-12)
        assert i_w == result.I_W
        assert np.array_equal(counts, result.visit_counts)

    def test_tampered_events_detected(self, trial, tmp_path):
        result, out = trial
        lines = (out / "events.log").read_text().splitlines()
        broken = tmp_path / "broken"
        broken.mkdir()
        for p in out.iterdir():
            (broken / p.name).write_bytes(p.read_bytes())
        (broken / "events.log").write_text("\n".join(lines[:-5]) + "\n")
        assert verify_artifacts(broken / "events.log", CFG) != []


class TestCli:
    def test_run_and_verify_exit_codes(self, tmp_path):
        cfg_path = tmp_path / "mission.cfg"
        cfg_path.write_text(
            "n_robots = 4\nwidth_grids = 8\nheight_grids = 8\n"
            "mission_steps = 400\nwarmup_t0 = 100\nd_c = 120\ndelta = 120\n"
            "eta = 0.5\np_max = 200\nsigma = 150\nbandwidth_s = 64\n"
        )
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--seed", "1",
                     "--out", str(out)]) == 0
        assert main(["verify", str(out / "events.log"),
                     "--config", str(cfg_path)]) == 0

    def test_config_error_exit_2(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("nonsense = 1\n")
        assert main(["run", "--config", str(bad)]) == 2

    def test_unknown_flag_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--bogus"])
        assert exc.value.code == 2

    def test_verify_mismatch_exit_3(self, tmp_path):
        cfg_path = tmp_path / "mission.cfg"
        cfg_path.write_text(
            "n_robots = 4\nwidth_grids = 8\nheight_grids = 8\n"
            "mission_steps = 400\nwarmup_t0 = 100\nd_c = 120\ndelta = 120\n"
            "eta = 0.5\np_max = 200\nsigma = 150\nbandwidth_s = 64\n"
        )
        out = tmp_path / "out"
        main(["run", "--config", str(cfg_path), "--seed", "1", "--out", str(out)])
        events = out / "events.log"
        lines = events.read_text().splitlines()
        events.write_text("\n".join(lines[:-3]) + "\n")
        assert main(["verify", str(events), "--config", str(cfg_path)]) == 3

    def test_sweep_bad_list_exit_2(self, capsys):
        argv = ["sweep", "--eta-list", "x", "--pm-list", "200", "--sigma-list", "150"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and err.count("\n") == 1

    @pytest.mark.parametrize("row, match", [
        ("5,2,99999", "grid in 0..63"),
        ("5,9,3", "robot in 2..4"),
        ("501,2,3", "time must be in 1..500"),
        ("5,2", "expected 'time,robot,grid'"),
        ("5,2,x", "expected 'time,robot,grid'"),
    ])
    def test_verify_malformed_event_exit_3(self, trial, tmp_path, capsys, row, match):
        events = _copy_trial(trial, tmp_path)
        with open(events, "a") as fh:
            fh.write(row + "\n")
        with pytest.raises(VerificationError, match=match):
            verify_artifacts(events, CFG)
        assert _cli_verify(events, tmp_path) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("name", ["events.log", "metrics.csv", "heatmap_robot_3.csv"])
    def test_verify_missing_artifact_exit_3(self, trial, tmp_path, capsys, name):
        events = _copy_trial(trial, tmp_path)
        (tmp_path / name).unlink()
        with pytest.raises(VerificationError, match=f"missing artifact .*{name}"):
            verify_artifacts(events, CFG)
        assert _cli_verify(events, tmp_path) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: missing artifact") and err.count("\n") == 1

    @pytest.mark.parametrize("name, tamper", [
        ("metrics.csv", lambda text: text.replace(",I_G,", ",I_g,", 1)),
        ("metrics.csv", lambda text: _set_metric(text, "I_W", "abc")),
        ("heatmap_robot_2.csv", lambda text: "x" + text[text.index(","):]),
        ("heatmap_total.csv", lambda text: text + "1,2\n"),
    ], ids=["no-I_G-column", "non-numeric-I_W", "cell-x", "ragged-row"])
    def test_verify_malformed_csv_exit_3(self, trial, tmp_path, capsys, name, tamper):
        events = _copy_trial(trial, tmp_path)
        path = tmp_path / name
        path.write_text(tamper(path.read_text()))
        with pytest.raises(VerificationError, match=name):
            verify_artifacts(events, CFG)
        assert _cli_verify(events, tmp_path) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_missing_config_exit_2(self, tmp_path, capsys):
        missing = tmp_path / "missing.cfg"
        assert main(["run", "--config", str(missing)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and str(missing) in err

    def test_overrides_apply_before_validation(self, tmp_path):
        # the file alone is invalid (failures without a schedule); the
        # schedule flags complete it
        cfg_path = tmp_path / "mission.cfg"
        cfg_path.write_text(
            "n_robots = 4\nwidth_grids = 8\nheight_grids = 8\n"
            "mission_steps = 300\nwarmup_t0 = 50\nd_c = 120\ndelta = 120\n"
            "eta = 0.5\np_max = 200\nsigma = 150\nbandwidth_s = 64\n"
            "fail_fraction = 0.3\n"
        )
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert main(["run", "--config", str(cfg_path), "--seed", "1", "--out", str(out),
                     "--fail-at", "100", "--recover-at", "200"]) == 0
        assert (out / "events.log").exists()

    def test_batch_metrics_rows(self, tmp_path):
        cfg_path = tmp_path / "mission.cfg"
        cfg_path.write_text(
            "n_robots = 4\nwidth_grids = 8\nheight_grids = 8\n"
            "mission_steps = 300\nwarmup_t0 = 50\nd_c = 120\ndelta = 120\n"
            "eta = 0.5\np_max = 200\nsigma = 150\nbandwidth_s = 64\n"
        )
        out = tmp_path / "batch"
        assert main(["batch", "--config", str(cfg_path), "--trials", "3",
                     "--base-seed", "5", "--out", str(out)]) == 0
        with open(out / "metrics.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        assert (out / "trial_000" / "events.log").exists()

    def test_override_flags(self, tmp_path):
        out = tmp_path / "out"
        cfg_path = tmp_path / "mission.cfg"
        cfg_path.write_text(
            "n_robots = 4\nwidth_grids = 8\nheight_grids = 8\n"
            "mission_steps = 300\nwarmup_t0 = 50\nd_c = 120\ndelta = 120\n"
            "eta = 0.5\np_max = 200\nsigma = 150\nbandwidth_s = 64\n"
        )
        assert main(["run", "--config", str(cfg_path), "--seed", "1",
                     "--out", str(out), "--n-robots", "3", "--strategy", "er"]) == 0
        with open(out / "metrics.csv", newline="") as fh:
            row = next(csv.DictReader(fh))
        assert row["n_robots"] == "3"
        assert row["strategy"] == "er"
