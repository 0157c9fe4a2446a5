import csv
import hashlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import read_events_per_line, replay_events_per_step
from patrolsim import scenario
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


def _cli_verify(events, tmp_path, *flags) -> int:
    """`patrolsim verify` on events with a config file that matches CFG,
    overridden by `flags`."""
    cfg_path = tmp_path / "mission.cfg"
    cfg_path.write_text(
        "n_robots = 4\nwidth_grids = 8\nheight_grids = 8\n"
        "mission_steps = 500\nwarmup_t0 = 100\nd_c = 120\ndelta = 120\n"
        "eta = 0.5\np_max = 200\nsigma = 150\nbandwidth_s = 64\n"
    )
    return main(["verify", str(events), "--config", str(cfg_path), *flags])


def _small_cfg(tmp_path):
    """A valid 100-step swarm4 config file."""
    cfg_path = tmp_path / "mission.cfg"
    cfg_path.write_text(
        "n_robots = 4\nwidth_grids = 8\nheight_grids = 8\n"
        "mission_steps = 100\nwarmup_t0 = 50\nd_c = 120\ndelta = 120\n"
    )
    return cfg_path


def _count_missions(monkeypatch):
    """Seeds of every `Simulation.run` from now on (missions still run)."""
    seeds = []
    run = scenario.Simulation.run

    def counted(self):
        seeds.append(self.config.seed)
        return run(self)

    monkeypatch.setattr(scenario.Simulation, "run", counted)
    return seeds


COMMANDS = {
    "run": ["run", "--seed", "1"],
    "batch": ["batch", "--trials", "2"],
    "sweep": ["sweep", "--trials", "2", "--eta-list", "0.5", "--pm-list", "200",
              "--sigma-list", "150"],
    "verify": ["verify", "events.log"],
}
SHARED_FLAGS = ["--config", "--strategy", "--n-robots", "--fail-fraction"]
FLAG_CASES = (
    [(cmd, flag) for cmd in COMMANDS for flag in SHARED_FLAGS]
    + [(cmd, "--out") for cmd in ("run", "batch", "sweep")]
    + [("run", "--seed")]
    + [(cmd, flag) for cmd in ("batch", "sweep")
       for flag in ("--base-seed", "--trials", "--workers")]
    + [("sweep", flag) for flag in ("--eta-list", "--pm-list", "--sigma-list")]
)


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
        assert events.dtype == result.events.dtype == np.int64
        assert np.array_equal(events, result.events)

    def test_event_log_is_the_file(self, trial):
        # one text: what event_log() formats is what events.log holds and
        # what event_digest() hashes
        result, out = trial
        text = result.event_log().encode()
        assert text == (out / "events.log").read_bytes()
        assert hashlib.sha256(text).hexdigest() == result.event_digest()

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
        assert float(row["norm_D_MSA"]) == result.metric_row()["norm_D_MSA"]

    def test_timeseries_length(self, trial):
        _, out = trial
        with open(out / "timeseries.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == CFG.mission_steps
        assert rows[0]["t"] == "1"

    def test_timeseries_header_only_without_series(self, tmp_path):
        # the sweep path: no series recorded, so no rows under the header
        result = run_trial(replace(CFG, mission_steps=50, warmup_t0=10), 3,
                           record_series=False)
        write_run_artifacts(result, tmp_path)
        assert (tmp_path / "timeseries.csv").read_bytes() == (
            b"t,I_g,I_w,D_mSA,D_wSA,n_active,norm_I_g,norm_D_mSA\r\n")


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


def _error_or(fn, *args):
    """fn(*args), or the message of the VerificationError it raises."""
    try:
        return fn(*args)
    except VerificationError as exc:
        return str(exc)


@st.composite
def missions(draw):
    """A small config and `time, robot, grid` rows drawn for it: times out of
    order, cells visited twice in one step (by the same robot or another),
    cells never visited, empty logs, and warm-up at 0, 1 or the last step."""
    width, height, n = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(2, 5))
    steps = draw(st.integers(1, 40))
    warmup = draw(st.sampled_from([0, 1, steps]) | st.integers(0, steps))
    cfg = ScenarioConfig(n_robots=n, width_grids=width, height_grids=height,
                         mission_steps=steps, warmup_t0=warmup)
    rows = draw(st.lists(st.tuples(st.integers(1, steps), st.integers(2, n),
                                   st.integers(0, cfg.K - 1)), max_size=30))
    if rows:
        again = draw(st.lists(st.sampled_from(rows), max_size=4))
        rows += [(t, draw(st.integers(2, n)), g) for t, _, g in again]
    return cfg, draw(st.permutations(rows))


def _replays(rows, cfg):
    """The gap replay and the per-step reference of the same rows, each as its
    result or its VerificationError message."""
    events = np.array(rows, dtype=np.int64).reshape(-1, 3)
    return (_error_or(replay_events, events, cfg),
            _error_or(replay_events_per_step, rows, cfg))


def _assert_same_replay(got, want):
    if isinstance(want, str):
        assert got == want
        return
    (i_g, i_w, counts), (ref_g, ref_w, ref_counts) = got, want
    assert type(i_w) is int and i_w == ref_w
    assert np.array_equal(counts, ref_counts)
    assert i_g == pytest.approx(ref_g, rel=1e-12, abs=0)


class TestGapReplay:
    @given(missions())
    @settings(max_examples=300, deadline=None)
    # the one sample follows a visit: the unsampled idleness before it is no peak
    @example((ScenarioConfig(n_robots=2, width_grids=1, height_grids=1, mission_steps=5,
                             warmup_t0=5), [(5, 2, 0)]))
    def test_matches_per_step_replay(self, mission):
        cfg, rows = mission
        _assert_same_replay(*_replays(rows, cfg))

    @given(missions(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_first_bad_event_named_as_per_step(self, mission, data):
        cfg, rows = mission
        wide = st.tuples(st.integers(-1, cfg.mission_steps + 1),
                         st.integers(0, cfg.n_robots + 1), st.integers(-1, cfg.K))
        for row in data.draw(st.lists(wide, min_size=1, max_size=3)):
            rows.insert(data.draw(st.integers(0, len(rows))), row)
        _assert_same_replay(*_replays(rows, cfg))


fields = (st.text(alphabet="0123456789,+-_ ", max_size=6)
          | st.integers(-10**20, 10**20).map(str)
          | st.sampled_from(["99999999999999999999", "-99999999999999999999", "1_0", "+5"]))
log_lines = st.lists(fields, min_size=1, max_size=4).map(",".join) | st.sampled_from(["", "  "])
line_ends = st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x85", "\u2028"])


class TestBulkParse:
    @given(st.lists(st.tuples(log_lines, line_ends), max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_matches_per_line_parse(self, tmp_path_factory, lines):
        path = tmp_path_factory.getbasetemp() / "bulk-parse-events.log"
        path.write_text("".join(line + end for line, end in lines), encoding="utf-8")
        got, want = _error_or(read_events, path), _error_or(read_events_per_line, path)
        if isinstance(want, str):
            assert got == want
            return
        assert got.shape == (len(want), 3) and got.tolist() == want
        if all(-2**63 <= v < 2**63 for row in want for v in row):
            assert got.dtype == np.int64


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

    def test_repeated_key_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("n_robots = 5\nn_robots = 4\n")
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "'n_robots' is set twice" in err and err.count("\n") == 1

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

    @pytest.mark.parametrize("eta_list, message", [
        ("2", "eta must be in [0, 1), got 2.0"),
        (",", "parameter sweep grid is empty"),
    ], ids=["invalid-point", "empty-grid"])
    def test_sweep_bad_grid_creates_no_out(self, tmp_path, monkeypatch, capsys,
                                           eta_list, message):
        missions = _count_missions(monkeypatch)
        out = tmp_path / "d"
        argv = ["sweep", "--config", str(_small_cfg(tmp_path)), "--eta-list", eta_list,
                "--pm-list", "200", "--sigma-list", "150", "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"configuration error: {message}\n"
        assert missions == [] and not out.exists()

    @pytest.mark.parametrize("row, match", [
        ("5,2,99999", "grid in 0..63"),
        ("5,9,3", "robot in 2..4"),
        ("501,2,3", "time must be in 1..500"),
        ("5,2", "expected 'time,robot,grid'"),
        ("5,2,x", "expected 'time,robot,grid'"),
        ("5,2,99999999999999999999", "grid in 0..63"),
        ("-99999999999999999999,2,3", "time must be in 1..500"),
        ("5,18446744073709551617,3", "robot in 2..4"),
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
        ("metrics.csv", lambda text: text + "9" * 200_000 + "\n"),
        ("heatmap_robot_4.csv", lambda text: "9" * 200_000 + text),
        ("metrics.csv", lambda text: text.replace(",K,", ",k,", 1)),
        ("metrics.csv", lambda text: _set_metric(text, "bandwidth_s", "64.0")),
        ("metrics.csv", lambda text: text.replace(",norm_I_W,", ",norm_I_w,", 1)),
        ("metrics.csv", lambda text: _set_metric(text, "norm_I_W", "abc")),
    ], ids=["no-I_G-column", "non-numeric-I_W", "cell-x", "ragged-row",
            "metrics-field-over-csv-limit", "heatmap-field-over-csv-limit",
            "no-K-column", "non-integer-bandwidth_s", "no-norm_I_W-column",
            "non-numeric-norm_I_W"])
    def test_verify_malformed_csv_exit_3(self, trial, tmp_path, capsys, name, tamper):
        events = _copy_trial(trial, tmp_path)
        path = tmp_path / name
        path.write_text(tamper(path.read_text()))
        with pytest.raises(VerificationError, match=name):
            verify_artifacts(events, CFG)
        assert _cli_verify(events, tmp_path) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("name", ["I_G", "I_W", "norm_I_G", "norm_I_W"])
    def test_verify_tampered_metric_exit_3(self, trial, tmp_path, capsys, name):
        events = _copy_trial(trial, tmp_path)
        path = tmp_path / "metrics.csv"
        path.write_text(_set_metric(path.read_text(), name, "1"))
        [line] = verify_artifacts(events, CFG)
        assert line.startswith(f"{name}: recorded 1, replay ")
        assert _cli_verify(events, tmp_path) == 3
        assert capsys.readouterr().err == f"MISMATCH {line}\n"

    @pytest.mark.parametrize("name, tamper", [
        ("events.log", lambda data: data + b"\xff\xfe"),
        ("metrics.csv", lambda data: data.replace(b"\n", b"\n\xff\xfe", 1)),
        ("heatmap_robot_3.csv", lambda data: data.replace(b"\n", b"\n\xff\xfe", 1)),
    ], ids=["events-appended", "metrics", "heatmap"])
    def test_verify_not_utf8_exit_3(self, trial, tmp_path, capsys, name, tamper):
        events = _copy_trial(trial, tmp_path)
        path = tmp_path / name
        path.write_bytes(tamper(path.read_bytes()))
        with pytest.raises(VerificationError, match=f"{name}: not UTF-8"):
            verify_artifacts(events, CFG)
        assert _cli_verify(events, tmp_path) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("override, flags, line", [
        ({"strategy": "er"}, ["--strategy", "er"], "strategy: recorded lr-pt, config er"),
        ({"n_robots": 3}, ["--n-robots", "3"], "n_robots: recorded 4, config 3"),
    ], ids=["strategy", "n_robots"])
    def test_verify_config_echo_mismatch_exit_3(self, trial, tmp_path, capsys,
                                                override, flags, line):
        events = _copy_trial(trial, tmp_path)
        assert verify_artifacts(events, replace(CFG, **override)) == [line]
        assert _cli_verify(events, tmp_path, *flags) == 3
        assert capsys.readouterr().err == f"MISMATCH {line}\n"

    @pytest.mark.parametrize("command", [
        ["batch", "--trials", "2"],
        ["sweep", "--eta-list", "0.5", "--pm-list", "200", "--sigma-list", "150"],
    ], ids=["batch", "sweep"])
    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_exit_2(self, tmp_path, capsys, command, workers):
        cfg_path = tmp_path / "mission.cfg"
        cfg_path.write_text(
            "n_robots = 4\nwidth_grids = 8\nheight_grids = 8\n"
            "mission_steps = 100\nwarmup_t0 = 50\nd_c = 120\ndelta = 120\n"
        )
        out = tmp_path / "out"
        assert main([*command, "--config", str(cfg_path), "--workers", workers,
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"configuration error: workers must be >= 1, got {workers}\n"
        assert not out.exists()

    def test_config_not_utf8_exit_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "mission.cfg"
        cfg_path.write_bytes(b"n_robots = 4\n\xff\xfe\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and "not UTF-8" in err
        assert err.count("\n") == 1 and not out.exists()

    def test_negative_seed_exit_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "--seed", "-1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and err.count("\n") == 1
        assert not out.exists()

    def test_random_walk_on_one_cell_exit_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "mission.cfg"
        cfg_path.write_text("width_grids = 1\nheight_grids = 1\n"
                            "mission_steps = 100\nwarmup_t0 = 50\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--strategy", "random",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: strategy random")
        assert err.count("\n") == 1 and not out.exists()

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

    @pytest.mark.parametrize("command, flag", FLAG_CASES,
                             ids=[f"{cmd}{flag}" for cmd, flag in FLAG_CASES])
    def test_flag_value_dashes_exit_2(self, tmp_path, monkeypatch, capsys, command, flag):
        # Python 3.11's argparse stores `--flag=--` as an empty list
        missions = _count_missions(monkeypatch)
        monkeypatch.chdir(tmp_path)
        argv = [*COMMANDS[command], "--config", str(_small_cfg(tmp_path))]
        if command != "verify":
            argv += ["--out", "out"]
        assert main([*argv, f"{flag}=--"]) == 2
        assert capsys.readouterr().err == (
            f"configuration error: {flag} needs one value, got '--'\n")
        assert missions == []
        assert [p.name for p in tmp_path.iterdir()] == ["mission.cfg"]

    @pytest.mark.parametrize("command", ["run", "batch", "sweep"])
    def test_unwritable_out_exit_1_before_any_mission(self, tmp_path, monkeypatch, capsys,
                                                       command):
        missions = _count_missions(monkeypatch)
        not_a_dir = tmp_path / "file"
        not_a_dir.write_text("")
        argv = [*COMMANDS[command], "--config", str(_small_cfg(tmp_path)),
                "--out", str(not_a_dir / "x")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("i/o error:") and err.count("\n") == 1
        assert missions == []

    @pytest.mark.parametrize("command", ["batch", "sweep"])
    @pytest.mark.parametrize("flags, message", [
        (["--base-seed", "-1"], "seed must be >= 0, got -1"),
        (["--trials", "0"], "trials must be >= 1"),
    ], ids=["base-seed", "trials"])
    def test_seed_and_trials_checked_before_any_pool(self, tmp_path, monkeypatch, capsys,
                                                     command, flags, message):
        def no_pool(max_workers):
            raise AssertionError(f"a pool of {max_workers} started before the check")

        monkeypatch.setattr(scenario, "ProcessPoolExecutor", no_pool)
        missions = _count_missions(monkeypatch)
        out = tmp_path / "out"
        argv = [*COMMANDS[command], "--config", str(_small_cfg(tmp_path)),
                "--workers", "2", "--out", str(out), *flags]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"configuration error: {message}\n"
        assert missions == [] and not out.exists()
