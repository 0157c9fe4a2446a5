"""Fuzzed input at the three text boundaries: config files (and the CLI
override flags on top of them), the sweep list flags, and `events.log` rows
through `verify`. Every input must end in exit 0, 2 or 3 (or, below the CLI,
in a validated config or a `ConfigurationError`), never in a traceback.

No `Simulation` is ever built from a fuzzed size: a huge `n_robots` or map
would allocate (N, K) arrays. Configs are only parsed and validated; the
sweep and verify inputs run against fixed, tiny missions.
"""

import dataclasses

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from patrolsim.cli import _load_config, build_parser, main
from patrolsim.errors import ConfigurationError
from patrolsim.export import write_run_artifacts
from patrolsim.scenario import ScenarioConfig, parse_config, run_trial

FIELDS = [f.name for f in dataclasses.fields(ScenarioConfig)]
EDGE_VALUES = ["nan", "inf", "-inf", "1e400", "-1", "0", "0.5", "1", "true", "no",
               "lr-pt", "er", "random", "9" * 5000, "", "１２", "1_000", "0x10", "--"]
values = (st.sampled_from(EDGE_VALUES) | st.integers().map(str)
          | st.floats().map(repr) | st.text(max_size=12))
lines = (st.tuples(st.sampled_from(FIELDS) | st.text(max_size=8), values)
         .map(lambda kv: f"{kv[0]} = {kv[1]}") | st.text(max_size=20))
config_bytes = (st.lists(lines, max_size=12).map(lambda ls: "\n".join(ls).encode())
                | st.binary(max_size=64))

TINY = (
    "n_robots = 2\nwidth_grids = 2\nheight_grids = 2\nmission_steps = 3\n"
    "warmup_t0 = 1\nd_c = 60\ndelta = 60\n"
)
VERIFY_CFG = ScenarioConfig(
    n_robots=4, width_grids=8, height_grids=8, mission_steps=300, warmup_t0=100,
    d_c=120.0, delta=120.0, eta=0.5, p_max=200.0, sigma=150.0, bandwidth_s=64,
)
VERIFY_TEXT = (
    "n_robots = 4\nwidth_grids = 8\nheight_grids = 8\nmission_steps = 300\n"
    "warmup_t0 = 100\nd_c = 120\ndelta = 120\neta = 0.5\np_max = 200\n"
    "sigma = 150\nbandwidth_s = 64\n"
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _config_or_error(load):
    """`load` returns a validated config or fails the way the CLI maps to exit 2."""
    try:
        config = load()
    except ConfigurationError:
        return
    except SystemExit as exc:  # argparse rejecting a flag value
        assert exc.code == 2
        return
    assert isinstance(config, ScenarioConfig)


class TestConfigText:
    @given(config_bytes)
    @settings(max_examples=300, deadline=None)
    def test_parse_and_validate(self, workdir, data):
        path = workdir / "fuzz.cfg"
        path.write_bytes(data)
        _config_or_error(lambda: parse_config(path).validate())

    @given(config_bytes, st.lists(st.tuples(
        st.sampled_from(["--n-robots", "--bandwidth-s", "--fail-fraction", "--fail-at",
                         "--recover-at", "--strategy", "--seed"]),
        values), max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_override_flags(self, workdir, data, flags):
        path = workdir / "fuzz-flags.cfg"
        path.write_bytes(data)
        argv = ["run", "--config", str(path)] + [f"{flag}={value}" for flag, value in flags]
        _config_or_error(lambda: _load_config(build_parser().parse_args(argv)))


class TestSweepLists:
    @given(*[st.text(alphabet="0123456789.,-+eEinfa x", max_size=8)] * 3)
    @settings(max_examples=60, deadline=None)
    @example("", "", "--")  # argparse stores `--sigma-list=--` as []
    def test_exit_0_or_2(self, workdir, etas, p_maxes, sigmas):
        path = workdir / "tiny.cfg"
        path.write_text(TINY)
        argv = ["sweep", "--config", str(path), "--trials", "1", f"--eta-list={etas}",
                f"--pm-list={p_maxes}", f"--sigma-list={sigmas}"]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code in (0, 2)


@pytest.fixture(scope="module")
def artifacts(workdir):
    out = workdir / "artifacts"
    write_run_artifacts(run_trial(VERIFY_CFG, 3, record_series=False), out)
    cfg_path = workdir / "verify.cfg"
    cfg_path.write_text(VERIFY_TEXT)
    return out, cfg_path, (out / "events.log").read_text().splitlines()


numbers = st.integers(-5, 600) | st.integers() | st.sampled_from(["x", "", " 7", "1e3", "٣"])
rows = (st.tuples(numbers, numbers, numbers).map(lambda r: ",".join(map(str, r)))
        | st.lists(numbers, max_size=5).map(lambda r: ",".join(map(str, r)))
        | st.text(max_size=20))


class TestEventsLog:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_verify_exit_0_or_3(self, artifacts, data):
        out, cfg_path, real = artifacts
        kept = data.draw(st.lists(st.sampled_from(real), max_size=30))
        extra = data.draw(st.lists(rows, max_size=5))
        body = "\n".join(kept + extra).encode()
        body += data.draw(st.sampled_from([b"", b"\n", b"\xff\xfe", b"\x00", b"\r\n"]))
        (out / "events.log").write_bytes(body)
        assert main(["verify", str(out / "events.log"), "--config", str(cfg_path)]) in (0, 3)
