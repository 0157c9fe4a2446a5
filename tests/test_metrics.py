import numpy as np
import pytest

from patrolsim.errors import MetricsError
from patrolsim.metrics import (
    MetricsAccumulator,
    finalize,
    normalize,
    normalize_active,
    record_visit,
    sa_delays,
    sample_instantaneous,
)
from patrolsim.world import VisitEvent, WorldState


def world_with(idleness, t):
    arr = np.asarray(idleness, dtype=np.int64)
    return WorldState(t, arr)


class TestSampleInstantaneous:
    def test_mean_and_max(self):
        acc = MetricsAccumulator(K=4, n_robots=3, warmup_t0=0)
        world = world_with([0, 2, 4, 6], t=10)
        sample_instantaneous(world, np.full(4, 10, dtype=np.int64), acc, 2)
        assert acc.sum_ig == pytest.approx(3.0)
        assert acc.max_iw == 6

    def test_fully_informed_bs(self):
        acc = MetricsAccumulator(K=4, n_robots=3, warmup_t0=0)
        world = world_with([1, 1, 1, 1], t=10)
        sample_instantaneous(world, np.full(4, 10, dtype=np.int64), acc, 2)
        assert acc.sum_dmsa == 0.0
        assert acc.max_dwsa == 0

    def test_warmup_excludes(self):
        acc = MetricsAccumulator(K=2, n_robots=3, warmup_t0=10000)
        world = world_with([5, 5], t=9999)
        sample_instantaneous(world, np.zeros(2, dtype=np.int64), acc, 2)
        assert acc.samples == 0
        world.t = 10000
        sample_instantaneous(world, np.zeros(2, dtype=np.int64), acc, 2)
        assert acc.samples == 1

    def test_series_unfiltered_by_warmup(self):
        acc = MetricsAccumulator(K=2, n_robots=3, warmup_t0=10000)
        sample_instantaneous(world_with([5, 5], 3), np.zeros(2, dtype=np.int64), acc, 2)
        assert acc.series["t"] == [3]


class TestFinalize:
    def test_mean_of_samples(self):
        acc = MetricsAccumulator(K=2, n_robots=3, warmup_t0=0)
        sample_instantaneous(world_with([2, 2], 1), np.zeros(2, dtype=np.int64), acc, 2)
        sample_instantaneous(world_with([4, 4], 2), np.zeros(2, dtype=np.int64), acc, 2)
        i_g, i_w, d_msa, d_wsa = finalize(acc)
        assert i_g == pytest.approx(3.0)

    def test_running_max(self):
        acc = MetricsAccumulator(K=1, n_robots=3, warmup_t0=0)
        for v, t in [(5, 1), (9, 2), (7, 3)]:
            sample_instantaneous(world_with([v], t), np.zeros(1, dtype=np.int64), acc, 2)
        assert finalize(acc)[1] == 9

    def test_single_sample(self):
        acc = MetricsAccumulator(K=2, n_robots=3, warmup_t0=0)
        sample_instantaneous(world_with([2, 6], 5), np.zeros(2, dtype=np.int64), acc, 2)
        assert finalize(acc) == (pytest.approx(4.0), 6, pytest.approx(5.0), 5)

    def test_zero_samples_error(self):
        acc = MetricsAccumulator(K=2, n_robots=3, warmup_t0=100)
        with pytest.raises(MetricsError):
            finalize(acc)


class TestNormalize:
    def test_scaling_formula(self):
        assert normalize(500.0, 5, 400) == pytest.approx(5.0)

    def test_zero(self):
        assert normalize(0.0, 5, 400) == 0.0

    def test_active_variant(self):
        assert normalize_active(400.0, 7, 400) == pytest.approx(7.0)

    def test_linearity(self):
        m = 123.456
        assert normalize(3.0 * m, 9, 400) == pytest.approx(3.0 * normalize(m, 9, 400))


class TestSADelays:
    def test_report_chain(self):
        # grid patrolled at 100, reaches the BS base at t=130
        bs = np.zeros(4, dtype=np.int64)
        bs[2] = 100
        assert sa_delays(130, bs)[2] == 30

    def test_never_reported(self):
        assert sa_delays(500, np.zeros(3, dtype=np.int64))[0] == 500

    def test_only_latest_visit_counts(self):
        # consolidation: the BS knows only the freshest update time
        bs = np.zeros(1, dtype=np.int64)
        bs[0] = 80  # first visit reported
        bs[0] = max(bs[0], 120)  # later visit overwrites
        assert sa_delays(150, bs)[0] == 30


class TestHeatmaps:
    def test_single_event(self):
        acc = MetricsAccumulator(K=9, n_robots=4, warmup_t0=0)
        record_visit(acc, VisitEvent(2, 5, 10))
        assert acc.visit_counts[1, 5] == 1

    def test_total_is_sum_over_robots(self, rng):
        acc = MetricsAccumulator(K=9, n_robots=4, warmup_t0=0)
        events = [
            VisitEvent(int(rng.integers(2, 5)), int(rng.integers(9)), t)
            for t in range(200)
        ]
        for ev in events:
            record_visit(acc, ev)
        total = acc.visit_counts.sum(axis=0)
        assert total.sum() == len(events)
        # replayed counts match the accumulator exactly
        replay = np.zeros((4, 9), dtype=np.int64)
        for ev in events:
            replay[ev.robot_id - 1, ev.grid] += 1
        assert np.array_equal(replay, acc.visit_counts)
