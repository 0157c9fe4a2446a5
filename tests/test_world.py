import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from patrolsim.world import (
    advance_time,
    build_grid_map,
    detect_patrol_completions,
    new_world,
)


class TestBuildGridMap:
    def test_20x20_default_field(self):
        gmap = build_grid_map(20, 20, 30.0)
        assert gmap.K == 400
        assert tuple(gmap.centers[0]) == (15.0, 15.0)

    def test_single_cell(self):
        gmap = build_grid_map(1, 1, 30.0)
        assert gmap.K == 1
        assert tuple(gmap.centers[0]) == (15.0, 15.0)

    def test_index_formula(self):
        # k=5 on a 2x3 map is cell (ix, iy) = (1, 2)
        gmap = build_grid_map(2, 3, 10.0)
        assert gmap.K == 6
        assert tuple(gmap.centers[5]) == (15.0, 25.0)

    @given(w=st.integers(1, 25), h=st.integers(1, 25),
           gs=st.floats(0.5, 100.0, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_geometry_invariants(self, w, h, gs):
        gmap = build_grid_map(w, h, gs)
        cheb = gmap.chebyshev
        assert (cheb > 0).all()
        assert (cheb <= max(w, h) * gs).all()
        # round-trip: every center is inside its own cell
        for k in (0, gmap.K // 2, gmap.K - 1):
            assert gmap.cell_of(gmap.centers[k]) == k


class TestAdvanceTime:
    def test_unit_increment(self):
        world = new_world(4)
        world.t = 5
        world.idleness[:] = 7
        advance_time(world)
        assert world.t == 6
        assert (world.idleness == 8).all()

    def test_fresh_world(self):
        world = new_world(3)
        advance_time(world)
        assert world.t == 1
        assert (world.idleness == 1).all()

    def test_no_visit_bound(self):
        world = new_world(2)
        for _ in range(43200):
            advance_time(world)
        assert (world.idleness == 43200).all()


class TestDetectPatrolCompletions:
    def test_zero_distance_triggers(self, gmap20):
        world = new_world(gmap20.K)
        world.t = 10
        world.idleness[:] = 10
        events = detect_patrol_completions(
            world, gmap20, np.array([[15.0, 15.0]]), np.array([2]), 3.0
        )
        assert events.dtype == np.int64
        assert [(r, g, t) for t, r, g in events.tolist()] == [(2, 0, 10)]
        assert world.idleness[0] == 0

    def test_beyond_threshold_no_event(self, gmap20):
        world = new_world(gmap20.K)
        world.t = 10
        world.idleness[:] = 10
        events = detect_patrol_completions(
            world, gmap20, np.array([[15.0, 18.5]]), np.array([2]), 3.0
        )
        assert events.shape == (0, 3)
        assert world.idleness[0] == 10

    def test_two_robots_single_reset(self, gmap20):
        world = new_world(gmap20.K)
        world.t = 100
        world.idleness[:] = 100
        k = gmap20.cell_index(3, 3)
        c = gmap20.centers[k]
        positions = np.array([c + [1.0, 0.0], c + [0.0, -1.5]])
        events = detect_patrol_completions(world, gmap20, positions, np.array([2, 5]), 3.0)
        assert sorted((r, g) for _, r, g in events.tolist()) == [(2, k), (5, k)]
        assert world.idleness[k] == 0

    def test_brute_force_recheck(self, gmap20, rng):
        # the emitted event set equals an exhaustive distance check
        world = new_world(gmap20.K)
        world.t = 50
        positions = rng.uniform(0, 600, size=(6, 2))
        ids = np.arange(2, 8)
        events = detect_patrol_completions(world, gmap20, positions, ids, 25.0)
        expected = set()
        for r, pos in zip(ids, positions):
            for k in range(gmap20.K):
                if np.hypot(*(pos - gmap20.centers[k])) <= 25.0:
                    expected.add((r, k))
        assert {(r, g) for _, r, g in events.tolist()} == expected
