import math

import numpy as np
import pytest

from patrolsim.strategy import (
    candidate_grids,
    er_select,
    random_select,
    select_patrol_target,
    temporary_target,
)
from patrolsim.world import build_grid_map

from oracles import adjustment_alpha, expected_travel_time, grid_utility


def brute_force_target(position, cand, assumed, p, p_max, sigma, v_max, gmap):
    """Exhaustive scalar evaluation; ties keep the smaller grid index."""
    best, best_u = None, -1.0
    for k in cand:
        dt = expected_travel_time(position, k, v_max, gmap)
        alpha = adjustment_alpha(k, p, p_max, sigma, gmap)
        u = grid_utility(assumed[k], dt, alpha)
        if u > best_u:
            best, best_u = int(k), u
    return best


class TestCandidateGrids:
    def test_interior_disc_count(self, gmap20):
        # brute-force count of centers within 180 m of an interior center
        pos = (315.0, 315.0)
        expected = sum(
            1 for c in gmap20.centers if math.hypot(c[0] - pos[0], c[1] - pos[1]) <= 180.0
        )
        cand = candidate_grids(pos, 180.0, gmap20)
        assert len(cand) == expected == 113
        assert list(cand) == sorted(cand)

    def test_fallback_to_containing_grid(self, gmap20):
        cand = candidate_grids((16.0, 14.0), 0.5, gmap20)
        assert list(cand) == [0]

    def test_corner_clipped_to_map(self, gmap20):
        cand = candidate_grids((0.0, 0.0), 180.0, gmap20)
        assert all(
            math.hypot(*gmap20.centers[k]) <= 180.0 for k in cand
        )
        # strictly fewer candidates than at an interior point
        assert len(cand) < len(candidate_grids((315.0, 315.0), 180.0, gmap20))


class TestExpectedTravelTime:
    def test_travel_time_at_cruise_speed(self, gmap20):
        # 150 m at 1.5 m/s
        assert expected_travel_time((15.0, 15.0), gmap20.cell_index(5, 0), 1.5, gmap20) == 100

    def test_floor_at_one(self, gmap20):
        assert expected_travel_time((15.0, 15.0), 0, 1.5, gmap20) == 1

    def test_ceil(self, gmap20):
        assert expected_travel_time((14.0, 15.0), 0, 1.5, gmap20) == 1


class TestAdjustmentAlpha:
    def _map_with_cheb(self, value):
        # grid_size chosen so some center's Chebyshev coordinate equals value
        gmap = build_grid_map(15, 1, value / 12.5)
        k = 12
        assert gmap.chebyshev[k] == pytest.approx(value)
        return gmap, k

    def test_gaussian_peak(self):
        gmap, k = self._map_with_cheb(500.0)
        assert adjustment_alpha(k, 100.0, 600.0, 200.0, gmap) == pytest.approx(1.0, abs=1e-12)

    def test_direct_evaluation(self):
        gmap, k = self._map_with_cheb(500.0)
        # exponent -(500 - 100)^2 / (2 * 200^2) = -2
        assert adjustment_alpha(k, 500.0, 600.0, 200.0, gmap) == pytest.approx(math.exp(-2))

    def test_urgent_reporter_peaks_at_origin(self):
        gmap = build_grid_map(3, 3, 10.0)
        alphas = [adjustment_alpha(k, 600.0, 600.0, 200.0, gmap) for k in range(9)]
        assert np.argmax(alphas) == 0


class TestGridUtility:
    def test_direct(self):
        assert grid_utility(120, 60, 0.5) == pytest.approx(1.5)

    def test_fresh_grid_baseline(self):
        assert grid_utility(0, 7, 1.0) == pytest.approx(1.0)

    def test_near_grids_preferred(self):
        assert grid_utility(100, 1, 1.0) == pytest.approx(101.0)
        assert grid_utility(100, 100, 1.0) == pytest.approx(2.0)


class TestSelectPatrolTarget:
    def test_matches_brute_force_randomized(self, gmap20, rng):
        p_max, sigma, v_max, delta = 703.0, 304.0, 1.5, 180.0
        for _ in range(200):
            pos = rng.uniform(0, 600, 2)
            assumed = rng.integers(0, 5000, gmap20.K)
            p = float(rng.uniform(0, p_max * 1.4))
            sel = select_patrol_target(
                pos, gmap20.cell_of(pos), assumed, p, gmap20,
                delta, v_max, p_max, sigma,
            )
            cand = candidate_grids(pos, delta, gmap20)
            assert sel.target_grid == brute_force_target(
                pos, cand, assumed, p, p_max, sigma, v_max, gmap20
            )

    def test_single_candidate(self, gmap20):
        assumed = np.zeros(gmap20.K, dtype=np.int64)
        sel = select_patrol_target(
            (16.0, 14.0), 0, assumed, 0.0, gmap20, 0.5, 1.5, 703.0, 304.0
        )
        assert sel.target_grid == 0

    def test_tie_breaks_to_smaller_index(self):
        gmap = build_grid_map(3, 1, 10.0)
        assumed = np.zeros(3, dtype=np.int64)
        # symmetric position between cells 0 and 2, huge sigma flattens alpha
        sel = select_patrol_target(
            (15.0, 5.0), 1, assumed, 0.0, gmap, 100.0, 1.5, 0.0, 1e9
        )
        assert sel.target_grid == 0

    def test_locality(self, gmap20, rng):
        for _ in range(50):
            pos = rng.uniform(0, 600, 2)
            assumed = rng.integers(0, 5000, gmap20.K)
            sel = select_patrol_target(
                pos, gmap20.cell_of(pos), assumed, 100.0, gmap20,
                180.0, 1.5, 703.0, 304.0,
            )
            c = gmap20.centers[sel.target_grid]
            assert math.hypot(c[0] - pos[0], c[1] - pos[1]) <= 180.0

    def test_reporter_pull_monotone(self, gmap20):
        # equal idleness and equal travel time: as p grows, the selected
        # grid's Chebyshev coordinate never increases
        pos = (315.0, 315.0)
        far = gmap20.cell_index(14, 10)   # center (435, 315), cheb 435
        near = gmap20.cell_index(6, 10)   # center (195, 315), cheb 315
        assumed = np.full(gmap20.K, 100, dtype=np.int64)
        p_max, sigma = 703.0, 304.0
        dt = expected_travel_time(pos, far, 1.5, gmap20)
        assert dt == expected_travel_time(pos, near, 1.5, gmap20)
        prev_cheb = None
        for p in np.linspace(0, p_max, 30):
            best = max(
                (near, far),
                key=lambda k: (grid_utility(
                    assumed[k], dt,
                    adjustment_alpha(k, p, p_max, sigma, gmap20)), -k),
            )
            cheb = gmap20.chebyshev[best]
            if prev_cheb is not None:
                assert cheb <= prev_cheb
            prev_cheb = cheb
        assert prev_cheb == 315.0  # a saturated reporter prefers the near grid

    def test_scaling_invariance(self, gmap20, rng):
        # scaling every utility by a positive constant keeps the argmax
        pos = rng.uniform(0, 600, 2)
        assumed = rng.integers(0, 5000, gmap20.K)
        cand = candidate_grids(pos, 180.0, gmap20)
        utils = np.array([
            grid_utility(assumed[k], expected_travel_time(pos, k, 1.5, gmap20),
                         adjustment_alpha(k, 50.0, 703.0, 304.0, gmap20))
            for k in cand
        ])
        assert np.argmax(utils) == np.argmax(7.3 * utils)


class TestERSelect:
    def test_uniform_idleness_prefers_near(self, gmap20):
        assumed = np.full(gmap20.K, 500, dtype=np.int64)
        pos = (315.0, 315.0)
        sel = er_select(pos, gmap20.cell_of(pos), assumed, gmap20, 1.5)
        assert sel.target_grid == gmap20.cell_of(pos)

    def test_matches_exhaustive_oracle(self, gmap20, rng):
        for _ in range(50):
            pos = rng.uniform(0, 600, 2)
            assumed = rng.integers(0, 50000, gmap20.K)
            sel = er_select(pos, gmap20.cell_of(pos), assumed, gmap20, 1.5)
            cand = np.arange(gmap20.K)
            expected = brute_force_target(pos, cand, assumed, 0.0, 0.0, 1.0, 1.5, gmap20)
            # alpha == 1 oracle
            best, best_u = None, -1.0
            for k in cand:
                dt = expected_travel_time(pos, k, 1.5, gmap20)
                u = grid_utility(assumed[k], dt, 1.0)
                if u > best_u:
                    best, best_u = k, u
            assert sel.target_grid == best

    def test_single_grid_map(self):
        gmap = build_grid_map(1, 1, 30.0)
        sel = er_select((20.0, 20.0), 0, np.zeros(1, dtype=np.int64), gmap, 1.5)
        assert sel.target_grid == 0


class TestTemporaryTarget:
    def test_straight_line_step(self, gmap20):
        cur = gmap20.cell_index(5, 5)
        tgt = gmap20.cell_index(9, 5)
        assert temporary_target(cur, tgt, gmap20) == gmap20.cell_index(6, 5)

    def test_target_is_current(self, gmap20):
        k = gmap20.cell_index(4, 4)
        assert temporary_target(k, k, gmap20) == k

    def test_diagonal_dominates(self, gmap20):
        cur = gmap20.cell_index(0, 0)
        tgt = gmap20.cell_index(3, 4)
        assert temporary_target(cur, tgt, gmap20) == gmap20.cell_index(1, 1)

    def test_adjacent_target_returned_directly(self, gmap20):
        cur = gmap20.cell_index(5, 5)
        tgt = gmap20.cell_index(6, 6)
        assert temporary_target(cur, tgt, gmap20) == tgt

    def test_matches_neighbor_brute_force(self, gmap20, rng):
        for _ in range(100):
            cur = int(rng.integers(gmap20.K))
            tgt = int(rng.integers(gmap20.K))
            got = temporary_target(cur, tgt, gmap20)
            neigh = gmap20.neighbors8(cur)
            if tgt == cur or tgt in neigh:
                assert got == tgt
            else:
                dists = [float(np.hypot(*(gmap20.centers[v] - gmap20.centers[tgt])))
                         for v in neigh]
                assert got == neigh[int(np.argmin(dists))]


class TestRandomSelect:
    def test_adjacent_and_seeded(self, gmap20):
        rng1 = np.random.default_rng(5)
        rng2 = np.random.default_rng(5)
        cur = gmap20.cell_index(10, 10)
        s1 = random_select(cur, gmap20, rng1)
        s2 = random_select(cur, gmap20, rng2)
        assert s1.target_grid == s2.target_grid
        assert s1.target_grid in gmap20.neighbors8(cur)
