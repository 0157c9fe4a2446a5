"""The split-coordinate distance kernels and the unsorted full-bandwidth
`top_s` against the dense and sorting forms in `oracles`, bit for bit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patrolsim import kernels
from patrolsim.comms import compute_connectivity
from patrolsim.strategy import candidate_grids
from patrolsim.world import build_grid_map

from oracles import candidate_grids_dense, completions_dense, connectivity_dense, top_s_sorted

GMAP = build_grid_map(20, 20, 30.0)
SIDE = 20 * 30.0


@st.composite
def points(draw, radius, n_min=1, n_max=12):
    """Points on and off the map, some at exactly `radius` from a cell center
    along an axis (or from an earlier point, for pairwise distances)."""
    n = draw(st.integers(n_min, n_max))
    out = []
    for _ in range(n):
        kind = draw(st.sampled_from(("free", "center", "previous")))
        if kind == "free" or (kind == "previous" and not out):
            out.append([draw(st.floats(-SIDE, 2 * SIDE)), draw(st.floats(-SIDE, 2 * SIDE))])
            continue
        if kind == "center":
            base = GMAP.centers[draw(st.integers(0, GMAP.K - 1))].tolist()
        else:
            base = list(out[draw(st.integers(0, len(out) - 1))])
        axis = draw(st.integers(0, 1))
        base[axis] += draw(st.sampled_from((-1.0, 1.0))) * radius
        out.append(base)
    return np.array(out, dtype=np.float64)


RADII = st.sampled_from((3.0, 25.0, 40.0, 180.0)) | st.floats(0.5, 300.0)


class TestSplitCoordinates:
    @given(st.data(), RADII)
    @settings(max_examples=200, deadline=None)
    def test_completions_match_dense(self, data, rho):
        pos = data.draw(points(rho))
        rows, grids = kernels.completions(pos, GMAP, rho)
        want_rows, want_grids = completions_dense(pos, GMAP.centers, rho)
        assert rows.dtype == grids.dtype == np.int64
        assert rows.tolist() == want_rows.tolist()
        assert grids.tolist() == want_grids.tolist()

    @given(st.data(), RADII)
    @settings(max_examples=200, deadline=None)
    def test_connectivity_matches_dense(self, data, d_c):
        pos = data.draw(points(d_c, n_min=2))
        alive = np.array(data.draw(st.lists(st.booleans(), min_size=len(pos),
                                            max_size=len(pos))))
        got = compute_connectivity(pos, alive, d_c)
        assert np.array_equal(got, connectivity_dense(pos, alive, d_c))

    @given(st.data(), RADII)
    @settings(max_examples=200, deadline=None)
    def test_candidate_grids_match_dense(self, data, delta):
        pos = data.draw(points(delta, n_max=1))[0]
        got = candidate_grids(pos, delta, GMAP)
        want = candidate_grids_dense(pos, delta, GMAP)
        assert got.dtype == np.int64
        assert got.tolist() == want.tolist()

    def test_boundary_inclusive_along_each_axis(self):
        c = GMAP.centers[210]
        for off in ([3.0, 0.0], [-3.0, 0.0], [0.0, 3.0], [0.0, -3.0]):
            rows, grids = kernels.completions(np.array([c + off]), GMAP, 3.0)
            assert grids.tolist() == [210]


class TestCompletionsEdges:
    """Points on cell edges and centre lines, at map corners and up to rho off
    the map, for radii below, at and above half a cell, on square and
    one-cell-wide maps."""

    @pytest.mark.parametrize("shape", [(20, 20), (1, 7), (7, 1)])
    @pytest.mark.parametrize("rho", [3.0, 14.999, 15.0, 25.0, 40.0])
    def test_match_dense(self, shape, rho):
        gmap = build_grid_map(*shape, 30.0)
        axes = []
        for cells in shape:
            side = cells * 30.0
            axes.append([k * 30.0 for k in range(cells + 1)]
                        + [(k + 0.5) * 30.0 for k in range(cells)]
                        + [-rho, -rho / 2, side + rho / 2, side + rho])
        pos = np.array([[x, y] for x in axes[0] for y in axes[1]], dtype=np.float64)
        rows, grids = kernels.completions(pos, gmap, rho)
        want_rows, want_grids = completions_dense(pos, gmap.centers, rho)
        assert rows.dtype == grids.dtype == np.int64
        assert rows.tolist() == want_rows.tolist()
        assert grids.tolist() == want_grids.tolist()


class TestTopS:
    @given(st.lists(st.integers(0, 50), min_size=1, max_size=60), st.integers(0, 80))
    @settings(max_examples=300, deadline=None)
    def test_matches_sorting_oracle(self, values, extra):
        utime = np.array(values, dtype=np.int64)
        k = len(utime)
        s = 1 + extra % (k + 20)
        got = kernels.top_s(utime, s)
        if s >= k:
            assert got.tolist() == list(range(k))  # each index once, ascending
        else:
            assert got.tolist() == top_s_sorted(utime, s).tolist()


def _slice(grids, ivals, tvals):
    return tuple(np.array(v, dtype=np.int64) for v in (grids, ivals, tvals))


class TestMergeSlice:
    def test_returns_number_adopted(self):
        assumed = np.array([9, 9, 9, 9], dtype=np.int64)
        utime = np.array([5, 5, 5, 5], dtype=np.int64)
        assert kernels.merge_slice(assumed, utime, *_slice([0, 2, 3], [1, 2, 3], [6, 4, 9])) == 2
        assert assumed.tolist() == [1, 9, 9, 3]
        assert utime.tolist() == [6, 5, 5, 9]

    def test_nothing_newer_returns_zero_and_writes_nothing(self):
        assumed = np.array([9, 9, 9], dtype=np.int64)
        utime = np.array([5, 7, 5], dtype=np.int64)
        # read-only bases: any write, even through an empty index, raises
        assumed.setflags(write=False)
        utime.setflags(write=False)
        assert kernels.merge_slice(assumed, utime, *_slice([0, 1, 2], [0, 0, 0], [4, 7, 1])) == 0
        assert kernels.merge_slice(assumed, utime, *_slice([], [], [])) == 0

    def test_equal_update_time_adopts_nothing(self):
        assumed = np.array([9, 9], dtype=np.int64)
        utime = np.array([5, 5], dtype=np.int64)
        assert kernels.merge_slice(assumed, utime, *_slice([1], [0], [5])) == 0
        assert assumed.tolist() == [9, 9] and utime.tolist() == [5, 5]
