import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from patrolsim.comms import (
    MessageEnvelope,
    compute_connectivity,
    deliver,
    truncate_knowledge,
)


def _env(sender):
    return MessageEnvelope(
        sender=sender,
        slice_grids=np.array([0], dtype=np.int64),
        slice_idleness=np.array([0], dtype=np.int64),
        slice_utimes=np.array([0], dtype=np.int64),
    )


class TestConnectivity:
    def test_boundary_inclusive(self):
        pos = np.array([[0.0, 0.0], [180.0, 0.0]])
        adj = compute_connectivity(pos, np.array([True, True]), 180.0)
        assert adj[0, 1] and adj[1, 0]

    def test_beyond_range(self):
        pos = np.array([[0.0, 0.0], [180.1, 0.0]])
        adj = compute_connectivity(pos, np.array([True, True]), 180.0)
        assert not adj.any()

    def test_failed_robot_isolated(self):
        pos = np.array([[0.0, 0.0], [10.0, 0.0], [20.0, 0.0]])
        adj = compute_connectivity(pos, np.array([True, False, True]), 180.0)
        assert not adj[1].any() and not adj[:, 1].any()
        assert adj[0, 2]

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_symmetric_and_permutation_invariant(self, seed):
        rng = np.random.default_rng(seed)
        n = 8
        pos = rng.uniform(0, 300, size=(n, 2))
        alive = rng.uniform(size=n) > 0.2
        adj = compute_connectivity(pos, alive, 120.0)
        assert (adj == adj.T).all()
        assert not adj.diagonal().any()
        perm = rng.permutation(n)
        adj_p = compute_connectivity(pos[perm], alive[perm], 120.0)
        assert (adj_p == adj[np.ix_(perm, perm)]).all()


class TestTruncateKnowledge:
    def test_full_copy_when_s_covers_k(self):
        utime = np.array([3, 1, 2], dtype=np.int64)
        assumed = np.array([30, 10, 20], dtype=np.int64)
        grids, ivals, tvals = truncate_knowledge(assumed, utime, 400)
        assert list(grids) == [0, 2, 1]
        assert list(ivals) == [30, 20, 10]
        assert list(tvals) == [3, 2, 1]

    def test_tie_breaks_to_smaller_index(self):
        utime = np.array([10, 50, 30, 50], dtype=np.int64)
        assumed = np.array([1, 2, 3, 4], dtype=np.int64)
        grids, _, tvals = truncate_knowledge(assumed, utime, 2)
        assert list(grids) == [1, 3]
        assert list(tvals) == [50, 50]

    def test_exact_slice_length(self, rng):
        utime = rng.integers(0, 1000, 400)
        assumed = rng.integers(0, 1000, 400)
        grids, ivals, tvals = truncate_knowledge(assumed, utime, 8)
        assert len(grids) == len(ivals) == len(tvals) == 8
        # the slice really is the 8 largest update times
        assert sorted(tvals, reverse=True) == sorted(np.sort(utime)[-8:], reverse=True)


class TestDeliver:
    def test_neighbor_receives_previous_step_envelope(self):
        # r_2 (row 1) and r_7 (row 2) were neighbors at t-1
        graph = np.zeros((3, 3), dtype=bool)
        graph[1, 2] = graph[2, 1] = True
        inboxes = deliver({1: _env(2), 2: _env(7)}, graph)
        assert [e.sender for e in inboxes[2]] == [2]

    def test_no_neighbors_empty_inbox(self):
        graph = np.zeros((2, 2), dtype=bool)
        inboxes = deliver({0: _env(1), 1: _env(2)}, graph)
        assert inboxes == [[], []]

    def test_three_mutual_neighbors(self):
        graph = np.ones((3, 3), dtype=bool)
        np.fill_diagonal(graph, False)
        inboxes = deliver({i: _env(i + 1) for i in range(3)}, graph)
        for i in range(3):
            senders = [e.sender for e in inboxes[i]]
            assert len(senders) == 2
            assert senders == sorted(senders)  # ascending sender order
