import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from patrolsim.comms import (
    MessageEnvelope,
    compute_connectivity,
    deliver,
    truncate_knowledge,
)

from oracles import deliver_per_sender


def _env():
    return MessageEnvelope(
        slice_grids=np.array([0], dtype=np.int64),
        slice_idleness=np.array([0], dtype=np.int64),
        slice_utimes=np.array([0], dtype=np.int64),
    )


def _ids(inboxes):
    return [[id(env) for env in box] for box in inboxes]


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
        # s >= K ships the whole base in grid order, without sorting
        utime = np.array([3, 1, 2], dtype=np.int64)
        assumed = np.array([30, 10, 20], dtype=np.int64)
        for s in (3, 400):
            grids, ivals, tvals = truncate_knowledge(assumed, utime, s)
            for got, want in ((grids, [0, 1, 2]), (ivals, [30, 10, 20]), (tvals, [3, 1, 2])):
                assert got.dtype == np.int64
                assert got.tolist() == want

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
        # rows 1 and 2 were neighbors at t-1
        graph = np.zeros((3, 3), dtype=bool)
        graph[1, 2] = graph[2, 1] = True
        envs = {1: _env(), 2: _env()}
        inboxes = deliver(envs, graph)
        assert len(inboxes[2]) == 1 and inboxes[2][0] is envs[1]
        assert len(inboxes[1]) == 1 and inboxes[1][0] is envs[2]
        assert inboxes[0] == []

    def test_no_neighbors_empty_inbox(self):
        graph = np.zeros((2, 2), dtype=bool)
        inboxes = deliver({0: _env(), 1: _env()}, graph)
        assert inboxes == [[], []]

    def test_three_mutual_neighbors(self):
        graph = np.ones((3, 3), dtype=bool)
        np.fill_diagonal(graph, False)
        envs = [_env() for _ in range(3)]
        # enqueued out of order; each inbox must hold the others by ascending row
        inboxes = deliver({i: envs[i] for i in (2, 0, 1)}, graph)
        for i in range(3):
            want = [envs[j] for j in range(3) if j != i]
            assert len(inboxes[i]) == 2
            assert all(got is env for got, env in zip(inboxes[i], want))

    def test_per_sender_contract(self):
        # rows 1 and 3 have edges but sent nothing; senders 0, 2 and 5 are
        # not contiguous and are enqueued out of order
        graph = np.zeros((6, 6), dtype=bool)
        for a, b in ((0, 1), (0, 4), (1, 2), (1, 5), (2, 3), (2, 4), (3, 5), (4, 5)):
            graph[a, b] = graph[b, a] = True
        envs = {i: _env() for i in (5, 0, 2)}
        got = _ids(deliver(envs, graph))
        assert got == _ids(deliver_per_sender(envs, graph))
        assert got[4] == [id(envs[0]), id(envs[2]), id(envs[5])]

    @given(st.data(), st.integers(2, 16))
    @settings(max_examples=100, deadline=None)
    def test_matches_per_sender_loop(self, data, n):
        flags = st.lists(st.booleans(), min_size=n, max_size=n)
        graph = np.array(data.draw(st.lists(flags, min_size=n, max_size=n)), dtype=bool)
        np.fill_diagonal(graph, False)
        rows = data.draw(st.permutations(range(n)))[:data.draw(st.integers(0, n))]
        envs = {i: _env() for i in rows}
        assert _ids(deliver(envs, graph)) == _ids(deliver_per_sender(envs, graph))
