import numpy as np

from patrolsim.comms import MessageEnvelope, compute_connectivity, deliver, truncate_knowledge
from patrolsim.knowledge import merge_received, record_patrol

from oracles import new_base, tick_assumptions


def _env(grids, ivals, tvals):
    return MessageEnvelope(
        slice_grids=np.asarray(grids, dtype=np.int64),
        slice_idleness=np.asarray(ivals, dtype=np.int64),
        slice_utimes=np.asarray(tvals, dtype=np.int64),
    )


class StaticNet:
    """Stationary robots running the gossip phases only (no motion/strategy)."""

    def __init__(self, positions, d_c, K, s):
        self.K = K
        self.s = s
        self.n = len(positions)
        self.graph = compute_connectivity(
            np.asarray(positions, dtype=np.float64), np.ones(self.n, bool), d_c
        )
        self.assumed = np.zeros((self.n, K), dtype=np.int64)
        self.utime = np.zeros((self.n, K), dtype=np.int64)
        self.outbox = {}
        self.t = 0

    def step(self, visits=()):
        self.t += 1
        self.assumed += 1
        inboxes = deliver(self.outbox, self.graph)
        for i in range(self.n):
            merge_received(self.assumed[i], self.utime[i], inboxes[i], self.K)
        rows, grids = np.array(visits, dtype=np.int64).reshape(-1, 2).T
        record_patrol(self.assumed, self.utime, rows, grids, self.t)
        self.outbox = {}
        for i in range(self.n):
            if self.graph[i].any():
                g, iv, tv = truncate_knowledge(self.assumed[i], self.utime[i], self.s)
                self.outbox[i] = _env(g, iv, tv)


def patrol_base(assumed, utime, grid, now):
    """record_patrol on one robot's K-long base, as row 0 of a swarm."""
    record_patrol(assumed[None], utime[None], [0], [grid], now)


class TestTickAssumptions:
    def test_increments_idleness_only(self):
        assumed, utime = new_base(3)
        assumed[0], utime[0] = 50, 100
        tick_assumptions(assumed)
        assert assumed[0] == 51 and utime[0] == 100

    def test_all_zero_base(self):
        assumed, utime = new_base(5)
        tick_assumptions(assumed)
        assert (assumed == 1).all() and (utime == 0).all()

    def test_composition(self):
        assumed, utime = new_base(4)
        assumed[:] = [0, 3, 9, 2]
        for _ in range(10):
            tick_assumptions(assumed)
        assert list(assumed) == [10, 13, 19, 12]


class TestRecordPatrol:
    def test_visit_sets_entry(self):
        assumed, utime = new_base(20)
        patrol_base(assumed, utime, 17, 250)
        assert assumed[17] == 0 and utime[17] == 250

    def test_revisit_overwrites(self):
        assumed, utime = new_base(20)
        patrol_base(assumed, utime, 17, 250)
        patrol_base(assumed, utime, 17, 300)
        assert assumed[17] == 0 and utime[17] == 300

    def test_visit_then_ticks(self):
        assumed, utime = new_base(20)
        patrol_base(assumed, utime, 17, 250)
        for _ in range(5):
            tick_assumptions(assumed)
        assert assumed[17] == 5 and utime[17] == 250


class TestMergeReceived:
    def test_newer_entry_adopted_verbatim(self):
        assumed, utime = new_base(4)
        assumed[2], utime[2] = 50, 100
        merge_received(assumed, utime, [_env([2], [10], [140])], 4)
        assert assumed[2] == 10 and utime[2] == 140

    def test_stale_entry_ignored(self):
        assumed, utime = new_base(4)
        assumed[2], utime[2] = 2, 200
        merge_received(assumed, utime, [_env([2], [90], [150])], 4)
        assert assumed[2] == 2 and utime[2] == 200

    def test_largest_update_time_wins_across_slices(self):
        assumed, utime = new_base(4)
        envs = [_env([1], [7], [50]), _env([1], [4], [80])]
        merge_received(assumed, utime, envs, 4)
        assert assumed[1] == 4 and utime[1] == 80

    def test_returns_adoptions_over_the_inbox(self):
        assumed, utime = new_base(4)
        utime[:] = 10
        envs = [_env([0, 1], [3, 3], [11, 9]), _env([0, 2], [1, 1], [12, 20])]
        assert merge_received(assumed, utime, envs, 4) == 3  # grid 0 counts twice
        assert assumed.tolist() == [1, 0, 1, 0] and utime.tolist() == [12, 10, 20, 10]

    def test_nothing_newer_returns_zero_and_writes_nothing(self):
        assumed, utime = new_base(4)
        utime[:] = 10
        # read-only bases: any write, even through an empty index, raises
        assumed.setflags(write=False)
        utime.setflags(write=False)
        envs = [_env([0, 1], [3, 3], [10, 2]), _env([], [], []), _env([3], [0], [9])]
        assert merge_received(assumed, utime, envs, 4) == 0
        assert merge_received(assumed, utime, [], 4) == 0

    def test_equal_update_time_adopts_nothing(self):
        assumed, utime = new_base(4)
        assumed[2], utime[2] = 50, 100
        assert merge_received(assumed, utime, [_env([2], [7], [100])], 4) == 0
        assert assumed[2] == 50 and utime[2] == 100

    def test_footprint_is_2k_scalars(self):
        assumed, utime = new_base(400)
        assert assumed.size + utime.size == 800


class TestGossipProperties:
    def test_one_hop_staleness(self):
        # visit at t_v; a 1-hop neighbor holds (0, t_v) one step later while
        # ground truth is already 1
        net = StaticNet([[0, 0], [50, 0]], d_c=100, K=4, s=4)
        net.step(visits=[(0, 2)])  # t_v = 1
        net.step()
        assert net.utime[1][2] == 1
        assert net.assumed[1][2] == 0  # true idleness is 1: deficit of one hop

    def test_deficit_equals_hop_count(self):
        positions = [[i * 100, 0] for i in range(4)]  # chain, d_c = 100
        net = StaticNet(positions, d_c=100, K=4, s=4)
        net.step(visits=[(0, 1)])  # t_v = 1
        for _ in range(10):
            net.step()
        t_v = 1
        for hop in range(4):
            true_idleness = net.t - t_v
            assert net.utime[hop][1] == t_v
            assert net.assumed[hop][1] == true_idleness - hop

    def test_latency_no_earlier_than_hop_distance(self):
        positions = [[i * 100, 0] for i in range(5)]
        net = StaticNet(positions, d_c=100, K=4, s=4)
        net.step(visits=[(0, 3)])  # t_v = 1
        arrivals = {0: net.t}
        while len(arrivals) < 5 and net.t < 20:
            net.step()
            for i in range(5):
                if i not in arrivals and net.utime[i][3] == 1:
                    arrivals[i] = net.t
        assert arrivals == {i: 1 + i for i in range(5)}

    def test_convergence_within_diameter(self):
        # star topology: diameter 2, everyone agrees within 2 steps of a visit
        positions = [[0, 0], [100, 0], [0, 100], [-100, 0]]
        net = StaticNet(positions, d_c=100, K=6, s=6)
        net.step()
        net.step(visits=[(1, 5)])
        net.step()
        net.step()
        assert (net.utime[:, 5] == 2).all()

    def test_upper_bound_invariant(self):
        # i_n^k(t) <= t - t_n^k(t) throughout a busy random schedule
        rng = np.random.default_rng(3)
        positions = [[i * 80, 0] for i in range(4)]
        net = StaticNet(positions, d_c=100, K=8, s=3)
        for _ in range(60):
            visits = [(int(rng.integers(4)), int(rng.integers(8)))]
            net.step(visits=visits)
            assert (net.assumed <= net.t - net.utime).all()
