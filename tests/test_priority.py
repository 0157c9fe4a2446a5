from typing import NamedTuple

import numpy as np
import pytest

from patrolsim.priority import update_report_priority


class Updated(NamedTuple):
    p: float
    bs_contact: int


def upd(p, omega, inbox, connected=False, now=100, p_max=425.0, eta=0.55):
    """One recipient's (p, omega) after hearing `inbox`.

    `inbox` holds (sender id, is_bs, sender p, sender omega) tuples. The
    recipient sits in the last row, sender id k in row k - 1, and every
    BS-flagged sender in row 0, the only BS row the simulator has.
    """
    n = max((sender for sender, *_ in inbox), default=1) + 1
    ps = np.zeros(n)
    omegas = np.zeros(n, dtype=np.int64)
    heard = np.zeros((n, n), dtype=bool)
    for sender, is_bs, sender_p, sender_omega in inbox:
        row = 0 if is_bs else sender - 1
        ps[row], omegas[row] = sender_p, sender_omega
        heard[row, -1] = True
    ps[-1], omegas[-1] = p, omega
    recipient = np.arange(n) == n - 1
    new_p, new_omega = update_report_priority(
        ps, omegas, heard, recipient, recipient & connected, now, p_max, eta
    )
    return Updated(float(new_p[-1]), int(new_omega[-1]))


class TestUpdateReportPriority:
    def test_discounted_adoption(self):
        # own contact fresher than the sender's: fold in the sender's priority
        state = upd(10.0, 90, [(3, False, 6.0, 50)], connected=True)
        assert state.p == pytest.approx(10.0 + 0.55 * 6.0)

    def test_clamped_growth_at_p_max(self):
        state = upd(425.0, 0, [], connected=False, p_max=425.0)
        assert state.p == 425.0

    def test_duty_entrusted_resets_to_zero(self):
        # the only neighbor contacted the BS more recently: hand over and reset
        state = upd(200.0, 80, [(3, False, 50.0, 120)], connected=True)
        assert state.p == 0.0

    def test_increment_when_disconnected(self):
        state = upd(10.0, 0, [], connected=False)
        assert state.p == 11.0

    def test_no_increment_when_connected_to_bs(self):
        state = upd(10.0, 0, [], connected=True)
        assert state.p == 10.0

    def test_bs_sender_sets_contact_and_blocks_reset(self):
        state = upd(50.0, 10, [(1, True, 0.0, 0)], connected=True, now=77)
        assert state.bs_contact == 77
        assert state.p == 50.0  # BS contact counts as an update: no reset

    def test_equal_contact_times_do_not_adopt(self):
        # strict comparison: ties trigger the entrust reset on both sides
        state = upd(30.0, 60, [(3, False, 40.0, 60)], connected=True)
        assert state.p == 0.0

    def test_fold_order_is_ascending_sender_id(self):
        inbox = [(5, False, 100.0, 10), (3, False, 50.0, 10)]
        state = upd(20.0, 60, inbox, connected=True, eta=0.5)
        # id 3 first: 50 + 0.5*20 = 60; then id 5: 100 + 0.5*60 = 130
        assert state.p == pytest.approx(130.0)

    def test_bs_contact_non_decreasing(self):
        state = upd(0.0, 90, [(1, True, 0.0, 0)], now=120)
        assert state.bs_contact == 120


class TestSwarmFold:
    def test_mutual_neighbours_match_single_recipient_calls(self):
        # row 1 hears the BS and row 2; row 2 hears row 1. Both adopt, so
        # each must read the other's values from before the call.
        p = np.array([0.0, 120.0, 300.0])
        omega = np.array([0, 10, 30], dtype=np.int64)
        heard = np.array([[False, True, False],
                          [False, False, True],
                          [False, True, False]])
        update = np.array([False, True, True])
        connected = np.array([False, True, False])
        new_p, new_omega = update_report_priority(
            p, omega, heard, update, connected, 50, 425.0, 0.55
        )
        one = upd(120.0, 10, [(1, True, 0.0, 0), (3, False, 300.0, 30)],
                  connected=True, now=50)
        two = upd(300.0, 30, [(2, False, 120.0, 10)], connected=False, now=50)
        assert (new_p[1], new_omega[1]) == (one.p, one.bs_contact)
        assert (new_p[2], new_omega[2]) == (two.p, two.bs_contact)
        assert new_p[1] == pytest.approx(300.0 + 0.55 * 120.0)
        assert list(p) == [0.0, 120.0, 300.0]  # inputs untouched


class TestPairwiseConservation:
    @pytest.mark.parametrize("seed", range(20))
    def test_symmetric_exchange(self, seed):
        rng = np.random.default_rng(seed)
        p_max, eta = 425.0, 0.55
        p_a, p_b = rng.uniform(0, p_max, 2)
        omega_a = int(rng.integers(1, 80))
        omega_b = int(rng.integers(0, omega_a))  # strictly older
        now = 100
        a = upd(p_a, omega_a, [(3, False, p_b, omega_b)], connected=True,
                now=now, p_max=p_max, eta=eta)
        b = upd(p_b, omega_b, [(2, False, p_a, omega_a)], connected=True,
                now=now, p_max=p_max, eta=eta)
        assert a.p == max(p_a, p_b) + eta * min(p_a, p_b)
        assert b.p == 0.0


class TestBound:
    def test_randomized_bound(self):
        rng = np.random.default_rng(42)
        p_max, eta = 425.0, 0.55
        cap = p_max * (1 + eta)
        for _ in range(2000):
            p = rng.uniform(0, cap)
            omega = int(rng.integers(0, 100))
            inbox = []
            for sender in range(2, 2 + rng.integers(0, 4)):
                inbox.append((
                    int(sender),
                    bool(rng.uniform() < 0.2),
                    float(rng.uniform(0, cap)),
                    int(rng.integers(0, 100)),
                ))
            state = upd(p, omega, inbox, connected=bool(rng.uniform() < 0.5),
                        now=100, p_max=p_max, eta=eta)
            assert 0.0 <= state.p <= cap
