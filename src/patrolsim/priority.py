"""Report-priority maintenance: growth, BS contact bookkeeping, and handoff.

The priority grows by one per step away from the base station (clamped at
p_max), transfers with a discount eta when meeting a robot that contacted
the BS less recently, and resets to zero when every encountered robot has
fresher BS contact (the duty was entrusted). The handoff pair of these
rules partitions the swarm into reporters and explorers.

State lives in the swarm arrays: p[i] is robot row i's report priority and
omega[i] its last direct BS connection timestep (0 if never); row 0 is the
BS. One call updates every recipient from its senders' t-1 values.

The fold runs over Python lists, one recipient at a time. At the paper's
swarm sizes (N <= 15) a step is bound by the fixed cost of each numpy call,
not by arithmetic, and a vectorised fold makes about fifteen calls on
vectors of length N. Python float ``+``, ``*``, ``min`` and ``max`` are the
same correctly rounded float64 operations as numpy's elementwise ufuncs, so
with the same operands in the same order the bits are the same.
"""

from itertools import compress
from typing import Tuple

import numpy as np


def update_report_priority(
    p: np.ndarray,
    omega: np.ndarray,
    heard: np.ndarray,
    update: np.ndarray,
    connected_to_bs: np.ndarray,
    now: int,
    p_max: float,
    eta: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """One priority step for the rows flagged in `update`; returns (p, omega).

    heard[j, i] means row i received row j's t-1 broadcast. Senders are read
    from the input arrays, which still hold the values they broadcast, and
    fold in ascending row order (the update is order-sensitive). The BS
    sender refreshes the contact timestamp and counts as an update, so a
    robot sitting next to the BS never resets. Equal contact timestamps do
    not adopt. The result is capped at p_max * (1 + eta): a single handoff
    from inputs below the cap cannot exceed it, and the cap keeps stacked
    same-step handoffs from compounding past the documented bound. The
    inputs are not modified.
    """
    cap = p_max * (1.0 + eta)
    p_in, omega_in = p.tolist(), omega.tolist()
    new_p, new_omega = list(p_in), list(omega_in)
    for i, (senders, due, at_bs) in enumerate(
            zip(heard.T.tolist(), update.tolist(), connected_to_bs.tolist())):
        if not due:
            continue
        q = p_in[i] if at_bs else min(p_max, p_in[i] + 1.0)
        if not any(senders):
            new_p[i] = q
            continue
        # BS contact or an adoption keeps the priority; otherwise it resets
        kept = senders[0]  # the BS row folds first and sets the contact time
        if kept:
            new_omega[i] = now
        for j in compress(range(1, len(senders)), senders[1:]):
            if omega_in[j] < new_omega[i]:
                theirs = p_in[j]
                q = max(q, theirs) + eta * min(q, theirs)
                kept = True
        new_p[i] = min(q, cap) if kept else 0.0
    return np.array(new_p, dtype=np.float64), np.array(new_omega, dtype=np.int64)
