"""Report-priority maintenance: growth, BS contact bookkeeping, and handoff.

The priority grows by one per step away from the base station (clamped at
p_max), transfers with a discount eta when meeting a robot that contacted
the BS less recently, and resets to zero when every encountered robot has
fresher BS contact (the duty was entrusted). The handoff pair of these
rules partitions the swarm into reporters and explorers.

State lives in the swarm arrays: p[i] is robot row i's report priority and
omega[i] its last direct BS connection timestep (0 if never); row 0 is the
BS. One call updates every recipient from its senders' t-1 values.
"""

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
    heard = heard & update
    new_omega = np.where(heard[0], now, omega)
    # omega changes only at the BS sender, row 0, which folds first
    adopt = heard[1:] & (omega[1:, None] < new_omega)
    new_p = np.where(update & ~connected_to_bs, np.minimum(p_max, p + 1.0), p)
    for j in np.flatnonzero(adopt.any(axis=1)):
        mine, theirs = new_p[adopt[j]], p[j + 1]
        new_p[adopt[j]] = np.maximum(mine, theirs) + eta * np.minimum(mine, theirs)
    reached = heard.any(axis=0)
    new_p[reached & ~heard[0] & ~adopt.any(axis=0)] = 0.0
    np.minimum(new_p, p_max * (1.0 + eta), out=new_p, where=reached)
    return new_p, new_omega
