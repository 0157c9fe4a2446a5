"""Range-limited connectivity and one-step-latency message delivery.

A message enqueued at timestep t-1 reaches the sender's t-1 neighbors at
timestep t. Each envelope carries the sender's top-s knowledge slice and,
for patrollers, the (report priority, last BS contact) pair.
"""

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from . import kernels


def compute_connectivity(positions: np.ndarray, alive: np.ndarray, d_c: float) -> np.ndarray:
    """Symmetric boolean adjacency over operational robots, boundary inclusive."""
    diff = positions[:, None, :] - positions[None, :, :]
    d2 = (diff ** 2).sum(axis=2)
    adj = d2 <= d_c * d_c
    np.fill_diagonal(adj, False)
    adj &= alive[:, None]
    adj &= alive[None, :]
    return adj


def truncate_knowledge(assumed: np.ndarray, utime: np.ndarray, s: int):
    """The s entries with the largest update times, newest first.

    Ties on update time break toward the smaller grid index. Returns
    (grid indices, idleness values, update times) copies safe to ship.
    """
    idx = kernels.top_s(utime, int(s))
    return idx.copy(), assumed[idx], utime[idx]


@dataclass
class MessageEnvelope:
    sender: int    # 1-based robot id
    slice_grids: np.ndarray
    slice_idleness: np.ndarray
    slice_utimes: np.ndarray
    priority: Optional[float]   # None for the base station
    bs_contact: Optional[int]   # None for the base station
    from_bs: bool = False


def deliver(envelopes: Dict[int, MessageEnvelope], graph_prev: np.ndarray) -> List[List[MessageEnvelope]]:
    """Inboxes at t from envelopes enqueued at t-1.

    `envelopes` maps sender row index -> envelope; recipients are the
    sender's neighbors in the t-1 connectivity graph. Each inbox is sorted
    by sender id for determinism.
    """
    n = graph_prev.shape[0]
    inboxes: List[List[MessageEnvelope]] = [[] for _ in range(n)]
    for sender_row in sorted(envelopes):
        env = envelopes[sender_row]
        for recipient in np.nonzero(graph_prev[sender_row])[0]:
            inboxes[recipient].append(env)
    return inboxes
