"""Range-limited connectivity and one-step-latency message delivery.

A message enqueued at timestep t-1 reaches the sender's t-1 neighbors at
timestep t. Each envelope carries the sender's top-s knowledge slice and
nothing else: report priorities are read from the swarm arrays (see
`priority`). `scenario` re-cuts a sender's slice only when its utimes rose.
"""

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from . import kernels


def compute_connectivity(positions: np.ndarray, alive: np.ndarray, d_c: float) -> np.ndarray:
    """Symmetric boolean adjacency over operational robots, boundary inclusive."""
    x, y = positions[:, 0], positions[:, 1]
    dx = x[:, None] - x
    dy = y[:, None] - y
    adj = dx * dx + dy * dy <= d_c * d_c
    np.fill_diagonal(adj, False)
    adj &= alive[:, None]
    adj &= alive[None, :]
    return adj


def truncate_knowledge(assumed: np.ndarray, utime: np.ndarray, s: int):
    """The s entries with the largest update times, newest first.

    Ties on update time break toward the smaller grid index. When s covers
    all K entries the whole base ships in grid order, unsorted: a merge does
    not depend on slice order. Returns (grid indices, idleness values, update
    times) copies safe to ship; the first and third stay valid while `utime` is unchanged.
    """
    idx = kernels.top_s(utime, int(s))
    return idx.copy(), assumed[idx], utime[idx]


@dataclass
class MessageEnvelope:
    slice_grids: np.ndarray
    slice_idleness: np.ndarray
    slice_utimes: np.ndarray


def deliver(envelopes: Dict[int, MessageEnvelope], graph_prev: np.ndarray) -> List[List[MessageEnvelope]]:
    """Inboxes at t from envelopes enqueued at t-1.

    `envelopes` maps sender row index -> envelope; recipients are the
    sender's neighbors in the t-1 connectivity graph. The graph's edges are
    walked in row-major order, so each inbox is sorted by sender id.
    """
    inboxes: List[List[MessageEnvelope]] = [[] for _ in range(graph_prev.shape[0])]
    senders, recipients = np.nonzero(graph_prev)
    for sender, recipient in zip(senders.tolist(), recipients.tolist()):
        env = envelopes.get(sender)
        if env is not None:
            inboxes[recipient].append(env)
    return inboxes
