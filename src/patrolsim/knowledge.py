"""Per-robot assumed-idleness bases: own-patrol recording and merges.

A base is a pair of K-length int64 arrays (assumed idleness, update time),
so its footprint is 2K scalars regardless of swarm size; the scenario ages
every operational base with one array add per step. Received entries
win only on a strictly newer update time and are adopted verbatim: an entry
that traveled h hops is exactly h ticks behind ground truth, which is a
documented property of the gossip scheme, not something to correct.
"""

from typing import Iterable

import numpy as np

from . import kernels
from .comms import MessageEnvelope


def record_patrol(assumed: np.ndarray, utime: np.ndarray, grid: int, now: int) -> None:
    assumed[grid] = 0
    utime[grid] = now


def merge_received(
    assumed: np.ndarray,
    utime: np.ndarray,
    inbox: Iterable[MessageEnvelope],
    K: int,
) -> None:
    """Fold received slices into the base.

    Envelopes are processed in inbox order (ascending sender id); a strictly
    newer update time replaces the local entry verbatim. Slices are cut from
    K-long bases by `comms.truncate_knowledge`, so every grid index is in
    range; K is not read, and stays a positional parameter because
    `perfbench/spans.py` hooks this call by its four arguments.
    """
    for env in inbox:
        kernels.merge_slice(
            assumed, utime, env.slice_grids, env.slice_idleness, env.slice_utimes
        )
