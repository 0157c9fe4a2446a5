"""Assumed-idleness bases: own-patrol recording and merges.

The swarm's bases are two (N, K) int64 arrays (assumed idleness, update
time); robot i's base is row i of each, 2K scalars. The scenario ages every
operational row with one array add per step. Received entries
win only on a strictly newer update time and are adopted verbatim: an entry
that traveled h hops is exactly h ticks behind ground truth, which is a
documented property of the gossip scheme, not something to correct.
"""

from typing import Iterable

import numpy as np

from . import kernels
from .comms import MessageEnvelope


def record_patrol(assumed: np.ndarray, utime: np.ndarray, rows, grids, now: int) -> None:
    """Own patrols at `now`: robot row rows[j] of the (N, K) bases visited grids[j]."""
    assumed[rows, grids] = 0
    utime[rows, grids] = now


def merge_received(
    assumed: np.ndarray,
    utime: np.ndarray,
    inbox: Iterable[MessageEnvelope],
    K: int,
) -> int:
    """Fold received slices into the base; returns how many entries it adopted.

    Envelopes are processed in inbox order (ascending sender id); a strictly
    newer update time replaces the local entry verbatim. Slices are cut from
    K-long bases by `comms.truncate_knowledge`, so every grid index is in
    range; K is not read, and stays a positional parameter because
    `perfbench/spans.py` hooks this call by its four arguments.
    """
    adopted = 0
    for env in inbox:
        adopted += kernels.merge_slice(
            assumed, utime, env.slice_grids, env.slice_idleness, env.slice_utimes
        )
    return adopted
