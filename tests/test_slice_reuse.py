"""`Simulation._broadcast` re-cuts a row's top-s slice only after `_complete`
or `_merge` changed the row's update times, and otherwise ships the cached
grids and update times with idleness read at send time. Every envelope must
still be exactly what a fresh `truncate_knowledge` of the sender's base
gives, array for array and in the same grid order.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from patrolsim import scenario
from patrolsim.comms import truncate_knowledge
from patrolsim.scenario import Simulation, parse_config

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _config(name, **overrides):
    return replace(parse_config(CONFIGS / name), warmup_t0=0, **overrides)


MISSIONS = {
    # er over 8-entry slices; rows 10-14 freeze at 150 and recover at 300
    "er-s8-failure": _config("swarm15.cfg", mission_steps=450, strategy="er", bandwidth_s=8,
                             fail_fraction=0.3, fail_at=150, recover_at=300),
    # s >= K: the whole base ships in grid order
    "lr-pt-s-covers-K": _config("swarm10.cfg", mission_steps=300, bandwidth_s=401),
    # one-entry slices; rows 3 and 4 freeze at 100 and recover at 250
    "random-s1-failure": _config("swarm5.cfg", mission_steps=400, strategy="random",
                                 bandwidth_s=1, fail_fraction=0.5, fail_at=100,
                                 recover_at=250),
}


@pytest.mark.parametrize("name", sorted(MISSIONS))
def test_every_envelope_is_a_fresh_cut(monkeypatch, name):
    config = MISSIONS[name]
    cuts = []

    def counted(*args):
        cuts.append(args)
        return truncate_knowledge(*args)

    monkeypatch.setattr(scenario, "truncate_knowledge", counted)
    sim = Simulation(config, 1)
    broadcast, shipped = sim._broadcast, []

    def checked():
        broadcast()
        for i, env in sim.outbox.items():
            fresh = truncate_knowledge(sim.assumed[i], sim.utime[i], config.bandwidth_s)
            got = (env.slice_grids, env.slice_idleness, env.slice_utimes)
            for field, a, b in zip(("grids", "idleness", "utimes"), got, fresh):
                assert a.dtype == b.dtype and np.array_equal(a, b), (
                    f"t={sim.world.t} row {i}: {field} {a.tolist()} != fresh {b.tolist()}")
        shipped.append(len(sim.outbox))

    sim._broadcast = checked
    sim.run()
    assert sum(shipped) > 0
    assert 0 < len(cuts) < sum(shipped)
