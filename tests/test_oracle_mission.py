"""The whole simulator against its references: each mission runs once on the
fast paths and once with every reference of `oracles.reference_step`
installed, and the two must agree exactly in events, event digest,
`metric_row` and every series.

Each fast kernel also has its own test against its reference; this one
guards how they compose over drawn configs: swarm size, map shape,
bandwidth s of 1, below K and at least K, every strategy, failure and
recovery, holonomic motion, and a completion radius around half a cell.
"""

import contextlib
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from patrolsim.scenario import ScenarioConfig, run_trial
from patrolsim.strategy import RANDOM_WALK, STRATEGIES

from oracles import REFERENCES, reference_step


@st.composite
def configs(draw):
    width, height = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    K = width * height
    steps = draw(st.integers(100, 400))
    grid_size = draw(st.sampled_from([10.0, 30.0]))
    d_c = draw(st.sampled_from([25.0, 60.0, 180.0]))
    # s of 1, below K (unless K is 1), and at least K: the whole base ships
    bandwidth_s = draw(st.sampled_from([1, max(1, K // 2), K, K + 3]))
    failures = {}
    if draw(st.booleans()):
        fail_at = draw(st.integers(1, steps - 1))
        failures = dict(fail_fraction=draw(st.sampled_from([0.3, 0.5, 1.0])), fail_at=fail_at,
                        recover_at=draw(st.integers(fail_at + 1, steps)))
    return ScenarioConfig(
        n_robots=draw(st.integers(2, 6)),
        width_grids=width,
        height_grids=height,
        grid_size=grid_size,
        rho=grid_size / 2 * draw(st.sampled_from([0.9, 1.0, 1.1])),
        mission_steps=steps,
        warmup_t0=draw(st.integers(0, steps)),
        d_c=d_c,
        delta=draw(st.sampled_from([d_c / 2, d_c])),
        p_max=draw(st.sampled_from([20.0, 703.0])),
        sigma=draw(st.sampled_from([30.0, 304.0])),
        bandwidth_s=bandwidth_s,
        strategy=draw(st.sampled_from([x for x in STRATEGIES if K > 1 or x != RANDOM_WALK])),
        seed=draw(st.integers(0, 2**16)),
        holonomic=draw(st.booleans()),
        **failures,
    )


@given(configs())
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_reference_step_matches_fast_path(config):
    fast = run_trial(config, config.seed)
    with reference_step():
        ref = run_trial(config, config.seed)
    assert ref.events.dtype == np.int64
    assert np.array_equal(fast.events, ref.events)
    assert fast.event_digest() == ref.event_digest()
    assert fast.metric_row() == ref.metric_row()
    assert fast.series.keys() == ref.series.keys()
    for key, values in fast.series.items():
        assert np.array_equal(values, ref.series[key]), key


def test_every_reference_runs():
    # a reference installed at a name the step does not look up would leave
    # the fast path running, and the comparison above would pass vacuously
    config = ScenarioConfig(n_robots=4, width_grids=4, height_grids=4, mission_steps=50,
                            warmup_t0=0, bandwidth_s=4)
    with reference_step(), contextlib.ExitStack() as stack:
        spies = {name: stack.enter_context(mock.patch.object(owner, name, wraps=reference))
                 for owner, name, reference in REFERENCES}
        run_trial(config, 1)
    assert [name for name, spy in spies.items() if not spy.called] == []
