"""The names `perfbench/spans.py` wraps, and the phase order of one step.

The benchmark's tracer replaces patrolsim functions by name when it is
entered, so deleting or renaming one of them breaks `perfbench/run.py
--trace 1`. Running a short mission under the tracer here makes that a test
failure too.
"""

import importlib.util
import json
import re
from dataclasses import replace
from pathlib import Path

import pytest

from patrolsim import scenario
from patrolsim.scenario import Simulation, parse_config

from test_golden import PINS, _cause

ROOT = Path(__file__).resolve().parent.parent
CFG = replace(parse_config(ROOT / "configs" / "swarm5.cfg"), mission_steps=60, warmup_t0=10)

# Phase methods as the scenario module docstring lists them, in order.
PHASES = re.findall(r"^\s+\d\. `(\w+)`", scenario.__doc__, re.MULTILINE)


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Full-bandwidth gossip among five robots: the same for every strategy.
GOSSIP = {"comms.entries": 472000, "comms.envelopes": 1180, "knowledge.received": 472000,
          "world.pairs": 96000}
SELECTORS = ("strategy.select_patrol_target", "strategy.er_select",
             "strategy.random_select", "kernels.utilities")
# Per strategy: every `tracer.counts` entry of a traced CFG mission with seed
# 1, and the number of calls of each selector and of `kernels.utilities`.
# Recorded on the numpy build and CPU that `golden_pins.json` names.
TRACED = {
    "lr-pt": ({**GOSSIP, "knowledge.adopted": 39, "strategy.candidates": 455,
               "world.events": 31}, (12, 0, 0, 12)),
    "er": ({**GOSSIP, "knowledge.adopted": 38, "strategy.candidates": 6400,
            "world.events": 32}, (0, 16, 0, 16)),
    "random": ({**GOSSIP, "knowledge.adopted": 100, "world.events": 26}, (0, 0, 12, 0)),
}


@pytest.mark.parametrize("strategy", sorted(TRACED))
def test_traced_mission_matches_untraced(tmp_path, strategy):
    cfg = replace(CFG, strategy=strategy)
    untraced = scenario.run_trial(cfg, 1)
    with _load_spans().Tracer(tmp_path, full=True) as tracer:
        traced = scenario.run_trial(cfg, 1)
    assert traced.event_digest() == untraced.event_digest()
    totals = tracer.totals()
    got = (tracer.counts, tuple(totals[name][0] for name in SELECTORS))
    if got != TRACED[strategy]:
        pytest.fail(f"{strategy}: traced counts {got} differ from {TRACED[strategy]}: "
                    f"{_cause(json.loads(PINS.read_text())['environment'])}")


def test_step_runs_phases_in_docstring_order(monkeypatch):
    assert PHASES == ["_clock", "deliver", "_merge", "_move", "_complete",
                      "_broadcast", "_sample"]
    sim = Simulation(CFG, 1)
    calls = []

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(scenario, "deliver", spy("deliver", scenario.deliver))
    for name in PHASES:
        if name != "deliver":
            setattr(sim, name, spy(name, getattr(sim, name)))
    sim.step()
    assert calls == PHASES
