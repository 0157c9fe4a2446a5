"""The names `perfbench/spans.py` wraps, and the phase order of one step.

The benchmark's tracer replaces patrolsim functions by name when it is
entered, so deleting or renaming one of them breaks `perfbench/run.py
--trace 1`. Running a short mission under the tracer here makes that a test
failure too.
"""

import importlib.util
import re
from dataclasses import replace
from pathlib import Path

from patrolsim import scenario
from patrolsim.scenario import Simulation, parse_config

ROOT = Path(__file__).resolve().parent.parent
CFG = replace(parse_config(ROOT / "configs" / "swarm5.cfg"), mission_steps=60, warmup_t0=10)

# Phase methods as the scenario module docstring lists them, in order.
PHASES = re.findall(r"^\s+\d\. `(\w+)`", scenario.__doc__, re.MULTILINE)


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_mission_matches_untraced(tmp_path):
    untraced = scenario.run_trial(CFG, 1)
    with _load_spans().Tracer(tmp_path, full=True) as tracer:
        traced = scenario.run_trial(CFG, 1)
    assert traced.event_digest() == untraced.event_digest()
    assert tracer.counts.get("comms.envelopes", 0) > 0
    assert tracer.counts.get("knowledge.received", 0) > 0


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
