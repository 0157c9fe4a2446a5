"""Exact behaviour pins: six short missions, each pinned by its event digest
and every `metric_row()` value by `repr`; two of them, run with the series
recorded, also pin the sha256 of every file `write_run_artifacts` emits.

The pins live in `golden_pins.json` and `artifact_pins.json` next to this
file, each together with the numpy build and CPU features it was computed
on: numpy's float64 ufuncs may differ from one build or CPU to the next in
the last ulp, so the pins are exact only there. A mismatch names whichever
of these differs from the recording; if none does, behaviour changed. A pin
is never loosened.

Record the pins once, from an unchanged simulator (writes only the pin
files that do not exist yet, and refuses to overwrite the others):

    PYTHONPATH=src python tests/test_golden.py --write
"""

import hashlib
import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from patrolsim.export import write_run_artifacts
from patrolsim.scenario import parse_config, run_trial

ROOT = Path(__file__).resolve().parent.parent
PINS = Path(__file__).with_name("golden_pins.json")
ARTIFACT_PINS = Path(__file__).with_name("artifact_pins.json")
MISSION = dict(mission_steps=2000, warmup_t0=500)

# name -> (shipped config, overrides on top of MISSION)
CASES = {
    "swarm10-defaults": ("swarm10.cfg", {}),
    "swarm5-random": ("swarm5.cfg", dict(strategy="random")),
    "swarm10-holonomic-s40": ("swarm10.cfg", dict(holonomic=True, bandwidth_s=40)),
    "swarm15-er-s8-failure": ("swarm15.cfg", dict(
        strategy="er", bandwidth_s=8, fail_fraction=0.3, fail_at=600, recover_at=1200)),
    "swarm10-rho25": ("swarm10.cfg", dict(rho=25.0)),
    "swarm5-rho40-s399": ("swarm5.cfg", dict(rho=40.0, bandwidth_s=399)),
}
# the failure case makes n_active and the active-normalized series vary
ARTIFACT_CASES = ("swarm10-defaults", "swarm15-er-s8-failure")


def numpy_build():
    """The numpy facts that decide last-ulp float64 results."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    return {
        "numpy": np.__version__,
        "cpu_baseline": list(umath.__cpu_baseline__),
        "cpu_dispatch": list(umath.__cpu_dispatch__),
        "cpu_dispatch_active": [f for f in umath.__cpu_dispatch__
                                if umath.__cpu_features__.get(f)],
    }


def _run(name, record_series):
    cfg_file, overrides = CASES[name]
    config = parse_config(ROOT / "configs" / cfg_file)
    config = replace(config, **MISSION, **overrides).validate()
    return run_trial(config, config.seed, record_series=record_series)


def outputs(name):
    """(event digest, {metric: repr}) of one pinned mission."""
    result = _run(name, record_series=False)
    return result.event_digest(), {k: repr(v) for k, v in result.metric_row().items()}


def artifact_digests(name):
    """{file name: sha256} of every artifact of one pinned mission."""
    result = _run(name, record_series=True)
    with tempfile.TemporaryDirectory() as out:
        return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                for path in write_run_artifacts(result, out)}


def _cause(recorded):
    here = numpy_build()
    differ = [f"{key}: pinned {recorded.get(key)!r}, here {value!r}"
              for key, value in here.items() if recorded.get(key) != value]
    if differ:
        return ("pins were recorded on another numpy build or CPU, where float64 "
                "results may differ in the last ulp; " + "; ".join(differ))
    return "behaviour changed (same numpy build and CPU features as the pins)"


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name):
    pins = json.loads(PINS.read_text())
    pin = pins["cases"][name]
    digest, row = outputs(name)
    if digest != pin["digest"] or row != pin["metric_row"]:
        changed = [k for k in pin["metric_row"] if row.get(k) != pin["metric_row"][k]]
        if digest != pin["digest"]:
            changed.insert(0, "event_digest")
        pytest.fail(f"{name}: {', '.join(changed)} differ from the pins: "
                    f"{_cause(pins['environment'])}")


@pytest.mark.parametrize("name", ARTIFACT_CASES)
def test_artifact_bytes(name):
    pins = json.loads(ARTIFACT_PINS.read_text())
    pin = pins["cases"][name]
    got = artifact_digests(name)
    if got != pin:
        changed = sorted(k for k in pin.keys() | got.keys() if got.get(k) != pin.get(k))
        pytest.fail(f"{name}: {', '.join(changed)} differ from the artifact pins: "
                    f"{_cause(pins['environment'])}")


def _golden_case(name):
    digest, row = outputs(name)
    return {"digest": digest, "metric_row": row}


def main():
    if "--write" not in sys.argv[1:]:
        print(__doc__)
        return 2
    wrote = False
    for path, names, record in ((PINS, sorted(CASES), _golden_case),
                                (ARTIFACT_PINS, ARTIFACT_CASES, artifact_digests)):
        if path.exists():
            print(f"{path.name} exists; not overwriting pins", file=sys.stderr)
            continue
        cases = {}
        for name in names:
            cases[name] = record(name)
            print(f"{path.name}: {name}", flush=True)
        path.write_text(json.dumps({"environment": numpy_build(), "mission": MISSION,
                                    "cases": cases}, indent=1, sort_keys=True) + "\n")
        wrote = True
    return 0 if wrote else 2


if __name__ == "__main__":
    sys.exit(main())
