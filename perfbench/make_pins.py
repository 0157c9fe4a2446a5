#!/usr/bin/env python3
"""Write perfbench/pins.json: the exact outputs of every workload for a range
of seeds, with the numpy build and CPU features they were computed on.

    python3 perfbench/make_pins.py

For each seed: the event digest and every metric_row() value (by repr) of
each trial, and for the sweep the rows parameter_sweep returns. A seed is
pinned only after its artifacts pass verify_artifacts. The script refuses to
overwrite an existing pins.json: pins are recorded once, from an unchanged
simulator, and a change that moves them has changed behaviour.
"""

import dataclasses
import json
import sys

import run
from workloads import ROOT, WORKLOADS, numpy_build

PIN_SEEDS = range(0, 40)


def main():
    if run.PINS.exists():
        print(f"perfbench: {run.PINS.name} exists; not overwriting pins", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from spans import Tracer

    child_dir = run.OUT / "children"
    child_dir.mkdir(parents=True, exist_ok=True)
    pins = {"environment": numpy_build(), "seeds": [PIN_SEEDS.start, PIN_SEEDS.stop - 1],
            "workloads": {}}
    for wl in WORKLOADS.values():
        entry = {"trials": {}, "sweeps": {}}
        for seed in PIN_SEEDS:
            bench = run.Bench(wl, seed, {})
            bench.run_phase(Tracer(child_dir, full=False), units=1)
            if bench.problems:
                print(f"perfbench: {wl.name} seed {seed}: {bench.problems}", file=sys.stderr)
                return 1
            for key, (digest, row) in bench.outputs.items():
                entry["trials"][key] = {"digest": digest, "metric_row": row}
            entry["sweeps"].update(bench.sweep_outputs)
            print(f"{wl.name} seed {seed}: {len(bench.outputs)} trials pinned", flush=True)
        entry["config"] = dataclasses.asdict(bench.config)
        pins["workloads"][wl.name] = entry
    run.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
