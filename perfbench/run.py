#!/usr/bin/env python3
"""patrolsim benchmark: time per simulated step, trials per second, set-up
time, artifact write and verify time, and peak memory.

    python3 perfbench/run.py --workload paper-n10 --seed 1 --seconds 30 --trace 0

Closed loop in one process: one mission, or one parameter sweep, at a time;
the next starts when the previous one has finished and been checked. Unit k
of a run uses seed `--seed + k` (a sweep uses base seeds `--seed + trials*k`).

`--trace 0` measures for `--seconds` and prints the end-to-end metrics.
`--trace 1` runs the workload's fixed number of units (`traced_units`, about
30 s on a 2-core x86 host) untraced, replays the same seeds with every
public function wrapped in a span (see spans.py), and prints the per-layer
metrics together with the tracing overhead; with a fixed set of missions,
its counts repeat exactly for a seed. The last line of stdout is one JSON
object; a fuller record with the run environment, sample counts and checks
goes to .perfbench_out/.

Every trial is checked: its written artifacts must pass verify_artifacts,
and where perfbench/pins.json holds the seed, its event digest and every
metric_row() value must equal the pins exactly (by repr). The traced replay
must reproduce the untraced digests. Exit codes: 0 all checks passed, 1 a
check failed (the result line is still printed), 2 bad arguments or not a
patrolsim checkout.
"""

import argparse
import contextlib
import dataclasses
import json
import multiprocessing
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from workloads import MOVES, ROOT, WORKLOADS, build_config, environment, numpy_build

PINS = Path(__file__).resolve().parent / "pins.json"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 10
WRITE_REPEATS = 3


def metric_row_reprs(result):
    return {k: repr(v) for k, v in result.metric_row().items()}


@contextlib.contextmanager
def capture_batches(sink):
    """Keep the TrialResults that parameter_sweep receives from run_batch."""
    from patrolsim import scenario

    orig = scenario.run_batch

    def run_batch(*args, **kwargs):
        results, summary = orig(*args, **kwargs)
        sink.extend(results)
        return results, summary

    scenario.run_batch = run_batch
    try:
        yield
    finally:
        scenario.run_batch = orig


class Bench:
    def __init__(self, workload, seed, pins):
        self.wl = workload
        self.seed = seed
        self.config = build_config(workload)
        entry = pins.get("workloads", {}).get(workload.name, {})
        if entry and entry["config"] != dataclasses.asdict(self.config):
            raise SystemExit(f"perfbench: {workload.name} config differs from the one "
                             "in pins.json, so its pins do not apply")
        self.pinned_trials = entry.get("trials", {})
        self.pinned_sweeps = entry.get("sweeps", {})
        self.pins_environment = pins.get("environment", {})
        self.problems = []
        self.attempted = 0
        self.failed = 0
        self.outputs = {}          # trial key -> (digest, metric_row reprs), untraced
        self.sweep_outputs = {}    # base seed key -> sweep row reprs, untraced
        self.write_s = []
        self.verify_s = []
        self.unit_trials = 0
        self.unit_wall = 0.0       # wall time of the API calls that ran the trials
        self.setup_s = []
        self._batch = []
        self.art_dir = OUT / "artifacts" / workload.name

    # -- one unit of work ----------------------------------------------------

    def unit_seed(self, k):
        return self.seed + self.wl.trials * k

    def run_unit(self, k):
        """Run unit k; returns (trial results, sweep rows or None, wall s)."""
        from patrolsim import scenario

        seed = self.unit_seed(k)
        if not self.wl.sweep:
            t0 = perf_counter()
            result = scenario.run_trial(self.config, seed, self.wl.record_series)
            return [result], None, perf_counter() - t0
        etas, p_maxes, sigmas = self.wl.sweep
        self._batch.clear()
        t0 = perf_counter()
        rows = scenario.parameter_sweep(self.config, etas, p_maxes, sigmas,
                                        self.wl.trials, seed, workers=self.wl.workers)
        wall = perf_counter() - t0
        return list(self._batch), rows, wall

    def trial_key(self, result):
        c = result.config
        if self.wl.sweep:
            return f"eta={c.eta!r},p_max={c.p_max!r},sigma={c.sigma!r},seed={result.seed}"
        return f"seed={result.seed}"

    # -- checks --------------------------------------------------------------

    def _pin_mismatch(self, what):
        """The mismatch message, naming a numpy build or CPU that differs."""
        pinned_env = self.pins_environment
        here = numpy_build()
        diff = [k for k in here if pinned_env.get(k) != here[k]]
        if diff:
            cause = ("numpy build or CPU features differ from the pins' "
                     + ", ".join(f"{k}: pinned {pinned_env.get(k)} here {here[k]}"
                                 for k in diff)
                     + "; float64 ufuncs (np.exp, np.hypot) may differ in the last ulp")
        else:
            cause = "same numpy build and CPU features as the pins: behaviour changed"
        return f"{what} differs from pins.json ({cause})"

    def _write_and_verify(self, result, timed):
        from patrolsim import export

        for _ in range(WRITE_REPEATS if timed else 1):
            shutil.rmtree(self.art_dir, ignore_errors=True)
            t0 = perf_counter()
            export.write_run_artifacts(result, self.art_dir)
            t1 = perf_counter()
            bad = export.verify_artifacts(self.art_dir / "events.log", result.config,
                                          self.art_dir)
            t2 = perf_counter()
            if timed:
                self.write_s.append(t1 - t0)
                self.verify_s.append(t2 - t1)
            if bad:
                return [f"verify_artifacts: {m}" for m in bad]
        return []

    def check_unit(self, results, rows, traced):
        problems = []
        for result in results:
            key = self.trial_key(result)
            got = (result.event_digest(), metric_row_reprs(result))
            pin = self.pinned_trials.get(key)
            if pin is not None and (pin["digest"], pin["metric_row"]) != got:
                problems.append(self._pin_mismatch(f"{key}: event digest or metric_row"))
            if traced:
                if self.outputs.get(key) != got:
                    problems.append(f"{key}: traced run does not reproduce the "
                                    "untraced digest and metric_row")
            else:
                self.outputs[key] = got
            problems += [f"{key}: {m}" for m in self._write_and_verify(result, not traced)]
        if rows is not None:
            problems += self._check_sweep_rows(results, rows, traced)
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += problems

    def _check_sweep_rows(self, results, rows, traced):
        problems = []
        if len(results) != len(rows) * self.wl.trials:
            return [f"sweep returned {len(rows)} rows for {len(results)} trials"]
        for j, row in enumerate(rows):
            trials = results[j * self.wl.trials:(j + 1) * self.wl.trials]
            mean_i_g = float(np.array([r.I_G for r in trials], dtype=np.float64).mean())
            if row["mean_I_G"] != mean_i_g or trials[0].config.eta != row["eta"]:
                problems.append(f"sweep row {j} does not summarise its trials")
        key = f"base_seed={results[0].seed}"
        got = [{k: repr(v) for k, v in row.items()} for row in rows]
        pin = self.pinned_sweeps.get(key)
        if pin is not None and pin != got:
            problems.append(self._pin_mismatch(f"{key}: sweep rows"))
        if traced:
            if self.sweep_outputs.get(key) != got:
                problems.append(f"{key}: traced run does not reproduce the sweep rows")
        else:
            self.sweep_outputs[key] = got
        return problems

    # -- phases --------------------------------------------------------------

    def measure_setup(self, seed):
        """parse_config + overrides + Simulation(...), initial selections included."""
        from patrolsim import Simulation

        for r in range(SETUP_REPEATS):
            t0 = perf_counter()
            Simulation(build_config(self.wl), seed + r, self.wl.record_series)
            self.setup_s.append(perf_counter() - t0)

    def run_phase(self, tracer, seconds=None, units=None):
        """Run units until `seconds` have passed, or exactly `units` units.

        The untraced phase also times set-up before every unit, so that its
        samples, like the step samples, are spread over the whole run.
        """
        traced = tracer.full
        start = perf_counter()
        k = 0
        with capture_batches(self._batch), tracer:
            while (k < units) if units is not None else (
                    k == 0 or perf_counter() - start < seconds):
                if not traced:
                    self.measure_setup(self.unit_seed(k))
                results, rows, wall = self.run_unit(k)
                tracer.collect_children()
                if not traced:
                    self.unit_trials += len(results)
                    self.unit_wall += wall
                self.check_unit(results, rows, traced)
                k += 1
        return k


def pct(values, q):
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def end_to_end(bench, tracer):
    steps, trial_of_step = tracer.calls("scenario.step")
    trial_ns = tracer.calls("scenario.run_trial")[0]
    # The tail is taken per mission (1,500 steps, so 15 beyond each p99) and
    # the median over missions reported, so that a burst of load from outside
    # the benchmark moves one mission's p99, not the run's.
    p99s = [pct(steps[trial_of_step == t], 99) for t in np.unique(trial_of_step)]
    # this process plus the largest pool worker it has waited for
    rss_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
              + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return {
        "step_us_p50": (pct(steps, 50) / 1e3, "us", len(steps)),
        "step_us_p99": (statistics.median(p99s) / 1e3, "us", len(steps)),
        "steps_per_s": (len(steps) / (trial_ns.sum() / 1e9), "1/s", len(trial_ns)),
        "trials_per_s": (bench.unit_trials / bench.unit_wall, "1/s", bench.unit_trials),
        "setup_s": (statistics.median(bench.setup_s), "s", len(bench.setup_s)),
        "write_s": (statistics.median(bench.write_s), "s", len(bench.write_s)),
        "verify_s": (statistics.median(bench.verify_s), "s", len(bench.verify_s)),
        "peak_rss_mb": (rss_kb / 1024.0, "MB", 1),
    }


def per_layer(bench, tracer, untraced_p50):
    from spans import BYTES_PER_ENTRY

    t = tracer.totals()
    c = tracer.counts
    steps = t["scenario.step"][0]
    traced_p50 = pct(tracer.calls("scenario.step")[0], 50) / 1e3

    def per_step(span, own=False):
        return t[span][2 if own else 1] / steps / 1e3

    def per_call(span, scale=1e3):
        calls, total, _ = t[span]
        return total / calls / scale if calls else 0.0

    def ratio(num, den):
        return c.get(num, 0) / c[den] if c.get(den) else 0.0

    batch_calls, batch_ns, _ = t["scenario.run_batch"]
    trial_ns = t["scenario.run_trial"][1]
    selections = sum(t[s][0] for s in ("strategy.select_patrol_target",
                                       "strategy.er_select", "strategy.random_select"))
    us = "us"
    m = {
        "scenario.step.self_us": (per_step("scenario.step", own=True), us),
        "scenario.run_batch.s": (per_call("scenario.run_batch", 1e9), "s"),
        "scenario.pool_overhead_frac": (
            1.0 - trial_ns / (bench.wl.workers * batch_ns) if batch_calls else 0.0, "ratio"),
        "comms.deliver.us_per_step": (per_step("comms.deliver"), us),
        "comms.compute_connectivity.us_per_step": (per_step("comms.compute_connectivity"), us),
        "comms.truncate_knowledge.us_per_step": (per_step("comms.truncate_knowledge"), us),
        "comms.envelopes_per_step": (c.get("comms.envelopes", 0) / steps, "count"),
        "comms.entries_per_step": (c.get("comms.entries", 0) / steps, "count"),
        "comms.bytes_per_step_computed": (
            c.get("comms.entries", 0) * BYTES_PER_ENTRY / steps, "B"),
        "knowledge.merge_received.self_us_per_step": (
            per_step("knowledge.merge_received", own=True), us),
        "knowledge.adopt_ratio": (ratio("knowledge.adopted", "knowledge.received"), "ratio"),
        "kernels.top_s.us_per_step": (per_step("kernels.top_s"), us),
        "kernels.merge_slice.us_per_step": (per_step("kernels.merge_slice"), us),
        "kernels.completions.us_per_step": (per_step("kernels.completions"), us),
        "kernels.utilities.us_per_step": (per_step("kernels.utilities"), us),
        "world.advance_time.us_per_step": (per_step("world.advance_time"), us),
        "world.detect_patrol_completions.self_us_per_step": (
            per_step("world.detect_patrol_completions", own=True), us),
        "world.completion_hit_ratio": (ratio("world.events", "world.pairs"), "ratio"),
        "strategy.select_patrol_target.us_per_call": (
            per_call("strategy.select_patrol_target"), us),
        "strategy.er_select.us_per_call": (per_call("strategy.er_select"), us),
        "strategy.selections_per_step": (selections / steps, "count"),
        "strategy.candidates_per_call": (
            c.get("strategy.candidates", 0) / selections if selections else 0.0, "count"),
        "priority.update_report_priority.us_per_step": (
            per_step("priority.update_report_priority"), us),
        "motion.step_toward.us_per_step": (per_step("motion.step_toward"), us),
        "metrics.sample_instantaneous.us_per_step": (
            per_step("metrics.sample_instantaneous"), us),
        "export.write_run_artifacts.s": (per_call("export.write_run_artifacts", 1e9), "s"),
        "export.replay_events.s": (per_call("export.replay_events", 1e9), "s"),
        "export.artifact_bytes": (
            c.get("export.bytes", 0) / max(t["export.write_run_artifacts"][0], 1), "B"),
        "trace.spans_per_step": (sum(v[0] for v in t.values()) / steps, "count"),
        "trace.overhead_step_us_p50": (traced_p50 - untraced_p50, us),
    }
    return {k: (v, unit, steps) for k, (v, unit) in m.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or (args.seconds is not None and args.seconds <= 0):
        ap.error("--seed must be >= 0 and --seconds > 0")
    wl = WORKLOADS[args.workload]

    needed = [ROOT / "src" / "patrolsim" / "__init__.py", ROOT / "BENCHMARK.json",
              ROOT / wl.config, PINS]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"perfbench: not a patrolsim checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import patrolsim
    from spans import Tracer

    if Path(patrolsim.__file__).resolve().parent != ROOT / "src" / "patrolsim":
        print(f"perfbench: imported patrolsim from {patrolsim.__file__}, "
              "not from this checkout", file=sys.stderr)
        return 2
    if wl.sweep and multiprocessing.get_start_method() != "fork":
        print("perfbench: pool workers must be forked to inherit the span wrappers",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    pins = json.loads(PINS.read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]

    OUT.mkdir(exist_ok=True)
    child_dir = OUT / "children"
    shutil.rmtree(child_dir, ignore_errors=True)
    child_dir.mkdir()
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    bench = Bench(wl, args.seed, pins)

    core = Tracer(child_dir, full=False)
    if args.trace:
        units = bench.run_phase(core, units=wl.traced_units)
    else:
        units = bench.run_phase(core, seconds=args.seconds)
    e2e = end_to_end(bench, core)
    if args.trace:
        full = Tracer(child_dir, full=True)
        bench.run_phase(full, units=units)
        full.save(OUT / f"spans-{wl.name}.npz")  # latest traced run only
        measured = per_layer(bench, full, e2e["step_us_p50"][0])
        wanted = spec["per_layer"]
    else:
        measured = e2e
        wanted = spec["end_to_end"]
    shutil.rmtree(child_dir, ignore_errors=True)

    metrics = {}
    for entry in wanted:
        value, unit, _ = measured[entry["name"]]
        if unit != entry["unit"]:
            raise SystemExit(f"perfbench: {entry['name']} is measured in {unit}, "
                             f"BENCHMARK.json says {entry['unit']}")
        metrics[entry["name"]] = {"value": value, "unit": unit}

    for name, (value, unit, n) in {**e2e, **measured}.items():
        print(f"{wl.name:>14} {name:<48} {value:>14.6g} {unit:<6} n={n}")
    print(f"{wl.name:>14} {'failed_frac':<48} {bench.failed / bench.attempted:>14.6g} "
          f"ratio  n={bench.attempted}")
    for problem in bench.problems:
        print(f"perfbench: CHECK FAILED: {problem}", file=sys.stderr)

    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "units": units,
        "unit_seeds": [bench.unit_seed(k) for k in range(units)],
        "config": dataclasses.asdict(bench.config), "workload_def": dataclasses.asdict(wl),
        "environment": environment(),
        "end_to_end": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in e2e.items()},
        "per_layer": ({k: {"value": v, "unit": u, "steps": n} for k, (v, u, n) in measured.items()}
                      if args.trace else None),
        "outputs": bench.outputs, "attempted": bench.attempted, "failed": bench.failed,
        "problems": bench.problems,
        "moves": [dict(zip(("layer", "end_to_end", "workloads", "note"), row)) for row in MOVES],
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    correct = not bench.problems
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
