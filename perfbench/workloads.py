"""The benchmark's workloads, its run environment, and the table that says
which per-layer metric should move which end-to-end metric on which workload.

Every workload starts from a shipped config file and changes only the fields
listed in its overrides; the simulator receives that config and a seed.
Missions are shortened from the paper's 43,200 steps to 1,500 so that many
missions fit in one measured run: set-up, write and verify are timed between
missions, so more missions spread their samples over more of the run.
"""

import dataclasses
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    config: str                 # config file, relative to the checkout root
    overrides: dict
    record_series: bool = True
    sweep: tuple = ()           # (etas, p_maxes, sigmas) of a parameter sweep
    trials: int = 1             # seeds per sweep point
    workers: int = 1            # parameter_sweep worker processes
    traced_units: int = 1       # units a --trace 1 run measures, untraced then traced


WORKLOADS = {w.name: w for w in (
    # The paper's headline configuration: full-bandwidth gossip (s = K = 400),
    # so merge and top-s truncation dominate and an s >= K shortcut applies.
    Workload(
        name="paper-n10",
        config="configs/swarm10.cfg",
        overrides=dict(mission_steps=1500, warmup_t0=500),
        traced_units=8,
    ),
    # Same layers used differently: N^2 links carrying 8-entry slices, `er`
    # scoring all K cells without alpha, and 5 robots that fail and recover
    # inside the mission. Bypasses the s >= K shortcut and the lr-pt ball.
    Workload(
        name="narrow-er-n15",
        config="configs/swarm15.cfg",
        overrides=dict(mission_steps=1500, warmup_t0=500, bandwidth_s=8,
                       strategy="er", fail_fraction=0.3, fail_at=500,
                       recover_at=1000),
        traced_units=5,
    ),
    # The tuning path users run: a 2x2x1 (eta, p_max, sigma) grid with 2 seeds
    # per point on 2 worker processes. At N=5 per-step Python overhead and
    # process-pool start-up outweigh the N^2 and K work.
    Workload(
        name="sweep-n5",
        config="configs/swarm5.cfg",
        overrides=dict(mission_steps=1500, warmup_t0=500),
        record_series=False,
        sweep=((0.40, 0.55), (703.0, 1088.0), (356.0,)),
        trials=2,
        workers=2,
        traced_units=4,
    ),
)}


def build_config(workload):
    """parse_config of the shipped file, then the workload's overrides."""
    from patrolsim import parse_config

    config = parse_config(ROOT / workload.config)
    return dataclasses.replace(config, **workload.overrides).validate()


# (per-layer metric, end-to-end metric it should move, workloads, note).
# Later changes cite these rows by name when they claim a gain.
MOVES = (
    ("scenario.step.self_us", "trials_per_s", ("sweep-n5",), "per-step Python overhead"),
    ("scenario.step.self_us", "step_us_p50", ("paper-n10",), ""),
    ("scenario.run_batch.s", "trials_per_s", ("sweep-n5",), "pool start-up per grid point"),
    ("scenario.pool_overhead_frac", "trials_per_s", ("sweep-n5",), "lockstep trial batching shows here only"),
    ("comms.truncate_knowledge.us_per_step", "step_us_p50", ("paper-n10",), "s >= K top-s skip"),
    ("comms.deliver.us_per_step", "step_us_p50", ("narrow-er-n15",), "many small envelopes"),
    ("comms.compute_connectivity.us_per_step", "step_us_p50", ("narrow-er-n15",), "N^2 links"),
    ("comms.envelopes_per_step", "", (), "count; repeats exactly per seed"),
    ("comms.entries_per_step", "", (), "count; repeats exactly per seed"),
    ("comms.bytes_per_step_computed", "", (), "entries x 24 B, computed, not measured"),
    ("knowledge.merge_received.self_us_per_step", "step_us_p50", ("narrow-er-n15", "paper-n10"), "first narrow, then paper"),
    ("knowledge.adopt_ratio", "step_us_p50", ("narrow-er-n15", "paper-n10"), "share of merge work not wasted"),
    ("kernels.top_s.us_per_step", "step_us_p50", ("paper-n10",), "child of truncate_knowledge"),
    ("kernels.merge_slice.us_per_step", "step_us_p50", ("narrow-er-n15", "paper-n10"), "child of merge_received"),
    ("kernels.completions.us_per_step", "step_us_p50", ("paper-n10", "narrow-er-n15"), "child of detect_patrol_completions"),
    ("kernels.utilities.us_per_step", "step_us_p99", ("paper-n10", "narrow-er-n15"), "child of target selection"),
    ("world.detect_patrol_completions.self_us_per_step", "step_us_p50", ("paper-n10", "narrow-er-n15"), "dense N x K check"),
    ("world.completion_hit_ratio", "step_us_p50", ("paper-n10", "narrow-er-n15"), "events per robot-cell pair checked"),
    ("strategy.select_patrol_target.us_per_call", "step_us_p99", ("paper-n10",), "re-selection steps form the tail"),
    ("strategy.er_select.us_per_call", "step_us_p99", ("narrow-er-n15",), "scores all K cells"),
    ("strategy.selections_per_step", "step_us_p99", ("paper-n10", "narrow-er-n15"), "count; repeats exactly per seed"),
    ("strategy.candidates_per_call", "step_us_p99", ("paper-n10", "narrow-er-n15"), ""),
    ("priority.update_report_priority.us_per_step", "step_us_p50", ("narrow-er-n15",), "per-robot loop"),
    ("motion.step_toward.us_per_step", "step_us_p50", ("narrow-er-n15",), "per-robot loop"),
    ("metrics.sample_instantaneous.us_per_step", "step_us_p50", ("narrow-er-n15",), "per-robot loop"),
    ("export.write_run_artifacts.s", "write_s", ("paper-n10",), ""),
    ("export.replay_events.s", "verify_s", ("paper-n10",), ""),
    ("export.artifact_bytes", "write_s", ("paper-n10",), ""),
)


def _git_commit():
    """HEAD of the checkout when it is a git repository, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def numpy_build():
    """The numpy facts that decide last-ulp float64 results."""
    import numpy as np
    from numpy._core import _multiarray_umath as umath

    dispatch = list(umath.__cpu_dispatch__)
    return {
        "numpy": np.__version__,
        "cpu_baseline": list(umath.__cpu_baseline__),
        "cpu_dispatch": dispatch,
        "cpu_dispatch_active": [f for f in dispatch if umath.__cpu_features__.get(f)],
    }


def environment():
    import multiprocessing

    return {
        "git_commit": _git_commit(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "start_method": multiprocessing.get_start_method(),
        **numpy_build(),
    }
