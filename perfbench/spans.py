"""Spans around patrolsim's public functions, installed from outside the package.

A wrapper replaces a function at the name where its callers look it up:
`scenario` binds the comms, motion, priority and world functions by
from-import, so those are replaced in `scenario`'s namespace; `knowledge.*`,
`metrics.*`, `strategy.*` and `kernels.*` are reached through the module
attribute, so they are replaced on their own module. Each call records one
span (name, parent, start, end) into in-memory arrays; self times and
per-name totals are computed once, after the run.

Pool workers are forked, so they inherit the wrappers. A fork hook empties
the inherited buffers in the child, and the child writes its spans to a file
after every `run_trial`; `collect_children` merges those files back.
"""

import functools
import os
from array import array
from pathlib import Path
from time import perf_counter_ns

import numpy as np

# The untraced run keeps only these spans: the step timer the end-to-end
# metrics need and the calls that own trials and pools.
CORE = ("scenario.step", "scenario.run_trial", "scenario.run_batch",
        "scenario.parameter_sweep")

BYTES_PER_ENTRY = 24  # grid, idleness and update time, int64 each


def _add(counts, key, value):
    counts[key] = counts.get(key, 0) + value


class Tracer:
    """Installs wrappers on enter and removes them on exit.

    With `full=False` only the CORE spans are recorded.
    """

    def __init__(self, child_dir, full):
        self.child_dir = Path(child_dir)
        self.full = full
        self.names = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = []
        self.counts = {}
        self._patches = []
        self._owner_pid = os.getpid()
        self._flushes = 0
        os.register_at_fork(after_in_child=self._after_fork)

    # -- recording ---------------------------------------------------------

    def _wrap(self, span, fn, before=None, after=None):
        """`before(*args)` and `after(state, out, *args)` run outside the span;
        patrolsim passes the arguments they read positionally."""
        nid = len(self.names)
        self.names.append(span)
        names, parents, starts, ends, stack = (
            self.name, self.parent, self.start, self.end, self.stack)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = before(*args) if before else None
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if after:
                after(state, out, *args)
            return out

        return traced

    def _patch(self, owner, attr, span, before=None, after=None):
        if not self.full and span not in CORE:
            return
        orig = getattr(owner, attr)
        setattr(owner, attr, self._wrap(span, orig, before, after))
        self._patches.append((owner, attr, orig))

    def __enter__(self):
        from patrolsim import export, kernels, knowledge, metrics, scenario, strategy

        c = self.counts
        p = self._patch

        def delivered(_, inboxes, *args):
            _add(c, "comms.envelopes", sum(len(box) for box in inboxes))
            _add(c, "comms.entries",
                 sum(len(env.slice_grids) for box in inboxes for env in box))

        def utime_before(assumed, utime, inbox, K):
            return utime.copy()

        def merged(before, _, assumed, utime, inbox, K):
            _add(c, "knowledge.adopted", int(np.count_nonzero(utime != before)))
            _add(c, "knowledge.received", sum(len(env.slice_grids) for env in inbox))

        def completions(_, events, world, grid_map, positions, *args):
            _add(c, "world.events", len(events))
            _add(c, "world.pairs", len(positions) * grid_map.K)

        def scored(_, util, *args):
            _add(c, "strategy.candidates", len(util))

        def written(_, paths, *args):
            _add(c, "export.bytes", sum(path.stat().st_size for path in paths))

        def trial_done(*_):
            if os.getpid() != self._owner_pid:
                self._flush_child()

        p(scenario.Simulation, "step", "scenario.step")
        p(scenario, "run_trial", "scenario.run_trial", after=trial_done)
        p(scenario, "run_batch", "scenario.run_batch")
        p(scenario, "parameter_sweep", "scenario.parameter_sweep")
        # from-imported into scenario
        p(scenario, "advance_time", "world.advance_time")
        p(scenario, "deliver", "comms.deliver", after=delivered)
        p(scenario, "compute_connectivity", "comms.compute_connectivity")
        p(scenario, "truncate_knowledge", "comms.truncate_knowledge")
        p(scenario, "update_report_priority", "priority.update_report_priority")
        p(scenario, "step_toward", "motion.step_toward")
        p(scenario, "holonomic_step", "motion.holonomic_step")
        p(scenario, "detect_patrol_completions", "world.detect_patrol_completions",
          after=completions)
        # reached through the module attribute
        p(knowledge, "merge_received", "knowledge.merge_received",
          before=utime_before, after=merged)
        p(knowledge, "record_patrol", "knowledge.record_patrol")
        p(metrics, "sample_instantaneous", "metrics.sample_instantaneous")
        p(metrics, "record_visit", "metrics.record_visit")
        p(strategy, "select_patrol_target", "strategy.select_patrol_target")
        p(strategy, "er_select", "strategy.er_select")
        p(strategy, "random_select", "strategy.random_select")
        p(kernels, "top_s", "kernels.top_s")
        p(kernels, "merge_slice", "kernels.merge_slice")
        p(kernels, "completions", "kernels.completions")
        p(kernels, "utilities", "kernels.utilities", after=scored)
        p(export, "write_run_artifacts", "export.write_run_artifacts", after=written)
        p(export, "verify_artifacts", "export.verify_artifacts")
        p(export, "read_events", "export.read_events")
        p(export, "replay_events", "export.replay_events")
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- pool workers ------------------------------------------------------

    def _clear(self):
        for buf in (self.name, self.parent, self.start, self.end):
            del buf[:]
        self.stack.clear()
        self.counts.clear()

    def _after_fork(self):
        if self._patches:
            self._clear()

    def _flush_child(self):
        self._flushes += 1
        path = self.child_dir / f"child-{os.getpid()}-{self._flushes}.npz"
        keys = sorted(self.counts)
        np.savez(path, names=np.array(self.names), **self._arrays(),
                 count_keys=np.array(keys, dtype=str),
                 count_values=np.array([self.counts[k] for k in keys], dtype=np.int64))
        self._clear()

    def collect_children(self):
        """Merge and delete the span files pool workers wrote."""
        for path in sorted(self.child_dir.glob("child-*.npz")):
            with np.load(path) as f:
                remap = np.array([self.names.index(n) for n in f["names"]], dtype=np.int32)
                offset = len(self.start)
                parent = f["parent"]
                self.name.extend(remap[f["name"]].tolist())
                self.parent.extend(np.where(parent >= 0, parent + offset, -1).tolist())
                self.start.extend(f["start"].tolist())
                self.end.extend(f["end"].tolist())
                for key, value in zip(f["count_keys"].tolist(), f["count_values"].tolist()):
                    _add(self.counts, key, value)
            path.unlink()

    # -- results -----------------------------------------------------------

    def _arrays(self):
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64).copy(),
        }

    def save(self, path):
        np.savez(path, names=np.array(self.names), **self._arrays())

    def calls(self, span):
        """(duration ns, parent span index) of every call of `span`."""
        a = self._arrays()
        mine = a["name"] == self.names.index(span)
        return (a["end"] - a["start"])[mine], a["parent"][mine]

    def totals(self):
        """{span: (calls, total ns, self ns)}; self = duration minus children."""
        a = self._arrays()
        n = len(self.names)
        dur = (a["end"] - a["start"]).astype(np.float64)
        has_parent = a["parent"] >= 0
        children = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                               minlength=len(dur))
        calls = np.bincount(a["name"], minlength=n)
        total = np.bincount(a["name"], weights=dur, minlength=n)
        own = np.bincount(a["name"], weights=dur - children, minlength=n)
        return {span: (int(calls[i]), float(total[i]), float(own[i]))
                for i, span in enumerate(self.names)}
