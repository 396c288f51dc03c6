#!/usr/bin/env python3
"""Benchmark of cubeworks.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; cubeworks is imported from its
`src/` directory and nowhere else.  One process runs one workload, single
threaded, as a closed loop with one client: a pass over the workload's task
list starts only after the previous one finished, and passes continue while
the next one is expected to end within `--seconds` (at least one pass).

With `--trace 0` the last line of output reports the end-to-end metrics:
`wall_ref`, the median pass time in units of a reference slice timed
during the pass (see `speed`; the raw seconds are in the context line),
`setup_s` and `peak_rss_mb`.  With `--trace 1` half of the time
runs untraced and half traced, and the last line reports the per-layer
metrics of `layers.METRICS`; the spans are written to
`.bench_out/trace-<workload>-<seed>.json`.  The line before it holds the
run context: commit, Python version, nproc, seed, pass count, per-pass
times, exact counts and failures.  `failed / attempted` is the error rate.

Tests of the harness itself: `python3 -m pytest perfbench/tests`.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 7


def _use_checkout_source():
    """Put the checkout's `src/` first on the path; refuse to run without it."""
    if not os.path.isfile(os.path.join(SRC, "cubeworks", "__init__.py")):
        sys.exit(f"error: no cubeworks sources under {SRC}")
    sys.path.insert(0, SRC)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


# -- passes -----------------------------------------------------------------------


def run_pass(workload, inputs, recorder=None) -> list:
    """Run every task once.  A task that raises (a guard trip included) or
    whose answer its oracle rejects is a failure; the pass goes on."""
    state = {}
    outcomes = []
    for task in workload.tasks:
        span = recorder.open(task.name, "task") if recorder else None
        try:
            answer = task.run(inputs, state)
            problem = task.check(answer)
        except Exception as exc:  # counted as a failed task, not an abort
            answer, problem = None, f"raised {type(exc).__name__}: {exc}"
        finally:
            if recorder:
                recorder.close(span)
        counts = answer["counts"] if answer else None
        outcomes.append({"task": task.name, "problem": problem, "counts": counts})
    return outcomes


class Passes:
    """Pass times, outcomes and failures of one mode (traced or not)."""

    def __init__(self):
        self.seconds = []
        self.attempted = 0
        self.failures = []
        self.counts = None
        self.per_pass = []

    def add(self, seconds, outcomes, extra=None):
        self.seconds.append(seconds)
        self.attempted += len(outcomes)
        counts = {o["task"]: o["counts"] for o in outcomes}
        if self.counts is None:
            self.counts = counts
        for o in outcomes:
            if o["problem"]:
                self.failures.append(f"{o['task']}: {o['problem']}")
            elif counts[o["task"]] != self.counts[o["task"]]:
                self.failures.append(f"{o['task']}: output changed between passes")
        if extra is not None:
            self.per_pass.append(extra)


def loop(budget, one_pass):
    """Closed loop: start a pass while the next one, expected to take as
    long as the median pass so far, would end within the budget."""
    start = perf_counter()
    times = []
    while True:
        gc.collect()
        t0 = perf_counter()
        one_pass()
        times.append(perf_counter() - t0)
        if perf_counter() - start + statistics.median(times) > budget:
            return


def untraced(workload, inputs, budget, sample: bool) -> Passes:
    """Passes without tracing.  With `sample`, the machine's speed is
    sampled during each pass (see `speed`): the pass time excludes the
    slices, and `per_pass` holds the pass time in reference units."""
    out = Passes()

    def one():
        if not sample:
            t0 = perf_counter()
            outcomes = run_pass(workload, inputs)
            out.add(perf_counter() - t0, outcomes)
            return
        with speed.Sampler() as sampler:
            t0 = perf_counter()
            outcomes = run_pass(workload, inputs)
            wall = perf_counter() - t0
        net = wall - sum(sampler.slices)
        out.add(net, outcomes, {"ref": net / sampler.mean(), "slice_s": sampler.mean()})

    loop(budget, one)
    return out


def traced(workload, inputs, budget, workloads_module):
    import layers
    import tracer

    out = Passes()
    spans = []
    unrestored = []

    def one():
        recorder = tracer.Recorder()
        with tracer.traced(
            layers.TARGETS, recorder, layers.PACKAGE, extra=(workloads_module,)
        ) as patches:
            t0 = perf_counter()
            outcomes = run_pass(workload, inputs, recorder)
            wall = perf_counter() - t0
        unrestored.extend(patches.unrestored())
        metrics = layers.pass_metrics(recorder.spans, recorder.counts, wall)
        out.add(wall, outcomes, {"metrics": metrics, "dense": layers.dense_shapes(recorder.spans)})
        spans.append(recorder.spans)

    loop(budget, one)
    return out, spans, unrestored


# -- reporting --------------------------------------------------------------------


def tail_percentile(samples):
    """The highest percentile with at least ten samples above it, or None."""
    n = len(samples)
    if n < 11:
        return None
    ordered = sorted(samples)
    return {"pct": round(100 * (n - 10) / n, 1), "value": ordered[n - 11]}


def setup_seconds(args) -> list:
    """Set-up time of fresh processes: importing cubeworks and building the
    workload's inputs, measured inside each child."""
    out = []
    for _ in range(SETUP_PROBES):
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if child.returncode != 0:
            sys.exit(f"error: set-up probe failed: {child.stderr.strip()}")
        out.append(float(child.stdout.split()[-1]))
    return out


def source_identity() -> dict:
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "cubeworks")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for f in sorted(filenames):
            if f.endswith(".py"):
                path = os.path.join(dirpath, f)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    args = _parse(argv)
    _use_checkout_source()
    t0 = perf_counter()
    import workloads  # imports cubeworks

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    scratch_root = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(scratch_root, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch_root)
    try:
        inputs = workload.setup(args.seed, scratch)
        if args.setup_probe:
            print(perf_counter() - t0)
            return 0
        import cubeworks

        if os.path.dirname(os.path.dirname(os.path.abspath(cubeworks.__file__))) != SRC:
            sys.exit(f"error: cubeworks imported from {cubeworks.__file__}, not {SRC}")
        return report(args, workload, inputs, workloads)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(scratch_root)
        except OSError:
            pass  # another run still uses it


def report(args, workload, inputs, workloads_module):
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seed_used": workload.uses_seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        **source_identity(),
    }
    if args.trace:
        plain = untraced(workload, inputs, args.seconds / 2, sample=False)
        runs, spans, unrestored = traced(workload, inputs, args.seconds / 2, workloads_module)
        medians = {
            name: statistics.median(p["metrics"][name] for p in runs.per_pass)
            for name in runs.per_pass[0]["metrics"]
        }
        medians["trace.overhead_s"] = (
            statistics.median(runs.seconds) - statistics.median(plain.seconds)
        )
        import layers

        metrics = {m.name: _metric(medians[m.name], m.unit) for m in layers.METRICS}
        failures = plain.failures + runs.failures
        attempted = plain.attempted + runs.attempted
        context.update(
            passes={"untraced": len(plain.seconds), "traced": len(runs.seconds)},
            pass_seconds={"untraced": plain.seconds, "traced": runs.seconds},
            dense_snf_shapes=runs.per_pass[0]["dense"],
            left_patched=unrestored,
            counts=runs.counts,
        )
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.json"), "w") as fh:
            json.dump({"passes": [[s[:5] for s in p] for p in spans]}, fh)
    else:
        setups = setup_seconds(args)
        plain = untraced(workload, inputs, args.seconds, sample=True)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "wall_ref": _metric(statistics.median(p["ref"] for p in plain.per_pass), "ref"),
            "setup_s": _metric(statistics.median(setups), "s"),
            "peak_rss_mb": _metric(rss_mb, "MB"),
        }
        failures = plain.failures
        attempted = plain.attempted
        unrestored = []
        context.update(
            passes=len(plain.seconds),
            pass_seconds=plain.seconds,
            wall_s=statistics.median(plain.seconds),
            wall_tail=tail_percentile(plain.seconds),
            pass_ref=[p["ref"] for p in plain.per_pass],
            slice_s=[p["slice_s"] for p in plain.per_pass],
            setup_seconds=setups,

            counts=plain.counts,
        )
    failed = len(failures)
    context.update(error_rate=failed / attempted, failures=failures)
    print(json.dumps({"context": context}, default=str))
    print(json.dumps({
        "correct": failed == 0 and not unrestored,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
