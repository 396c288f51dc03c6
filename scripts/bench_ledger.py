#!/usr/bin/env python3
"""Turn the benchmark harness's output for a parent and a change into one
ledger file.

    python3 scripts/bench_ledger.py --parent P.jsonl --change C.jsonl \\
        --parent-rev REV --change-rev REV --out BENCH_<n>.json

Each input file holds the output lines of any number of runs of
`perfbench/run.py`, untraced (`--trace 0`) and traced (`--trace 1`), and of
`scripts/ladder.py`, one side each; other lines are ignored.  Every run prints a context line and a
metrics line.  A run made outside a git checkout has no commit; it gets its
side's revision.  A run whose commit does not start with its side's
revision is refused.  For each workload and side the ledger keeps:

- the median and quartiles of each end-to-end metric over the untraced
  runs, with the values of every run;
- the per-pass seconds and the per-probe `setup_s` seconds of every
  untraced run;
- failures against tasks attempted, over all runs;
- the exact counts (cells per dimension, homology) of the first run;
- from the traced runs, the median of each per-layer metric and the dense
  Smith-normal-form shapes of the first traced pass.

For each workload it also gives the relative change of each end-to-end
median, change over parent minus one.  The ladder lines of each side are
kept as printed, in order, under `ladder`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys


def read_runs(path, ladder: list) -> list:
    """The (context, result) pairs of the harness runs in one file; its
    ladder lines are appended to ``ladder``."""
    runs = []
    context = None
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line.startswith("{"):
                continue
            try:
                data = json.loads(line)
            except ValueError:
                continue
            if "rung" in data:
                ladder.append(data)
            elif "context" in data:
                context = data["context"]
            elif "metrics" in data and context is not None:
                runs.append((context, data))
                context = None
    return runs


def stamp(runs, rev: str) -> list:
    """The runs of one side, each with its commit: a missing one is filled
    from rev, and a known one must start with it."""
    for context, _ in runs:
        if context.get("commit") is None:
            context["commit"] = rev
        elif not context["commit"].startswith(rev):
            sys.exit(f"error: a run of commit {context['commit']} is not of revision {rev}")
    return runs


def spread(values) -> dict:
    ordered = sorted(values)
    if len(ordered) > 1:
        q1, _, q3 = statistics.quantiles(ordered, n=4, method="inclusive")
    else:
        q1 = q3 = ordered[0]
    return {"median": statistics.median(ordered), "q1": q1, "q3": q3, "values": values}


def summarize(runs) -> dict:
    """One side of one workload."""
    plain = [(c, r) for c, r in runs if not c["trace"]]
    traced = [(c, r) for c, r in runs if c["trace"]]
    out = {
        "src_sha256": sorted({c["src_sha256"] for c, _ in runs}),
        "commit": sorted({str(c["commit"]) for c, _ in runs}),
        "runs": len(plain),
        "traced_runs": len(traced),
        "attempted": sum(r["attempted"] for _, r in runs),
        "failed": sum(r["failed"] for _, r in runs),
        "failures": [f for c, _ in runs for f in c["failures"]],
        "counts": runs[0][0]["counts"],
    }
    if plain:
        names = plain[0][1]["metrics"]
        out["metrics"] = {
            name: {
                "unit": names[name]["unit"],
                **spread([r["metrics"][name]["value"] for _, r in plain]),
            }
            for name in names
        }
        out["pass_seconds"] = [c["pass_seconds"] for c, _ in plain]
        out["setup_seconds"] = [c.get("setup_seconds") for c, _ in plain]
    if traced:
        layers = traced[0][1]["metrics"]
        out["layers"] = {
            name: statistics.median(r["metrics"][name]["value"] for _, r in traced)
            for name in layers
        }
        out["dense_snf_shapes"] = traced[0][0]["dense_snf_shapes"]
    return out


def ledger(parent_runs, change_runs, revs, ladder: dict) -> dict:
    sides = {"parent": parent_runs, "change": change_runs}
    workloads = sorted({c["workload"] for runs in sides.values() for c, _ in runs})
    out = {"schema": "cubeworks-bench-ledger/1", "revs": revs, "workloads": {}}
    if any(ladder.values()):
        out["ladder"] = ladder
    for w in workloads:
        entry = {}
        for side, runs in sides.items():
            mine = [(c, r) for c, r in runs if c["workload"] == w]
            if mine:
                entry[side] = summarize(mine)
        both = [entry[s].get("metrics") for s in sides if s in entry]
        if len(both) == 2 and all(both):
            before, after = both
            entry["relative_change"] = {
                name: after[name]["median"] / before[name]["median"] - 1
                for name in before
                if name in after and before[name]["median"]
            }
        out["workloads"][w] = entry
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", nargs="+", required=True, help="harness output of the parent")
    p.add_argument("--change", nargs="+", required=True, help="harness output of the change")
    p.add_argument("--parent-rev", required=True, help="revision the parent runs measured")
    p.add_argument("--change-rev", required=True, help="revision the change runs measured")
    p.add_argument("--out", required=True, help="ledger file to write")
    args = p.parse_args(argv)
    ladder = {"parent": [], "change": []}
    parent = [run for path in args.parent for run in read_runs(path, ladder["parent"])]
    change = [run for path in args.change for run in read_runs(path, ladder["change"])]
    parent, change = stamp(parent, args.parent_rev), stamp(change, args.change_rev)
    if not parent or not change:
        sys.exit("error: no harness runs found on one side")
    revs = {"parent": args.parent_rev, "change": args.change_rev}
    with open(args.out, "w") as fh:
        json.dump(ledger(parent, change, revs, ladder), fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
