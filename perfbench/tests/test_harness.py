"""Oracles, seeds and the command line of the benchmark."""

import json
import os
import shutil
import subprocess
import sys

import layers
import run
import workloads
from workloads import JAMES, TORSION, Task, Workload

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


def _error_rate(workload, inputs):
    passes = run.Passes()
    passes.add(0.0, run.run_pass(workload, inputs))
    return len(passes.failures) / passes.attempted, passes


def test_wrong_oracle_gives_nonzero_error_rate():
    inputs = JAMES.setup(1, None)
    wedge = JAMES.tasks[0]

    def boom(inp, st):
        raise RuntimeError("guard")

    wrong = Task(
        "wedge_window5_wrong_oracle",
        wedge.run,
        # deliberately wrong: the wedge's James construction is contractible
        workloads.expect_james(workloads.WEDGE5_CELLS, workloads.free_groups([1, 1])),
    )
    control = Workload("control", JAMES.setup, (Task("raises", boom, wedge.check), wrong, wedge), True)
    rate, passes = _error_rate(control, inputs)
    assert passes.attempted == 3
    assert rate == 2 / 3
    assert passes.failures[0].startswith("raises: raised RuntimeError")
    assert "homology" in passes.failures[1]


def test_seeds_give_identical_answers():
    for workload in (JAMES, TORSION):
        answers = []
        for seed in (1, 2):
            rate, passes = _error_rate(workload, workload.setup(seed, None))
            assert rate == 0, passes.failures
            answers.append(passes.counts)
        assert answers[0] == answers[1]


def test_seed_changes_the_labels():
    a = JAMES.setup(1, None)["wedge"][0]
    b = JAMES.setup(2, None)["wedge"][0]
    assert sorted(a.cells) == sorted(b.cells)
    assert a.faces != b.faces


def test_universal_coefficient_oracle():
    total = lambda k: sum(m for _, tors in workloads.rp2_power_homology(k) for _, m in tors)
    assert total(7) == 1093 and total(3) == 13


def test_tail_percentile():
    assert run.tail_percentile(list(range(10))) is None
    assert run.tail_percentile(list(range(20))) == {"pct": 50.0, "value": 9}


def test_benchmark_json_names_what_the_harness_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (m.name, m.unit) for m in layers.METRICS
    ]
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_ref", "setup_s", "peak_rss_mb"}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "james", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert child.returncode != 0
    assert '"correct"' not in child.stdout


def test_sampler_times_slices_and_restores_the_timer():
    import signal
    from time import perf_counter

    import speed

    def previous(signum, frame):
        pass

    old = signal.signal(signal.SIGALRM, previous)
    try:
        with speed.Sampler() as sampler:
            t0 = perf_counter()
            while perf_counter() - t0 < 5 * speed.PERIOD:
                speed.reference_work(100)
        assert len(sampler.slices) >= 2
        assert signal.getsignal(signal.SIGALRM) is previous
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
        assert sampler.mean() == sum(sampler.slices) / len(sampler.slices)
    finally:
        signal.signal(signal.SIGALRM, old)
    assert speed.Sampler().mean() > 0  # too short for the timer: one slice now
