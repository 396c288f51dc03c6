"""Smoke tests of the scripts under scripts/, run as the README runs them."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", name), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_james_growth_script():
    out = run_script("james_growth.py", "3")
    sections = {block.splitlines()[0]: block for block in out.strip().split("\n\n")}
    wedge = sections["== two wedged intervals =="].splitlines()
    circle = sections["== circle =="].splitlines()
    assert "L=3:" in wedge[3] and wedge[3].endswith("betti(deg<L)=[1, 0, 0]")
    assert "L=3:" in circle[3] and circle[3].endswith("betti(deg<L)=[1, 1, 1]")


def test_kan_survey_script():
    out = run_script("kan_survey.py")
    assert "interval: has unfillable boxes" in out
    assert "point: fills all boxes" in out
