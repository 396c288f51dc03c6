"""The tracer on a synthetic call tree and on the real layer targets."""

import sys
import time
import types

import pytest

import layers
import tracer
from tracer import END, NAME, PARENT, START, Recorder, Target, self_times


def _fake_package(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    core = types.ModuleType("fakepkg.core")
    user = types.ModuleType("fakepkg.user")

    def inner():
        time.sleep(0.01)
        return 1

    def middle():
        time.sleep(0.005)
        return core.inner() + user.inner()

    def outer():
        time.sleep(0.005)
        return core.middle() + core.middle()

    class Thing:
        def act(self):
            return core.inner()

    core.inner, core.middle, core.outer, core.Thing = inner, middle, outer, Thing
    user.inner = inner  # imported by name elsewhere
    for name, mod in (("fakepkg", pkg), ("fakepkg.core", core), ("fakepkg.user", user)):
        monkeypatch.setitem(sys.modules, name, mod)
    return core, user


TARGETS = [
    Target("fakepkg.core", "outer", "core.outer"),
    Target("fakepkg.core", "middle", "core.middle"),
    Target("fakepkg.core", "inner", "core.inner"),
    Target("fakepkg.core", "Thing.act", "core.Thing.act", span=False),
]


def test_self_time_is_duration_minus_children(monkeypatch):
    core, user = _fake_package(monkeypatch)
    rec = Recorder()
    with tracer.traced(TARGETS, rec, "fakepkg"):
        task = rec.open("task", "task")
        assert core.outer() == 4
        rec.close(task)
    names = [s[NAME] for s in rec.spans]
    assert names.count("core.middle") == 2
    assert names.count("core.inner") == 4  # both names of inner are wrapped
    own = self_times(rec.spans)
    for i, s in enumerate(rec.spans):
        children = [c for c in rec.spans if c[PARENT] == i]
        want = (s[END] - s[START]) - sum(c[END] - c[START] for c in children)
        assert own[i] == pytest.approx(want, abs=1e-12)
        assert 0 <= own[i] <= s[END] - s[START]
    outer = names.index("core.outer")
    assert own[outer] >= 0.005
    assert own[outer] < 0.01 + 0.005  # the children's 0.05 s is not counted
    assert rec.spans[names.index("task")][PARENT] == -1
    assert rec.spans[outer][PARENT] == names.index("task")


def test_counts_and_restore(monkeypatch):
    core, user = _fake_package(monkeypatch)
    originals = {
        "inner": core.inner, "middle": core.middle, "outer": core.outer,
        "act": core.Thing.__dict__["act"],
    }
    rec = Recorder()
    with tracer.traced(TARGETS, rec, "fakepkg") as patches:
        assert core.inner is not originals["inner"]
        assert user.inner is not originals["inner"]
        core.Thing().act()
        core.Thing().act()
    assert rec.counts == {"core.Thing.act": 2}
    assert patches.unrestored() == []
    assert core.inner is originals["inner"] and user.inner is originals["inner"]
    assert core.middle is originals["middle"] and core.outer is originals["outer"]
    assert core.Thing.__dict__["act"] is originals["act"]


def test_restore_after_exception(monkeypatch):
    core, user = _fake_package(monkeypatch)
    original = core.inner
    with pytest.raises(RuntimeError):
        with tracer.traced(TARGETS, Recorder(), "fakepkg"):
            raise RuntimeError("boom")
    assert core.inner is original and user.inner is original


def test_layer_targets_are_restored():
    import importlib

    from cubeworks.chains import homology, simplicial_chains
    from cubeworks.simplicial import circle

    def current(t):
        module = importlib.import_module(t.module)
        if "." in t.qualname:
            cls, attr = t.qualname.split(".")
            return getattr(module, cls).__dict__[attr]
        return getattr(module, t.qualname)

    before = {t.name: current(t) for t in layers.TARGETS}
    rec = Recorder()
    with tracer.traced(layers.TARGETS, rec, layers.PACKAGE) as patches:
        import cubeworks.chains as chains

        rep = chains.homology(chains.simplicial_chains(circle()))
    assert rep.betti(1) == 1
    assert {s[NAME] for s in rec.spans} >= {
        "chains.homology", "chains.simplicial_chains", "snf.invariant_factors_sparse"
    }
    assert patches.unrestored() == []
    assert {t.name: current(t) for t in layers.TARGETS} == before
    assert homology is chains.homology and simplicial_chains is chains.simplicial_chains
