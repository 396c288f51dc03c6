"""The layers that the benchmark harness traces must exist in the package:
a traced name that a refactor deletes fails here, not in a traced run."""

import importlib
import importlib.util
import inspect
import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _targets(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)  # layers.py imports tracer.py by name
    spec = importlib.util.spec_from_file_location("bench_layers", os.path.join(PERFBENCH, "layers.py"))
    layers = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, layers)
    spec.loader.exec_module(layers)
    return layers.TARGETS


def _resolves(module: str, qualname: str) -> bool:
    """Whether the tracer can wrap the name: a module-level function, or a
    method defined on its class itself."""
    mod = importlib.import_module(module)
    if "." in qualname:
        owner, attr = qualname.split(".")
        return attr in vars(getattr(mod, owner))
    return inspect.isfunction(getattr(mod, qualname, None))


def test_every_traced_target_resolves(monkeypatch):
    targets = _targets(monkeypatch)
    assert targets
    missing = [f"{t.module}.{t.qualname}" for t in targets if not _resolves(t.module, t.qualname)]
    assert missing == []


# an inherited method lives on the base class, where the tracer would not look
@pytest.mark.parametrize("qualname", ["nowhere", "CubicalSet.degenerate"])
def test_a_name_the_tracer_cannot_wrap_is_caught(qualname):
    assert not _resolves("cubeworks.cubical", qualname)
