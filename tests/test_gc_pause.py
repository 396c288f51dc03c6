"""The builders run with the cyclic garbage collector paused and hand it
back as they found it."""

import gc
import importlib
import pkgutil

import pytest

import cubeworks
from cubeworks.chains import cubical_chains, homology
from cubeworks.cubical import standard_cube, tensor
from cubeworks.enriched import _build
from cubeworks.errors import GuardError, ValidationError, bulk
from cubeworks.io_json import Workspace
from cubeworks.james import james
from cubeworks.james_compare import localized_E
from cubeworks.simplicial import circle
from cubeworks.triangulate import triangulate
from test_homology import projective_plane

james_module = importlib.import_module("cubeworks.james")
triangulate_module = importlib.import_module("cubeworks.triangulate")

PAUSED = bulk(lambda: None).__code__


@pytest.fixture(autouse=True)
def collector_on():
    assert gc.isenabled()
    yield
    gc.enable()


def _paused_functions() -> set:
    """module.qualname of every function in cubeworks that runs paused."""
    found = set()
    for info in pkgutil.iter_modules(cubeworks.__path__):
        module = importlib.import_module(f"cubeworks.{info.name}")
        values = list(vars(module).values())
        values += [v for c in values if isinstance(c, type) for v in vars(c).values()]
        for f in values:
            if getattr(f, "__code__", None) is PAUSED and f.__module__ == module.__name__:
                found.add(f"{info.name}.{f.__qualname__}")
    return found


def test_exactly_the_builders_are_paused():
    assert _paused_functions() == {
        "chains._cell_chains",
        "chains.homology",
        "cubical.tensor",
        "enriched._build",
        "io_json.Workspace.load",
        "james.james",
        "presented.PresentedSet._derive_faces",
        "triangulate.triangulate",
    }


def test_the_pause_is_lifted_on_return():
    assert bulk(gc.isenabled)() is False
    assert gc.isenabled()


def test_each_builder_hands_the_collector_back(tmp_path):
    square = standard_cube(2)
    ws = Workspace(str(tmp_path / "ws"))
    ws.save("sq", square)
    builds = [
        lambda: james(circle(), "v", 3),
        lambda: tensor(square, square),
        lambda: triangulate(square),
        lambda: cubical_chains(square),
        lambda: homology(cubical_chains(square)),
        lambda: _build(localized_E(), "c", "c", 3),
        lambda: ws.load("sq"),
    ]
    for build in builds:
        build()
        assert gc.isenabled()


def test_a_refused_build_hands_the_collector_back(monkeypatch, tmp_path):
    monkeypatch.setattr(james_module, "CELL_BUDGET", 17)
    with pytest.raises(GuardError):
        james(circle(), "v", 3)
    assert gc.isenabled()
    with pytest.raises(ValidationError):
        Workspace(str(tmp_path / "ws")).load("nothing")
    assert gc.isenabled()


def test_a_caller_pause_is_kept():
    gc.disable()
    james(circle(), "v", 3)
    assert not gc.isenabled()


def test_james_of_a_cubical_set_nests_triangulate(monkeypatch):
    seen = []
    real = triangulate_module.triangulate

    def spy(X):
        seen.append(gc.isenabled())
        return real(X)

    monkeypatch.setattr(triangulate_module, "triangulate", spy)
    james(projective_plane(), "v", 2, 3)
    assert seen == [False]
    assert gc.isenabled()
