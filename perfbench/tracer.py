"""Spans recorded from outside the program.

The tracer replaces chosen functions with wrappers for the length of a
traced run and puts the originals back afterwards, so nothing under `src/`
has to know it is being measured.  A module-level function is replaced in
every namespace that holds it (the defining module, modules that imported
it by name, and any extra namespaces the caller names); a method is
replaced on its class.

A span is `[name, start, end, parent index, kind, attrs]`.  Spans stay in
memory and are written out by the caller when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional

NAME, START, END, PARENT, KIND, ATTRS = range(6)


@dataclass(frozen=True)
class Target:
    """One function to wrap.

    `module` is importable and `qualname` is either a module-level name or
    `Class.method`.  `span` records a span per call; otherwise the wrapper
    only counts calls.  `probe(args, kwargs, result)` returns attributes
    stored on the span after the call returns."""

    module: str
    qualname: str
    name: str
    span: bool = True
    probe: Optional[Callable] = None


class Recorder:
    """Spans and call counts of one traced pass."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = {}

    def open(self, name: str, kind: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, kind, None])
        self.stack.append(index)
        return index

    def close(self, index: int):
        self.spans[index][END] = perf_counter()
        self.stack.pop()


def self_times(spans) -> list:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread and children nest inside their parent, so
    the children of one span never overlap and their durations add up."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            covered[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - covered[i] for i, s in enumerate(spans)]


def _span_wrapper(fn, target: Target, recorder: Recorder):
    name, probe = target.name, target.probe

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = recorder.open(name, "layer")
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(index)
        if probe is not None:
            recorder.spans[index][ATTRS] = probe(args, kwargs, result)
        return result

    return wrapper


def _count_wrapper(fn, target: Target, recorder: Recorder):
    name = target.name
    counts = recorder.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return fn(*args, **kwargs)

    return wrapper


class Patches:
    """The replaced slots of one traced run: `(namespace, key, original)`
    for module functions and `(class, attribute, original)` for methods."""

    def __init__(self):
        self.slots = []
        self.attrs = []

    def restore(self):
        for namespace, key, original in reversed(self.slots):
            namespace[key] = original
        for owner, attr, original in reversed(self.attrs):
            setattr(owner, attr, original)

    def unrestored(self) -> list:
        """Slots that do not hold their original object."""
        bad = [key for ns, key, orig in self.slots if ns.get(key) is not orig]
        bad += [
            f"{owner.__name__}.{attr}"
            for owner, attr, orig in self.attrs
            if owner.__dict__.get(attr) is not orig
        ]
        return bad


def _namespaces(package: str, extra) -> list:
    mods = [
        m
        for n, m in list(sys.modules.items())
        if m is not None and (n == package or n.startswith(package + "."))
    ]
    return [vars(m) for m in mods] + [vars(m) for m in extra]


def install(targets, recorder: Recorder, package: str, extra=()) -> Patches:
    """Wrap every target.  Module functions are replaced in each loaded
    module of `package` and in the `extra` modules wherever they appear."""
    patches = Patches()
    namespaces = _namespaces(package, extra)
    try:
        for t in targets:
            module = importlib.import_module(t.module)
            make = _span_wrapper if t.span else _count_wrapper
            if "." in t.qualname:
                cls_name, attr = t.qualname.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                patches.attrs.append((owner, attr, original))
                setattr(owner, attr, make(original, t, recorder))
                continue
            original = getattr(module, t.qualname)
            wrapper = make(original, t, recorder)
            for ns in namespaces:
                for key, value in list(ns.items()):
                    if value is original:
                        patches.slots.append((ns, key, original))
                        ns[key] = wrapper
    except BaseException:
        patches.restore()
        raise
    return patches


@contextmanager
def traced(targets, recorder: Recorder, package: str, extra=()):
    """Wrap the targets for the body of the block and restore them after,
    also when the body raises."""
    patches = install(targets, recorder, package, extra)
    try:
        yield patches
    finally:
        patches.restore()
