"""In-memory span tracer over the public surface of the ``prefrl`` package.

:meth:`Tracer.install` wraps every public function and every public method
that a ``prefrl`` module defines (names without a leading underscore, in
public classes), and rebinds each wrapped function at every place a
``prefrl`` module binds it, so ``from .encoder import encode`` call sites are
traced too. :meth:`Tracer.uninstall` restores the originals.

A span is (name, start, end, parent, run id); spans live in flat arrays and
are written out as JSONL only when asked. Spans are recorded only on the
thread that installed the tracer, so the judge stub's thread stays out of the
client's layer times. The layer of a span is the module that defines the
function, e.g. ``encoder`` for ``prefrl.encoder.encode``.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import threading
import time
from array import array

import numpy as np


def prefrl_modules():
    """The package itself plus every submodule, imported."""
    package = importlib.import_module("prefrl")
    mods = [package]
    for info in pkgutil.iter_modules(package.__path__):
        mods.append(importlib.import_module(f"prefrl.{info.name}"))
    return mods


def _public_callables(module):
    """(qualified name, owner, attribute, original) for each public function
    and public method the module defines."""
    short = module.__name__.rsplit(".", 1)[-1]
    for name, obj in list(vars(module).items()):
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{short}.{name}", module, name, obj
        elif inspect.isclass(obj):
            for attr, member in list(vars(obj).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(member, (classmethod, staticmethod)) or inspect.isfunction(member):
                    yield f"{short}.{name}.{attr}", obj, attr, member


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.run_ids: list[str] = []
        self._span_name = array("i")
        self._span_run = array("i")
        self._parent = array("q")
        self._start = array("q")
        self._end = array("q")
        self._stack = [-1]
        self._run = -1
        self._thread = None
        self._restore: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self._start)

    def begin_run(self, run_id: str) -> None:
        self.run_ids.append(run_id)
        self._run = len(self.run_ids) - 1

    def _wrap(self, qualname: str, fn):
        idx = self._name_index.setdefault(qualname, len(self.names))
        if idx == len(self.names):
            self.names.append(qualname)
        clock = time.perf_counter_ns
        stack, owner_thread = self._stack, self._thread
        span_name, span_run, parent = self._span_name, self._span_run, self._parent
        start, end = self._start, self._end
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.get_ident() != owner_thread:
                return fn(*args, **kwargs)
            i = len(start)
            span_name.append(idx)
            span_run.append(tracer._run)
            parent.append(stack[-1])
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap the public surface; names later removed from the package are
        simply absent from the trace and count zero."""
        self._thread = threading.get_ident()
        modules = prefrl_modules()
        wrapped: dict[int, object] = {}
        for module in modules:
            for qualname, owner, attr, member in _public_callables(module):
                if isinstance(member, (classmethod, staticmethod)):
                    replacement = type(member)(self._wrap(qualname, member.__func__))
                else:
                    replacement = self._wrap(qualname, member)
                    wrapped[id(member)] = replacement
                self._restore.append((owner, attr, member))
                setattr(owner, attr, replacement)
        for module in modules:
            for name, obj in list(vars(module).items()):
                if id(obj) in wrapped:
                    self._restore.append((module, name, obj))
                    setattr(module, name, wrapped[id(obj)])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def spans(self, lo: int = 0, hi: int | None = None) -> dict[str, np.ndarray]:
        """Span columns for span indices [lo, hi), with each span's self time:
        its duration minus the durations of its direct children."""
        hi = len(self) if hi is None else hi
        start = np.frombuffer(self._start[lo:hi], dtype=np.int64)
        end = np.frombuffer(self._end[lo:hi], dtype=np.int64)
        parent = np.frombuffer(self._parent[lo:hi], dtype=np.int64)
        name = np.frombuffer(self._span_name[lo:hi], dtype=np.int32)
        dur = end - start
        inside = (parent >= lo) & (parent < hi)
        child = np.zeros(hi - lo, dtype=np.int64)
        np.add.at(child, parent[inside] - lo, dur[inside])
        return {"name": name, "duration": dur, "self": dur - child, "root": ~inside}

    def function_totals(self, lo: int = 0, hi: int | None = None) -> dict[str, dict]:
        """Per traced name seen in [lo, hi): span count, summed duration and
        summed self time (ns)."""
        cols = self.spans(lo, hi)
        out: dict[str, dict] = {}
        for idx in np.unique(cols["name"]):
            mask = cols["name"] == idx
            out[self.names[idx]] = {"calls": int(mask.sum()),
                                    "total_ns": int(cols["duration"][mask].sum()),
                                    "self_ns": int(cols["self"][mask].sum())}
        return out

    def layer_totals(self, lo: int = 0, hi: int | None = None) -> dict[str, dict]:
        """Per layer (defining module): span count and summed self time (ns)."""
        out: dict[str, dict] = {}
        for name, v in self.function_totals(lo, hi).items():
            layer = out.setdefault(name.split(".", 1)[0], {"calls": 0, "self_ns": 0})
            layer["calls"] += v["calls"]
            layer["self_ns"] += v["self_ns"]
        return out

    def durations_of(self, qualnames, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """Durations (ns) of the spans of the given names in [lo, hi)."""
        cols = self.spans(lo, hi)
        ids = [self._name_index[q] for q in qualnames if q in self._name_index]
        return cols["duration"][np.isin(cols["name"], ids)]

    def write_jsonl(self, path) -> int:
        """Write every span as one JSON object per line; returns the count."""
        n = len(self)
        names = [json.dumps(name) for name in self.names]
        runs = [json.dumps(run) for run in self.run_ids] + ['""']
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(n):
                fh.write(f'{{"i":{i},"name":{names[self._span_name[i]]},'
                         f'"start_ns":{self._start[i]},"end_ns":{self._end[i]},'
                         f'"parent":{self._parent[i]},"run":{runs[self._span_run[i]]}}}\n')
        return n
