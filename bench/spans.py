"""Span tracing from outside the program.

A `Tracer` replaces a function at the module attribute its caller looks up
with a wrapper that records one span per call: name, start, end, parent
span, the op it belongs to, whether it raised, and an optional figure
taken from the call (a cost value, a point count, bytes written).  Spans
are kept in memory as flat columns and written out once, at the end.

Self time is a span's duration minus the part of it that its child spans
cover; `self_times` computes it for any span tree.
"""

from __future__ import annotations

import array
import functools
import json
import math
import os
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

NO_PARENT = -1


@dataclass(frozen=True)
class WrapSpec:
    """Where to hook one function and how to describe its calls.

    `figure(args, kwargs, result)` returns a float stored with the span, a
    dict stored as span attributes, or None. `memory` measures the peak
    traced allocation of each call with tracemalloc.
    """

    module: str
    attr: str
    name: str
    figure: Callable | None = None
    memory: bool = False


@dataclass
class Tracer:
    names: list = field(default_factory=list)
    parent: array.array = field(default_factory=lambda: array.array("q"))
    name_id: array.array = field(default_factory=lambda: array.array("q"))
    op: array.array = field(default_factory=lambda: array.array("q"))
    start: array.array = field(default_factory=lambda: array.array("q"))
    end: array.array = field(default_factory=lambda: array.array("q"))
    error: array.array = field(default_factory=lambda: array.array("b"))
    value: array.array = field(default_factory=lambda: array.array("d"))
    attrs: dict = field(default_factory=dict)
    missing: list = field(default_factory=list)
    current_op: int = -1
    _ids: dict = field(default_factory=dict)
    _stack: list = field(default_factory=list)
    _installed: list = field(default_factory=list)

    # -- recording ---------------------------------------------------------

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, name, start_ns, end_ns, parent=None, op=None, error=False, value=math.nan, attrs=None) -> int:
        """Append a finished span; returns its id."""
        sid = len(self.start)
        self.parent.append(NO_PARENT if parent is None else parent)
        self.name_id.append(self.intern(name))
        self.op.append(self.current_op if op is None else op)
        self.start.append(start_ns)
        self.end.append(end_ns)
        self.error.append(1 if error else 0)
        self.value.append(value)
        if attrs:
            self.attrs[sid] = attrs
        return sid

    def begin(self, name: str) -> int:
        """Open a span nested in the innermost open one."""
        parent = self._stack[-1] if self._stack else NO_PARENT
        sid = self.add(name, time.perf_counter_ns(), 0, parent)
        self._stack.append(sid)
        return sid

    def finish(self, sid: int, error: bool = False, figure=None) -> None:
        self.end[sid] = time.perf_counter_ns()
        self._stack.pop()
        if error:
            self.error[sid] = 1
        if isinstance(figure, dict):
            self.attrs[sid] = figure
        elif figure is not None:
            self.value[sid] = float(figure)

    def begin_op(self) -> int:
        """Open the root span of the next op."""
        self.current_op += 1
        return self.begin("op")

    # -- wrappers ----------------------------------------------------------

    def wrap(self, spec: WrapSpec) -> bool:
        """Install one wrapper; False (and a note in `missing`) if the
        module is not loaded or the attribute does not exist, so a removed
        function just records no calls."""
        self.intern(spec.name)
        module = sys.modules.get(spec.module)
        fn = getattr(module, spec.attr, None)
        if not callable(fn):
            self.missing.append(f"{spec.module}.{spec.attr}")
            return False

        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if spec.memory:
                tracemalloc.start()
            sid = tracer.begin(spec.name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.finish(sid, error=True)
                if spec.memory:
                    tracemalloc.stop()
                raise
            figure = None
            if spec.figure is not None:
                try:
                    figure = spec.figure(args, kwargs, result)
                except Exception:  # a changed signature must not break the run
                    figure = None
            if spec.memory:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                figure = dict(figure or {}, peak_alloc=peak)
            tracer.finish(sid, figure=figure)
            return result

        setattr(module, spec.attr, wrapper)
        self._installed.append((module, spec.attr, fn))
        return True

    def install(self, specs) -> None:
        for spec in specs:
            self.wrap(spec)

    def uninstall(self) -> None:
        while self._installed:
            module, attr, fn = self._installed.pop()
            setattr(module, attr, fn)

    # -- persistence -------------------------------------------------------

    def columns(self) -> dict:
        return {
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "name_id": np.frombuffer(self.name_id, dtype=np.int64),
            "op": np.frombuffer(self.op, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.int64),
            "end": np.frombuffer(self.end, dtype=np.int64),
            "error": np.frombuffer(self.error, dtype=np.int8),
            "value": np.frombuffer(self.value, dtype=np.float64),
        }

    def save(self, path: str) -> None:
        """Write every span to one .npz file (names and attributes as JSON)."""
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(json.dumps(self.names)),
            attrs=np.array(json.dumps({str(k): v for k, v in self.attrs.items()})),
            **self.columns(),
        )

    def merge(self, path: str, parent: int, op: int) -> None:
        """Append the spans saved at `path`, re-parenting its roots under
        `parent` and tagging all of them with `op`."""
        with np.load(path) as data:
            names = json.loads(str(data["names"]))
            attrs = json.loads(str(data["attrs"]))
            cols = {k: data[k] for k in ("parent", "name_id", "start", "end", "error", "value")}
        base = len(self.start)
        for i in range(cols["start"].size):
            p = int(cols["parent"][i])
            self.add(
                names[int(cols["name_id"][i])],
                int(cols["start"][i]),
                int(cols["end"][i]),
                parent=parent if p == NO_PARENT else base + p,
                op=op,
                error=bool(cols["error"][i]),
                value=float(cols["value"][i]),
                attrs=attrs.get(str(i)),
            )


def self_times(parent, start, end) -> np.ndarray:
    """Self time of every span: its duration minus the union of its
    children's intervals, clipped to the span itself."""
    parent = np.asarray(parent, dtype=np.int64)
    start = np.asarray(start, dtype=np.int64)
    end = np.asarray(end, dtype=np.int64)
    out = end - start
    children = np.nonzero(parent != NO_PARENT)[0]
    order = children[np.lexsort((start[children], parent[children]))]
    current, lo, hi, covered = NO_PARENT, 0, 0, 0

    def close():
        if current != NO_PARENT:
            out[current] -= covered + (hi - lo)

    for c in order.tolist():
        p = int(parent[c])
        cs = max(int(start[c]), int(start[p]))
        ce = min(int(end[c]), int(end[p]))
        if p != current:
            close()
            current, lo, hi, covered = p, cs, cs, 0
        if ce <= cs:
            continue
        if cs > hi:
            covered += hi - lo
            lo, hi = cs, ce
        else:
            hi = max(hi, ce)
    close()
    return out
