"""Span tracer for the benchmark's traced run.

The tracer wraps public functions of the ``omq`` modules from outside the
library.  Modules import names directly (``from .types import
compute_types``), so a function is bound in several module namespaces; the
tracer replaces the original object at every ``omq`` binding that holds it
and puts the original back on ``uninstall``.

A span records (id, name, start, end, parent id, op id).  Spans are kept in
memory and written out when the run ends.  Per name the tracer also keeps
call counts, self time (duration minus the time covered by direct child
spans), raised exception kinds and the counters that the per-target
observers add.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class Target:
    """A function to trace: ``module.qualname`` in the ``omq`` package,
    reported under ``span``; ``observe(tracer, result)`` adds counters."""
    module: str
    qualname: str
    span: str
    observe: Optional[Callable] = None


class Tracer:
    def __init__(self, targets):
        self.targets = tuple(targets)
        self.spans = []            # (id, name, start, end, parent, op)
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.errors = Counter()    # (span name, exception class name)
        self.counters = Counter()
        self.open = Counter()      # span name -> number of open spans
        self.op_id = None
        self._stack = []           # open span ids
        self._child = []           # per open span: time covered by children
        self._next_id = 0
        self._patches = []         # (owner, attribute, original object)

    # -- spans ---------------------------------------------------------------

    def _enter(self, name):
        self.open[name] += 1
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        self._child.append(0.0)
        return sid, parent

    def _exit(self, name, sid, parent, start, end):
        self.open[name] -= 1
        self._stack.pop()
        covered = self._child.pop()
        duration = end - start
        if self._child:
            self._child[-1] += duration
        self.spans.append((sid, name, start, end, parent, self.op_id))
        self.calls[name] += 1
        self.self_s[name] += duration - covered

    def span(self, name):
        """Context manager recording one span around a block."""
        return _Span(self, name)

    def _wrap(self, fn, target):
        tracer = self
        name = target.span
        observe = target.observe

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, parent = tracer._enter(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.errors[(name, type(exc).__name__)] += 1
                raise
            finally:
                tracer._exit(name, sid, parent, start, time.perf_counter())
            if observe is not None:
                observe(tracer, result)
            return result

        wrapper.__perfbench_original__ = fn
        return wrapper

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap every target at every ``omq`` module binding that holds it;
        does nothing when already installed."""
        if self._patches:
            return
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "omq" or n.startswith("omq.")) and m is not None]
        for target in self.targets:
            owner = sys.modules[target.module]
            *outer, attr = target.qualname.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = vars(owner)[attr]
            if isinstance(raw, staticmethod):
                self._patches.append((owner, attr, raw))
                setattr(owner, attr, staticmethod(self._wrap(raw.__func__, target)))
                continue
            wrapper = self._wrap(raw, target)
            if outer:  # a method: the class attribute is the only binding
                self._patches.append((owner, attr, raw))
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is raw:
                        self._patches.append((module, name, raw))
                        setattr(module, name, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output --------------------------------------------------------------

    def write(self, path):
        """Write every span as a tab-separated line (gzip): id, name,
        start, end, parent id, op id; times are perf_counter seconds."""
        with gzip.open(path, "wt") as out:
            out.write("id\tname\tstart\tend\tparent\top\n")
            for span in self.spans:
                out.write("\t".join("" if v is None else str(v) for v in span))
                out.write("\n")

    def self_time_by_op(self):
        """Op id -> summed self time of every span recorded in that op."""
        out = defaultdict(float)
        children = defaultdict(float)
        for sid, name, start, end, parent, op in self.spans:
            if parent is not None:
                children[parent] += end - start
        for sid, name, start, end, parent, op in self.spans:
            if op is not None:
                out[op] += (end - start) - children[sid]
        return dict(out)


class _Span:
    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.sid, self.parent = self.tracer._enter(self.name)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.tracer._exit(self.name, self.sid, self.parent, self.start,
                          time.perf_counter())
        return False
