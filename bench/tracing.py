"""In-memory span tracing around the library's public functions.

``instrument`` wraps every public function (and every public method of a
public class) defined in the listed ``opinion_lab`` modules, and rebinds
each module attribute that refers to it, because several modules import
functions by name.  Each call records a span ``[name, start, end, parent,
thread, cpu_start, cpu_end]`` (wall clock, then the thread's CPU clock);
spans stay in memory until ``Tracer.dump`` writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
import threading
import time

FIELDS = ["name", "start", "end", "parent", "thread", "cpu_start", "cpu_end"]
LAYERS = ("state", "graph", "matrix", "dynamics", "stability", "leader", "experiment", "cli")


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.counts: dict = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    def wrap(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = [name, 0.0, 0.0, stack[-1] if stack else None, threading.get_ident(), 0.0, 0.0]
            with self._lock:
                index = len(self.spans)
                self.spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            span[5] = time.thread_time()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[6] = time.thread_time()
                span[2] = time.perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(self, out)
            return out

        return traced

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, key: str, amount: int) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + amount

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": FIELDS, "spans": self.spans}, fh)


def layer_times(spans) -> dict:
    """Per span name: call count, and total and self time on the wall
    clock and on the thread's CPU clock, in ms.

    Self time is a span's duration minus the durations of its direct child
    spans.  Children are recorded on the parent's own thread, where calls
    nest and never overlap, so their durations add up.  With several
    threads, wall time includes waiting for the interpreter lock or for
    other threads; CPU time does not.
    """
    child_wall = [0.0] * len(spans)
    child_cpu = [0.0] * len(spans)
    for _, start, end, parent, _, cpu_start, cpu_end in spans:
        if parent is not None:
            child_wall[parent] += end - start
            child_cpu[parent] += cpu_end - cpu_start
    out: dict = {}
    for (name, start, end, _, _, cpu_start, cpu_end), wall_in, cpu_in in zip(spans, child_wall, child_cpu):
        row = out.setdefault(name, dict.fromkeys(("calls", "total_ms", "self_ms", "cpu_ms", "self_cpu_ms"), 0))
        row["calls"] += 1
        row["total_ms"] += 1e3 * (end - start)
        row["self_ms"] += 1e3 * (end - start - wall_in)
        row["cpu_ms"] += 1e3 * (cpu_end - cpu_start)
        row["self_cpu_ms"] += 1e3 * (cpu_end - cpu_start - cpu_in)
    return out


def top_level_ms(spans, thread: int) -> float:
    """Summed duration of the outermost spans opened on ``thread``."""
    return 1e3 * sum(span[2] - span[1] for span in spans if span[3] is None and span[4] == thread)


def _public_callables(module):
    for attr, obj in vars(module).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield attr, None, obj
        elif inspect.isclass(obj):
            for meth, fn in vars(obj).items():
                if not meth.startswith("_") and inspect.isfunction(fn):
                    yield f"{attr}.{meth}", obj, fn


@contextlib.contextmanager
def instrument(tracer: Tracer, hooks=None):
    """Route every call of a public library function through ``tracer``.

    ``hooks`` maps a span name to ``on_result(tracer, value)``, called with
    the function's return value.  Every binding is restored on exit.
    """
    hooks = hooks or {}
    modules = [importlib.import_module(f"opinion_lab.{layer}") for layer in LAYERS]
    wrapped = {}
    restore = []
    for layer, module in zip(LAYERS, modules):
        for attr, owner, fn in _public_callables(module):
            name = f"{layer}.{attr}"
            wrapper = tracer.wrap(name, fn, hooks.get(name))
            if owner is None:
                wrapped[id(fn)] = (fn, wrapper)
            else:
                meth = attr.rsplit(".", 1)[1]
                restore.append((owner, meth, fn))
                setattr(owner, meth, wrapper)
    package = [m for key, m in sys.modules.items() if key == "opinion_lab" or key.startswith("opinion_lab.")]
    for module in package:
        for attr, obj in list(vars(module).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                restore.append((module, attr, obj))
                setattr(module, attr, hit[1])
    try:
        yield tracer
    finally:
        for owner, attr, obj in reversed(restore):
            setattr(owner, attr, obj)
