"""Spans and call counts for the traced run.

Spans come from wrappers installed around the public functions of each
layer module, from outside the package. The package binds names with
`from .x import y`, so a wrapper replaces the function under every name
a module of the package looks it up by, not only where it is defined.
"""

import functools
import gc
import inspect
import sys
from array import array
from collections import Counter
from time import perf_counter_ns

import numpy as np


class Tracer:
    """In-memory spans: name, start, end, parent span and request id.

    A span with no parent opens a new request; the spans it encloses
    share its request id.
    """

    def __init__(self):
        self.names = []
        self.name_id = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("q")
        self.end = array("q")
        self.current = -1
        self.requests = 0

    def wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        name_id, parent_of, request_of = self.name_id, self.parent, self.request
        starts, ends = self.start, self.end

        def span(*args, **kwargs):
            parent = self.current
            if parent < 0:
                self.requests += 1
            index = len(starts)
            name_id.append(nid)
            parent_of.append(parent)
            request_of.append(self.requests)
            starts.append(0)
            ends.append(0)
            self.current = index
            begin = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter_ns()
                starts[index] = begin
                self.current = parent

        return functools.update_wrapper(span, fn)

    def instrument(self, package, layers, root_owner, root_name):
        """Span wrappers for the public functions of each layer module of the
        package, and for `root_owner.root_name` as the span of a request.

        Returns the bindings as (owner, name, original, wrapper), one for
        every name under which a module of the package, or root_owner,
        holds a wrapped function; `bind` switches them.
        """
        wrappers = {}
        for layer in layers:
            module = sys.modules[f"{package}.{layer}"]
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not name.startswith("_")):
                    wrappers[id(obj)] = (obj, self.wrap(f"{layer}.{name}", obj))
        root = getattr(root_owner, root_name)
        wrappers[id(root)] = (root, self.wrap("request", root))
        owners = [m for n, m in sys.modules.items()
                  if n == package or n.startswith(package + ".")] + [root_owner]
        bindings = []
        for owner in owners:
            for name, obj in vars(owner).items():
                if id(obj) in wrappers:
                    bindings.append((owner, name, obj, wrappers[id(obj)][1]))
        return bindings

    def self_times(self, request_scale):
        """Per span name: (calls, total self time in ns), each span's self
        time multiplied by request_scale[its request id].

        Self time is the span's duration minus the durations of its child
        spans; children of one span never overlap.
        """
        end = np.frombuffer(self.end, dtype=np.int64)
        duration = end - np.frombuffer(self.start, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        names = np.frombuffer(self.name_id, dtype=np.int32)
        request = np.frombuffer(self.request, dtype=np.int32)
        covered = np.zeros(len(duration))
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], duration[has_parent])
        own = (duration - covered) * request_scale[request]
        calls = np.bincount(names, minlength=len(self.names))
        total = np.bincount(names, weights=own, minlength=len(self.names))
        return {name: (int(calls[k]), float(total[k])) for k, name in enumerate(self.names)}

    def save(self, path):
        np.savez_compressed(
            path, names=np.array(self.names), name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            request=np.frombuffer(self.request, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.int64),
            end=np.frombuffer(self.end, dtype=np.int64))


def bind(bindings, traced):
    """Point every binding at its wrapper (traced) or at the original."""
    for owner, name, original, wrapper in bindings:
        setattr(owner, name, wrapper if traced else original)


def _layer(module_name, package):
    if module_name == "numpy" or module_name.startswith("numpy."):
        return "numpy"
    if module_name.startswith(package + "."):
        return module_name[len(package) + 1:]
    return None


def count_calls(run, package, layers):
    """Python and C calls made while run() executes, by layer of the caller.

    A Python call counts for the module of the frame that made it, a C
    call for the module of the frame it was made from; a layer is a module
    of the package, or "numpy" for all of numpy. Garbage collection is off
    during the pass so finalizers cannot add calls.
    """
    py_calls = Counter()
    c_calls = Counter()

    def profile(frame, event, arg):
        if event == "call":
            caller = frame.f_back
            if caller is not None:
                py_calls[caller.f_globals.get("__name__", "")] += 1
        elif event == "c_call":
            c_calls[frame.f_globals.get("__name__", "")] += 1

    gc.collect()
    gc.disable()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
        gc.enable()
    totals = {f"{layer}.{kind}": 0 for layer in layers for kind in ("py_calls", "c_calls")}
    for kind, counter in (("py_calls", py_calls), ("c_calls", c_calls)):
        for module_name, n in counter.items():
            layer = _layer(module_name, package)
            if layer in layers:
                totals[f"{layer}.{kind}"] += n
    return totals
