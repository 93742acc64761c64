"""Span tracing of the package's layers, installed from outside at runtime.

``instrument(sr)`` wraps the layer entry points listed in ``TARGETS`` and
returns a ``Tracer``.  Each call records a span (name, start, end, parent
span) and the counters named for it; spans stay in memory until the traced
process writes them out.  No file of the package changes: wrappers are bound
in every ``spreadrank`` namespace that holds the original function, and
methods are replaced on their class.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict


def _items(counts, args, result):
    shape = getattr(args[0], "shape", ())
    counts["items"] += shape[0] if len(shape) == 3 else 1


def _images(counts, args, result):
    counts["images"] += args[1].order


def _classes(counts, args, result):
    counts["inputs"] += len(args[0])
    counts["classes"] += len(result)


def _hit(counts, args, result):
    counts["hits"] += result is not None


def _passed(counts, args, result):
    counts["passed"] += bool(result)


def _children(counts, args, result):
    counts["children"] += len(result.group_reps)


# (module.qualified name, counter keys, counter) for every wrapped entry
# point.  A counter adds to its keys after a call returns; ``calls`` is
# always counted, on entry.  The hits of space_data are counted before the
# call, by a shim in ``instrument``.
TARGETS = [
    ("gf.rref", (), None),
    ("gf.rank_batch", ("items",), _items),
    ("gf.rref_batch", ("items",), _items),
    ("gf.nullspace", (), None),
    ("gf.mat_inverse", (), None),
    ("algebra.MatSpace.extend", (), None),
    ("equivalence._act_arrays", (), None),
    ("equivalence._orbit_canonical_key", ("images",), _images),
    ("equivalence.StabilizerGroup.stabilizer_of_space", (), None),
    ("equivalence.equivalence_classes", ("inputs", "classes"), _classes),
    ("equivalence.are_equivalent", ("hits",), _hit),
    ("equivalence._conjugators", (), None),
    ("equivalence.space_data", ("hits",), None),
    ("equivalence.automorphism_group", (), None),
    ("search.extension_groups", ("children",), _children),
    ("search._rank_one_profile", (), None),
    ("search._point_orbit_reps", (), None),
    ("search.contains_partial_spread", ("passed",), _passed),
]


class Tracer:
    """In-memory spans and counters for one process."""

    def __init__(self):
        self.names = []
        self.span_name = []
        self.span_start = []
        self.span_end = []
        self.span_parent = []
        self.stack = []
        self.counts = {}

    def _open(self, name_id):
        span = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_end.append(0)
        self.stack.append(span)
        self.span_start.append(time.perf_counter_ns())
        return span

    def _close(self, span):
        self.span_end[span] = time.perf_counter_ns()
        self.stack.pop()

    def wrap(self, name, fn, keys=(), counter=None):
        name_id = len(self.names)
        self.names.append(name)
        counts = self.counts[name] = dict.fromkeys(("calls",) + keys, 0)

        if inspect.isgeneratorfunction(fn):
            # a generator does its work when resumed, not when created: one
            # span per resumption, so the spans cover the whole iteration
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                counts["calls"] += 1
                gen = fn(*args, **kwargs)
                while True:
                    span = self._open(name_id)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self._close(span)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts["calls"] += 1
            span = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                counter(counts, args, result)
            return result

        return wrapper

    def layer_stats(self):
        """Per wrapped name: its counters, self_s and inclusive total_s.

        Self time is a span's duration minus its child spans' durations.
        Inclusive time counts only outermost spans of a name, so recursion
        is not counted twice.
        """
        n = len(self.span_name)
        child = [0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += self.span_end[i] - self.span_start[i]
        self_ns = defaultdict(int)
        total_ns = defaultdict(int)
        for i in range(n):
            name_id = self.span_name[i]
            dur = self.span_end[i] - self.span_start[i]
            self_ns[name_id] += dur - child[i]
            p = self.span_parent[i]
            while p >= 0 and self.span_name[p] != name_id:
                p = self.span_parent[p]
            if p < 0:
                total_ns[name_id] += dur
        stats = {}
        for name_id, name in enumerate(self.names):
            entry = dict(self.counts[name])
            entry["self_s"] = self_ns[name_id] / 1e9
            entry["total_s"] = total_ns[name_id] / 1e9
            stats[name] = entry
        return stats

    def write(self, path):
        """Write every span as [name, start_ns, end_ns, parent_span]."""
        spans = list(zip(self.span_name, self.span_start, self.span_end, self.span_parent))
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": spans}, fh, separators=(",", ":"))


def _rebind(original, wrapper):
    """Replace ``original`` by ``wrapper`` in every spreadrank namespace."""
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "spreadrank" and not mod_name.startswith("spreadrank."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def instrument(sr):
    """Wrap every entry point in TARGETS; returns the Tracer."""
    tracer = Tracer()
    for name, keys, counter in TARGETS:
        mod_name, qualname = name.split(".", 1)
        module = getattr(sr, mod_name)
        if "." in qualname:
            cls_name, meth = qualname.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, meth, tracer.wrap(name, getattr(cls, meth), keys, counter))
            continue
        original = target = getattr(module, qualname)
        if qualname == "space_data":

            def target(space, _original=original, _name=name):
                tracer.counts[_name]["hits"] += space.key in sr.equivalence._DATA_CACHE
                return _original(space)

        _rebind(original, tracer.wrap(name, target, keys, counter))
    return tracer
