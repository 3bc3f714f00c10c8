"""Spans at the public function boundaries of ``pca_ids``, recorded from outside.

``install`` wraps every public module-level function of the seven layer
modules, plus ``Verdict.to_line``, and rebinds the wrapper in every
``pca_ids`` namespace that holds the original (``detector`` imports
``extract_features`` by name, ``evaluation`` imports ``score_records``,
``cli`` imports nearly everything). The program's code is not edited.

Spans live in flat arrays in memory and are written once, at exit. Each
holds a name, start, end, parent span and run id (one run per command or
stream pass). A layer's self time is a span's duration minus the time its
child spans cover; ``self_times`` derives it.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("kdd", "mvstats", "trainer", "detector", "evaluation", "modelio", "cli")
NO_PARENT = -1


class Tracer:
    """Span store: parallel arrays indexed by span id."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.run = array("i")
        self.stack = [NO_PARENT]
        self.run_id = 0
        self.counts: dict[tuple[int, str], int] = {}

    def reset(self) -> None:
        """Drop every span and count; wrappers already made keep recording."""
        for column in (self.name, self.start, self.end, self.parent, self.run):
            del column[:]
        self.counts.clear()

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def count(self, key: str, n: int = 1) -> None:
        slot = (self.run_id, key)
        self.counts[slot] = self.counts.get(slot, 0) + n

    def wrap(self, name: str, fn, on_result=None, on_error=None):
        """A wrapper that records one span per call of ``fn``."""
        nid = self.name_id(name)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(nid, fn)
        clock = time.perf_counter_ns
        names, starts, ends, parents, runs, stack = (
            self.name, self.start, self.end, self.parent, self.run, self.stack,
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            runs.append(self.run_id)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                ends[i] = clock()
                stack.pop()
                if on_error is not None:
                    on_error(self, err)
                raise
            ends[i] = clock()
            stack.pop()
            if on_result is not None:
                on_result(self, args, result)
            return result

        return traced

    def _wrap_generator(self, nid: int, fn):
        """One span per step of a generator: the work done to yield one item."""
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                i = len(self.start)
                self.name.append(nid)
                self.parent.append(self.stack[-1])
                self.run.append(self.run_id)
                self.end.append(0)
                self.stack.append(i)
                self.start.append(clock())
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self.end[i] = clock()
                    self.stack.pop()
                yield item

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "run": np.frombuffer(self.run, dtype=np.int32).copy(),
        }


def _count_malformed(tracer: Tracer, err: Exception) -> None:
    if type(err).__name__ == "MalformedRow":
        tracer.count("kdd.malformed_lines")


def _count_unknown(tracer: Tracer, args, result) -> None:
    if getattr(result, "unknown_token", False):
        tracer.count("kdd.unknown_tokens")


def _count_scored(tracer: Tracer, args, result) -> None:
    tracer.count("detector.records_scored", len(args[1]))


HOOKS = {
    "kdd.parse_record": {"on_error": _count_malformed},
    "kdd.extract_features": {"on_result": _count_unknown},
    "detector.score_records": {"on_result": _count_scored},
}


def public_functions(module) -> list[str]:
    """Public functions defined in ``module`` itself (not imported into it)."""
    return sorted(
        name
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    )


def install(tracer: Tracer) -> list[str]:
    """Wrap the public functions of every layer; returns the span names."""
    import pca_ids  # noqa: F401  (loads every layer module)

    modules = {layer: sys.modules[f"pca_ids.{layer}"] for layer in LAYERS}
    replacements: dict[int, object] = {}
    wrapped = []
    for layer, module in modules.items():
        for name in public_functions(module):
            original = getattr(module, name)
            span = f"{layer}.{name}"
            replacements[id(original)] = tracer.wrap(span, original, **HOOKS.get(span, {}))
            wrapped.append(span)
    namespaces = [sys.modules["pca_ids"], *modules.values()]
    for namespace in namespaces:
        for attr, value in list(vars(namespace).items()):
            if id(value) in replacements:
                setattr(namespace, attr, replacements[id(value)])
    verdict = modules["detector"].Verdict
    verdict.to_line = tracer.wrap("detector.Verdict.to_line", verdict.to_line)
    wrapped.append("detector.Verdict.to_line")
    return wrapped


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children (ns).

    Spans come from one thread, so a parent's children never overlap and
    the time they cover is the sum of their durations.
    """
    duration = (end - start).astype(np.int64)
    has_parent = parent >= 0
    covered = np.bincount(
        parent[has_parent], weights=duration[has_parent], minlength=len(duration)
    )
    return duration - covered.astype(np.int64)


def totals(spans: dict[str, np.ndarray], names: list[str]) -> dict[tuple[int, str], tuple[float, int]]:
    """(run, span name) -> (total self time in ns, call count)."""
    own = self_times(spans["parent"], spans["start"], spans["end"])
    result: dict[tuple[int, str], tuple[float, int]] = {}
    if len(own) == 0:
        return result
    key = spans["run"].astype(np.int64) * len(names) + spans["name"]
    sums = np.bincount(key, weights=own)
    calls = np.bincount(key)
    for k in np.flatnonzero(calls):
        run, nid = divmod(int(k), len(names))
        result[(run, names[nid])] = (float(sums[k]), int(calls[k]))
    return result
