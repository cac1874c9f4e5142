"""In-memory spans around the package's public functions.

A function is wrapped at every module attribute of the package that binds
it (``seifert.census.normalize``, ``seifert.complexity.normalize``,
``seifert.cli.normalize`` ...), so a call is recorded whichever import
site its caller uses.  Self time is a span's duration minus the spans it
directly caused.
"""
from __future__ import annotations

import importlib
from collections import Counter
from time import perf_counter

TRACED = (
    "notation.parse_params",
    "notation.format_params",
    "core.validate",
    "normal_form.normalize",
    "complexity.upper_bound",
    "census.enumerate_nonorientable_closed",
    "census.ingest_census",
    "census.compare",
    "cli.main",
)
MODULES = ("seifert", "seifert.notation", "seifert.core",
           "seifert.normal_form", "seifert.complexity", "seifert.census",
           "seifert.cli")


class Tracer:
    """Context manager: inside it the TRACED functions record spans."""

    def __init__(self) -> None:
        # One span per index.  Flat lists of str, float and int add no
        # objects for the garbage collector to scan, which a list per span
        # would, slowing the traced program as the trace grows.
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []  # index of the causing span, or -1
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        modules = [importlib.import_module(m) for m in MODULES]
        for name in TRACED:
            module, attr = name.split(".")
            fn = getattr(importlib.import_module(f"seifert.{module}"), attr)
            wrapper = self._wrap(name, fn)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patched.append((mod, key, fn))
                        setattr(mod, key, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for mod, key, fn in reversed(self._patched):
            setattr(mod, key, fn)
        self._patched.clear()

    def _wrap(self, name, fn):
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack, clock = self._open, perf_counter

        def traced(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def summary(self) -> dict:
        """Calls and self seconds per span name, and call counts per
        (parent name, child name) edge."""
        calls: Counter = Counter()
        self_s: Counter = Counter()
        edges: Counter = Counter()
        names = self.names
        for name, start, end, parent in zip(names, self.starts, self.ends,
                                            self.parents):
            calls[name] += 1
            self_s[name] += end - start
            if parent >= 0:
                self_s[names[parent]] -= end - start
                edges[f"{names[parent]}>{name}"] += 1
        return {"calls": dict(calls), "self_s": dict(self_s),
                "edges": dict(edges)}
