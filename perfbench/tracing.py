"""In-memory call spans around the public functions of the lagflag modules.

A `Tracer` wraps functions from outside the library: the wrapper records one
span per call (name, parent span, start, end) in flat arrays and nothing
else, so a run of a million calls costs a few tens of megabytes.  `fold`
turns the spans into per-name call counts and self times once the run ends;
a span's self time is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import functools
import operator
import time
from array import array
from contextlib import contextmanager

#: Functions timed in the traced run, by defining module.  Each is wrapped in
#: every lagflag namespace that binds it, because `basis`, `marking`,
#: `picard` and `cli` copy bindings with ``from .diagrams import ...``.
TARGETS = {
    "diagrams": ("enumerate_diagrams", "boundary", "classify", "class_sets"),
    "marking": (
        "marked_points",
        "selection_S",
        "selection_S_tilde",
        "tuples",
        "lf_a",
        "lf_b",
        "lf_ktheory",
    ),
    "flags": (
        "validate",
        "is_gorenstein",
        "relative_dimension",
        "component_count",
        "scheme_report",
    ),
    "picard": ("canonical_sheaf", "mod2_reduce", "twist_alignment"),
    "basis": (
        "k_basis",
        "gw_basis",
        "atom_multiset",
        "verify_recursions",
        "verify_geometry",
        "witt_table",
    ),
}

#: Counter that `enumerate_diagrams` adds its result length to.
DIAGRAMS = "diagrams"


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.counters: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []

    def reset(self) -> None:
        """Drop all spans and counters; wrappers keep recording into the same arrays."""
        for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
            del arr[:]
        self._stack.clear()
        self.counters.clear()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, count_result: str | None = None):
        """Return `fn` wrapped so each call records a span called `name`.

        With `count_result`, the length of each result is added to that
        counter.
        """
        nid = self._name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack, clock, counters = self._stack, self.clock, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if count_result is not None:
                counters[count_result] = counters.get(count_result, 0) + len(result)
            return result

        return traced

    def fold(self) -> dict[str, tuple[int, float]]:
        """Map each span name to (calls, self seconds) over the recorded spans."""
        dur = array("d", map(operator.sub, self.span_end, self.span_start))
        child = array("d", [0.0]) * len(dur)
        for i, parent in enumerate(self.span_parent):
            if parent >= 0:
                child[parent] += dur[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i, nid in enumerate(self.span_name):
            calls[nid] += 1
            self_s[nid] += dur[i] - child[i]
        return {name: (calls[i], self_s[i]) for i, name in enumerate(self.names)}

    @contextmanager
    def installed(self, package_modules):
        """Wrap every `TARGETS` function in every module of `package_modules`.

        `package_modules` maps module names to module objects: the package
        itself and its submodules, ``cli`` included, whose `main` and each
        `SUITES` entry are wrapped too.  Every binding is restored on exit.
        """
        restore = []
        try:
            for mod_name, fn_names in TARGETS.items():
                home = package_modules[mod_name]
                for fn_name in fn_names:
                    orig = getattr(home, fn_name)
                    counter = DIAGRAMS if fn_name == "enumerate_diagrams" else None
                    wrapper = self.wrap(f"{mod_name}.{fn_name}", orig, counter)
                    for module in package_modules.values():
                        for attr, value in list(vars(module).items()):
                            if value is orig:
                                restore.append((module, attr, orig))
                                setattr(module, attr, wrapper)
            cli = package_modules["cli"]
            restore.append((cli, "main", cli.main))
            cli.main = self.wrap("cli.main", cli.main)
            restore.append((cli, "SUITES", cli.SUITES))
            cli.SUITES = tuple((name, self.wrap(f"cli.verify.{name}", fn)) for name, fn in cli.SUITES)
            yield self
        finally:
            for module, attr, value in reversed(restore):
                setattr(module, attr, value)
