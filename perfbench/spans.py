"""Span recorder for the traced benchmark run.

The recorder wraps the public functions of each chordlab layer from the
outside: ``install`` replaces every reference to a target function inside
the already imported ``chordlab`` modules (module globals, dispatch tables
such as ``gfseries.SERIES`` and class attributes) with a wrapper that
records a span.  It is called in a forked job process only, so the parent
and the untraced jobs never see a wrapper, and no file under ``src/`` is
changed.

A span is ``(name, start_ns, end_ns, parent)`` where ``parent`` is the index
of the enclosing span in the same job, or -1.  The job id is attached when
the parent process writes the spans out.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

from chordlab import (
    asymptotics,
    bell,
    bijections,
    chord,
    cli,
    diffeo,
    fps,
    gfseries,
    yukawa,
)

LAYERS = (
    "fps",
    "gfseries",
    "chord",
    "bijections",
    "yukawa",
    "bell",
    "diffeo",
    "asymptotics",
    "cli",
)

FPS_OPS = ("mul", "compose", "reversion", "reciprocal", "exp")
FPS_SPANS = {f"fps.{op}" for op in FPS_OPS}

# (owner, attribute, span name).  Several attributes may share one span
# name: a layer metric covers a function and its inverse, or every builder.
TARGETS = (
    [
        (fps.FormalPowerSeries, "__mul__", "fps.mul"),
        (fps.FormalPowerSeries, "compose", "fps.compose"),
        (fps.FormalPowerSeries, "reversion", "fps.reversion"),
        (fps.FormalPowerSeries, "exp", "fps.exp"),
        (fps.FormalPowerSeries, "log", "fps.log"),
        (fps.FormalPowerSeries, "__pow__", "fps.pow"),
        (fps, "reciprocal", "fps.reciprocal"),
        (fps, "divide", "fps.divide"),
        (gfseries, "connected_counts", "gfseries.build"),
    ]
    + [(gfseries, f.__name__, "gfseries.build") for f in gfseries.SERIES.values()]
    + [(gfseries, f.__name__, "gfseries.identity") for f in gfseries.IDENTITIES.values()]
    + [
        (chord, "census", "chord.census"),
        (chord, "enumerate_diagrams", "chord.enumerate"),
        (chord.ChordDiagram, "components", "chord.connectivity"),
        (chord.ChordDiagram, "is_connected", "chord.connectivity"),
        (chord.ChordDiagram, "connectivity", "chord.connectivity"),
        (chord.ChordDiagram, "is_k_connected", "chord.connectivity"),
        (chord.ChordDiagram, "is_indecomposable", "chord.connectivity"),
        (bijections, "phi", "bijections.phi"),
        (bijections, "phi_inv", "bijections.phi"),
        (bijections, "nabla", "bijections.nabla"),
        (bijections, "nabla_inv", "bijections.nabla"),
        (bijections, "theta", "bijections.theta"),
        (bijections, "theta_inv", "bijections.theta"),
        (bijections, "all_seeds", "bijections.seeds"),
        (yukawa, "enumerate_tadpoles", "yukawa.tadpoles"),
        (yukawa, "tadpole_to_diagram", "yukawa.lambda"),
        (yukawa, "diagram_to_tadpole", "yukawa.lambda"),
        (yukawa, "green_identities", "yukawa.green"),
        (yukawa, "composed_two_connected_kernel", "yukawa.green"),
        (yukawa, "vacuum_series", "yukawa.green"),
        (yukawa, "two_leg_series", "yukawa.green"),
        (yukawa, "fermion_pair_series", "yukawa.green"),
        (yukawa, "vertex_residue_series", "yukawa.green"),
        (yukawa, "enumerate_vertex_graphs", "yukawa.vertex"),
        (yukawa, "qqed_primitive", "yukawa.vertex"),
        (bell, "bell_partial", "bell.partial"),
        (bell, "bell_partial_by_partitions", "bell.partitions"),
        (bell, "verify_bell_identity", "bell.identity"),
        (diffeo, "amplitude_recursion", "diffeo.amplitude"),
        (diffeo, "b_inverse_list", "diffeo.series"),
        (diffeo, "b_closed_form", "diffeo.series"),
        (diffeo, "verify_recurrences", "diffeo.series"),
        (diffeo, "verify_ode", "diffeo.series"),
        (diffeo, "ode_residuals", "diffeo.series"),
        (diffeo.KinematicSample, "random_nondegenerate", "diffeo.kinematics"),
        (asymptotics, "alien_connected", "asymptotics.alien"),
        (asymptotics, "alien_two_connected", "asymptotics.alien"),
        (asymptotics, "exact_connected_count", "asymptotics.exact"),
        (asymptotics, "exact_two_connected_count", "asymptotics.exact"),
        (asymptotics, "asymptotic_fit", "asymptotics.fit"),
        (cli, "main", "cli"),
    ]
)

# Counters kept next to the spans: name -> function of the call's result.
COUNTERS = {
    "census": ("chord.census.diagrams", lambda result: result.total),
    "enumerate_diagrams": ("chord.enumerate.diagrams", lambda item: 1),
}

MODULES = [
    module
    for name, module in sys.modules.items()
    if name == "chordlab" or name.startswith("chordlab.")
]

# The gfseries memo tables, captured before any wrapper replaces them.
MEMOS = [f for f in vars(gfseries).values() if hasattr(f, "cache_info")]


def memo_state() -> dict:
    """Summed lru_cache statistics of every gfseries builder."""
    infos = [f.cache_info() for f in MEMOS]
    return {
        "hits": sum(i.hits for i in infos),
        "misses": sum(i.misses for i in infos),
        "entries": sum(i.currsize for i in infos),
    }


class Tracer:
    """Spans, counters and fps outputs of one job, kept in memory."""

    def __init__(self):
        self.spans: list = []
        self.stack = [-1]
        self.counters: dict = defaultdict(int)
        self.fps_outputs: list = []

    def _open(self) -> tuple[int, int]:
        index = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1]
        self.stack.append(index)
        return index, parent

    def _close(self, index: int, name: str, start: int, parent: int) -> None:
        end = time.perf_counter_ns()
        self.stack.pop()
        self.spans[index] = (name, start, end, parent)

    def wrap(self, name: str, fn, counter=None):
        """A wrapper around ``fn`` that records one span per call (per
        resumption for a generator function)."""
        keep_output = name in FPS_SPANS
        counters = self.counters
        outputs = self.fps_outputs
        clock = time.perf_counter_ns

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        index, parent = self._open()
                        start = clock()
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            self._close(index, name, start, parent)
                        if counter:
                            counters[counter[0]] += counter[1](item)
                        yield item
                finally:
                    inner.close()

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index, parent = self._open()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index, name, start, parent)
            if counter:
                counters[counter[0]] += counter[1](result)
            if keep_output:
                outputs.append(result)
            return result

        return traced

    def install(self) -> None:
        """Replace every reference to each target inside chordlab."""
        wrappers = {}
        for owner, attr, name in TARGETS:
            raw = inspect.getattr_static(owner, attr)
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            wrapper = self.wrap(name, fn, COUNTERS.get(attr))
            if inspect.isclass(owner):
                new = classmethod(wrapper) if isinstance(raw, classmethod) else wrapper
                for key, value in list(vars(owner).items()):
                    if value is raw:  # also aliases such as __rmul__ = __mul__
                        setattr(owner, key, new)
            else:
                wrappers[id(fn)] = wrapper
        for module in MODULES:
            for key, value in list(vars(module).items()):
                if not key.startswith("__"):
                    setattr(module, key, _swap(value, wrappers))

    def fps_stats(self) -> dict:
        """Largest coefficient bit length and the count of integer
        coefficients over every output of the traced fps operations."""
        bits = ints = total = 0
        for series in self.fps_outputs:
            for c in series.coeffs:
                total += 1
                if c.denominator == 1:
                    ints += 1
                bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
        return {"bits_max": bits, "int_coeffs": ints, "coeffs": total}


def _swap(value, wrappers: dict):
    """``value`` with every target replaced by its wrapper, also inside the
    dict and tuple dispatch tables chordlab keeps at module level (the
    wrappers keep the targets alive, so their ids stay unique)."""
    if id(value) in wrappers:
        return wrappers[id(value)]
    if isinstance(value, dict):
        for key, item in value.items():
            value[key] = _swap(item, wrappers)
    elif isinstance(value, tuple):
        swapped = tuple(_swap(item, wrappers) for item in value)
        if any(a is not b for a, b in zip(swapped, value)):
            return swapped
    return value


def self_times(spans) -> list[float]:
    """Self time of each span in seconds: its duration minus the part of
    its interval that its children cover.  Children may overlap each other
    or stick out of the parent; only the covered part inside counts."""
    children = defaultdict(list)
    for index, (_, start, end, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (_, start, end, _) in enumerate(spans):
        covered = 0
        cursor = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start = max(c_start, cursor)
            c_end = min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append((end - start - covered) / 1e9)
    return out
