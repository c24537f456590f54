"""Span tracer that wraps the public functions of the ``sra.*`` modules.

Nothing under ``src/`` is changed: ``install`` replaces each traced
function in every ``sra`` module namespace that holds it (names copied
by ``from ... import`` included), and each traced method on the class
that defines it.  ``uninstall`` puts the originals back.

A span's self time is its duration minus the durations of the traced
spans it directly encloses, so per-function self times add up to the
traced wall time less the time spent outside every traced function.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
import weakref
from collections import defaultdict

MODULES = (
    "algebra", "core", "single_valued", "normal", "boolean_ops",
    "equiv", "regex", "expand", "cli",
)

# (module, attribute path, span name); "Class.method" paths are methods
TARGETS = (
    ("algebra", "Algebra.minterms", "algebra.minterms"),
    ("algebra", "Algebra.is_sat", "algebra.is_sat"),
    ("algebra", "Algebra.has_min_size", "algebra.has_min_size"),
    ("algebra", "Algebra.witness", "algebra.witness"),
    ("single_valued", "to_single_valued", "single_valued.to_single_valued"),
    ("boolean_ops", "complete", "boolean_ops.complete"),
    ("boolean_ops", "intersect", "boolean_ops.intersect"),
    ("boolean_ops", "union", "boolean_ops.union"),
    ("normal", "minterm_basis", "normal.minterm_basis"),
    ("normal", "LazyNorm.successors", "normal.LazyNorm.successors"),
    ("normal", "LazyNorm.successor_index", "normal.LazyNorm.successor_index"),
    ("normal", "is_empty", "normal.is_empty"),
    ("normal", "is_deterministic", "normal.is_deterministic"),
    ("normal", "normalize", "normal.normalize"),
    ("equiv", "equivalent", "equiv.equivalent"),
    ("equiv", "includes", "equiv.includes"),
    ("regex", "compile", "regex.compile"),
    ("regex", "match", "regex.match"),
    ("core", "membership", "core.membership"),
    ("core", "dumps", "core.dumps"),
    ("core", "loads", "core.loads"),
    ("expand", "expand_to_sfa", "expand.expand_to_sfa"),
    ("cli", "main", "cli.main"),
)

# worklist directions per equivalence-checking span: each explored
# triple asks successor_index once per direction
_EQUIV_DIRECTIONS = {"equiv.equivalent": 2, "equiv.includes": 1}


def _sizes(**fields):
    """Hook adding len() of result attributes to the span's counters."""
    def hook(tracer, stats, args, kwargs, result):
        for counter, attr in fields.items():
            value = result if attr is None else getattr(result, attr)
            stats[counter] += len(value)
    return hook


def _is_sat(tracer, stats, args, kwargs, result):
    stats["true"] += bool(result)


def _successors(tracer, stats, args, kwargs, result):
    # a cache hit hands back the list object the instance returned
    # before; telling them apart by id avoids rehashing the state key
    seen = tracer._expanded.setdefault(args[0], set())
    if id(result) in seen:
        stats["hits"] += 1
    else:
        seen.add(id(result))
        tracer.stats["normal.states"]["count"] += 1
        tracer.stats["normal.edges"]["count"] += len(result)


def _successor_index(tracer, stats, args, kwargs, result):
    for frame in reversed(tracer._stack):
        directions = _EQUIV_DIRECTIONS.get(frame[0])
        if directions:
            tracer.stats["equiv.triples"]["count"] += 1 / directions
            return


def _compile(tracer, stats, args, kwargs, result):
    stats["states_out"] += len(result.sra.states)


def _chars(tracer, stats, args, kwargs, result):
    stats["chars"] += len(args[1])


def _dumps(tracer, stats, args, kwargs, result):
    stats["bytes"] += len(result)


def _loads(tracer, stats, args, kwargs, result):
    stats["bytes"] += len(args[0])


def _expand(tracer, stats, args, kwargs, result):
    stats["sfa_states"] += result.state_count
    if result.sfa is not None:
        stats["sfa_transitions"] += len(result.sfa.transitions)


HOOKS = {
    "algebra.minterms": _sizes(out=None),
    "algebra.is_sat": _is_sat,
    "single_valued.to_single_valued": _sizes(states_out="states", transitions_out="transitions"),
    "boolean_ops.complete": _sizes(states_out="states"),
    "boolean_ops.intersect": _sizes(states_out="states", transitions_out="transitions"),
    "normal.minterm_basis": _sizes(minterms=None),
    "normal.LazyNorm.successors": _successors,
    "normal.LazyNorm.successor_index": _successor_index,
    "normal.normalize": _sizes(states_out="states"),
    "regex.compile": _compile,
    "regex.match": _chars,
    "core.membership": _chars,
    "core.dumps": _dumps,
    "core.loads": _loads,
    "expand.expand_to_sfa": _expand,
}


class Tracer:
    """Per-span call counts, self times and size counters."""

    def __init__(self):
        self.stats = defaultdict(lambda: defaultdict(float))
        self.sites = []  # (owner, attribute, original) for every patch
        self._stack = []  # [span name, time covered by child spans]
        self._expanded = weakref.WeakKeyDictionary()
        self._paused = False
        self.paused_s = 0.0  # wall time spent inside paused()

    def _wrap(self, span, fn):
        stack = self._stack
        stats = self.stats[span]
        hook = HOOKS.get(span)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            frame = [span, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                stats["calls"] += 1
                stats["self_s"] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if hook is not None:
                hook(self, stats, args, kwargs, result)
            return result

        traced.__wrapped_span__ = span
        return traced

    def install(self):
        modules = [importlib.import_module("sra." + name) for name in MODULES]
        for module_name, path, span in TARGETS:
            module = importlib.import_module("sra." + module_name)
            if "." in path:
                class_name, method = path.split(".")
                owner = getattr(module, class_name)
                original = owner.__dict__[method]
                self._patch(owner, method, original, self._wrap(span, original))
                continue
            original = getattr(module, path)
            wrapped = self._wrap(span, original)
            for holder in modules:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        self._patch(holder, attr, original, wrapped)
        return self

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside run untraced (the benchmark's own checks)."""
        self._paused = True
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.paused_s += time.perf_counter() - t0
            self._paused = False

    def _patch(self, owner, attr, original, wrapped):
        setattr(owner, attr, wrapped)
        self.sites.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self.sites):
            setattr(owner, attr, original)
        self.sites.clear()

    def self_total(self) -> float:
        return sum(s["self_s"] for s in self.stats.values() if "self_s" in s)
