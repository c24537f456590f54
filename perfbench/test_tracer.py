"""The tracer patches every binding site and counts calls exactly.

    python3 -m pytest perfbench/test_tracer.py

A tiny run that reaches every traced function is made once untraced
under cProfile and once under the tracer: per-function call counts must
agree, and so must every verdict.
"""

from __future__ import annotations

import contextlib
import cProfile
import io
import pstats
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from sra import (  # noqa: E402
    algebra, boolean_ops, cli, core, equiv, expand, normal, regex, single_valued,
)
from tracer import TARGETS, Tracer  # noqa: E402

# names copied by `from ... import` into other modules' namespaces
COPIED = {
    "is_deterministic": ("boolean_ops", "equiv", "regex", "cli"),
    "to_single_valued": ("normal", "equiv", "cli"),
    "membership": ("regex", "cli"),
    "complete": ("equiv", "cli"),
    "minterm_basis": ("equiv",),
    "is_empty": ("equiv", "cli"),
    "intersect": ("equiv", "cli"),
    "union": ("cli",),
    "equivalent": ("cli",),
    "includes": ("cli",),
    "normalize": ("cli",),
    "expand_to_sfa": ("cli",),
}
METHODS = {
    algebra.Algebra: ("minterms", "is_sat", "has_min_size", "witness"),
    normal.LazyNorm: ("successors", "successor_index"),
}


def tiny_run():
    """A few small decide, match and build calls reaching every target."""
    name = regex.compile(regex.BENCHMARK_PATTERNS["Name"]).sra
    name_f = regex.compile(regex.BENCHMARK_PATTERNS["Name-F"]).sra
    repeat = regex.compile(r"(.).*\1")
    verdicts = [
        equiv.equivalent(name, name),
        equiv.includes(name_f, name),
        normal.is_empty(name),
        normal.is_deterministic(repeat.sra),
        regex.match(repeat, "abca"),
        regex.match(regex.compile(regex.BENCHMARK_PATTERNS["Name-F"]), "ab cd a."),
    ]
    sv = single_valued.to_single_valued(name)
    built = [
        boolean_ops.complete(sv),
        normal.normalize(sv),
        boolean_ops.intersect(name, name_f),
        boolean_ops.union(name, name_f),
    ]
    verdicts += [core.dumps(core.loads(core.dumps(S))) for S in built]
    ex = expand.expand_to_sfa(name, [ord(c) for c in "ab ."])
    verdicts.append(core.dumps(ex.sfa))
    with contextlib.redirect_stdout(io.StringIO()) as out:
        verdicts.append(cli.main(["deterministic", "--pattern", r"(a)\1"]))
    verdicts.append(out.getvalue())
    return verdicts


def test_binding_sites_are_patched_and_restored():
    tracer = Tracer().install()
    try:
        for fn_name, holders in COPIED.items():
            for holder in holders:
                fn = getattr(getattr(sys.modules["sra." + holder], fn_name), "__wrapped_span__", None)
                assert fn is not None, f"sra.{holder}.{fn_name} is not traced"
        for cls, methods in METHODS.items():
            for method in methods:
                assert hasattr(cls.__dict__[method], "__wrapped_span__"), method
                for sub in cls.__subclasses__():
                    assert method not in sub.__dict__, f"{sub.__name__} overrides {method}"
    finally:
        tracer.uninstall()
    for module in (algebra, boolean_ops, cli, core, equiv, expand, normal, regex, single_valued):
        for value in vars(module).values():
            assert not hasattr(value, "__wrapped_span__")


def test_call_counts_match_cprofile_and_verdicts_match_untraced():
    profiler = cProfile.Profile()
    profiler.enable()
    plain = tiny_run()
    profiler.disable()
    profiled = {key: row[1] for key, row in pstats.Stats(profiler).stats.items()}

    tracer = Tracer().install()
    try:
        traced = tiny_run()
    finally:
        tracer.uninstall()

    assert traced == plain
    for module_name, path, span in TARGETS:
        fn = sys.modules["sra." + module_name]
        for part in path.split("."):
            fn = getattr(fn, part)
        code = fn.__code__
        expected = profiled.get((code.co_filename, code.co_firstlineno, code.co_name), 0)
        assert expected > 0, f"the tiny run never reaches {span}"
        assert tracer.stats[span]["calls"] == expected, span


if __name__ == "__main__":
    test_binding_sites_are_patched_and_restored()
    test_call_counts_match_cprofile_and_verdicts_match_untraced()
    print("ok")
