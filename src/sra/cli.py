"""Command-line interface.

Verbs: compile, member, empty, deterministic, subset, equiv, complement,
intersect, union, expand, bench.  Automata come from files
(``--sra``/``--lhs``/``--rhs``), each read here as UTF-8 text: a .json
path holds a JSON automaton and any other path a regex pattern; or from
inline patterns (``--pattern``).

Exit codes: 0 = success / predicate holds, 1 = predicate fails (with a
counterexample on stdout where one exists), 2 = usage or input error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import core
from .algebra import UNICODE
from .boolean_ops import complement, complete, intersect, union
from .core import Sra, membership
from .equiv import includes, separating_word
from .equiv import equivalent  # noqa: F401 - perfbench's tracer pins it here
from .expand import DEFAULT_MAX_STATES, csv_report, expand_to_sfa, size_report
from .normal import is_deterministic, is_empty, normalize
from .single_valued import to_single_valued
from . import regex as rx


MAX_DOMAIN = 0x110000  # values in the Unicode domain


class UsageError(Exception):
    pass


def _read_text(path: str) -> str:
    """A text file's contents, read as UTF-8, less a final line terminator.

    Only the terminator is dropped: spaces belong to the pattern or word.
    """
    with open(path, encoding="utf-8") as fh:
        return fh.read().removesuffix("\n")


def _write_text(text: str, out: str | None):
    """Write text to the --out file as UTF-8, or else to stdout unchanged."""
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load(path: str | None, pattern: str | None = None) -> Sra:
    if (path is None) == (pattern is None):
        raise UsageError("provide exactly one of --sra or --pattern")
    text = pattern if path is None else _read_text(path)
    if path is not None and path.endswith(".json"):
        return core.loads(text)
    return rx.compile(text).sra


def _word(S: Sra, args) -> list:
    if args.input is not None:
        text = args.input
    elif args.input_file is not None:
        text = _read_text(args.input_file)
    else:
        raise UsageError("provide --input or --input-file")
    if S.algebra is UNICODE:
        return [ord(c) for c in text]
    stripped = text.strip()
    if stripped.startswith("["):
        try:
            word = list(json.loads(stripped))
        except RecursionError:
            raise UsageError("input word nested too deeply") from None
    else:
        word = [int(x) for x in stripped.replace(",", " ").split()]
    for a in word:
        if not S.algebra._in_domain(a):
            raise UsageError(
                f"input symbol {a!r} is not an element of the {S.algebra.name} domain"
            )
    return word


def _printable(word: list) -> str:
    chars = []
    for a in word:
        if isinstance(a, int) and 32 <= a < 0x110000 and chr(a).isprintable():
            chars.append(chr(a))
        else:
            chars.append(f"\\u{{{a}}}")
    return "".join(chars)


def _print_word(label: str, word: list):
    print(json.dumps({label: word, "text": _printable(word)}))


def _parse_domain(spec: str) -> list:
    """Comma-separated values or ranges; "a-z" uses codepoints, "0-9" and
    "-5--1" ints.

    A domain of more than MAX_DOMAIN values is refused before any is listed.
    """
    spans = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        dash = part.find("-", 1)  # a first value may be negative
        lo, hi = part[:dash], part[dash + 1:]
        if dash < 0 or not hi:
            lo = hi = part
        elif lo == "-":  # a sign with no digits: "--5" is no range
            raise UsageError(f"bad domain value or range {part!r}")
        try:
            spans.append(range(int(lo), int(hi) + 1))
        except ValueError:
            if len(lo) != 1 or len(hi) != 1:
                raise UsageError(f"bad domain value or range {part!r}")
            spans.append(range(ord(lo), ord(hi) + 1))
    size = sum(max(0, span.stop - span.start) for span in spans)
    if size > MAX_DOMAIN:
        raise UsageError(f"domain of {size} values exceeds the limit of {MAX_DOMAIN}")
    if not size:
        raise UsageError("empty domain")
    return [a for span in spans for a in span]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sra")
    sub = parser.add_subparsers(dest="verb", required=True)

    def automaton_flags(p):
        p.add_argument("--sra", dest="sra_path", metavar="FILE")
        p.add_argument("--pattern")

    p = sub.add_parser("compile", help="compile a pattern or transform an automaton")
    automaton_flags(p)
    p.add_argument("--out")
    p.add_argument("--emit-normalized", action="store_true")
    p.add_argument("--complete", action="store_true")

    p = sub.add_parser("member", help="does the automaton accept the input word?")
    automaton_flags(p)
    p.add_argument("--input")
    p.add_argument("--input-file")

    for verb, help_text in [
        ("empty", "is the language empty?"),
        ("deterministic", "is the automaton deterministic?"),
    ]:
        p = sub.add_parser(verb, help=help_text)
        automaton_flags(p)

    for verb, help_text in [
        ("subset", "is every word of --lhs accepted by --rhs?"),
        ("equiv", "do --lhs and --rhs accept the same language?"),
        ("intersect", "product automaton of --lhs and --rhs"),
        ("union", "sum automaton of --lhs and --rhs"),
    ]:
        p = sub.add_parser(verb, help=help_text)
        p.add_argument("--lhs", required=True)
        p.add_argument("--rhs", required=True)
        p.add_argument("--out")

    p = sub.add_parser("complement", help="swap accepting and rejecting states")
    automaton_flags(p)
    p.add_argument("--complete", action="store_true", help="complete first")
    p.add_argument("--out")

    p = sub.add_parser("expand", help="expand to a plain finite automaton")
    automaton_flags(p)
    p.add_argument("--domain", required=True)
    p.add_argument("--max-states", type=int, default=DEFAULT_MAX_STATES)
    p.add_argument("--out")
    p.add_argument("--name", default="sra")

    p = sub.add_parser("bench", help="membership timing over growing inputs")
    p.add_argument("--pattern", default=rx.BENCHMARK_PATTERNS["Pr-C2"])
    p.add_argument("--unit", default="C:ab L:x D:yz",
                   help="record repeated (space-joined) to build the inputs")
    p.add_argument("--sizes", default="100,1000,10000,100000,1000000,10000000")
    p.add_argument("--out")
    return parser


def run(args) -> int:
    if args.verb == "compile":
        S = _load(args.sra_path, args.pattern)
        if args.complete:
            S = complete(to_single_valued(S))
        if args.emit_normalized:
            S = normalize(S)
        _write_text(core.dumps(S), args.out)
        return 0

    if args.verb == "member":
        S = _load(args.sra_path, args.pattern)
        return 0 if membership(S, _word(S, args)) else 1

    if args.verb == "empty":
        S = _load(args.sra_path, args.pattern)
        empty, word = is_empty(S)
        if empty:
            print("empty")
            return 0
        _print_word("witness", word)
        return 1

    if args.verb == "deterministic":
        S = _load(args.sra_path, args.pattern)
        det = is_deterministic(S)
        print("deterministic" if det else "nondeterministic")
        return 0 if det else 1

    if args.verb == "subset" or args.verb == "equiv":
        lhs = _load(args.lhs)
        rhs = _load(args.rhs)
        if args.verb == "subset":
            word, answer = includes(lhs, rhs)[1], "subset"
        else:
            word, answer = separating_word(lhs, rhs), "equivalent"
        if word is None:
            print(answer)
            return 0
        _print_word("counterexample", word)
        return 1

    if args.verb == "intersect" or args.verb == "union":
        op = intersect if args.verb == "intersect" else union
        _write_text(core.dumps(op(_load(args.lhs), _load(args.rhs))), args.out)
        return 0

    if args.verb == "complement":
        S = _load(args.sra_path, args.pattern)
        if args.complete:
            S = complete(to_single_valued(S))
        _write_text(core.dumps(complement(S)), args.out)
        return 0

    if args.verb == "expand":
        S = _load(args.sra_path, args.pattern)
        ex = expand_to_sfa(S, _parse_domain(args.domain), args.max_states)
        _write_text(csv_report([size_report(args.name, S, ex)]), args.out)
        return 0

    if args.verb == "bench":
        cp = rx.compile(args.pattern)
        sizes = [int(s) for s in args.sizes.split(",")]
        unit = args.unit
        rx.match(cp, unit)  # first compiled moves and set-table fills, untimed
        lines = ["length,seconds"]
        for size in sizes:
            # whole records only, so each probe runs the full scan
            reps = max(2, round(size / (len(unit) + 1)))
            text = " ".join([unit] * reps)
            t0 = time.perf_counter()
            rx.match(cp, text)
            lines.append(f"{len(text)},{time.perf_counter() - t0:.6f}")
        _write_text("\n".join(lines) + "\n", args.out)
        return 0

    raise UsageError(f"unknown verb {args.verb!r}")  # pragma: no cover


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return run(args)
    except (UsageError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
