"""Shared fixture automata for the test suite."""

from __future__ import annotations

import random
import string
from itertools import product
from typing import Iterable, Optional, Sequence

from sra.algebra import Algebra, And, Atom, Div, Interval, Not, TRUE, INTEGERS, UNICODE
from sra.core import Sra, SraError, make_sra
from sra.single_valued import sv_label_kind

from oracles import denotes


def example3(final_guard=None):
    """Three-state integer SRA whose language is empty.

    State 0 stores a nonzero multiple of 3; the final transition wants the
    stored value to also be a multiple of 5 in [0,10], which is impossible.
    Passing final_guard overrides the 1->2 guard (the mutation used by the
    acceptance suite replaces div 5 with div 3, making the language
    non-empty).
    """
    if final_guard is None:
        final_guard = And((Interval(0, 10), Div(5)))
    return make_sra(
        INTEGERS,
        registers=["r"],
        states=["0", "1", "2"],
        initial="0",
        initial_valuation={"r": None},
        finals=["2"],
        transitions=[
            ("0", And((Div(3), Not(Atom(0)))), (), (), ("r",), "1"),
            ("1", final_guard, ("r",), (), (), "2"),
        ],
    )


def remark1():
    """Even integers only, non-empty, first symbol equals last symbol."""
    even = Div(2)
    return make_sra(
        INTEGERS,
        registers=["r"],
        states=["q0", "qf", "qm"],
        initial="q0",
        initial_valuation={"r": None},
        finals=["qf"],
        transitions=[
            ("q0", even, (), (), ("r",), "qf"),
            ("qf", even, ("r",), (), (), "qf"),
            ("qf", even, (), ("r",), (), "qm"),
            ("qm", even, ("r",), (), (), "qf"),
            ("qm", even, (), ("r",), (), "qm"),
        ],
    )


def remark1_oracle(word):
    return (
        len(word) >= 1
        and all(a % 2 == 0 for a in word)
        and word[0] == word[-1]
    )


def digits_sfa():
    """[0-9]+ as a register-free SRA over Unicode."""
    digit = Interval(ord("0"), ord("9"))
    return make_sra(
        UNICODE,
        registers=[],
        states=["s", "t"],
        initial="s",
        initial_valuation={},
        finals=["t"],
        transitions=[
            ("s", digit, (), (), (), "t"),
            ("t", digit, (), (), (), "t"),
        ],
    )


def first_symbol_repeats():
    """1-register automaton: first symbol appears again at the end."""
    return make_sra(
        INTEGERS,
        registers=["r"],
        states=["a", "b", "c"],
        initial="a",
        initial_valuation={"r": None},
        finals=["c"],
        transitions=[
            ("a", TRUE, (), (), ("r",), "b"),
            ("b", TRUE, (), (), (), "b"),
            ("b", TRUE, ("r",), (), (), "c"),
        ],
    )


def successors(S, config, a):
    """All configurations (state, valuation) that config moves to on a."""
    q, v = config
    out = set()
    for src, lab, dst in S.transitions:
        if src != q or not denotes(S.algebra, lab.guard, a):
            continue
        holding = {r for r, x in enumerate(v) if x == a}
        if lab.E <= holding and not lab.I & holding:
            out.add((dst, tuple(a if r in lab.U else x for r, x in enumerate(v))))
    return out


def shared_labels(S) -> int:
    """The number of label objects on S's transitions, asserting that
    transitions with the same guard object, kind and slot carry one."""
    labels = {}
    for _, lab, _ in S.transitions:
        key = (id(lab.guard), sv_label_kind(len(S.registers), lab))
        assert labels.setdefault(key, lab) is lab, key
    assert len({id(lab) for _, lab, _ in S.transitions}) == len(labels)
    return len(labels)


GUARD_POOL = (
    TRUE,
    Div(2),
    Interval(0, 2),
    Interval(1, 3),
    Not(Atom(1)),
    Atom(2),
    And((Interval(0, 3), Not(Atom(0)))),
)


# guards of two and three elements, two-element ones twice as often: a
# few stored values use them up, so whether an input can be fresh to both
# sides of a simulation depends on how many distinct values they hold
CHAIN_GUARDS = (Interval(0, 1), Interval(0, 1), Interval(0, 2))


def random_sra(rng: random.Random, max_states=4, max_registers=2):
    """Small random integer SRA for differential testing."""
    nstates = rng.randint(1, max_states)
    nregs = rng.randint(0, max_registers)
    states = [f"s{i}" for i in range(nstates)]
    registers = [f"r{i}" for i in range(nregs)]
    v0 = {}
    for r in registers:
        v0[r] = rng.choice([None, None, 0, 1, 2])
    transitions = []
    for _ in range(rng.randint(0, 2 * nstates + 2)):
        src = rng.choice(states)
        dst = rng.choice(states)
        guard = rng.choice(GUARD_POOL)
        E, I, U = set(), set(), set()
        for r in registers:
            roll = rng.random()
            if roll < 0.25:
                E.add(r)
            elif roll < 0.45:
                I.add(r)
            if rng.random() < 0.3:
                U.add(r)
        transitions.append((src, guard, tuple(E), tuple(I), tuple(U), dst))
    finals = [s for s in states if rng.random() < 0.5]
    return make_sra(
        INTEGERS, registers, states, states[0], v0, finals, transitions
    )


def random_chain(rng: random.Random):
    """A path of three moves over CHAIN_GUARDS, each one reading a
    register or storing a value fresh to all registers.

    Deterministic by construction, and short enough for the bounded
    brute-force oracles to see its whole language.  It has at least one
    register: a register-free chain stores nothing, and its simulation
    never reaches the doubly-fresh case.
    """
    registers = [f"r{i}" for i in range(rng.randint(1, 2))]
    states = [f"s{i}" for i in range(4)]
    transitions = []
    for src, dst in zip(states, states[1:]):
        r = rng.choice(registers)
        if rng.random() < 0.4:
            E, I, U = (r,), (), ()
        else:
            E, I, U = (), tuple(registers), (r,)
        transitions.append((src, rng.choice(CHAIN_GUARDS), E, I, U, dst))
    finals = [s for s in states[:-1] if rng.random() < 0.3] + states[-1:]
    return make_sra(INTEGERS, registers, states, states[0], {}, finals, transitions)


# one-, two- and three-element guards: stored values use up the small
# ones, so an input fresh to both sides of a simulation can run out
EQUALITY_GUARDS = (Interval(0, 0), Interval(0, 1), Interval(0, 2))


def random_equality_chain(rng: random.Random):
    """A path of three or four moves over EQUALITY_GUARDS, each one
    reading a register, maybe storing the value too, or storing a value
    without testing any register.

    Equality-only, as every regex-compiled automaton is: no move
    excludes a register or reads two.  So whether a stored value equals
    another one matters only where a move reads it.  Deterministic, with
    one move out of each state, and every word it accepts lies in 0..2.
    """
    registers = [f"r{i}" for i in range(rng.randint(1, 3))]
    states = [f"s{i}" for i in range(rng.randint(3, 4) + 1)]
    transitions = []
    for src, dst in zip(states, states[1:]):
        U = {r for r in registers if rng.random() < 0.3}
        if rng.random() < 0.4:
            E = (rng.choice(registers),)
        else:
            E = ()
            U.add(rng.choice(registers))
        transitions.append((src, rng.choice(EQUALITY_GUARDS), E, (), tuple(sorted(U)), dst))
    finals = [s for s in states[:-1] if rng.random() < 0.3] + states[-1:]
    return make_sra(INTEGERS, registers, states, states[0], {}, finals, transitions)


def family_chain(nregisters: int, moves) -> Sra:
    """The chain of moves over EQUALITY_GUARDS, accepting at its end only.

    Each move is (kind, register, guard), the last two as indices: a
    "read" of the register, a "store" into it with no test, or a "fresh"
    store into it of a value that no register holds.
    """
    registers = [f"r{i}" for i in range(nregisters)]
    states = [str(i) for i in range(len(moves) + 1)]
    transitions = []
    for i, (kind, r, g) in enumerate(moves):
        E = (registers[r],) if kind == "read" else ()
        I = tuple(registers) if kind == "fresh" else ()
        U = () if kind == "read" else (registers[r],)
        transitions.append((states[i], EQUALITY_GUARDS[g], E, I, U, states[i + 1]))
    return make_sra(INTEGERS, registers, states, states[0], {}, states[-1:], transitions)


def chain_family(nregisters: int, lengths, kinds=("read", "store")):
    """The moves of every `family_chain` of nregisters registers and of
    each length in lengths whose moves are of the given kinds, in a fixed
    order.  With the default kinds each chain is equality-only."""
    moves = list(product(kinds, range(nregisters), range(len(EQUALITY_GUARDS))))
    for n in lengths:
        for chain in product(moves, repeat=n):
            yield chain


# ---------------------------------------------------------------------------
# random regex patterns over ab-1

FUZZ_ATOMS = ["a", "b", "-", "1", ".", r"\d", r"\w", r"\W", "[ab]", "[^a]", "[a-b1]", "[-1]"]
FUZZ_QUANTIFIERS = ["*", "+", "?", "{0}", "{1}", "{2}", "{0,1}", "{1,2}", "{0,2}"]


def random_pattern(rng):
    """A pattern of the supported grammar, groups nested two deep, whose
    back-references name groups already opened."""
    groups = 0

    def alternation(depth):
        return "|".join(concatenation(depth) for _ in range(rng.choice((1, 1, 1, 2))))

    def concatenation(depth):
        return "".join(repeatable(depth) for _ in range(rng.randint(0, 3)))

    def repeatable(depth):
        item = atom(depth)
        return item + rng.choice(FUZZ_QUANTIFIERS) if rng.random() < 0.3 else item

    def atom(depth):
        nonlocal groups
        roll = rng.random()
        if depth and roll < 0.35:
            if roll < 0.25:
                groups += 1
                return "(" + alternation(depth - 1) + ")"
            return "(?:" + alternation(depth - 1) + ")"
        if groups and roll < 0.6:
            return "\\%d" % rng.randint(1, groups)
        return rng.choice(FUZZ_ATOMS)

    return alternation(2)


def small_backref_pattern(rng: random.Random):
    """Three or four groups over [ab] or (a|b), and one or two items
    that are [ab] or a back-reference to a group already closed; one
    item in ten is optional or starred.  The groups over [ab] store
    values of one two-element minterm, so an input fresh to both sides
    of a simulation runs out."""
    groups, others = rng.randint(3, 4), rng.randint(1, 2)
    opened = 0
    items = []
    while opened < groups or others:
        if opened < groups and (not opened or not others or rng.random() < 0.6):
            opened += 1
            item = rng.choice(("([ab])", "([ab])", "([ab])", "(a|b)"))
        else:
            others -= 1
            item = rng.choice(("\\%d" % rng.randint(1, opened), "[ab]"))
        items.append(item + rng.choice("?*") if rng.random() < 0.1 else item)
    return "".join(items)


# nondeterministic patterns whose long texts are decided by their last
# character, so what the head stored must be carried through the text
LONG_NONDET_PATTERNS = (r"(..).*\1", r"(.)(.).*\2\1", r"(?:a|b)*(.)(.)\1\2")


def long_nondet_text(rng: random.Random, pattern: str, n: int, accept: bool) -> str:
    """A text of n characters that the pattern, one of
    LONG_NONDET_PATTERNS, matches; unless accept, its last character is
    swapped (a and b, c and d) so that only that character rejects it."""
    if pattern == LONG_NONDET_PATTERNS[2]:
        x, y = rng.sample("cd", 2)
        text = "".join(rng.choices("ab", k=n - 4)) + x + y + x + y
    else:
        head = "".join(rng.choices("ab", k=2))
        tail = head if pattern == LONG_NONDET_PATTERNS[0] else head[::-1]
        text = head + "".join(rng.choices("abcd xy", k=n - 4)) + tail
    return text if accept else text[:-1] + text[-1].translate(str.maketrans("abcd", "badc"))


# e acute, no-break space and line separator: none is \s under re.ASCII,
# so each one is part of a [^\s]+ run, and . matches each one
NON_ASCII = "\u00e9\u00a0\u2028"


def random_word(rng: random.Random, alphabet: str, lo: int, hi: int) -> str:
    """lo to hi characters drawn from alphabet."""
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(lo, hi)))


def stock_text(name: str, rng: random.Random) -> str:
    """A text the stock pattern accepts, with non-ASCII characters in
    product codes and descriptions."""
    if name.startswith("IP"):
        head = random_word(rng, string.digits, int(name[2:]), int(name[2:]))

        def endpoint():
            digits = head + random_word(rng, string.digits, 12 - len(head), 12 - len(head))
            address = ".".join(digits[i:i + 3] for i in range(0, 12, 3))
            return f"IP: {address}:{random_word(rng, string.digits, 1, 4)}"

        return " ".join(endpoint() for _ in range(rng.randint(2, 3)))
    if name.startswith("Name"):
        first, last = (random_word(rng, string.ascii_lowercase, 1, 6) for _ in range(2))
        suffix = {"Name-F": first[0] + ".", "Name-L": last[0] + ".", "Name": first[0] + last[0]}
        return f"{first} {last} {suffix[name]}"
    if name == "XML":
        tag = random_word(rng, string.ascii_letters, 3, 3)
        return f"<{tag}>{random_word(rng, string.ascii_letters + string.digits + ' ', 0, 8)}</{tag}>"
    lot_referenced = name.startswith("Pr-CL")
    width = int(name[5:]) - 1 if lot_referenced else int(name[4:])
    visible = string.ascii_letters + string.digits + NON_ASCII
    code = random_word(rng, visible, width, width)
    if rng.random() < 0.5:  # a non-ASCII character right after C:
        code = rng.choice(NON_ASCII) + code[1:]
    lot = rng.choice(visible)
    return " ".join(
        f"C:{code} L:{lot if lot_referenced else rng.choice(visible)} D:{random_word(rng, visible, 1, 5)}"
        for _ in range(rng.randint(2, 3))
    )


def mutants(text: str, rng: random.Random, n: int) -> list:
    """Copies of text with one character replaced, inserted or deleted."""
    out = []
    for _ in range(n):
        i = rng.randrange(len(text))
        c = rng.choice(string.ascii_letters + string.digits + " .:" + NON_ASCII)
        out.append(rng.choice([text[:i] + c + text[i + 1:], text[:i] + c + text[i:],
                               text[:i] + text[i + 1:]]))
    return out


# ---------------------------------------------------------------------------
# embeddings: register automata and symbolic finite automata as SRAs


def from_ra(
    states: Sequence[str],
    initial: str,
    finals: Iterable[str],
    transitions: Iterable[tuple],
    registers: Sequence[str] = (),
    initial_valuation: Optional[dict] = None,
    algebra: Algebra = None,
) -> Sra:
    """Register automaton embedding: every guard becomes TOP.

    RA transitions are (src, kind, register, dst) where kind is "read"
    (input must equal the register), "store" (input overwrites the
    register) or "skip" (register is None, no constraint).
    """
    algebra = algebra or INTEGERS
    regs = list(registers)
    trans = []
    for src, kind, reg, dst in transitions:
        if kind == "skip":
            if reg is not None:
                raise SraError("skip transitions carry no register")
            trans.append((src, TRUE, (), (), (), dst))
            continue
        if reg is None:
            raise SraError(f"{kind} transition needs a register")
        if reg not in regs:
            regs.append(reg)
        if kind == "read":
            trans.append((src, TRUE, (reg,), (), (), dst))
        elif kind == "store":
            trans.append((src, TRUE, (), (), (reg,), dst))
        else:
            raise SraError(f"unknown RA transition kind {kind!r}")
    return make_sra(
        algebra, regs, states, initial, initial_valuation or {}, finals, trans
    )


def from_sfa(
    states: Sequence[str],
    initial: str,
    finals: Iterable[str],
    transitions: Iterable[tuple],
    algebra: Algebra = None,
) -> Sra:
    """Symbolic finite automaton embedding: no registers at all."""
    algebra = algebra or UNICODE
    trans = [(src, guard, (), (), (), dst) for src, guard, dst in transitions]
    return make_sra(algebra, (), states, initial, {}, finals, trans)
