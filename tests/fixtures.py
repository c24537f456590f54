"""Shared fixture automata for the test suite."""

from __future__ import annotations

import random

from sra.algebra import And, Atom, Div, Interval, Not, TRUE, INTEGERS, UNICODE
from sra.core import make_sra


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
    brute-force oracles to see its whole language.
    """
    registers = [f"r{i}" for i in range(rng.randint(0, 2))]
    states = [f"s{i}" for i in range(4)]
    transitions = []
    for src, dst in zip(states, states[1:]):
        E, I, U = (), (), ()
        if registers:
            r = rng.choice(registers)
            if rng.random() < 0.4:
                E = (r,)
            else:
                I, U = tuple(registers), (r,)
        transitions.append((src, rng.choice(CHAIN_GUARDS), E, I, U, dst))
    finals = [s for s in states[:-1] if rng.random() < 0.3] + states[-1:]
    return make_sra(INTEGERS, registers, states, states[0], {}, finals, transitions)
