"""SRA data model, configuration-transition semantics and membership.

An SRA is a 6-tuple (registers, states, initial state, initial register
valuation, final states, transitions).  A transition carries a label
(guard, E, I, U): it fires on input a from valuation v when the guard
holds of a, every register in E currently holds a, no register in I
holds a, and afterwards every register in U is assigned a.

States and registers are kept as small integer indices internally, with
their names in side tables, so the constraint sets are cheap to compare.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .algebra import (
    Algebra,
    AlgebraError,
    And,
    Atom,
    Div,
    FalsePred,
    Interval,
    Not,
    Or,
    Predicate,
    TRUE,
    TruePred,
    algebra_by_name,
)


class SraError(ValueError):
    pass


@dataclass(frozen=True)
class Label:
    guard: Predicate
    E: frozenset
    I: frozenset
    U: frozenset


@dataclass(frozen=True)
class Sra:
    algebra: Algebra = field(compare=False)
    registers: tuple  # register names
    states: tuple  # state names
    initial: int
    initial_valuation: tuple  # per-register value, None for an empty register
    finals: frozenset
    transitions: tuple  # (src_index, Label, dst_index)

    @cached_property
    def out(self) -> list:
        """Per-state index: out[q] lists the triples of `transitions`
        leaving q, in order.  Built on first use; it is kept outside the
        fields, so equality, hashing and JSON ignore it."""
        out = [[] for _ in self.states]
        for t in self.transitions:
            out[t[0]].append(t)
        return out


def make_sra(
    algebra: Algebra,
    registers: Sequence[str],
    states: Sequence[str],
    initial: str,
    initial_valuation: dict,
    finals: Iterable[str],
    transitions: Iterable[tuple],
) -> Sra:
    """Name-based constructor.

    transitions are (src, guard, E, I, U, dst) with state/register names
    and a Predicate guard.
    """
    registers = tuple(registers)
    states = tuple(states)
    if len(set(registers)) != len(registers):
        raise SraError("duplicate register names")
    if len(set(states)) != len(states):
        raise SraError("duplicate state names")
    sidx = {s: i for i, s in enumerate(states)}
    ridx = {r: i for i, r in enumerate(registers)}

    def state(name):
        if name not in sidx:
            raise SraError(f"unknown state {name!r}")
        return sidx[name]

    def regs(names):
        out = set()
        for n in names:
            if n not in ridx:
                raise SraError(f"unknown register {n!r}")
            out.add(ridx[n])
        return frozenset(out)

    v0 = tuple(initial_valuation.get(r) for r in registers)
    for extra in set(initial_valuation) - set(registers):
        raise SraError(f"initial valuation mentions unknown register {extra!r}")
    trans = tuple(
        (state(src), Label(guard, regs(E), regs(I), regs(U)), state(dst))
        for src, guard, E, I, U, dst in transitions
    )
    return Sra(
        algebra=algebra,
        registers=registers,
        states=states,
        initial=state(initial),
        initial_valuation=v0,
        finals=frozenset(state(f) for f in finals),
        transitions=trans,
    )


# ---------------------------------------------------------------------------
# validation


def validate(S: Sra) -> list:
    """Invariant audit; returns human-readable violations (empty = valid)."""
    problems = []
    nstates = len(S.states)
    nregs = len(S.registers)
    if not (0 <= S.initial < nstates):
        problems.append(f"initial state index {S.initial} out of range")
    for f in S.finals:
        if not (0 <= f < nstates):
            problems.append(f"final state index {f} out of range")
    if len(S.initial_valuation) != nregs:
        problems.append("initial valuation does not cover the register set exactly")
    for r, v in enumerate(S.initial_valuation):
        if v is not None:
            try:
                S.algebra.denotes(TRUE, v)
            except AlgebraError:
                problems.append(f"initial value {v!r} of register {r} outside the domain")
    for t, (src, lab, dst) in enumerate(S.transitions):
        where = f"transition #{t}"
        if not (0 <= src < nstates):
            problems.append(f"{where}: source index {src} out of range")
        if not (0 <= dst < nstates):
            problems.append(f"{where}: target index {dst} out of range")
        for setname, rs in (("E", lab.E), ("I", lab.I), ("U", lab.U)):
            for r in rs:
                if not (0 <= r < nregs):
                    problems.append(f"{where}: register index {r} in {setname} not in R")
        if lab.E & lab.I:
            problems.append(f"{where}: E and I overlap ({sorted(lab.E & lab.I)})")
        try:
            S.algebra.check(lab.guard)
        except AlgebraError as e:
            problems.append(f"{where}: bad guard: {e}")
    return problems


# ---------------------------------------------------------------------------
# semantics


def compile_guard(algebra: Algebra, p: Predicate):
    """Turn a predicate into a fast closure over domain elements."""
    if isinstance(p, TruePred):
        return lambda a: True
    if isinstance(p, FalsePred):
        return lambda a: False
    if isinstance(p, Interval):
        lo, hi = p.lo, p.hi
        if lo is None and hi is None:
            return lambda a: True
        if lo is None:
            return lambda a: a <= hi
        if hi is None:
            return lambda a: a >= lo
        return lambda a: lo <= a <= hi
    if isinstance(p, Atom):
        v = p.value
        return lambda a: a == v
    if isinstance(p, Div):
        k = p.k
        return lambda a: a % k == 0
    if isinstance(p, Not):
        f = compile_guard(algebra, p.arg)
        return lambda a: not f(a)
    if isinstance(p, And):
        fs = tuple(compile_guard(algebra, q) for q in p.args)
        if len(fs) == 2:
            f1, f2 = fs
            return lambda a: f1(a) and f2(a)
        return lambda a: all(f(a) for f in fs)
    if isinstance(p, Or):
        fs = tuple(compile_guard(algebra, q) for q in p.args)
        if len(fs) == 2:
            f1, f2 = fs
            return lambda a: f1(a) or f2(a)
        return lambda a: any(f(a) for f in fs)
    raise AlgebraError(f"unknown predicate node {p!r}")


def compiled_moves(S: Sra, q: int) -> list:
    """The moves out of q as (guard closure, E, I, U, dst) rows."""
    algebra = S.algebra
    return [
        (
            compile_guard(algebra, lab.guard),
            tuple(sorted(lab.E)),
            tuple(sorted(lab.I)),
            tuple(sorted(lab.U)),
            dst,
        )
        for _, lab, dst in S.out[q]
    ]


def step(S: Sra, config: tuple, a: int) -> set:
    """All successor configurations of (state, valuation) on input a."""
    q, v = config
    succ = set()
    for g, E, I, U, dst in compiled_moves(S, q):
        if not g(a):
            continue
        if any(v[r] != a for r in E):
            continue
        if any(v[r] == a for r in I):
            continue
        if U:
            w = list(v)
            for r in U:
                w[r] = a
            succ.add((dst, tuple(w)))
        else:
            succ.add((dst, v))
    return succ


def membership(S: Sra, word: Sequence[int]) -> bool:
    """Word acceptance via breadth-first closure over configuration sets.

    Reachable valuations only mention initial values and word symbols, so
    the per-step configuration set is finite.  A deterministic SRA keeps
    the set at size one and this degenerates to a linear scan.
    """
    out = [compiled_moves(S, q) for q in range(len(S.states))]
    finals = S.finals
    cur = [(S.initial, S.initial_valuation)]
    for a in word:
        nxt = []
        for q, v in cur:
            for g, E, I, U, dst in out[q]:
                if not g(a):
                    continue
                ok = True
                for r in E:
                    if v[r] != a:
                        ok = False
                        break
                if not ok:
                    continue
                for r in I:
                    if v[r] == a:
                        ok = False
                        break
                if not ok:
                    continue
                if U:
                    w = list(v)
                    for r in U:
                        w[r] = a
                    nxt.append((dst, tuple(w)))
                else:
                    nxt.append((dst, v))
        if not nxt:
            return False
        if len(nxt) > 1:
            nxt = list(dict.fromkeys(nxt))
        cur = nxt
    return any(q in finals for q, _ in cur)


# ---------------------------------------------------------------------------
# embeddings


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
    from .algebra import INTEGERS

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
    from .algebra import UNICODE

    algebra = algebra or UNICODE
    trans = [(src, guard, (), (), (), dst) for src, guard, dst in transitions]
    return make_sra(algebra, (), states, initial, {}, finals, trans)


# ---------------------------------------------------------------------------
# JSON interchange format


def to_json_dict(S: Sra) -> dict:
    regs = S.registers
    return {
        "algebra": S.algebra.name,
        "registers": list(regs),
        "states": list(S.states),
        "initial": S.states[S.initial],
        "initial_valuation": {
            regs[r]: v for r, v in enumerate(S.initial_valuation)
        },
        "finals": [S.states[q] for q in sorted(S.finals)],
        "transitions": [
            {
                "from": S.states[src],
                "guard": S.algebra.show(lab.guard),
                "E": [regs[r] for r in sorted(lab.E)],
                "I": [regs[r] for r in sorted(lab.I)],
                "U": [regs[r] for r in sorted(lab.U)],
                "to": S.states[dst],
            }
            for src, lab, dst in S.transitions
        ],
    }


def from_json_dict(d: dict) -> Sra:
    try:
        algebra = algebra_by_name(d["algebra"])
        transitions = [
            (
                t["from"],
                algebra.parse(t["guard"]),
                t["E"],
                t["I"],
                t["U"],
                t["to"],
            )
            for t in d["transitions"]
        ]
        S = make_sra(
            algebra,
            d["registers"],
            d["states"],
            d["initial"],
            d["initial_valuation"],
            d["finals"],
            transitions,
        )
    except (KeyError, TypeError) as e:
        raise SraError(f"malformed automaton document: {e}") from e
    problems = validate(S)
    if problems:
        raise SraError("; ".join(problems))
    return S


def dumps(S: Sra) -> str:
    return json.dumps(to_json_dict(S), indent=2) + "\n"


def loads(text: str) -> Sra:
    try:
        d = json.loads(text)
    except json.JSONDecodeError as e:
        raise SraError(f"not valid JSON: {e}") from e
    return from_json_dict(d)


def load(path) -> Sra:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


def save(S: Sra, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(S))
