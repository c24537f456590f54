"""Expansion of register automata into plain finite automata.

Over a finite domain of storable values, every configuration becomes a
state of an ordinary symbolic finite automaton.  A configuration is the
flat tuple (state, *register contents), with None for an empty register,
and configurations are numbered in the order they are discovered.

Each state's moves are compiled into rows the first time a
configuration of it is expanded: the E, I and U register positions
within a configuration, the target state, and what the guard admits.
A move that reads or stores keeps the list and the set of the domain
values its guard admits, computed once per guard.  A read then fires on
the one value its registers share when that value is in the set; a
store fires on each admitted value.  A move that neither reads nor
stores stays symbolic, constrained by the concrete register contents;
it fires when its guard admits more values than it admits among the
contents of the registers it excludes, and the guard's size is counted
once.  All steps between one configuration pair are merged into a
single predicate.  Each value has one `Atom`, each merged predicate one
`Label`, and each register value one string in the state names.

The construction stops with an overflow report instead of an automaton
as soon as it discovers one configuration more than the state limit;
overflow is a result, not an error.  A state limit below 1 and domain
values outside the algebra's domain are refused up front.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .algebra import AlgebraError, Atom, Not, conj, disj
from .core import Label, Sra, SraError, compile_guard

DEFAULT_MAX_STATES = 2_000_000

CSV_HEADER = "name,sra_states,sra_tr,registers,reg_domain,sfa_states,sfa_tr"

READ, STORE, FREE = range(3)  # row kinds: reads, only stores, neither
NO_REGISTERS = frozenset()


@dataclass
class Expansion:
    sfa: Optional[Sra]  # None when the state limit was hit
    overflow: bool
    state_count: int  # configurations discovered before stopping
    domain_size: int


def expand_to_sfa(S: Sra, domain, max_states: int = DEFAULT_MAX_STATES) -> Expansion:
    if max_states < 1:
        raise SraError("max_states must be at least 1")
    algebra = S.algebra
    values = set(domain)
    for a in values:
        if not algebra._in_domain(a):
            raise AlgebraError(f"{a!r} is not a {algebra.name} domain element")
    # initial register values join the domain, after its sorted values
    dom = list(dict.fromkeys(
        sorted(values, key=algebra.sort_key)
        + [v for v in S.initial_valuation if v is not None]
    ))
    admitted = {}  # guard -> (list, set) of the values of dom it admits
    counted = {}  # guard -> (its closure, its size up to one more than the registers)
    labels = {}  # predicate -> its one label
    value_labels = {}  # value -> the label of its atom

    def label(p) -> Label:
        lab = labels.get(p)
        if lab is None:
            lab = labels[p] = Label(p, NO_REGISTERS, NO_REGISTERS, NO_REGISTERS)
        return lab

    def value_label(a) -> Label:
        lab = value_labels.get(a)
        if lab is None:
            lab = value_labels[a] = Label(Atom(a), NO_REGISTERS, NO_REGISTERS, NO_REGISTERS)
        return lab

    def compile_rows(q) -> list:
        """q's moves as (kind, E, I, U, dst, data) rows, with register
        positions shifted past the state and in the label's own order.
        data is the admitted values' set (READ) or list (STORE); for
        FREE, the label when no register is excluded, else (closure,
        size, guard).  Moves that can never fire are left out."""
        rows = []
        for _, lab, q2 in S.out[q]:
            E, I, U = (tuple(r + 1 for r in rs) for rs in (lab.E, lab.I, lab.U))
            guard = lab.guard
            if E or U:
                entry = admitted.get(guard)
                if entry is None:
                    algebra.check(guard)
                    admits = compile_guard(guard)
                    members = [a for a in dom if admits(a)]
                    entry = admitted[guard] = (members, set(members))
                data = entry[1] if E else entry[0]
                if data:
                    rows.append((READ if E else STORE, E, I, U, q2, data))
                continue
            entry = counted.get(guard)
            if entry is None:
                entry = counted[guard] = (
                    compile_guard(guard),
                    algebra.size(guard, len(S.registers) + 1),
                )
            admits, size = entry
            if I:
                rows.append((FREE, E, I, U, q2, (admits, size, guard)))
            elif size:
                rows.append((FREE, E, I, U, q2, label(guard)))
        return rows

    start = (S.initial, *S.initial_valuation)
    order = [start]
    index = {start: 0}
    transitions = []
    compiled = [None] * len(S.states)
    for i, config in enumerate(order):
        rows = compiled[config[0]]
        if rows is None:
            rows = compiled[config[0]] = compile_rows(config[0])
        out = {}  # target index -> its label, or the list of merged guards
        for kind, E, I, U, q2, data in rows:
            if kind is READ:
                a = config[E[0]]
                if (a not in data or any(config[r] != a for r in E[1:])
                        or any(config[r] == a for r in I)):
                    continue
                steps = (a,)
            elif kind is STORE:
                steps = data
                if I:
                    blocked = {config[r] for r in I}
                    steps = [a for a in data if a not in blocked]
            elif I:
                admits, size, guard = data
                # an input the guard admits and no excluded register holds
                # exists when the guard admits more values than the held ones
                held = {config[r] for r in I} - {None}
                if size <= sum(map(admits, held)):
                    continue
                steps = (label(conj([guard] + [
                    Not(Atom(config[r])) for r in I if config[r] is not None
                ])),)
            else:
                steps = (data,)
            target = [q2, *config[1:]]
            config2 = tuple(target)
            for step in steps:
                if U:
                    for r in U:
                        target[r] = step
                    config2 = tuple(target)
                j = index.get(config2)
                if j is None:
                    if len(order) >= max_states:
                        return Expansion(None, True, len(order) + 1, len(dom))
                    j = index[config2] = len(order)
                    order.append(config2)
                lab = step if kind is FREE else value_label(step)
                prev = out.get(j)
                if prev is None:
                    out[j] = lab
                elif prev.__class__ is list:
                    prev.append(lab.guard)
                else:
                    out[j] = [prev.guard, lab.guard]
        for j, lab in out.items():
            transitions.append((i, label(disj(lab)) if lab.__class__ is list else lab, j))

    text = {None: "_", **{v: str(v) for v in dom}}  # register value -> its text in names

    def name(config) -> str:
        if len(config) == 1:
            return S.states[config[0]]
        return f"{S.states[config[0]]}|{','.join(map(text.__getitem__, config[1:]))}"

    sfa = Sra(
        algebra=algebra,
        registers=(),
        states=tuple(map(name, order)),
        initial=0,
        initial_valuation=(),
        finals=frozenset(i for i, config in enumerate(order) if config[0] in S.finals),
        transitions=tuple(transitions),
    )
    return Expansion(sfa, False, len(order), len(dom))


def size_report(name: str, S: Sra, expansion: Expansion) -> dict:
    """One table row comparing the automaton with its expansion."""
    if expansion.overflow:
        sfa_states = sfa_tr = "---"
    else:
        sfa_states = len(expansion.sfa.states)
        sfa_tr = len(expansion.sfa.transitions)
    return {
        "name": name,
        "sra_states": len(S.states),
        "sra_tr": len(S.transitions),
        "registers": len(S.registers),
        "reg_domain": expansion.domain_size,
        "sfa_states": sfa_states,
        "sfa_tr": sfa_tr,
    }


def csv_report(rows) -> str:
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(",".join(str(row[k]) for k in CSV_HEADER.split(",")))
    return "\n".join(lines) + "\n"
