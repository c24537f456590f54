"""Expansion of register automata into plain finite automata.

Over a finite domain of storable values, every configuration becomes a
state of an ordinary symbolic finite automaton.  Each distinct register
valuation, with None for an empty register, is interned once and named
by its index, so a configuration is the integer vid * |Q| + state, and
configurations are numbered in the order they are discovered.

Each state's moves are compiled into rows the first time a configuration
of it is expanded: the E, I and U registers, the target state, and what
the guard admits.  A move that reads or stores keeps the domain values
its guard admits, in domain order, computed once per guard.  A read then
fires on the one value its registers share when that value is admitted;
a store fires on each admitted value.  A move that neither reads nor
stores stays symbolic, constrained by the concrete register contents; it
fires when its guard admits more values than it admits among the
contents of the registers it excludes, and the guard's size is counted
once.  When no move of a state reads, stores or excludes a register, its
rows are merged by target once, and each configuration of it takes the
merged labels as they are.  All steps between one configuration pair are
merged into a single predicate.  A transition on a single value takes
that value's one shared `Label`, made when such a transition is first
emitted, each merged predicate has one `Label`, and each valuation one
suffix in the state names.

The construction stops with an overflow report instead of an automaton
as soon as it discovers one configuration more than the state limit;
overflow is a result, not an error.  A state limit below 1 and domain
values outside the algebra's domain are refused up front.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .algebra import TRUE, Atom, Not, conj, disj
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
    # initial register values join the domain, after its sorted values
    dom = dict.fromkeys(
        algebra.sorted_domain(domain) + [v for v in S.initial_valuation if v is not None]
    )
    admitted = {}  # guard -> the values of dom it admits, as an ordered dict
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

    def guard_of(step):
        return Atom(step) if isinstance(step, int) else step.guard

    def compile_rows(q):
        """q's moves as (kind, E, I, U, dst, data) rows, with register
        positions in the label's own order.  data is the admitted values
        (READ, STORE); for FREE, the label when no register is excluded,
        else (closure, size, guard).  Moves that can never fire are left
        out.  When every row is FREE and excludes no register, the rows
        merged by target in row order come instead, as a tuple of
        (dst, label) pairs."""
        rows = []
        for _, lab, q2 in S.out[q]:
            E, I, U = tuple(lab.E), tuple(lab.I), tuple(lab.U)
            guard = lab.guard
            if E or U:
                data = admitted.get(guard)
                if data is None:
                    algebra.check(guard)
                    data = admitted[guard] = (
                        dom if guard == TRUE else dict.fromkeys(filter(compile_guard(guard), dom))
                    )
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
        if all(row[0] is FREE and not row[2] for row in rows):
            merged = {}
            for row in rows:
                merged.setdefault(row[4], []).append(row[5].guard)
            return tuple((q2, label(disj(guards))) for q2, guards in merged.items())
        return rows

    n = len(S.states)
    valuations = [S.initial_valuation]  # valuation id -> register contents
    vids = {S.initial_valuation: 0}
    order = [S.initial]  # configurations vid * n + q, in discovery order
    index = {S.initial: 0}
    transitions = []
    compiled = [None] * n
    for i, c in enumerate(order):
        vid, q = divmod(c, n)
        base = c - q
        rows = compiled[q]
        if rows is None:
            rows = compiled[q] = compile_rows(q)
        if rows.__class__ is tuple:  # the merged (dst, label) pairs
            for q2, lab in rows:
                j = index.get(base + q2)
                if j is None:
                    if len(order) >= max_states:
                        return Expansion(None, True, len(order) + 1, len(dom))
                    j = index[base + q2] = len(order)
                    order.append(base + q2)
                transitions.append((i, lab, j))
            continue
        v = valuations[vid]
        out = {}  # target index -> its value or label, or the list of merged guards
        for kind, E, I, U, q2, data in rows:
            if kind is READ:
                a = v[E[0]]
                if (a not in data or any(v[r] != a for r in E[1:])
                        or any(v[r] == a for r in I)):
                    continue
                steps = (a,)
            elif kind is STORE:
                steps = data
                if I:
                    blocked = {v[r] for r in I}
                    steps = [a for a in data if a not in blocked]
            elif I:
                admits, size, guard = data
                # an input the guard admits and no excluded register holds
                # exists when the guard admits more values than the held ones
                held = {v[r] for r in I} - {None}
                if size <= sum(map(admits, held)):
                    continue
                steps = (label(conj([guard] + [
                    Not(Atom(v[r])) for r in I if v[r] is not None
                ])),)
            else:
                steps = (data,)
            for step in steps:
                if U:
                    stored = list(v)
                    for r in U:
                        stored[r] = step
                    stored = tuple(stored)
                    vid2 = vids.get(stored)
                    if vid2 is None:
                        vid2 = vids[stored] = len(valuations)
                        valuations.append(stored)
                    c2 = vid2 * n + q2
                else:
                    c2 = base + q2
                j = index.get(c2)
                if j is None:
                    if len(order) >= max_states:
                        return Expansion(None, True, len(order) + 1, len(dom))
                    j = index[c2] = len(order)
                    order.append(c2)
                prev = out.get(j)
                if prev is None:
                    out[j] = step
                elif prev.__class__ is list:
                    prev.append(guard_of(step))
                else:
                    out[j] = [guard_of(prev), guard_of(step)]
        for j, lab in out.items():
            if lab.__class__ is list:
                lab = label(disj(lab))
            elif isinstance(lab, int):
                lab = value_label(lab)
            transitions.append((i, lab, j))

    text = {None: "_", **{v: str(v) for v in dom}}  # register value -> its text in names
    suffix = ["|" + ",".join(map(text.__getitem__, v)) if v else "" for v in valuations]
    sfa = Sra(
        algebra=algebra,
        registers=(),
        states=tuple(S.states[c % n] + suffix[c // n] for c in order),
        initial=0,
        initial_valuation=(),
        finals=frozenset(i for i, c in enumerate(order) if c % n in S.finals),
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
