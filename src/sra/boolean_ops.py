"""Language-level Boolean combinations of register automata.

Intersection is a product construction over disjoint register sets
that builds only the state pairs reachable from the initial pair; union
adds a fresh initial state copying both automata's initial moves.
Complementation only works on complete deterministic machines, so a
completion construction (total-izing every state via a non-accepting
sink) and a syntactic completeness audit live here too.
"""

from __future__ import annotations

from dataclasses import replace

from .algebra import And, Not, TRUE, disj
from .core import Label, Sra, SraError
from .normal import is_deterministic
from .single_valued import is_single_valued, sv_label_kind, sv_labels, to_single_valued


def _require_same_algebra(S1: Sra, S2: Sra):
    if S1.algebra is not S2.algebra:
        raise SraError("operands must share an algebra")


def _shift_label(lab: Label, offset: int) -> Label:
    return Label(
        lab.guard,
        frozenset(r + offset for r in lab.E),
        frozenset(r + offset for r in lab.I),
        frozenset(r + offset for r in lab.U),
    )


def _merged_registers(S1: Sra, S2: Sra):
    names = tuple("1:" + r for r in S1.registers) + tuple("2:" + r for r in S2.registers)
    v0 = S1.initial_valuation + S2.initial_valuation
    return names, v0


def intersect(S1: Sra, S2: Sra) -> Sra:
    """Product automaton accepting exactly the words both operands accept.

    Only the state pairs reachable from the initial pair are built,
    through the move pairs whose guards are satisfiable together.
    """
    _require_same_algebra(S1, S2)
    algebra = S1.algebra
    registers, v0 = _merged_registers(S1, S2)
    off = len(S1.registers)
    shifted = [[(_shift_label(l2, off), q2) for _, l2, q2 in moves] for moves in S2.out]
    start = (S1.initial, S2.initial)
    order = [start]
    index = {start: 0}
    transitions = []
    for i, (p1, p2) in enumerate(order):
        for _, l1, q1 in S1.out[p1]:
            for l2, q2 in shifted[p2]:
                guard = And((l1.guard, l2.guard))
                if not algebra.is_sat(guard):
                    continue
                target = (q1, q2)
                j = index.get(target)
                if j is None:
                    j = index[target] = len(order)
                    order.append(target)
                lab = Label(guard, l1.E | l2.E, l1.I | l2.I, l1.U | l2.U)
                transitions.append((i, lab, j))
    return Sra(
        algebra=algebra,
        registers=registers,
        states=tuple(f"({S1.states[a]},{S2.states[b]})" for a, b in order),
        initial=0,
        initial_valuation=v0,
        finals=frozenset(
            i for i, (a, b) in enumerate(order) if a in S1.finals and b in S2.finals
        ),
        transitions=tuple(transitions),
    )


def union(S1: Sra, S2: Sra) -> Sra:
    """Automaton accepting the words either operand accepts.

    Both automata are laid side by side over disjoint registers; a new
    initial state copies the initial out-transitions of each, and is
    final exactly when one of the original initial states is.
    """
    _require_same_algebra(S1, S2)
    registers, v0 = _merged_registers(S1, S2)
    states = ("^",) + tuple("1:" + s for s in S1.states) + tuple("2:" + s for s in S2.states)
    transitions = []
    finals = set()
    for S, base, shift in ((S1, 1, 0), (S2, 1 + len(S1.states), len(S1.registers))):
        for p, lab, q in S.transitions:
            if shift:
                lab = _shift_label(lab, shift)
            transitions.append((base + p, lab, base + q))
            if p == S.initial:
                transitions.append((0, lab, base + q))
        finals.update(base + f for f in S.finals)
        if S.initial in S.finals:
            finals.add(0)
    return Sra(
        algebra=S1.algebra,
        registers=registers,
        states=states,
        initial=0,
        initial_valuation=v0,
        finals=frozenset(finals),
        transitions=tuple(transitions),
    )


def _gaps(S: Sra):
    """Per state, the (gap guard, op, slot) of each input channel, fresh
    first and then one read per register, whose guards leave a
    satisfiable gap.  A gap depends only on the channel's guard
    objects, so it is built and decided once per distinct sequence of
    them, across all channels and states."""
    nregs = len(S.registers)
    decided = {}  # guard ids -> their gap guard, or None when they cover all

    def gap(guards):
        # S keeps every guard alive, so no id is reused during the call
        key = tuple(map(id, guards))
        if key not in decided:
            g = Not(disj(guards))
            decided[key] = g if S.algebra.is_sat(g) else None
        return decided[key]

    for moves in S.out:
        channels = {("fresh", -1): [], **{("read", r): [] for r in range(nregs)}}
        for _, lab, _ in moves:
            op, r = sv_label_kind(nregs, lab)
            channels[("read", r) if op == "read" else ("fresh", -1)].append(lab.guard)
        yield [(g, op, r) for (op, r), gs in channels.items() if (g := gap(gs)) is not None]


def is_complete(S: Sra) -> bool:
    """Syntactic totality audit for single-valued automata.

    At every state, the read guards of each register and the fresh
    guards must each cover the whole domain; then every configuration
    can consume every domain element.
    """
    return is_single_valued(S) and not any(_gaps(S))


def complete(S: Sra) -> Sra:
    """Total-ized automaton: every input has a move from every state.

    A multi-valued S is translated by `to_single_valued` first; a
    single-valued one is taken as it is.  Uncovered inputs are routed to
    a fresh non-accepting sink that absorbs everything, so the language
    is unchanged, deterministic or not.  Fresh moves into the sink store
    nowhere, so the registers stay those of S, even when S has none.
    States whose channels leave the same gap share its label.
    """
    S = to_single_valued(S)
    nregs = len(S.registers)
    label = sv_labels(nregs)
    sink = len(S.states)
    sink_name = "sink"
    while sink_name in S.states:
        sink_name += "'"
    transitions = list(S.transitions)
    transitions += [
        (p, label(gap, op, r), sink) for p, gaps in enumerate(_gaps(S)) for gap, op, r in gaps
    ]
    transitions += [(sink, label(TRUE, "read", r), sink) for r in range(nregs)]
    transitions.append((sink, label(TRUE, "fresh", -1), sink))
    return replace(S, states=S.states + (sink_name,), transitions=tuple(transitions))


def complement(S: Sra) -> Sra:
    """Same automaton with accepting and rejecting states swapped.

    Refuses inputs that are not complete and deterministic rather than
    fixing them up silently; chain through `complete` first when the
    input is merely missing moves.
    """
    if not is_complete(S):
        raise SraError("complement requires a complete automaton")
    if not is_deterministic(S):
        raise SraError("complement requires a deterministic automaton")
    return replace(S, finals=frozenset(range(len(S.states))) - S.finals)
