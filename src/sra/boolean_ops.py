"""Language-level Boolean combinations of register automata.

Intersection is a product construction over disjoint register sets
that builds only the state pairs reachable from the initial pair; union
adds a fresh initial state copying both automata's initial moves.
Complementation only works on complete deterministic machines, so a
completion construction (total-izing every state via a non-accepting
sink) and a syntactic completeness audit live here too.
"""

from __future__ import annotations

from .algebra import And, Not, TRUE, disj
from .core import Label, Sra, SraError
from .normal import is_deterministic
from .single_valued import is_single_valued, sv_label, sv_label_kind


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
    off = len(S1.registers)
    base1 = 1
    base2 = 1 + len(S1.states)
    states = (
        ("^",)
        + tuple("1:" + s for s in S1.states)
        + tuple("2:" + s for s in S2.states)
    )
    transitions = []
    for p, lab, q in S1.transitions:
        transitions.append((base1 + p, lab, base1 + q))
        if p == S1.initial:
            transitions.append((0, lab, base1 + q))
    for p, lab, q in S2.transitions:
        shifted = _shift_label(lab, off)
        transitions.append((base2 + p, shifted, base2 + q))
        if p == S2.initial:
            transitions.append((0, shifted, base2 + q))
    finals = set()
    for f in S1.finals:
        finals.add(base1 + f)
    for f in S2.finals:
        finals.add(base2 + f)
    if S1.initial in S1.finals or S2.initial in S2.finals:
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


def _channel_guards(S: Sra, state: int):
    """Per-state guards grouped by input channel: one per register + fresh."""
    nregs = len(S.registers)
    reads = {r: [] for r in range(nregs)}
    fresh = []
    for _, lab, _ in S.out[state]:
        op, r = sv_label_kind(nregs, lab)
        if op == "read":
            reads[r].append(lab.guard)
        else:
            fresh.append(lab.guard)
    return reads, fresh


def is_complete(S: Sra) -> bool:
    """Syntactic totality audit for single-valued automata.

    At every state, the read guards of each register and the fresh
    guards must each cover the whole domain; then every configuration
    can consume every domain element.
    """
    if not is_single_valued(S):
        return False
    algebra = S.algebra
    for p in range(len(S.states)):
        reads, fresh = _channel_guards(S, p)
        if algebra.is_sat(Not(disj(fresh))):
            return False
        for guards in reads.values():
            if algebra.is_sat(Not(disj(guards))):
                return False
    return True


def complete(S: Sra) -> Sra:
    """Total-ized automaton: every input has a move from every state.

    Uncovered inputs are routed to a fresh non-accepting sink that
    absorbs everything, so the language is unchanged, deterministic or
    not.  Fresh moves into the sink store nowhere, so the registers
    stay those of S, even when S has none.
    """
    if not is_single_valued(S):
        raise SraError("completion requires a single-valued automaton")
    algebra = S.algebra
    nregs = len(S.registers)
    sink = len(S.states)
    sink_name = "sink"
    while sink_name in S.states:
        sink_name += "'"
    transitions = list(S.transitions)
    for p in range(len(S.states)):
        reads, fresh = _channel_guards(S, p)
        gap = Not(disj(fresh))
        if algebra.is_sat(gap):
            transitions.append((p, sv_label(nregs, gap, "fresh", -1), sink))
        for r in range(nregs):
            gap = Not(disj(reads.get(r, [])))
            if algebra.is_sat(gap):
                transitions.append((p, sv_label(nregs, gap, "read", r), sink))
    transitions += [(sink, sv_label(nregs, TRUE, "read", r), sink) for r in range(nregs)]
    transitions.append((sink, sv_label(nregs, TRUE, "fresh", -1), sink))
    return Sra(
        algebra=algebra,
        registers=S.registers,
        states=S.states + (sink_name,),
        initial=S.initial,
        initial_valuation=S.initial_valuation,
        finals=S.finals,
        transitions=tuple(transitions),
    )


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
    return Sra(
        algebra=S.algebra,
        registers=S.registers,
        states=S.states,
        initial=S.initial,
        initial_valuation=S.initial_valuation,
        finals=frozenset(range(len(S.states))) - S.finals,
        transitions=S.transitions,
    )
