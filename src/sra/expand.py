"""Expansion of register automata into plain finite automata.

Over a finite domain of storable values, every configuration becomes a
state of an ordinary symbolic finite automaton.  A configuration is the
flat tuple (state, *register contents), with None for an empty register,
and configurations are numbered in the order they are discovered.  A
move that reads or stores has one candidate input per value: the value
its read registers share, or each domain value its guard admits when it
only stores.  A move that neither reads nor stores stays symbolic,
constrained by the concrete register contents; it fires when its guard
admits more values than it admits among the contents of the registers
it excludes, and the guard's size is counted once.  All steps between
one configuration pair are merged into a single predicate.

The construction stops with an overflow report instead of an automaton
when it discovers more configurations than the state limit; overflow is
a result, not an error.  Domain values outside the algebra's domain are
refused before anything is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .algebra import AlgebraError, Atom, Not, conj, disj
from .core import Label, Sra, compile_guard

DEFAULT_MAX_STATES = 2_000_000

CSV_HEADER = "name,sra_states,sra_tr,registers,reg_domain,sfa_states,sfa_tr"


@dataclass
class Expansion:
    sfa: Optional[Sra]  # None when the state limit was hit
    overflow: bool
    state_count: int  # configurations discovered before stopping
    domain_size: int


def expand_to_sfa(S: Sra, domain, max_states: int = DEFAULT_MAX_STATES) -> Expansion:
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
    members = {}  # guard -> {value: Atom(value)} for the values of dom it admits
    counts = {}  # guard -> (its closure, its size up to one more than the registers)
    start = (S.initial, *S.initial_valuation)
    order = [start]
    index = {start: 0}
    edges = {}  # (src index, dst index) -> list of predicates
    for i, config in enumerate(order):
        for _, lab, q2 in S.out[config[0]]:
            if lab.E or lab.U:
                table = members.get(lab.guard)
                if table is None:
                    algebra.check(lab.guard)
                    admits = compile_guard(algebra, lab.guard)
                    table = members[lab.guard] = {a: Atom(a) for a in dom if admits(a)}
                if lab.E:
                    held = {config[r + 1] for r in lab.E}
                    candidates = held & table.keys() if len(held) == 1 else ()
                else:
                    candidates = table
                blocked = {config[r + 1] for r in lab.I}
                target = [q2, *config[1:]]
                targets = []
                for a in candidates:
                    if a not in blocked:
                        for r in lab.U:
                            target[r + 1] = a
                        targets.append((tuple(target), table[a]))
            else:
                entry = counts.get(lab.guard)
                if entry is None:
                    entry = counts[lab.guard] = (
                        compile_guard(algebra, lab.guard),
                        algebra.size(lab.guard, len(S.registers) + 1),
                    )
                admits, size = entry
                # an input the guard admits and no excluded register holds
                # exists when the guard admits more values than the held ones
                held = {config[r + 1] for r in lab.I} - {None}
                if size > sum(map(admits, held)):
                    pred = conj([lab.guard] + [
                        Not(Atom(config[r + 1])) for r in lab.I if config[r + 1] is not None
                    ])
                    targets = [((q2, *config[1:]), pred)]
                else:
                    targets = []
            for target, pred in targets:
                j = index.get(target)
                if j is None:
                    if len(order) >= max_states:
                        return Expansion(None, True, len(order) + 1, len(dom))
                    j = index[target] = len(order)
                    order.append(target)
                edges.setdefault((i, j), []).append(pred)

    def name(config) -> str:
        if len(config) == 1:
            return S.states[config[0]]
        slots = ",".join("_" if x is None else str(x) for x in config[1:])
        return f"{S.states[config[0]]}|{slots}"

    sfa = Sra(
        algebra=algebra,
        registers=(),
        states=tuple(name(config) for config in order),
        initial=0,
        initial_valuation=(),
        finals=frozenset(i for i, config in enumerate(order) if config[0] in S.finals),
        transitions=tuple(
            (src, Label(disj(preds), frozenset(), frozenset(), frozenset()), dst)
            for (src, dst), preds in edges.items()
        ),
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
