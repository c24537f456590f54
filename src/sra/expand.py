"""Expansion of register automata into plain finite automata.

Over a finite domain of storable values, every configuration (state,
register contents) becomes a state of an ordinary symbolic finite
automaton.  Transitions that store enumerate the domain; transitions
that read or ignore the registers stay symbolic, constrained by the
concrete register contents.  All steps between one configuration pair
are merged into a single predicate.

The construction stops with an overflow report instead of an automaton
when it discovers more configurations than the state limit; overflow is
a result, not an error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .algebra import Atom, Not, conj, disj
from .core import Label, Sra

DEFAULT_MAX_STATES = 2_000_000

CSV_HEADER = "name,sra_states,sra_tr,registers,reg_domain,sfa_states,sfa_tr"


@dataclass
class Expansion:
    sfa: Optional[Sra]  # None when the state limit was hit
    overflow: bool
    state_count: int  # configurations discovered before stopping
    domain_size: int
    max_states: int


def expand_to_sfa(S: Sra, domain, max_states: int = DEFAULT_MAX_STATES) -> Expansion:
    algebra = S.algebra
    dom = sorted(set(domain), key=algebra.sort_key)
    value_index = {a: i + 1 for i, a in enumerate(dom)}
    for v in S.initial_valuation:
        if v is not None and v not in value_index:
            dom.append(v)
            value_index[v] = len(dom)
    domain_size = len(dom)
    base = len(dom) + 1  # slot 0 encodes the empty register
    nregs = len(S.registers)

    def encode(q: int, vals) -> int:
        code = q
        for x in vals:
            code = code * base + (0 if x is None else value_index[x])
        return code

    def decode(code: int):
        slots = []
        for _ in range(nregs):
            code, d = divmod(code, base)
            slots.append(None if d == 0 else dom[d - 1])
        return code, tuple(reversed(slots))

    out = S.out
    sat_cache = {}

    def sat_syms(guard):
        hit = sat_cache.get(guard)
        if hit is None:
            hit = [a for a in dom if algebra.denotes(guard, a)]
            sat_cache[guard] = hit
        return hit

    start = encode(S.initial, S.initial_valuation)
    order = [start]
    index = {start: 0}
    edges = {}  # (src index, dst index) -> list of predicates

    i = 0
    while i < len(order):
        src_code = order[i]
        q, vals = decode(src_code)
        for _, lab, q2 in out[q]:
            targets = []  # (new valuation, predicate)
            if lab.E:
                held = {vals[r] for r in lab.E}
                if None in held or len(held) != 1:
                    continue
                a = held.pop()
                if not algebra.denotes(lab.guard, a):
                    continue
                if any(vals[r] == a for r in lab.I):
                    continue
                v2 = tuple(a if r in lab.U else vals[r] for r in range(nregs))
                targets.append((v2, Atom(a)))
            elif not lab.U:
                pred = conj(
                    [lab.guard]
                    + [Not(Atom(vals[r])) for r in lab.I if vals[r] is not None]
                )
                if algebra.is_sat(pred):
                    targets.append((vals, pred))
            else:
                blocked = {vals[r] for r in lab.I if vals[r] is not None}
                for a in sat_syms(lab.guard):
                    if a in blocked:
                        continue
                    v2 = tuple(a if r in lab.U else vals[r] for r in range(nregs))
                    targets.append((v2, Atom(a)))
            for v2, pred in targets:
                dst_code = encode(q2, v2)
                j = index.get(dst_code)
                if j is None:
                    if len(order) >= max_states:
                        return Expansion(
                            None, True, len(order) + 1, domain_size, max_states
                        )
                    j = len(order)
                    index[dst_code] = j
                    order.append(dst_code)
                edges.setdefault((i, j), []).append(pred)
        i += 1

    def name(code: int) -> str:
        q, vals = decode(code)
        if not vals:
            return S.states[q]
        slots = ",".join("_" if x is None else str(x) for x in vals)
        return f"{S.states[q]}|{slots}"

    transitions = tuple(
        (src, Label(disj(preds), frozenset(), frozenset(), frozenset()), dst)
        for (src, dst), preds in edges.items()
    )
    finals = frozenset(
        idx for idx, code in enumerate(order) if decode(code)[0] in S.finals
    )
    sfa = Sra(
        algebra=algebra,
        registers=(),
        states=tuple(name(code) for code in order),
        initial=0,
        initial_valuation=(),
        finals=finals,
        transitions=transitions,
    )
    return Expansion(sfa, False, len(order), domain_size, max_states)


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
