"""Translation of arbitrary SRAs into single-valued form.

A single-valued SRA keeps every register value distinct: the initial
valuation is injective on non-empty registers and every label is either

* read(r)  = (guard, {r}, {}, {})        -- input equals register r, or
* fresh(r) = (guard, {}, R, {r})         -- input differs from every
  register and is stored into r.

The translation tracks, per state, a map f from original registers to
the slots of the translated automaton: original register x currently
holds the value stored in slot f(x).  One extra scratch slot absorbs
inputs that the original automaton reads without storing (or stores
nowhere we still track), so the output has r+1 registers.  Only (state,
f) pairs reachable from the initial one are materialized.
"""

from __future__ import annotations

from collections import deque
from typing import Optional, Tuple

from .core import Label, Sra


def sv_label_kind(nregisters: int, label: Label) -> Optional[Tuple[str, int]]:
    """Classify a label as ('read', r) / ('fresh', r) / ('bullet', -1) / None."""
    allregs = frozenset(range(nregisters))
    if len(label.E) == 1 and not label.I and not label.U:
        return ("read", next(iter(label.E)))
    if not label.E and label.I == allregs and len(label.U) == 1:
        return ("fresh", next(iter(label.U)))
    if not label.E and label.I == allregs and not label.U:
        return ("bullet", -1)
    return None


def is_single_valued(S: Sra) -> bool:
    present = [v for v in S.initial_valuation if v is not None]
    if len(set(present)) != len(present):
        return False
    n = len(S.registers)
    for _, lab, _ in S.transitions:
        kind = sv_label_kind(n, lab)
        if kind is None:
            return False
        # with no registers every input is trivially fresh and unstored
        if kind[0] == "bullet" and n > 0:
            return False
    return True


def _fresh_register_name(taken) -> str:
    name = "~"
    while name in taken:
        name += "~"
    return name


def to_single_valued(S: Sra) -> Sra:
    """Equivalent single-valued SRA with r+1 registers.

    States are pairs (q, f); transitions follow the original ones:

    * a symbol equal to the content of slot s can be consumed when the
      original constraint sets agree with the set of registers mapped to
      s, yielding a read(s) transition;
    * a globally fresh symbol yields a fresh(s) transition into the
      least slot whose register class is absorbed by the update set (or
      the least empty slot when the original stores nowhere).

    The slot choice for fresh transitions depends only on (f, U), which
    keeps the construction canonical and determinism-preserving.
    """
    nregs = len(S.registers)
    nslots = nregs + 1
    slot_names = tuple(S.registers) + (_fresh_register_name(set(S.registers)),)
    all_slots = frozenset(range(nslots))

    # injective initial slot valuation: distinct stored values go to the
    # lowest slots in canonical value order
    distinct = sorted(
        {v for v in S.initial_valuation if v is not None}, key=S.algebra.sort_key
    )
    v0p = tuple(distinct[i] if i < len(distinct) else None for i in range(nslots))
    slot_of_value = {v: i for i, v in enumerate(distinct)}
    empty_slot = len(distinct)
    f0 = tuple(
        slot_of_value[v] if v is not None else empty_slot
        for v in S.initial_valuation
    )

    def name_of(q: int, f: tuple) -> str:
        if not f:
            return S.states[q]
        return S.states[q] + "|" + ",".join(str(s) for s in f)

    order = []  # (q, f) in discovery order
    index = {}

    def intern(q: int, f: tuple) -> int:
        key = (q, f)
        if key not in index:
            index[key] = len(order)
            order.append(key)
        return index[key]

    start = intern(S.initial, f0)
    transitions = []
    seen = set()

    def emit(t):
        if t not in seen:
            seen.add(t)
            transitions.append(t)

    # filled[i] over-approximates, across all paths into state i, the set
    # of slots that may hold a value; read transitions on provably-empty
    # slots can never fire and are dropped, which keeps the translation
    # close to the original automaton's size
    filled = {start: frozenset(s for s in range(nslots) if v0p[s] is not None)}
    queue = deque([start])

    def propagate(dst: int, pn: frozenset):
        if dst not in filled:
            filled[dst] = pn
            queue.append(dst)
        elif not pn <= filled[dst]:
            filled[dst] |= pn
            queue.append(dst)

    while queue:
        src_idx = queue.popleft()
        q, f = order[src_idx]
        mypn = filled[src_idx]
        classes = [frozenset(x for x in range(nregs) if f[x] == s) for s in range(nslots)]
        for _, lab, q2 in S.out[q]:
            E, I, U = lab.E, lab.I, lab.U
            for s in range(nslots):
                if s not in mypn:
                    continue
                cls = classes[s]
                if E <= cls and not (I & cls):
                    f2 = tuple(s if x in U else f[x] for x in range(nregs))
                    dst_idx = intern(q2, f2)
                    emit(
                        (
                            src_idx,
                            Label(lab.guard, frozenset({s}), frozenset(), frozenset()),
                            dst_idx,
                        )
                    )
                    propagate(dst_idx, mypn)
            if not E:
                if U:
                    s = min(s for s in range(nslots) if classes[s] <= U)
                    f2 = tuple(s if x in U else f[x] for x in range(nregs))
                    dst_idx = intern(q2, f2)
                else:
                    s = min(s for s in range(nslots) if not classes[s])
                    dst_idx = intern(q2, f)
                emit(
                    (
                        src_idx,
                        Label(lab.guard, frozenset(), all_slots, frozenset({s})),
                        dst_idx,
                    )
                )
                propagate(dst_idx, mypn | {s})

    states = tuple(name_of(q, f) for q, f in order)
    finals = frozenset(i for i, (q, _) in enumerate(order) if q in S.finals)
    return Sra(
        algebra=S.algebra,
        registers=slot_names,
        states=states,
        initial=0,
        initial_valuation=v0p,
        finals=finals,
        transitions=tuple(transitions),
    )
