"""Translation of arbitrary SRAs into single-valued form.

A single-valued SRA keeps every register value distinct: the initial
valuation is injective on non-empty registers and every label is either

* read(r)  = (guard, {r}, {}, {})        -- input equals register r, or
* fresh(r) = (guard, {}, R, {r})         -- input differs from every
  register and is stored into r, or into no register when r is -1,
  written (guard, {}, R, {}).

The translation tracks, per state, a map f from original registers to
the slots of the translated automaton: original register x currently
holds the value stored in slot f(x).  There is one slot per original
register; an input the original automaton reads without storing is a
fresh move into no slot.  The rule for the moves out of one (state, f)
pair is `slot_moves`; `sra.normal.LazyNorm` applies it on the fly, and
`to_single_valued` materializes the pairs reachable from the initial
one.
"""

from __future__ import annotations

from collections import deque
from typing import Optional, Tuple

from .core import Label, Sra


def sv_label_kind(nregisters: int, label: Label) -> Optional[Tuple[str, int]]:
    """Classify a label as ('read', r) / ('fresh', r) / None; a fresh
    move that stores nowhere is ('fresh', -1)."""
    if len(label.E) == 1 and not label.I and not label.U:
        return ("read", next(iter(label.E)))
    if not label.E and label.I == frozenset(range(nregisters)) and len(label.U) <= 1:
        return ("fresh", next(iter(label.U), -1))
    return None


def sv_labels(nregisters: int):
    """A label table for one construction: label(guard, op, s) is the
    single-valued label of a read of, or fresh move into, slot s.  Each
    (guard object, op, slot) gets one Label, which every transition
    asking for it shares.  Keys are by identity, since a label's hash
    walks its guard tree; a kept Label keeps its guard, and so its id,
    alive while the table lasts."""
    none, every, table = frozenset(), frozenset(range(nregisters)), {}

    def label(guard, op: str, s: int) -> Label:
        key = (id(guard), op, s)
        if key not in table:
            one = frozenset({s}) if s >= 0 else none
            table[key] = Label(guard, *((one, none, none) if op == "read" else (none, every, one)))
        return table[key]

    return label


def is_single_valued(S: Sra) -> bool:
    present = [v for v in S.initial_valuation if v is not None]
    if len(set(present)) != len(present):
        return False
    n = len(S.registers)
    return all(sv_label_kind(n, lab) is not None for _, lab, _ in S.transitions)


def initial_slots(S: Sra):
    """The initial slot valuation and map f0 from registers to slots.

    A valued register shares the slot of the least register holding the
    same value; an empty register keeps its own, empty, slot.  On a
    single-valued automaton both are the identity.
    """
    v = S.initial_valuation
    f0 = tuple(x if a is None else v.index(a) for x, a in enumerate(v))
    return tuple(a if f0[x] == x else None for x, a in enumerate(v)), f0


def slot_moves(S: Sra, q: int, f: tuple) -> dict:
    """The single-valued moves out of (q, f), as (guard, op, slot, (q2, f2)).

    For every original move out of q:

    * a symbol equal to the content of slot s can be consumed when the
      original constraint sets agree with the set of registers mapped to
      s, giving ('read', s);
    * a globally fresh symbol gives ('fresh', s) into the least slot
      whose register class is absorbed by the update set, or
      ('fresh', -1) when the original stores nowhere.

    The slot choice for fresh moves depends only on (f, U), which keeps
    the construction canonical and determinism-preserving.  Reads of
    empty slots are listed too; they never fire.

    The moves are the keys of the returned dict, in order.  A read's
    value is True when it is a coincidence: every original move giving
    it has E = {}, so it fires on slot s's value only because that
    value also satisfies the guard.  Other moves map to False.
    """
    n = len(S.registers)
    classes = [set() for _ in range(n)]
    for x, s in enumerate(f):
        classes[s].add(x)

    def target(q2, U, s):
        return q2, tuple(s if x in U else t for x, t in enumerate(f)) if U else f

    moves = {}
    for _, lab, q2 in S.out[q]:
        E, I, U = lab.E, lab.I, lab.U
        # E lies in one class only if all of it maps to one slot
        for s in (f[next(iter(E))],) if E else range(n):
            if E <= classes[s] and not (I & classes[s]):
                move = (lab.guard, "read", s, target(q2, U, s))
                moves[move] = moves.get(move, True) and not E
        if not E:
            # with U non-empty some class lies inside it: an empty
            # slot's, or else every class is a single register
            s = min(s for s in range(n) if classes[s] <= U) if U else -1
            moves[(lab.guard, "fresh", s, target(q2, U, s))] = False
    return moves


def to_single_valued(S: Sra) -> Sra:
    """Equivalent single-valued SRA with the same registers.

    An input that is single-valued already is returned unchanged.
    Otherwise states are the (q, f) pairs reachable under `slot_moves`,
    named "q|f".
    """
    if is_single_valued(S):
        return S
    valuation, f0 = initial_slots(S)
    start = (S.initial, f0)
    # filled[(q, f)] over-approximates, across all paths into (q, f),
    # the set of slots that may hold a value; reads of provably-empty
    # slots can never fire and are dropped, which keeps the translation
    # close to the original automaton's size.  Its keys are the pairs in
    # discovery order.
    filled = {start: frozenset(s for s, a in enumerate(valuation) if a is not None)}
    moves = {}
    queue = deque([start])
    while queue:
        base = queue.popleft()
        if base not in moves:
            moves[base] = slot_moves(S, *base)
        for _, op, s, base2 in moves[base]:
            if op == "read" and s not in filled[base]:
                continue
            pn = filled[base] | {s} if op == "fresh" and s >= 0 else filled[base]
            if base2 not in filled or not pn <= filled[base2]:
                filled[base2] = filled.get(base2, pn) | pn
                queue.append(base2)

    index = {base: i for i, base in enumerate(filled)}
    label = sv_labels(len(S.registers))
    transitions = tuple(
        (index[base], label(guard, op, s), index[base2])
        for base in filled
        for guard, op, s, base2 in moves[base]
        if op == "fresh" or s in filled[base]
    )
    # input with no registers is single-valued, so every f is non-empty
    states = tuple(S.states[q] + "|" + ",".join(str(s) for s in f) for q, f in filled)
    return Sra(
        algebra=S.algebra,
        registers=S.registers,
        states=states,
        initial=0,
        initial_valuation=valuation,
        finals=frozenset(i for i, (q, _) in enumerate(filled) if q in S.finals),
        transitions=transitions,
    )
