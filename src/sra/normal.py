"""Normalized automata: minterm guards plus per-slot abstractions.

Any SRA is normalized through its single-valued view, applied on the
fly: a base state (q, f) pairs a state with the map f from registers to
slots, and `sra.single_valued.slot_moves` lists its moves.  A slot
abstraction assigns to every slot the frozenset of minterms its value
may lie in, each named by its index in the minterm basis: the
singleton of the one it lies in, or the empty set for an empty slot.
Re-guarding every move by minterms and tracking abstractions per base
state turns the questions "can this move fire?" and "is some final
state reachable?" into finite-graph searches:

* a read of slot r can fire on each minterm inside its guard that the
  slot's set holds;
* a fresh input satisfying a minterm exists exactly when the minterm
  denotes more elements than the number of slots currently holding
  one of them.

Both are read off the basis: its `inside` table lists the minterms
inside each guard, and each minterm's kept cells give its size.

Normalized automata are materialized lazily; decision procedures only
touch states reachable from the initial abstraction.  Normalization,
emptiness and the determinism check share one A* search (`reach`).
Emptiness guides it by the automaton's `final_distances`, the fewest
moves to a final state with guards and registers ignored: a consistent
lower bound, so the path found is still a shortest one.  Without a
bound, the search is breadth-first.
A path `reach` finds is walked back from its parent map once (`path`)
and turned into a concrete word once (`replay`), or found to be taken
by no word: a value read outside its step's minterm, or a fresh step
whose minterm has no member left.  The simulation in `sra.equiv` is a
graph that `reach` walks too, and it reuses `path` and `replay` for its
failure traces and separating words.  It runs first on a coarse view of
`LazyNorm`, where a slot's set may hold more than one minterm, and a
coarse failure stands when its path replays.  On the exact view every
path replays.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Tuple

from .algebra import And, Atom, MintermSet
from .core import Sra, SraError
from .single_valued import initial_slots, is_single_valued, slot_moves, sv_labels
from .single_valued import to_single_valued  # noqa: F401 - perfbench's tracer pins it here


def minterm_basis(S: Sra, extra: Optional[Sra] = None) -> MintermSet:
    """Minterms over all transition guards plus atoms of initial values.

    With `extra` supplied the basis covers both automata's guards and
    initial-value atoms, so the two can be normalized over a common set
    of minterm guards.
    """
    algebra = S.algebra
    if extra is not None and extra.algebra is not algebra:
        raise SraError("operands must share an algebra")
    predicates = []
    for T in (S,) if extra is None else (S, extra):
        for _, lab, _ in T.transitions:
            predicates.append(lab.guard)
        for v in T.initial_valuation:
            if v is not None:
                predicates.append(Atom(v))
    return algebra.minterms(predicates)


class LazyNorm:
    """Reachable part of the normalized automaton of any SRA, grown on demand.

    States are ((q, f), abstraction) pairs.  Each base (q, f) turns its
    moves into rows (minterm indices, op, slot, coincidental, base2)
    once; successors are cached per state as (minterm_index, op, slot,
    coincidental, successor_key) tuples, where coincidental marks a
    read that `slot_moves` lists only as a coincidence.  `valuation` is
    the initial slot valuation.  The basis, `minterm_basis(S)` unless
    one covering S's guards and initial values is given, supplies each minterm's size,
    counted on its kept cells up to one more than the registers, its
    `inside` table of the minterms inside each guard, and each initial
    value's minterm, the one inside the value's atom.

    A slot holds the frozenset of minterms its value may lie in, and a
    read of it fires on every minterm that lies both in its guard and
    in that set.  Both views start from the same abstraction: the
    singleton of each initial value's minterm, or the empty set.  On
    the exact view a fresh move into minterm i stores the singleton of
    i.  With `coarse` set it stores every minterm that its guard
    admits, and it is always enabled and leads to one successor for
    all of them.  Every path of the exact view is then a path of the
    coarse one, with the same moves and minterms; `sra.equiv` searches
    the coarse view first.
    """

    def __init__(self, S: Sra, basis: Optional[MintermSet] = None, coarse: bool = False):
        self.S = S
        self.coarse = coarse
        self.algebra = S.algebra
        self.basis = minterm_basis(S) if basis is None else basis
        self.nregs = len(S.registers)
        # a fresh move into minterm i is enabled while fewer than sizes[i]
        # slots hold one of its elements; a slot count never reaches the cap
        self.sizes = [m.size(self.nregs + 1) for m in self.basis]
        self.inside = self.basis.inside
        self.valuation, f0 = initial_slots(S)
        # a slot holds the frozenset of minterms its value may lie in: one
        # shared set per guard, one shared singleton per minterm, and the
        # empty set for an empty slot; each hash is computed once
        self._sets = {t: frozenset(t) for t in self.inside.values()}
        self._one = [frozenset({i}) for i in range(len(self.basis))]
        # each initial value's atom is a source, inside exactly one minterm
        theta0 = tuple(
            frozenset() if v is None else self._one[self.inside[Atom(v)][0]]
            for v in self.valuation
        )
        self.initial = ((S.initial, f0), theta0)
        self._rows = {}
        self._succ = {}
        self._succ_idx = {}

    def is_final(self, key) -> bool:
        return key[0][0] in self.S.finals

    def successors(self, key) -> List[Tuple[int, str, int, bool, tuple]]:
        cached = self._succ.get(key)
        if cached is not None:
            return cached
        base, theta = key
        rows = self._rows.get(base)
        if rows is None:
            rows = self._rows[base] = [
                (self.inside.get(guard, ()), op, r, coincidental, base2)
                for (guard, op, r, base2), coincidental in slot_moves(self.S, *base).items()
            ]
        out = []
        for inside, op, r, coincidental, base2 in rows:
            if op == "read":
                held = theta[r]
                key2 = (base2, theta)
                for i in inside:
                    if i in held:
                        out.append((i, "read", r, coincidental, key2))
            elif self.coarse:
                theta2 = theta if r < 0 else theta[:r] + (self._sets[inside],) + theta[r + 1:]
                key2 = (base2, theta2)
                for i in inside:
                    out.append((i, "fresh", r, False, key2))
            else:  # fresh, stored into r or, when r < 0, nowhere
                for i in inside:
                    one = self._one[i]
                    if theta.count(one) < self.sizes[i]:
                        theta2 = theta if r < 0 else theta[:r] + (one,) + theta[r + 1:]
                        out.append((i, "fresh", r, False, (base2, theta2)))
        self._succ[key] = out
        return out

    def successor_index(self, key):
        """Successors keyed for matching: reads by (register, minterm),
        fresh moves by minterm."""
        cached = self._succ_idx.get(key)
        if cached is None:
            reads = {}
            fresh = {}
            for m, op, r, _, k2 in self.successors(key):
                if op == "read":
                    reads.setdefault((r, m), []).append(k2)
                else:
                    fresh.setdefault(m, []).append((r, k2))
            cached = (reads, fresh)
            self._succ_idx[key] = cached
        return cached


def _abstraction_name(ln: LazyNorm, key, show_slots: bool, names: dict) -> str:
    (q, f), theta = key
    if not theta:
        return ln.S.states[q]
    slots = ",".join(str(s) for s in f) + "|" if show_slots else ""
    return ln.S.states[q] + "|" + slots + ",".join([names[held] for held in theta])


def final_distances(S: Sra) -> List[Optional[int]]:
    """Per state, the fewest moves to a final state, or None if there is none.

    Distances are taken in S's own state graph, guards and registers
    ignored.  A normalized path projects onto a path of S, so each is a
    lower bound on the moves any configuration of that state needs to
    accept, and it drops by at most one per move.
    """
    preds = [[] for _ in S.states]
    for q, _, q2 in S.transitions:
        preds[q2].append(q)
    dist: List[Optional[int]] = [None] * len(S.states)
    queue = list(S.finals)
    for q in queue:
        dist[q] = 0
    # breadth-first from the finals: the queue grows while it is walked
    for q in queue:
        for p in preds[q]:
            if dist[p] is None:
                dist[p] = dist[q] + 1
                queue.append(p)
    return dist


def reach(ln, stop=None, priority=None):
    """Search ln from its initial state in A* order.

    ln is a LazyNorm or any graph with an `initial` node and a
    `successors` method listing steps whose last entry is the successor
    node, such as the simulation in `sra.equiv`.
    Returns (parent, goal).  parent maps every discovered state, in
    discovery order, to (predecessor, step) or, for the initial state,
    None.  goal is the first expanded state passing stop, and the search
    ends there; without one every reachable state is discovered.

    priority maps a state to a lower bound on its steps to a goal that
    drops by at most one per step, or to None where no goal is
    reachable; such a state is recorded but never expanded.  States are
    expanded by steps so far plus bound, then by smaller bound, then in
    queue order, so goal is at the fewest steps.  Without a priority
    every bound is 0 and the order is breadth-first.  A heap entry whose
    steps exceed its state's depth was superseded and is skipped.
    """
    bound = priority or (lambda key: 0)
    parent = {ln.initial: None}
    h = bound(ln.initial)
    if h is None:
        return parent, None
    depth = {ln.initial: 0}
    heap = [(h, h, 0, 0, ln.initial)]
    queued = 1
    while heap:
        _, _, _, g, key = heapq.heappop(heap)
        if g > depth[key]:
            continue
        if stop is not None and stop(key):
            return parent, key
        g += 1
        for step in ln.successors(key):
            key2 = step[-1]
            # a state without a bound has no depth and is never revisited
            if key2 in parent and depth.get(key2, 0) <= g:
                continue
            parent[key2] = (key, step)
            h = bound(key2)
            if h is not None:
                depth[key2] = g
                heapq.heappush(heap, (g + h, h, queued, g, key2))
                queued += 1
    return parent, None


def path(parent, goal):
    """The nodes from a search's root to goal, and the steps between them."""
    nodes = [goal]
    steps = []
    while parent[goal] is not None:
        goal, step = parent[goal]
        nodes.append(goal)
        steps.append(step)
    nodes.reverse()
    steps.reverse()
    return nodes, steps


def replay(ln: LazyNorm, valuations, steps) -> Optional[list]:
    """A concrete word along matched steps over one or more valuations,
    or None where no word takes them: a value read lies outside its
    step's minterm, or a fresh step's minterm has no member left.

    Each step starts (m, sides), with one (op, register) pair per
    valuation, or None for a side that has stopped moving; such a side
    is neither read nor excluded nor written.  A read takes its
    register's value; otherwise the input is minterm m's least member
    that no moving side's valuation holds.  Every fresh side stores the
    input into its register, unless that register is negative.
    Minterm m's least members are listed once per call, in witness
    order, and the list grows only while every member on it is held.
    """
    minterms = ln.basis.minterms
    vs = [list(v) for v in valuations]
    least = {}
    word = []
    for m, sides, *_ in steps:
        live = [(v, side) for v, side in zip(vs, sides) if side is not None]
        reads = [v[r] for v, (op, r) in live if op == "read"]
        if reads:
            a = reads[0]
            if a not in minterms[m]:
                return None
        else:
            held = {x for v, _ in live for x in v}
            members = least.setdefault(m, [])
            a = next((x for x in members if x not in held), None)
            while a is None:
                a = ln.algebra.witness(minterms[m], excluded=members)
                if a is None:
                    return None
                members.append(a)
                if a in held:
                    a = None
        for v, (op, r) in live:
            if op != "read" and r >= 0:
                v[r] = a
        word.append(a)
    return word


def normalize(S: Sra) -> Sra:
    """The reachable normalized automaton, materialized as a plain SRA.

    Its registers are the slots, one per register, holding the initial
    slot valuation; every guard is a minterm conjunction and every state
    records its base state and abstraction in its name.  A single-valued
    input's bases are its own states.
    """
    ln = LazyNorm(S)
    minterms = ln.basis.minterms
    # a slot's part of a state name: its minterm, or "_" when it is empty
    names = {ln._one[i]: repr(m) for i, m in enumerate(minterms)}
    names[frozenset()] = "_"
    order = list(reach(ln)[0])
    index = {key: i for i, key in enumerate(order)}
    label = sv_labels(ln.nregs)
    transitions = tuple(
        (i, label(minterms[m].conjunction, op, r), index[key2])
        for i, key in enumerate(order)
        for m, op, r, _, key2 in ln.successors(key)
    )
    show_slots = not is_single_valued(S)
    return Sra(
        algebra=S.algebra,
        registers=S.registers,
        states=tuple(_abstraction_name(ln, key, show_slots, names) for key in order),
        initial=0,
        initial_valuation=ln.valuation,
        finals=frozenset(i for i, key in enumerate(order) if ln.is_final(key)),
        transitions=transitions,
    )


def is_empty(S: Sra) -> Tuple[bool, Optional[list]]:
    """Language emptiness, with an accepted word when non-empty.

    Searches the normalized automaton in A* order, guided by the
    distance to a final state in S's own state graph, up to a nearest
    accepting state, and replays the path to it concretely.  When no
    final state is reachable from the initial one even in that graph,
    the answer needs no normalized state at all.
    """
    dist = final_distances(S)
    if dist[S.initial] is None:
        return True, None
    ln = LazyNorm(S)
    parent, goal = reach(ln, ln.is_final, lambda key: dist[key[0][0]])
    if goal is None:
        return True, None
    steps = [(m, ((op, r),)) for m, op, r, _, _ in path(parent, goal)[1]]
    word = replay(ln, [ln.valuation], steps)
    if word is None:
        raise SraError("internal error: an accepting path does not replay")
    return False, word


def _syntactically_deterministic(S: Sra) -> bool:
    """Sound fast path: pairwise-unsatisfiable guards per state.

    When any two distinct moves out of a state have disjoint guards, no
    input can ever fire two of them, whatever the registers hold.  Only
    a True result is conclusive.
    """
    algebra = S.algebra
    for moves in S.out:
        # a label's hash walks its guard tree, so moves are told apart by
        # label object; equal labels that are separate objects both stay
        guards = list({(id(lab), q2): lab.guard for _, lab, q2 in moves}.values())
        for i in range(len(guards)):
            for j in range(i + 1, len(guards)):
                if algebra.is_sat(And((guards[i], guards[j]))):
                    return False
    return True


def is_deterministic(S: Sra) -> bool:
    """At most one move per input symbol, from every reachable state.

    Decided on the normalized automaton: a clash is either two equal
    read/fresh labels with the same minterm guard but different targets,
    or two fresh transitions into different registers sharing a guard.
    Automata whose per-state guards are pairwise disjoint are accepted
    without building the normalized form.
    """
    if _syntactically_deterministic(S):
        return True
    ln = LazyNorm(S)
    return reach(ln, lambda key: _clashes(ln.successors(key)))[1] is None


def _clashes(succ) -> bool:
    """Do two of one state's normalized moves fire on one symbol?"""
    for i, (m1, op1, r1, _, d1) in enumerate(succ):
        for m2, op2, r2, _, d2 in succ[i + 1:]:
            if m1 == m2 and op1 == op2:
                if r1 == r2 and d1 != d2 or op1 == "fresh" and r1 != r2:
                    return True
    return False
