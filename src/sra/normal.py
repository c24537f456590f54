"""Normalized automata: minterm guards plus per-register abstractions.

A register abstraction assigns to every register either the minterm its
current value lies in or the empty marker (None).  Re-guarding every
transition by minterms and tracking abstractions per state turns the
questions "can this transition fire?" and "is some final state
reachable?" into finite-graph searches:

* a read on register r can fire exactly when its guard is the minterm
  the register's value lies in;
* a fresh input satisfying a minterm exists exactly when the minterm
  denotes more elements than the number of registers currently holding
  one of them.

Normalized automata are materialized lazily; decision procedures only
touch states reachable from the initial abstraction.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional, Tuple

from .algebra import And, Atom, Minterm, MintermSet
from .core import Label, Sra, SraError
from .single_valued import is_single_valued, sv_label_kind, to_single_valued

# an abstraction is a tuple with one entry per register: a Minterm for a
# filled register, None for an empty one

Abstraction = Tuple[Optional[Minterm], ...]


def minterm_basis(S: Sra, extra: Optional[Sra] = None) -> MintermSet:
    """Minterms over all transition guards plus atoms of initial values.

    With `extra` supplied the basis covers both automata's guards and
    initial-value atoms, so the two can be normalized over a common set
    of minterm guards.
    """
    algebra = S.algebra
    if extra is not None and extra.algebra is not algebra:
        raise SraError("minterm basis requires a shared algebra")
    predicates = []
    for T in (S,) if extra is None else (S, extra):
        for _, lab, _ in T.transitions:
            predicates.append(lab.guard)
        for v in T.initial_valuation:
            if v is not None:
                predicates.append(Atom(v))
    return algebra.minterms(predicates)


def count_matching_registers(theta: Abstraction, phi: Minterm) -> int:
    """Number of registers whose abstraction is exactly phi."""
    for m in theta:
        if m is not None and m.source_set_id != phi.source_set_id:
            raise SraError("abstraction and minterm come from different bases")
    return sum(1 for m in theta if m == phi)


class LazyNorm:
    """Reachable part of the normalized automaton, grown on demand.

    States are (base_state, abstraction) pairs; successors are cached
    per state as (guard_minterm, op, register, successor_key) tuples.
    """

    def __init__(self, S: Sra, basis: Optional[MintermSet] = None):
        if not is_single_valued(S):
            raise SraError("normalization requires a single-valued automaton")
        self.S = S
        self.algebra = S.algebra
        self.basis = minterm_basis(S) if basis is None else basis
        self.nregs = len(S.registers)
        theta0 = tuple(
            None if v is None else self.algebra.minterm_of(self.basis, v)
            for v in S.initial_valuation
        )
        self.initial = (S.initial, theta0)
        self._succ = {}
        self._succ_idx = {}

    def is_final(self, key) -> bool:
        return key[0] in self.S.finals

    def successors(self, key) -> List[Tuple[Minterm, str, int, tuple]]:
        cached = self._succ.get(key)
        if cached is not None:
            return cached
        q, theta = key
        out = []
        for _, lab, q2 in self.S.out[q]:
            op, r = sv_label_kind(self.nregs, lab)
            if op == "read":
                m = theta[r]
                if m is not None and lab.guard in m.positives:
                    out.append((m, "read", r, (q2, theta)))
            else:  # fresh, or register-free consume
                for psi in self.basis:
                    if lab.guard not in psi.positives:
                        continue
                    needed = count_matching_registers(theta, psi) + 1
                    if self.algebra.has_min_size(psi.conjunction, needed):
                        theta2 = tuple(
                            psi if x == r else theta[x] for x in range(self.nregs)
                        )
                        out.append((psi, "fresh", r, (q2, theta2)))
        self._succ[key] = out
        return out

    def successor_index(self, key):
        """Successors keyed for matching: reads by (register, minterm),
        fresh moves by minterm."""
        cached = self._succ_idx.get(key)
        if cached is None:
            reads = {}
            fresh = {}
            for m, op, r, k2 in self.successors(key):
                if op == "read":
                    reads.setdefault((r, m), []).append(k2)
                else:
                    fresh.setdefault(m, []).append((r, k2))
            cached = (reads, fresh)
            self._succ_idx[key] = cached
        return cached


def _abstraction_name(S: Sra, key) -> str:
    q, theta = key
    parts = ["_" if m is None else repr(m) for m in theta]
    if not parts:
        return S.states[q]
    return S.states[q] + "|" + ",".join(parts)


def normalize(S: Sra) -> Sra:
    """The reachable normalized automaton, materialized as a plain SRA.

    Registers and the initial valuation carry over; every guard is a
    minterm conjunction and every state records its abstraction in its
    name.
    """
    ln = LazyNorm(S)
    order = [ln.initial]
    index = {ln.initial: 0}
    transitions = []
    all_regs = frozenset(range(ln.nregs))
    i = 0
    while i < len(order):
        key = order[i]
        for m, op, r, key2 in ln.successors(key):
            if key2 not in index:
                index[key2] = len(order)
                order.append(key2)
            if op == "read":
                lab = Label(m.conjunction, frozenset({r}), frozenset(), frozenset())
            else:
                upd = frozenset({r}) if r >= 0 else frozenset()
                lab = Label(m.conjunction, frozenset(), all_regs, upd)
            transitions.append((index[key], lab, index[key2]))
        i += 1
    return Sra(
        algebra=S.algebra,
        registers=S.registers,
        states=tuple(_abstraction_name(S, key) for key in order),
        initial=0,
        initial_valuation=S.initial_valuation,
        finals=frozenset(i for i, key in enumerate(order) if ln.is_final(key)),
        transitions=tuple(transitions),
    )


def is_empty(S: Sra) -> Tuple[bool, Optional[list]]:
    """Language emptiness, with an accepted word when non-empty.

    Searches the normalized automaton breadth-first; a discovered
    accepting path is replayed concretely, instantiating each fresh
    guard with a value distinct from the current register contents.
    """
    if not is_single_valued(S):
        S = to_single_valued(S)
    ln = LazyNorm(S)
    parent = {ln.initial: None}
    queue = deque([ln.initial])
    goal = ln.initial if ln.is_final(ln.initial) else None
    while queue and goal is None:
        key = queue.popleft()
        for m, op, r, key2 in ln.successors(key):
            if key2 not in parent:
                parent[key2] = (key, m, op, r)
                if ln.is_final(key2):
                    goal = key2
                    break
                queue.append(key2)
    if goal is None:
        return True, None
    edges = []
    key = goal
    while parent[key] is not None:
        prev, m, op, r = parent[key]
        edges.append((m, op, r))
        key = prev
    edges.reverse()
    v = list(S.initial_valuation)
    word = []
    for m, op, r in edges:
        if op == "read":
            a = v[r]
        else:
            a = S.algebra.witness(
                m.conjunction, excluded=[x for x in v if x is not None]
            )
            if r >= 0:
                v[r] = a
        word.append(a)
    return False, word


def _syntactically_deterministic(S: Sra) -> bool:
    """Sound fast path: pairwise-unsatisfiable guards per state.

    When any two distinct moves out of a state have disjoint guards, no
    input can ever fire two of them, whatever the registers hold.  Only
    a True result is conclusive.
    """
    algebra = S.algebra
    for moves in S.out:
        guards = [lab.guard for _, lab, _ in set(moves)]
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
    if not is_single_valued(S):
        S = to_single_valued(S)
    ln = LazyNorm(S)
    seen = {ln.initial}
    queue = deque([ln.initial])
    while queue:
        key = queue.popleft()
        succ = ln.successors(key)
        for i in range(len(succ)):
            m1, op1, r1, d1 = succ[i]
            for j in range(i + 1, len(succ)):
                m2, op2, r2, d2 = succ[j]
                if m1 != m2 or op1 != op2:
                    continue
                if r1 == r2 and d1 != d2:
                    return False
                if op1 == "fresh" and r1 != r2:
                    return False
        for _, _, _, key2 in succ:
            if key2 not in seen:
                seen.add(key2)
                queue.append(key2)
    return True
