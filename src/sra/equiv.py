"""Similarity, inclusion and equivalence checks.

The checks run on the operands as given, normalized over a shared
minterm basis built from their own guards; nothing is translated or
completed.  Besides the two normalized states, each explored triple
carries a slot correspondence: a tuple indexed by left slot whose entry
is the right slot holding the same value, or -1 when no right slot
does.  The triples form a graph that `normal.reach`, the one search,
walks from the initial triple.  An input that no right move takes leads
to a dead end, where the left side moves on alone and never accepts
with the right one.

Inclusion and equivalence require deterministic operands, so the
simulation fails exactly at a triple whose left side accepts alone.  A
failed inclusion is backed by a concrete separating word: the search's
parent map is walked back with `normal.path`, and the matched steps on
the way are turned into the word by `normal.replay`.  Equivalence runs
the one-way simulation in both directions over one shared basis and one
pair of lazily normalized automata.
"""

from __future__ import annotations

from typing import Optional, Tuple

from .boolean_ops import complement, complete, intersect
from .core import Sra, SraError, membership
from .normal import (
    LazyNorm, capped_sizes, is_deterministic, is_empty, minterm_basis, path, reach, replay,
)
from .single_valued import to_single_valued


def correspondence_of(v1, v2) -> Tuple[int, ...]:
    """Per left register, the right register holding its value, or -1."""
    for v in (v1, v2):
        present = [x for x in v if x is not None]
        if len(set(present)) != len(present):
            raise SraError("correspondence requires injective valuations")
    right = {b: s for s, b in enumerate(v2) if b is not None}
    return tuple(-1 if a is None else right.get(a, -1) for a in v1)


def _sigma_update(sigma: tuple, r: int, s: int) -> tuple:
    return tuple(s if i == r else -1 if t == s else t for i, t in enumerate(sigma))


class _Simulation:
    """The one-way simulation of ln1 by ln2 as a graph for `normal.reach`.

    A node is a triple (left key, right key, correspondence).  Each left
    move is split into the input classes it can read: the corresponding
    right register's value, a value no right register holds, the value
    of each uncorrelated right register holding its minterm, or a value
    fresh to both sides while one remains.  Every right move on a class
    gives a successor; a step is (m, ((op1, r), (op2, s)), triple), the
    matched pair of moves, so that `normal.replay` can turn a path into
    a concrete word.  A class that no right move takes leads to the dead
    end (left key, None, ()), where only the left side moves on.  The
    step into a dead end keeps the class as its right move, so that the
    replayed input lies in it; the steps out of one have None there.
    """

    def __init__(self, ln1: LazyNorm, ln2: LazyNorm, sizes):
        self.ln1 = ln1
        self.ln2 = ln2
        # sizes[i] counts minterm i's elements up to one more than both
        # sides' registers together, which decides whether a value fresh
        # on both sides exists
        self.sizes = sizes
        self.initial = (
            ln1.initial,
            ln2.initial,
            correspondence_of(ln1.valuation, ln2.valuation),
        )

    def accepts_alone(self, triple) -> bool:
        """Does the left side accept where the right one does not?"""
        key1, key2, _ = triple
        return self.ln1.is_final(key1) and (key2 is None or not self.ln2.is_final(key2))

    def successors(self, triple):
        key1, key2, sigma = triple
        if key2 is None:
            return [
                (m, ((op, r), None), (key1b, None, ()))
                for m, op, r, key1b in self.ln1.successors(key1)
            ]
        theta1 = key1[1]
        theta2 = key2[1]
        reads2, fresh2 = self.ln2.successor_index(key2)
        out = []
        for m, op, r, key1b in self.ln1.successors(key1):
            if op == "read":
                s = sigma[r]
                classes = [("read", s)] if s >= 0 else [("fresh", -1)]
            else:
                classes = [
                    ("read", s) for s in range(self.ln2.nregs)
                    if theta2[s] == m and s not in sigma
                ]
                # distinct values of m held on either side
                if theta1.count(m) + len(classes) < self.sizes[m]:
                    classes.append(("fresh", -1))
            for op2, s in classes:
                if op2 == "read":
                    moves = [(s, k2b) for k2b in reads2.get((s, m), ())]
                else:
                    moves = fresh2.get(m, ())
                if not moves:
                    out.append((m, ((op, r), (op2, s)), (key1b, None, ())))
                for s2, key2b in moves:
                    out.append(
                        (m, ((op, r), (op2, s2)), (key1b, key2b, _sigma_update(sigma, r, s2)))
                    )
        return out


def _normalized_pair(A: Sra, B: Sra):
    """Both operands normalized over one basis, with minterm sizes
    capped at one more than their slots together."""
    if A.algebra is not B.algebra:
        raise SraError("operands must share an algebra")
    basis = minterm_basis(A, B)
    ln1 = LazyNorm(A, basis)
    ln2 = LazyNorm(B, basis)
    return ln1, ln2, capped_sizes(A.algebra, basis, ln1.nregs + ln2.nregs + 1)


def n_similar(S1: Sra, S2: Sra):
    """Does every behavior of S1 have a matching behavior in S2?

    Returns (True, None) or (False, trace) where the trace names the
    chain of state triples leading to the unmatched move or to the
    left state accepting alone, and the reason.
    """
    sim = _Simulation(*_normalized_pair(S1, S2))
    ln1, ln2 = sim.ln1, sim.ln2
    parent, goal = reach(sim, lambda t: t[1] is None or sim.accepts_alone(t))
    if goal is None:
        return True, None
    triples = path(parent, goal)[0]
    if goal[1] is None:
        m, ((op, r), _), _ = parent[goal][1]
        target = ln1.S.registers[r] if r >= 0 else "no register"
        move = f"read of {target}" if op == "read" else f"fresh input into {target}"
        guard = ln1.algebra.show(ln1.basis.minterms[m].conjunction)
        reason = f"no right move matches the left {move} for guard {guard}"
        triples.pop()
    else:
        reason = (
            f"left state {ln1.S.states[goal[0][0][0]]} accepts,"
            f" right state {ln2.S.states[goal[1][0][0]]} does not"
        )
    return False, {
        "reason": reason,
        "path": [
            (key1[0][0], key2[0][0], tuple((r, s) for r, s in enumerate(sigma) if s >= 0))
            for key1, key2, sigma in triples
        ],
    }


def _require_deterministic(S: Sra, side: str):
    if not is_deterministic(S):
        raise SraError(f"{side} operand must be deterministic")


def includes(S1: Sra, S2: Sra) -> Tuple[bool, Optional[list]]:
    """Is every word of S1 accepted by S2?

    Requires deterministic operands.  On failure a separating word
    (accepted by S1, rejected by S2) is replayed from the path to the
    first triple whose left side accepts alone.  The intersection with
    the complement of the completed S2 is a fallback extraction route,
    taken only if that word fails its membership check.
    """
    _require_deterministic(S1, "left")
    _require_deterministic(S2, "right")
    sim = _Simulation(*_normalized_pair(S1, S2))
    parent, goal = reach(sim, sim.accepts_alone)
    if goal is None:
        return True, None
    # B is deterministic, so its one run on the word either ends where
    # the right side does not accept or stops at the dead end
    steps = path(parent, goal)[1]
    word = replay(sim.ln1, [sim.ln1.valuation, sim.ln2.valuation], steps)
    if not membership(S1, word) or membership(S2, word):  # pragma: no cover - fallback
        empty, word = is_empty(intersect(S1, complement(complete(to_single_valued(S2)))))
        if empty:
            raise SraError("internal error: no separating word found")
    return False, word


def equivalent(S1: Sra, S2: Sra) -> bool:
    """Do both automata accept exactly the same words?

    Each side must simulate the other; both runs share one basis and
    the successor caches of one pair of normalized automata.
    """
    _require_deterministic(S1, "left")
    _require_deterministic(S2, "right")
    ln1, ln2, sizes = _normalized_pair(S1, S2)
    return all(
        reach(sim, sim.accepts_alone)[1] is None
        for sim in (_Simulation(ln1, ln2, sizes), _Simulation(ln2, ln1, sizes))
    )
