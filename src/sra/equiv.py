"""Similarity, inclusion and equivalence checks.

The checks run on the operands as given, normalized over a shared
minterm basis built from their own guards; nothing is translated or
completed.  Besides the two normalized states, each explored triple
carries a slot correspondence: a tuple indexed by left slot whose entry
is the right slot holding the same value, or -1 when no right slot
does.  The triples form a graph that `normal.reach`, the one search,
walks from the initial triple.  An input that no right move takes leads
to a dead end, where the left side moves on alone and never accepts
with the right one.  Inclusion and equivalence search it in A* order,
guided by the left state's distance to a final state in the left
operand's state graph, since only a left final can accept alone; a
triple whose left state cannot reach a final is never expanded.

Only the right operand of the simulation must be deterministic: a path
pairs one left run with the right side's one run on the same word, so
the simulation fails exactly at a triple whose left side accepts alone.
So `includes` takes a nondeterministic left operand, while `equivalent`
and `separating_word`, where each operand is the right side once,
require both to be deterministic.  A nondeterministic right operand is
refused: inclusion between nondeterministic register automata is
undecidable in general.  Inclusion and equivalence take one route:
inclusion runs the one-way simulation, equivalence runs it in both
directions over one shared basis and one pair of lazily normalized
automata.  `includes` and `separating_word`, the sibling of
`equivalent`, replay a failure into a separating word: the search's
parent map is walked back with `normal.path`, and the matched steps are
turned into the word by `normal.replay`.

Inclusion and equivalence of two equality-only operands, where no move
excludes a register and none reads more than one, as in every
regex-compiled automaton, take canonical fresh inputs.  An input that
the left move does not read, in a minterm with more than one element,
is taken fresh to every value either side holds: the left side's
coincidental reads of such inputs are dropped, and so are the classes
of the right side's uncorrelated values.  This stays exact.  Renaming
such an input of a separating word to a value fresh to both sides keeps
the left run, and lets the deterministic right side take no move it
would not take on the original word, so a shortest separating word
survives the renaming.  The right side keeps its coincidental reads, since they
fire on values that the left side reads from a correlated slot.  A
minterm with at least one more element than both sides' registers
together always has such a value.  Where a smaller one has none at some
triple, the search drops it from the projected minterms and starts
over.  One-element minterms, dead ends and operands with a disequality
keep every coincidence.
"""

from __future__ import annotations

from typing import Optional, Tuple

from .boolean_ops import complete, intersect  # noqa: F401 - perfbench's tracer pins them here
from .core import Sra, SraError, membership
from .normal import (
    LazyNorm, capped_sizes, final_distances, is_deterministic, minterm_basis, path, reach,
    replay,
)
from .normal import is_empty  # noqa: F401 - perfbench's tracer pins it here
from .single_valued import to_single_valued  # noqa: F401 - perfbench's tracer pins it here


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


def _equality_only(S: Sra) -> bool:
    """Does every move exclude no register and read at most one?"""
    return all(not lab.I and len(lab.E) <= 1 for _, lab, _ in S.transitions)


class _NoFreshValue(Exception):
    """A projected minterm has no value fresh to both sides at a triple."""

    def __init__(self, minterm: int):
        super().__init__(minterm)
        self.minterm = minterm


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
    In a projected minterm, a left move that does not read has the
    doubly-fresh class only, and a coincidental read none.
    """

    def __init__(self, ln1: LazyNorm, ln2: LazyNorm, sizes, projected=frozenset()):
        self.ln1 = ln1
        self.ln2 = ln2
        # sizes[i] counts minterm i's elements up to one more than both
        # sides' registers together, which decides whether a value fresh
        # on both sides exists
        self.sizes = sizes
        # minterms in which an input the left side does not read is taken
        # fresh to both sides (see `_projected`)
        self.projected = projected
        self.initial = (
            ln1.initial,
            ln2.initial,
            correspondence_of(ln1.valuation, ln2.valuation),
        )

    def accepts_alone(self, triple) -> bool:
        """Does the left side accept where the right one does not?"""
        key1, key2, _ = triple
        return self.ln1.is_final(key1) and (key2 is None or not self.ln2.is_final(key2))

    def reach_accepts_alone(self):
        """`normal.reach` up to a nearest triple whose left side accepts
        alone, guided by the left state's distance to a final state.

        A projected minterm that runs out of values fresh to both sides
        leaves the projected set, and the search starts over."""
        dist = final_distances(self.ln1.S)
        while True:
            try:
                return reach(self, self.accepts_alone, lambda triple: dist[triple[0][0][0]])
            except _NoFreshValue as exc:
                self.projected = self.projected - {exc.minterm}

    def successors(self, triple):
        key1, key2, sigma = triple
        if key2 is None:
            return [
                (m, ((op, r), None), (key1b, None, ()))
                for m, op, r, _, key1b in self.ln1.successors(key1)
            ]
        theta1 = key1[1]
        theta2 = key2[1]
        projected = self.projected
        reads2, fresh2 = self.ln2.successor_index(key2)
        out = []
        for m, op, r, coincidental, key1b in self.ln1.successors(key1):
            if op == "read" and not (coincidental and m in projected):
                s = sigma[r]
                classes = [("read", s)] if s >= 0 else [("fresh", -1)]
            else:
                right_only = [
                    s for s in range(self.ln2.nregs) if theta2[s] == m and s not in sigma
                ]
                # distinct values of m held on either side
                fresh = theta1.count(m) + len(right_only) < self.sizes[m]
                if m in projected:
                    if not fresh:
                        raise _NoFreshValue(m)
                    if op == "read":
                        continue  # the move's fresh variant stands for it
                    classes = [("fresh", -1)]
                else:
                    classes = [("read", s) for s in right_only]
                    if fresh:
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
    """Both operands normalized over one basis, sharing one table of
    minterm sizes capped at one more than their slots together."""
    if A.algebra is not B.algebra:
        raise SraError("operands must share an algebra")
    basis = minterm_basis(A, B)
    sizes = capped_sizes(A.algebra, basis, len(A.registers) + len(B.registers) + 1)
    return LazyNorm(A, basis, sizes), LazyNorm(B, basis, sizes), sizes


def _projected(A: Sra, B: Sra, sizes) -> frozenset:
    """The minterms in which inclusion and equivalence take an input the
    left side does not read as fresh to both sides: every minterm with
    more than one element, when both operands are equality-only, and
    none otherwise."""
    if not (_equality_only(A) and _equality_only(B)):
        return frozenset()
    return frozenset(m for m, k in enumerate(sizes) if k > 1)


def _first_failure(S1: Sra, S2: Sra, both: bool):
    """The first failing simulation, with its parent map and goal, or
    None: of S1 by S2, then, when both is set, of S2 by S1, sharing one
    basis and one pair of normalized automata.  The second run starts
    without the minterms that ran out in the first.  Each right side
    must be deterministic, so S1 must be too only when both is set."""
    operands = ((S1, "left"), (S2, "right")) if both else ((S2, "right"),)
    for S, side in operands:
        if not is_deterministic(S):
            raise SraError(f"{side} operand must be deterministic")
    ln1, ln2, sizes = _normalized_pair(S1, S2)
    projected = _projected(S1, S2, sizes)
    for left, right in ((ln1, ln2), (ln2, ln1)) if both else ((ln1, ln2),):
        sim = _Simulation(left, right, sizes, projected)
        parent, goal = sim.reach_accepts_alone()
        if goal is not None:
            return sim, parent, goal
        projected = sim.projected
    return None


def _separating_word(S1: Sra, S2: Sra, both: bool) -> Optional[list]:
    """`_first_failure`'s shortest path to a triple whose left side
    accepts alone, replayed into a word and checked by membership, or
    None."""
    failure = _first_failure(S1, S2, both)
    if failure is None:
        return None
    sim, parent, goal = failure
    left, right = sim.ln1, sim.ln2
    # the right side is deterministic, so its one run on the word either
    # ends where it does not accept or stops at the dead end
    word = replay(left, [left.valuation, right.valuation], path(parent, goal)[1])
    if not membership(left.S, word) or membership(right.S, word):
        raise SraError("internal error: the replayed word does not separate the operands")
    return word


def includes(S1: Sra, S2: Sra) -> Tuple[bool, Optional[list]]:
    """Is every word of S1 accepted by S2?

    Requires a deterministic S2; S1 may be nondeterministic.  On
    failure a separating word, accepted by S1 and rejected by S2, comes
    with the answer.
    """
    word = _separating_word(S1, S2, both=False)
    return word is None, word


def equivalent(S1: Sra, S2: Sra) -> bool:
    """Do both automata accept exactly the same words?

    Each side must simulate the other.  A failure is answered at the
    goal of the failing simulation, without replaying a word.
    """
    return _first_failure(S1, S2, both=True) is None


def separating_word(S1: Sra, S2: Sra) -> Optional[list]:
    """None when both automata accept the same words, else a word that
    exactly one accepts: `equivalent`'s one search, with its failure
    replayed.  Requires deterministic operands."""
    return _separating_word(S1, S2, both=True)
