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
automata per view, and both stop at the first failing search.
`includes` and `separating_word`, the sibling of `equivalent`, replay
that failure into a separating word: the search's parent map is walked
back with `normal.path`, the matched steps are turned into the word by
`normal.replay`, and `membership` checks that the word separates the
operands.

Each direction is searched first on the coarse view of
`normal.LazyNorm`.  Both views give each slot the set of minterms its
value may lie in, a singleton or empty on the exact view, and the
simulation reads that set alike on both.  So the coarse search takes
every answer a minterm question could have: a read fires on any minterm
in its slot's set, an input may equal any uncorrelated right value
whose set holds its minterm, and a value fresh to both sides is always
assumed to exist.  The correspondence stays exact.  A coarse search
without failure proves the direction (see below).  A coarse failure may
be spurious, and all three verbs confirm it by one rule: it stands when
its path walks with exact slot minterms (`_taken_exactly`).  An
unconfirmed failure goes to the exact search, so negative answers stay
exact and shortest.

Inclusion and equivalence of two equality-only operands, where no move
excludes a register and none reads more than one, as in every
regex-compiled automaton, take canonical fresh inputs.  An input that
the left move does not read is taken to be fresh to both sides: the
left side's coincidental reads of it are dropped, the move's fresh
variant standing for each, and so are the classes of the right side's
uncorrelated values.  The right side keeps its coincidental reads,
since they fire on values that the left side reads from a correlated
slot.  The coarse view always assumes such a fresh value.  The exact
view takes it at a triple where the input's minterm has one, and
elsewhere keeps every class of that move.  Dead ends and operands with
a disequality keep every coincidence.

Why a coarse search without failure proves the direction: for a pair
with a disequality every exact path, dead ends included, is a coarse
path.  For two equality-only operands every failing exact path has a
failing coarse path with the same left moves.  The coarse view only
forgets equalities, and each one it keeps comes
from a joint read or store.  An equality-only right move tests no
disequality, so with fewer known equalities the right side fires a
subset of the moves it fires on the real values.  It is deterministic,
so along the real joint run, the coarse run with the same left moves
has its right side either in the real right state or at a dead end.
Every real left move stays available: a left move that does not read
its input fires on any value of its guard, and so on a fresh one.  So
the real failure's left side accepts alone on the coarse path too, at
the same length.  This is counterexample-guided abstraction refinement
with one refinement step (Clarke, Grumberg, Jha, Lu & Veith, CAV 2000),
and the coarse search is shortest over more paths, so a confirmed
failure's word is as short as the exact search's.

The exact search stays exact and shortest.  It takes only steps of the
full simulation, so its failures are real.  Conversely, let w be a
shortest separating word and i the first position where the search
skips w's step: the left move does not read w[i], and w[i] is not fresh
to both sides though its minterm has such a value b there.  Renaming
w[i] to b, with the later inputs that read that copy back, keeps the
left run, as an equality-only move tests no disequality, and lets the
deterministic right side take no move it would not take on w.  The
renamed word separates, has w's length, asks for a fresh value at
triple i only and keeps every triple up to i.  So renaming left to
right ends, within len(w) steps, in a word whose whole joint run the
search takes: a minterm that runs out at one triple, and has a fresh
value again once a store overwrites the slots holding it, is decided at
each triple on its own.
"""

from __future__ import annotations

from typing import Optional, Tuple

from .boolean_ops import complete, intersect  # noqa: F401 - perfbench's tracer pins them here
from .core import Sra, SraError, membership
from .normal import (
    LazyNorm, final_distances, is_deterministic, minterm_basis, path, reach, replay,
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
    For two equality-only operands, where the input's minterm has a
    value fresh to both sides, a left move that does not read has the
    doubly-fresh class only, and a coincidental read none; elsewhere
    both keep every class.  Both sides are exact or both coarse, and on
    both views "holding its minterm" means a slot whose set holds it;
    the coarse view assumes a value fresh to both sides everywhere.
    """

    def __init__(self, ln1: LazyNorm, ln2: LazyNorm, sizes, canonical: bool):
        self.ln1 = ln1
        self.ln2 = ln2
        # sizes[i] counts minterm i's elements up to one more than both
        # sides' registers together, which decides whether a value fresh
        # on both sides exists
        self.sizes = sizes
        # both operands are equality-only, so an input the left side does
        # not read is taken fresh to both sides where one exists
        self.canonical = canonical
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
        alone, guided by the left state's distance to a final state."""
        dist = final_distances(self.ln1.S)
        return reach(self, self.accepts_alone, lambda triple: dist[triple[0][0][0]])

    def successors(self, triple):
        key1, key2, sigma = triple
        if key2 is None:
            return [
                (m, ((op, r), None), (key1b, None, ()))
                for m, op, r, _, key1b in self.ln1.successors(key1)
            ]
        canonical, coarse = self.canonical, self.ln1.coarse
        reads2, fresh2 = self.ln2.successor_index(key2)
        out = []
        for m, op, r, coincidental, key1b in self.ln1.successors(key1):
            classes = None
            if op != "read" or coincidental and canonical:
                right_only = [s for s, held in enumerate(key2[1]) if m in held and s not in sigma]
                # the coarse view assumes a value of m fresh to both sides;
                # the exact one counts the distinct values of m held
                nheld = sum(m in held for held in key1[1]) + len(right_only)
                fresh = coarse or nheld < self.sizes[m]
                if fresh and canonical:
                    if op == "read":
                        continue  # the move's fresh variant stands for it
                    classes = [("fresh", -1)]
                elif op != "read":
                    classes = [("read", s) for s in right_only]
                    if fresh:
                        classes.append(("fresh", -1))
            if classes is None:  # a read, coincidental too where m has none fresh
                s = sigma[r]
                classes = [("read", s)] if s >= 0 else [("fresh", -1)]
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


def _first_failure(S1: Sra, S2: Sra, both: bool):
    """None when S2 simulates S1 and, when both is set, S1 simulates S2;
    else the first failing direction's search, (sim, parent, goal).
    Each right side must be deterministic, so S1 must be too only when
    both is set.

    Both directions share one basis, one table of minterm sizes capped
    at one more than the operands' slots together, counted on the cells
    each minterm keeps from the basis, and one pair of normalized
    automata per view; the exact view takes each base's rows from the
    coarse one.  Each direction is searched on the coarse view first:
    no failure there means none exists.  A coarse failure stands when
    its path walks with exact slot minterms (`_taken_exactly`);
    otherwise the exact search decides, and its failure always stands.
    For two equality-only operands every search takes an unread input
    fresh to both sides: the coarse one always, the exact one where the
    input's minterm has such a value."""
    operands = ((S1, "left"), (S2, "right")) if both else ((S2, "right"),)
    for S, side in operands:
        if not is_deterministic(S):
            raise SraError(f"{side} operand must be deterministic")
    basis = minterm_basis(S1, S2)
    sizes = [m.size(len(S1.registers) + len(S2.registers) + 1) for m in basis]
    views = {}
    canonical = _equality_only(S1) and _equality_only(S2)
    for i, j in ((0, 1), (1, 0)) if both else ((0, 1),):
        for coarse in (True, False):
            if coarse not in views:
                views[coarse] = [LazyNorm(S, basis, coarse) for S in (S1, S2)]
                if not coarse:
                    # a base's rows depend only on the operand and the
                    # basis, so the exact view reads the coarse one's
                    for exact, rough in zip(views[False], views[True]):
                        exact._rows = rough._rows
            sim = _Simulation(views[coarse][i], views[coarse][j], sizes, canonical)
            parent, goal = sim.reach_accepts_alone()
            if goal is None:
                break
            if not coarse or _taken_exactly(sim, parent, goal):
                return sim, parent, goal
    return None


def _taken_exactly(sim: _Simulation, parent, goal) -> bool:
    """Does some word take the coarse search's path to goal?

    The path is walked with each slot's exact minterm, read off the
    initial abstractions and set by every fresh step.  A read needs its
    slot to hold the step's minterm, and an input fresh to the left side
    needs a value of the minterm that no moving side holds.  Values of
    one minterm are interchangeable, so such a walk is a joint run, and
    its left side accepts alone."""
    sizes = sim.sizes
    t1, t2 = ([next(iter(held), -1) for held in ln.initial[1]] for ln in (sim.ln1, sim.ln2))
    nodes, steps = path(parent, goal)
    for (_, _, sigma), (m, (side1, side2), *_) in zip(nodes, steps):
        op1, r = side1
        op2, s = side2 or (None, -1)
        if op1 == "read" and t1[r] != m or op2 == "read" and t2[s] != m:
            return False
        if op1 == "fresh" and op2 != "read":
            # distinct values of m held on the left and, unless it has
            # stopped, on the right
            held = t1.count(m)
            if op2 is not None:
                held += len([s2 for s2, i in enumerate(t2) if i == m and s2 not in sigma])
            if held >= sizes[m]:
                return False
        if op1 == "fresh" and r >= 0:
            t1[r] = m
        if op2 == "fresh" and s >= 0:
            t2[s] = m
    return True


def _separating(sim: _Simulation, parent, goal) -> list:
    """The word along a failing search's path to goal, replayed by
    `normal.replay` and checked by `membership` to be accepted by the
    left operand alone."""
    left, right = sim.ln1, sim.ln2
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
    failure = _first_failure(S1, S2, both=False)
    return failure is None, failure and _separating(*failure)


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
    failure = _first_failure(S1, S2, both=True)
    return failure and _separating(*failure)
