"""SRA data model, configuration-transition semantics and membership.

An SRA is a 6-tuple (registers, states, initial state, initial register
valuation, final states, transitions).  A transition carries a label
(guard, E, I, U): it fires on input a from valuation v when the guard
holds of a, every register in E currently holds a, no register in I
holds a, and afterwards every register in U is assigned a.

States and registers are kept as small integer indices internally, with
their names in side tables, so the constraint sets are cheap to compare.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

from .algebra import (
    Algebra,
    AlgebraError,
    And,
    Atom,
    Div,
    FalsePred,
    Interval,
    Not,
    Or,
    Predicate,
    TruePred,
    algebra_by_name,
)


class SraError(ValueError):
    pass


@dataclass(frozen=True)
class Label:
    guard: Predicate
    E: frozenset
    I: frozenset
    U: frozenset


@dataclass(frozen=True)
class Sra:
    algebra: Algebra = field(compare=False)
    registers: tuple  # register names
    states: tuple  # state names
    initial: int
    initial_valuation: tuple  # per-register value, None for an empty register
    finals: frozenset
    transitions: tuple  # (src_index, Label, dst_index)

    @cached_property
    def out(self) -> list:
        """Per-state index: out[q] lists the triples of `transitions`
        leaving q, in order.  Built on first use; it is kept outside the
        fields, so equality, hashing and JSON ignore it."""
        out = [[] for _ in self.states]
        for t in self.transitions:
            out[t[0]].append(t)
        return out


def make_sra(
    algebra: Algebra,
    registers: Sequence[str],
    states: Sequence[str],
    initial: str,
    initial_valuation: dict,
    finals: Iterable[str],
    transitions: Iterable[tuple],
) -> Sra:
    """Name-based constructor.

    transitions are (src, guard, E, I, U, dst) with state/register names
    and a Predicate guard.  Transitions with the same guard object and
    the same E, I and U name sequences share one Label.
    """
    registers = tuple(registers)
    states = tuple(states)
    if len(set(registers)) != len(registers):
        raise SraError("duplicate register names")
    if len(set(states)) != len(states):
        raise SraError("duplicate state names")
    sidx = {s: i for i, s in enumerate(states)}
    ridx = {r: i for i, r in enumerate(registers)}

    def state(name):
        try:
            return sidx[name]
        except KeyError:
            raise SraError(f"unknown state {name!r}") from None

    def regs(names):
        out = set()
        for n in names:
            if n not in ridx:
                raise SraError(f"unknown register {n!r}")
            out.add(ridx[n])
        return frozenset(out)

    v0 = tuple(initial_valuation.get(r) for r in registers)
    for extra in set(initial_valuation) - set(registers):
        raise SraError(f"initial valuation mentions unknown register {extra!r}")
    labels = {}  # (id(guard), E, I, U) -> its Label, which keeps guard alive
    trans = []
    for src, guard, E, I, U, dst in transitions:
        q = state(src)
        key = (id(guard), tuple(E), tuple(I), tuple(U))
        lab = labels.get(key)
        if lab is None:
            lab = labels[key] = Label(guard, regs(key[1]), regs(key[2]), regs(key[3]))
        trans.append((q, lab, state(dst)))
    return Sra(
        algebra=algebra,
        registers=registers,
        states=states,
        initial=state(initial),
        initial_valuation=v0,
        finals=frozenset(state(f) for f in finals),
        transitions=tuple(trans),
    )


# ---------------------------------------------------------------------------
# validation


def validate(S: Sra) -> list:
    """Invariant audit; returns human-readable violations (empty = valid).
    Each label and guard object is checked once, keyed by identity, and
    what is wrong with it is named on every transition that carries it."""
    problems = []
    nstates = len(S.states)
    nregs = len(S.registers)
    if not (0 <= S.initial < nstates):
        problems.append(f"initial state index {S.initial} out of range")
    for f in S.finals:
        if not (0 <= f < nstates):
            problems.append(f"final state index {f} out of range")
    if len(S.initial_valuation) != nregs:
        problems.append("initial valuation does not cover the register set exactly")
    for r, v in enumerate(S.initial_valuation):
        if v is not None and not S.algebra._in_domain(v):
            problems.append(f"initial value {v!r} of register {r} outside the domain")
    labels, guards = {}, {}  # id -> what is wrong with it; each is checked once
    for t, (src, lab, dst) in enumerate(S.transitions):
        wrong = labels.get(id(lab))
        if wrong is None:
            wrong = labels[id(lab)] = []
            for setname, rs in (("E", lab.E), ("I", lab.I), ("U", lab.U)):
                for r in rs:
                    if not (0 <= r < nregs):
                        wrong.append(f"register index {r} in {setname} not in R")
            if lab.E & lab.I:
                wrong.append(f"E and I overlap ({sorted(lab.E & lab.I)})")
            if id(lab.guard) not in guards:
                try:
                    S.algebra.check(lab.guard)
                    guards[id(lab.guard)] = None
                except AlgebraError as e:
                    guards[id(lab.guard)] = f"bad guard: {e}"
            if guards[id(lab.guard)]:
                wrong.append(guards[id(lab.guard)])
        if wrong or not (0 <= src < nstates and 0 <= dst < nstates):
            where = f"transition #{t}"
            if not (0 <= src < nstates):
                problems.append(f"{where}: source index {src} out of range")
            if not (0 <= dst < nstates):
                problems.append(f"{where}: target index {dst} out of range")
            problems += [f"{where}: {p}" for p in wrong]
    return problems


# ---------------------------------------------------------------------------
# semantics


def compile_guard(p: Predicate):
    """Turn a predicate into a fast closure over domain elements."""
    if isinstance(p, TruePred):
        return lambda a: True
    if isinstance(p, FalsePred):
        return lambda a: False
    if isinstance(p, Interval):
        lo, hi = p.lo, p.hi
        if lo is None and hi is None:
            return lambda a: True
        if lo is None:
            return lambda a: a <= hi
        if hi is None:
            return lambda a: a >= lo
        return lambda a: lo <= a <= hi
    if isinstance(p, Atom):
        v = p.value
        return lambda a: a == v
    if isinstance(p, Div):
        k = p.k
        return lambda a: a % k == 0
    if isinstance(p, Not):
        f = compile_guard(p.arg)
        return lambda a: not f(a)
    if isinstance(p, And):
        fs = tuple(compile_guard(q) for q in p.args)
        if len(fs) == 2:
            f1, f2 = fs
            return lambda a: f1(a) and f2(a)
        return lambda a: all(f(a) for f in fs)
    if isinstance(p, Or):
        fs = tuple(compile_guard(q) for q in p.args)
        if len(fs) == 2:
            f1, f2 = fs
            return lambda a: f1(a) or f2(a)
        return lambda a: any(f(a) for f in fs)
    raise AlgebraError(f"unknown predicate node {p!r}")


ASCII = 128  # symbols 0 <= a < ASCII have a cached entry per state
_COLD = (None,) * ASCII  # shared, read-only row of a state not yet read from


class Moves:
    """The moves of S, compiled only for the states a run reaches, and
    the set table of the configuration sets read so far.

    A state's (guard closure, E, I, U, dst) rows are compiled the first
    time it is read from.  `table[q][a]` caches, for 0 <= a < ASCII, what
    reading a in q does: the plain int dst when exactly one row's guard
    holds of a and that row neither reads nor stores a register, else
    the tuple of (E, I, U, dst) rows whose guard holds, in row order.  A
    slot is None until `entry` fills it.  Other symbols (negative ones
    too, which Python would read from the end of the row) are never
    cached: `entry` filters the rows afresh each time.

    The set table is a lazily built subset construction over
    configuration sets.  `sets` maps a set (a tuple of (state,
    valuation) pairs) to its node, the pair of that tuple and a row dict
    from symbol to the node it steps to; `start` is the initial set's
    node.  Rows point at nodes, not at numbers, so two threads reading
    one table cannot misnumber sets.  The table lasts as long as the
    Moves, but `clear` may empty it.  `held` counts the configurations
    of its sets, plus one for each row that leads to a set held before
    it (a row that leads to a new set comes with that set), and
    `_accepts` keeps it at most MAX_HELD.  `words` counts the words read
    since the table was last emptied.
    """

    def __init__(self, S: Sra):
        self.S = S
        self._rows = [None] * len(S.states)
        self.table = [_COLD] * len(S.states)
        self.clear()

    def clear(self):
        """Empty the set table, down to the initial set's node."""
        start = ((self.S.initial, self.S.initial_valuation),)
        self.start = (start, {})
        self.sets = {start: self.start}
        self.held = 1
        self.words = 0

    def entry(self, q: int, a: int):
        """What reading a in q does, filling its table slot if cacheable."""
        rows = self._rows[q]
        if rows is None:
            rows = self._rows[q] = [
                (
                    compile_guard(lab.guard),
                    tuple(sorted(lab.E)),
                    tuple(sorted(lab.I)),
                    tuple(sorted(lab.U)),
                    dst,
                )
                for _, lab, dst in self.S.out[q]
            ]
        held = tuple((E, I, U, dst) for g, E, I, U, dst in rows if g(a))
        e = held[0][3] if len(held) == 1 and not any(held[0][:3]) else held
        if 0 <= a < ASCII:
            if self.table[q] is _COLD:
                self.table[q] = [None] * ASCII
            self.table[q][a] = e
        return e


MAX_HELD = 4096  # configurations and rows to held sets a set table holds


def _run(cur, word, table, entry) -> tuple:
    """The configurations that those of cur reach by reading word, in
    the order they are first reached, each once; empty once none is."""
    for a in word:
        cached = 0 <= a < ASCII
        nxt = []
        for q, v in cur:
            e = table[q][a] if cached else None
            if e is None:
                e = entry(q, a)
            if e.__class__ is int:
                nxt.append((e, v))
                continue
            for E, I, U, dst in e:
                for r in E:
                    if v[r] != a:
                        break
                else:
                    for r in I:
                        if v[r] == a:
                            break
                    else:
                        if U:
                            w = list(v)
                            for r in U:
                                w[r] = a
                            nxt.append((dst, tuple(w)))
                        else:
                            nxt.append((dst, v))
        if not nxt:
            return ()
        if len(nxt) > 1:
            nxt = list(dict.fromkeys(nxt))
        cur = nxt
    return tuple(cur)


def _accepts(moves: Moves, word: Iterable[int]) -> bool:
    """Does the automaton of moves accept word?  Reads the set table of
    moves, and fills it on a miss.

    A miss steps the set's configurations with `_run`.  What a set steps
    to on a symbol depends only on its configurations and the automaton,
    so following a row gives exactly the set that `_run` gives on a
    miss, and the answer is the one of a run without the table.  Once a
    miss would take `held` past MAX_HELD, the word reads its rest with
    `_run` alone, at about the cost of a run that never had a table: a
    word that makes a new valuation on nearly every symbol gains nothing
    from rows.  The bound counts configurations, not sets, so sets that
    grow with the word (a capture after `.*`) cannot make the table grow
    with its square; and it counts rows to sets already held, so a table
    kept across many words cannot grow with the symbols they read.

    A full table is emptied on a miss once it has read MAX_HELD words
    since it was last emptied: words after a change in traffic fill it
    again, and a refill costs at most one miss per word waited for.
    """
    table, entry, sets = moves.table, moves.entry, moves.sets
    cur, row = moves.start
    moves.words += 1
    word = iter(word)
    for a in word:
        node = row.get(a)
        if node is None:
            nxt = _run(cur, (a,), table, entry)
            if not nxt:
                return False
            node = sets.get(nxt)
            size = len(nxt) if node is None else 1
            if moves.held + size > MAX_HELD:
                if moves.words >= MAX_HELD:
                    moves.clear()
                cur = _run(nxt, word, table, entry)
                break
            moves.held += size
            if node is None:  # setdefault: another thread may have added it
                node = sets.setdefault(nxt, (nxt, {}))
            row[a] = node
        cur, row = node
    finals = moves.S.finals
    return any(q in finals for q, _ in cur)


def membership(S: Sra, word: Iterable[int]) -> bool:
    """Word acceptance via breadth-first closure over configuration sets.

    Reachable valuations only mention initial values and word symbols, so
    the per-step configuration set is finite.  Each call reads moves and
    sets through a fresh `Moves`, so only the states the word reaches
    are compiled, nothing is kept on S, and the set table lasts for the
    call.  `regex.match` runs the same loop on the `Moves` that a
    compiled pattern keeps, so there the table lasts as long as the
    pattern, emptied when full.
    """
    return _accepts(Moves(S), word)


# ---------------------------------------------------------------------------
# JSON interchange format


def _field(d: dict, key: str, kind: type):
    if not isinstance(d[key], kind):
        raise TypeError(f"{key!r} is not a {kind.__name__}")
    return d[key]


def from_json_dict(d: dict) -> Sra:
    """The automaton a JSON document describes.  Each distinct guard
    text is parsed once, and `make_sra` builds each distinct label
    once; per transition the fields are read, and the label and two
    states looked up.  A text that fails to parse is reported on every
    transition that carries it."""
    try:
        algebra = algebra_by_name(d["algebra"])
        parsed = {}  # guard text -> its predicate, or what is wrong with it
        transitions = []
        for t in _field(d, "transitions", list):
            text = t["guard"]
            guard = parsed.get(text)
            if guard is None:
                try:
                    guard = parsed[text] = algebra.parse(text)
                except AlgebraError as e:
                    guard = parsed[text] = f"bad guard: {e}"
            transitions.append((
                t["from"],
                guard,
                _field(t, "E", list),
                _field(t, "I", list),
                _field(t, "U", list),
                t["to"],
            ))
        if any(isinstance(guard, str) for guard in parsed.values()):
            raise SraError("; ".join(
                f"transition #{n}: {guard}"
                for n, (_, guard, *_) in enumerate(transitions) if isinstance(guard, str)
            ))
        S = make_sra(
            algebra,
            _field(d, "registers", list),
            _field(d, "states", list),
            d["initial"],
            _field(d, "initial_valuation", dict),
            _field(d, "finals", list),
            transitions,
        )
    except (KeyError, TypeError) as e:
        raise SraError(f"malformed automaton document: {e}") from e
    problems = validate(S)
    if problems:
        raise SraError("; ".join(problems))
    return S


def _block(texts: list, indent: int, brackets: str = "[]") -> str:
    """texts as the items of an array (or object) that closes at indent,
    laid out as json.dumps(..., indent=2) lays it out."""
    if not texts:
        return brackets
    inner = "\n" + " " * (indent + 2)
    return brackets[0] + inner + ("," + inner).join(texts) + inner[:-2] + brackets[1]


def dumps(S: Sra) -> str:
    """The text json.dumps(document, indent=2) writes for S, and a final
    newline, written straight from S.  CPython runs indent=2 in its
    pure-Python encoder, so only names and guard texts go through
    json.dumps (the C encoder), each name once.  Each guard object is
    shown once, and each distinct label (guard text, E, I, U) is laid
    out once, as the lines between a transition's source and target.
    Names must be JSON scalars, the only ones `loads` reads."""
    enc = json.dumps
    regs, states = [enc(r) for r in S.registers], [enc(q) for q in S.states]
    shown = {}  # id(guard) -> its text; S keeps each guard alive
    middles = {}  # (guard text, E, I, U) -> the lines between "from" and "to"
    transitions = []
    for src, lab, dst in S.transitions:
        guard = shown.get(id(lab.guard))
        if guard is None:
            guard = shown[id(lab.guard)] = S.algebra.show(lab.guard)
        key = (guard, lab.E, lab.I, lab.U)
        middle = middles.get(key)
        if middle is None:
            E, I, U = (_block([regs[r] for r in sorted(rs)], 6) for rs in key[1:])
            middle = middles[key] = (
                f',\n      "guard": {enc(guard)},\n      "E": {E},'
                f'\n      "I": {I},\n      "U": {U},\n      "to": '
            )
        transitions.append('{\n      "from": ' + states[src] + middle + states[dst] + "\n    }")
    # the C encoder writes a key as the pure-Python one does ("7", "null", "true")
    valuation = [enc({S.registers[r]: v})[1:-1] for r, v in enumerate(S.initial_valuation)]
    return "".join([
        '{\n  "algebra": ', enc(S.algebra.name),
        ',\n  "registers": ', _block(regs, 2),
        ',\n  "states": ', _block(states, 2),
        ',\n  "initial": ', states[S.initial],
        ',\n  "initial_valuation": ', _block(valuation, 2, "{}"),
        ',\n  "finals": ', _block([states[q] for q in sorted(S.finals)], 2),
        ',\n  "transitions": ', _block(transitions, 2), "\n}\n",
    ])


def loads(text: str) -> Sra:
    """The automaton a JSON text describes; the CLI reads the files."""
    try:
        d = json.loads(text)
    except ValueError as e:  # a JSONDecodeError, or an integer too long for int()
        raise SraError(f"not valid JSON: {e}") from e
    except RecursionError:
        raise SraError("JSON nested too deeply") from None
    return from_json_dict(d)
