"""Regular expressions with back-references, compiled to register automata.

Supported syntax: literals, escapes (\\d \\s \\w and negations, \\.),
character classes with ranges and negation, the any-character dot,
alternation, * + ? {n} {n,m} quantifiers (x? is x{0,1}), capture
groups, (?:...) groups, which take no number, and back-references
\\1..\\99, read as `re` reads them: up to two digits name a group, which
must be closed.  A referenced capture group must have one
fixed length: its j-th position compiles to a store into a dedicated
register and each back-reference replays the group's registers as
equality reads.  A reference to a group of length 0 is refused: `re`
fails it where the group took no part, and no register records that.
Unreferenced groups compile as plain subexpressions.

Patterns are anchored: the automaton's language is the set of whole
strings the pattern matches.  Forms that `re` reads as something this
parser does not support are refused with a RegexError, not read as
plain characters: ^ and $ outside a class, octal escapes (\\0, three
octal digits, and a digit escaped in a class), a letter escaped in a
class other than \\d \\s \\w and their negations, one of those as a
range end, a quantifier after a quantifier (lazy, possessive or
stacked), and every (? form other than (?:...).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .algebra import (
    Atom,
    Interval,
    Not,
    Predicate,
    TRUE,
    UNICODE,
    disj,
)
from .core import Label, Moves, Sra, SraError, _accepts, validate
from .core import membership  # noqa: F401
from .normal import is_deterministic  # noqa: F401


# RE2's limit on a repeat count, and a bound on the nodes of one build
MAX_REPEAT = 1000
MAX_NODES = 1 << 16


class RegexError(SraError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Lit:
    char: str


@dataclass(frozen=True)
class Class:
    pred: Predicate


@dataclass(frozen=True)
class Dot:
    pass


@dataclass(frozen=True)
class Concat:
    items: tuple


@dataclass(frozen=True)
class Alt:
    items: tuple


@dataclass(frozen=True)
class Star:
    item: object


@dataclass(frozen=True)
class Plus:
    item: object


@dataclass(frozen=True)
class Repeat:
    item: object
    lo: int
    hi: Optional[int]  # None = unbounded


@dataclass(frozen=True)
class Group:
    index: int
    item: object


@dataclass(frozen=True)
class Backref:
    index: int
    position: int = field(default=0, compare=False)  # of its backslash


# ---------------------------------------------------------------------------
# character-set predicates

DIGIT = Interval(ord("0"), ord("9"))
SPACE = disj([Interval(9, 13), Atom(32)])
WORD = disj(
    [Interval(ord("a"), ord("z")), Interval(ord("A"), ord("Z")), DIGIT, Atom(ord("_"))]
)
ANY_BUT_NEWLINE = Not(Atom(ord("\n")))

# the digits `re` reads in escapes and repeat counts: ASCII only
_DECIMAL = "0123456789"
_OCTAL = "01234567"

_CLASS_ESCAPES = {
    "d": DIGIT,
    "D": Not(DIGIT),
    "s": SPACE,
    "S": Not(SPACE),
    "w": WORD,
    "W": Not(WORD),
}


# ---------------------------------------------------------------------------
# parser


class _Parser:
    def __init__(self, pattern: str):
        self.pattern = pattern
        self.pos = 0
        self.next_group = 1
        self.closed_groups = set()

    def error(self, message: str) -> RegexError:
        return RegexError(message, self.pos)

    def peek(self) -> Optional[str]:
        if self.pos < len(self.pattern):
            return self.pattern[self.pos]
        return None

    def take(self) -> str:
        c = self.peek()
        if c is None:
            raise self.error("unexpected end of pattern")
        self.pos += 1
        return c

    def peek_in(self, chars: str) -> bool:
        c = self.peek()
        return c is not None and c in chars

    def expect(self, c: str):
        if self.peek() != c:
            raise self.error(f"expected {c!r}")
        self.pos += 1

    def parse(self):
        node = self.alternation()
        if self.pos != len(self.pattern):
            raise self.error(f"unexpected {self.peek()!r}")
        return node

    def alternation(self):
        branches = [self.concatenation()]
        while self.peek() == "|":
            self.take()
            branches.append(self.concatenation())
        if len(branches) == 1:
            return branches[0]
        return Alt(tuple(branches))

    def concatenation(self):
        items = []
        while self.peek() not in (None, "|", ")"):
            items.append(self.repeatable())
        if len(items) == 1:
            return items[0]
        return Concat(tuple(items))

    def repeatable(self):
        node = self.atom()
        c = self.peek()
        if c == "*":
            self.take()
            node = Star(node)
        elif c == "+":
            self.take()
            node = Plus(node)
        elif c == "?":
            self.take()
            node = Repeat(node, 0, 1)
        elif c == "{":
            node = self.braces(node)
        else:
            return node
        # re reads a ? after a quantifier as lazy, a + as possessive, and
        # refuses any other quantifier there
        if self.peek() == "?":
            raise self.error("lazy quantifiers are not supported")
        if self.peek() == "+":
            raise self.error("possessive quantifiers are not supported")
        if self.peek_in("*{"):
            raise self.error("multiple repeat")
        return node

    def braces(self, node):
        self.expect("{")
        lo = self.number()
        hi = lo
        if self.peek() == ",":
            self.take()
            hi = None if self.peek() == "}" else self.number()
            if hi is not None and hi < lo:
                raise self.error("upper repeat bound below lower bound")
        self.expect("}")
        return Repeat(node, lo, hi)

    def number(self) -> int:
        start = self.pos
        digits = ""
        while self.peek_in(_DECIMAL):
            digits += self.take()
        if not digits:
            raise self.error("expected a number")
        # a count too long for int() is refused before it is converted
        digits = digits.lstrip("0") or "0"
        if len(digits) > len(str(MAX_REPEAT)) or int(digits) > MAX_REPEAT:
            raise RegexError(f"repeat count above {MAX_REPEAT}", start)
        return int(digits)

    def atom(self):
        c = self.peek()
        if c is None:
            raise self.error("unexpected end of pattern")
        if c == "(":
            self.take()
            if self.peek() == "?":
                # (?:...) groups without a number; every other (? form is refused
                self.take()
                if self.peek() != ":":
                    raise self.error("only the (?:...) group extension is supported")
                self.take()
                node = self.alternation()
                self.expect(")")
                return node
            index = self.next_group
            self.next_group += 1
            node = self.alternation()
            self.expect(")")
            self.closed_groups.add(index)
            return Group(index, node)
        if c == "[":
            return Class(self.char_class())
        if c == ".":
            self.take()
            return Dot()
        if c == "\\":
            return self.escape()
        if c in "*+{}?":
            raise self.error(f"nothing to repeat with {c!r}")
        if c in "^$":
            raise self.error(f"anchor {c!r}: patterns are anchored already")
        self.take()
        return Lit(c)

    def escape(self):
        start = self.pos
        self.expect("\\")
        c = self.take()
        if c in _CLASS_ESCAPES:
            return Class(_CLASS_ESCAPES[c])
        if c in _DECIMAL:
            # read as `re` reads it: \0 and three octal digits are an
            # octal escape, and otherwise up to two digits name a group
            ref = c
            if c != "0" and self.peek_in(_DECIMAL):
                ref += self.take()
            if c == "0" or len(ref) == 2 and self.peek_in(_OCTAL) and set(ref) <= set(_OCTAL):
                raise self.error("octal escapes are not supported")
            index = int(ref)
            if index not in self.closed_groups:
                raise self.error(f"back-reference to unopened group {index}")
            return Backref(index, start)
        if c.isalpha():
            raise self.error(f"unknown escape \\{c}")
        return Lit(c)

    def char_class(self) -> Predicate:
        self.expect("[")
        negated = self.peek() == "^"
        if negated:
            self.take()
        parts = []
        while self.peek() != "]":
            parts.append(self.class_item())
        self.expect("]")
        if not parts:
            raise self.error("empty character class")
        pred = disj(parts)
        return Not(pred) if negated else pred

    def class_item(self) -> Predicate:
        start = self.pos
        c = self.take()
        if c == "\\":
            if self.peek() in _CLASS_ESCAPES:
                pred = _CLASS_ESCAPES[self.take()]
                if self.range_follows():
                    raise RegexError("bad character range: a class escape cannot start one", start)
                return pred
            c = self.class_escape()
        if self.range_follows():
            self.take()
            hi = self.take()
            if hi == "\\":
                if self.peek() in _CLASS_ESCAPES:
                    raise RegexError("bad character range: a class escape cannot end one",
                                     self.pos - 1)
                hi = self.class_escape()
            if ord(hi) < ord(c):
                raise self.error(f"reversed range {c}-{hi}")
            return Interval(ord(c), ord(hi))
        return Atom(ord(c))

    def range_follows(self) -> bool:
        """Is the next class item's - a range's, not a literal hyphen?"""
        return self.peek() == "-" and self.pos + 1 < len(self.pattern) and \
            self.pattern[self.pos + 1] != "]"

    def class_escape(self) -> str:
        """The character escaped in a class.  `re` reads a digit there as
        an octal escape and a letter as a control character or a class,
        so both are refused."""
        e = self.take()
        if e in _DECIMAL:
            raise self.error("octal escapes are not supported")
        if e.isalpha():
            raise self.error(f"unknown escape \\{e}")
        return e


def parse(pattern: str):
    """Pattern string to syntax tree; raises RegexError with a position."""
    return _Parser(pattern).parse()


# ---------------------------------------------------------------------------
# analysis


def _collect(node, groups: dict, referenced: set):
    """Fill groups, in the order they close, and the referenced indices."""
    if isinstance(node, Group):
        _collect(node.item, groups, referenced)
        groups[node.index] = node.item
    elif isinstance(node, Backref):
        referenced.add(node.index)
    elif isinstance(node, (Concat, Alt)):
        for item in node.items:
            _collect(item, groups, referenced)
    elif isinstance(node, (Star, Plus, Repeat)):
        _collect(node.item, groups, referenced)


def fixed_length(node, group_lengths: dict) -> Optional[int]:
    """Length of every word the node matches, or None if not unique."""
    if isinstance(node, (Lit, Class, Dot)):
        return 1
    if isinstance(node, Concat):
        total = 0
        for item in node.items:
            n = fixed_length(item, group_lengths)
            if n is None:
                return None
            total += n
        return total
    if isinstance(node, Alt):
        lengths = {fixed_length(item, group_lengths) for item in node.items}
        if len(lengths) == 1 and None not in lengths:
            return lengths.pop()
        return None
    if isinstance(node, (Star, Plus)):
        return 0 if fixed_length(node.item, group_lengths) == 0 else None
    if isinstance(node, Repeat):
        n = fixed_length(node.item, group_lengths)
        if n is None:
            return None
        if node.lo == node.hi or n == 0:
            return node.lo * n
        return None
    if isinstance(node, Group):
        return fixed_length(node.item, group_lengths)
    if isinstance(node, Backref):
        return group_lengths[node.index]
    raise TypeError(node)  # pragma: no cover


# ---------------------------------------------------------------------------
# compilation


class CompiledPattern:
    """A compiled automaton and its `core.Moves`, which `match` reads:
    a state's moves are compiled when a match first reaches it, and the
    set table of configuration sets fills as texts are read.  Both last
    as long as the pattern, so later matches reuse what earlier ones
    filled; `core.MAX_HELD` bounds the set table, which `core._accepts`
    empties when it is full and has read that many texts."""

    def __init__(self, sra: Sra):
        self.sra = sra
        self.moves = Moves(sra)

    def __repr__(self):
        return (
            f"CompiledPattern(states={len(self.sra.states)},"
            f" registers={len(self.sra.registers)})"
        )


class _Builder:
    """Thompson-style construction with registers threaded through groups.

    Nodes are integers; edges are either epsilon or consuming
    (pred, E, U, dst).  While a referenced group is open every consumed
    position also stores into that group's next register.
    """

    def __init__(self, group_lengths: dict, registers: dict):
        self.group_lengths = group_lengths
        self.registers = registers  # (group, offset) -> register index
        self.eps = {0: []}
        self.edges = {0: []}
        self.n = 1
        self.active = []  # [group index, next offset] for open groups
        self.forks = set()  # nodes that more than one branch leaves from

    def node(self) -> int:
        if self.n >= MAX_NODES:
            # a cap on the whole pattern, reported at its start
            raise RegexError(f"whole pattern needs more than {MAX_NODES} nodes", 0)
        i = self.n
        self.n += 1
        self.eps[i] = []
        self.edges[i] = []
        return i

    def eps_node(self, src: int) -> int:
        dst = self.node()
        self.eps[src].append(dst)
        return dst

    def consume(self, src: int, pred: Predicate, reads=()) -> int:
        stores = tuple(self.registers[(entry[0], entry[1])] for entry in self.active)
        for entry in self.active:
            entry[1] += 1
        dst = self.node()
        self.edges[src].append((pred, tuple(reads), stores, dst))
        return dst

    def loop(self, at: int, pred: Predicate, reads=()):
        # single-symbol repetition outside referenced groups
        self.edges[at].append((pred, tuple(reads), (), at))

    def build(self, node, src: int) -> int:
        if isinstance(node, (Lit, Class, Dot)):
            return self.consume(src, self._atom_pred(node))
        if isinstance(node, Concat):
            for item in node.items:
                src = self.build(item, src)
            return src
        if isinstance(node, Alt):
            self.forks.add(src)
            saved = [entry[1] for entry in self.active]
            out = self.node()
            for item in node.items:
                for entry, off in zip(self.active, saved):
                    entry[1] = off
                end = self.build(item, src)
                self.eps[end].append(out)
            return out
        if isinstance(node, (Star, Plus)):
            if self.active:
                raise SraError(
                    "referenced capture groups must have a fixed length"
                )
            atoms = self._atom_items(node.item)
            if atoms is not None and (isinstance(node, Star) or len(atoms) == 1):
                # repetition of single symbols: self-loops on a node that
                # nothing but what follows leaves
                if isinstance(node, Plus):
                    src = self.build(atoms[0], src)
                elif src in self.forks or self.eps[src] or self.edges[src]:
                    src = self.eps_node(src)
                for a in atoms:
                    self.loop(src, self._atom_pred(a))
                return src
            # a star is left where each iteration starts, so two branches
            # leave entry
            entry = self.eps_node(src)
            if isinstance(node, Star):
                self.forks.add(entry)
            end = self.build(node.item, entry)
            self.eps[end].append(entry)
            return entry if isinstance(node, Star) else end
        if isinstance(node, Repeat):
            for _ in range(node.lo):
                src = self.build(node.item, src)
            if node.hi is None:
                return self.build(Star(node.item), src)
            if node.hi == node.lo:
                return src
            if self.active:
                raise SraError("referenced capture groups must have a fixed length")
            # nested optional copies, (x(x(x)?)?)?, all skipping to one exit
            out = self.node()
            for _ in range(node.hi - node.lo):
                self.eps[src].append(out)
                src = self.build(node.item, src)
            self.eps[src].append(out)
            return out
        if isinstance(node, Group):
            if node.index in self.group_lengths:
                entry = [node.index, 0]
                self.active.append(entry)
                end = self.build(node.item, src)
                self.active.remove(entry)
                return end
            return self.build(node.item, src)
        if isinstance(node, Backref):
            if not self.group_lengths[node.index]:
                # no register records whether such a group took part
                raise RegexError(f"back-reference to group {node.index}, which matches"
                                 " only the empty string", node.position)
            for j in range(self.group_lengths[node.index]):
                src = self.consume(src, TRUE, reads=(self.registers[(node.index, j)],))
            return src
        raise TypeError(node)  # pragma: no cover

    def _atom_items(self, item):
        """The single-symbol alternatives of item, or None if compound.

        Groups nobody refers back to are transparent wrappers here.
        """
        if isinstance(item, Group) and item.index not in self.group_lengths:
            return self._atom_items(item.item)
        if isinstance(item, (Lit, Class, Dot)):
            return [item]
        if isinstance(item, Alt):
            parts = [self._atom_items(x) for x in item.items]
            if all(p is not None and len(p) == 1 for p in parts):
                return [p[0] for p in parts]
        return None

    @staticmethod
    def _atom_pred(item) -> Predicate:
        if isinstance(item, Lit):
            return Atom(ord(item.char))
        if isinstance(item, Class):
            return item.pred
        return ANY_BUT_NEWLINE

    def closure(self, i: int) -> frozenset:
        seen = {i}
        stack = [i]
        while stack:
            for j in self.eps[stack.pop()]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        return frozenset(seen)


def compile(ast_or_pattern) -> CompiledPattern:
    """Syntax tree (or pattern string) to an anchored automaton."""
    try:
        return _compile(ast_or_pattern)
    except RecursionError:
        raise RegexError("pattern nested too deeply", 0) from None


def _compile(ast_or_pattern) -> CompiledPattern:
    ast = parse(ast_or_pattern) if isinstance(ast_or_pattern, str) else ast_or_pattern
    groups: dict = {}
    referenced: set = set()
    _collect(ast, groups, referenced)
    # a group closes before any reference to it, so the lengths of the
    # groups its body refers to are known by then
    group_lengths = {}
    for g in (g for g in groups if g in referenced):
        n = fixed_length(groups[g], group_lengths)
        if n is None:
            raise SraError(
                f"capture group {g} is back-referenced but has no fixed length"
            )
        group_lengths[g] = n
    registers = {}
    names = []
    for g in sorted(referenced):
        for j in range(group_lengths[g]):
            registers[(g, j)] = len(names)
            names.append(f"g{g}.{j}")

    b = _Builder(group_lengths, registers)
    accept = b.build(ast, 0)

    # epsilon elimination: kernel states are the start node plus every
    # target of a consuming edge
    closures = {i: b.closure(i) for i in range(b.n)}
    index = {0: 0}
    order = [0]
    transitions = []
    emitted = set()
    pos = 0
    while pos < len(order):
        i = order[pos]
        pos += 1
        for j in closures[i]:
            for pred, reads, stores, dst in b.edges[j]:
                if dst not in index:
                    index[dst] = len(order)
                    order.append(dst)
                lab = Label(pred, frozenset(reads), frozenset(), frozenset(stores))
                t = (index[i], lab, index[dst])
                if t not in emitted:
                    emitted.add(t)
                    transitions.append(t)
    finals = frozenset(
        index[i] for i in order if accept in closures[i]
    )
    sra = Sra(
        algebra=UNICODE,
        registers=tuple(names),
        states=tuple(str(i) for i in range(len(order))),
        initial=0,
        initial_valuation=(None,) * len(names),
        finals=finals,
        transitions=tuple(transitions),
    )
    problems = validate(sra)
    if problems:  # pragma: no cover - construction should always be well-formed
        raise SraError("; ".join(problems))
    return CompiledPattern(sra)


# ---------------------------------------------------------------------------
# matching


def match(compiled: CompiledPattern, text: str) -> bool:
    """Does the whole text match?  One pass over the text through the
    pattern's set table (`core.membership`'s engine), so each step from
    a configuration set already met on that symbol is one dict lookup."""
    return _accepts(compiled.moves, map(ord, text))


# ---------------------------------------------------------------------------
# benchmark reconstructions


def _product_pattern(code: int, lot_referenced: bool) -> str:
    code_group = "(" + "." * code + ")"
    lot = "(.)" if lot_referenced else "."
    lot_ref = r"\2" if lot_referenced else "."
    return (
        f"C:{code_group} L:{lot} D:[^\\s]+"
        f"( C:\\1 L:{lot_ref} D:[^\\s]+)+"
    )


def _ip_pattern(n: int) -> str:
    # two IP:port endpoints whose addresses agree on the first n digits
    digits = []
    refs = []
    k = 0
    for i in range(12):
        if i in (3, 6, 9):
            digits.append("\\.")
            refs.append("\\.")
        if k < n:
            digits.append("(\\d)")
            refs.append(f"\\{k + 1}")
            k += 1
        else:
            digits.append("\\d")
            refs.append("\\d")
    first = "".join(digits)
    second = "".join(refs)
    return f"IP: {first}:\\d+( IP: {second}:\\d+)+"


_NAME_BASE = "([a-z])[a-z]* ([a-z])[a-z]* "

BENCHMARK_PATTERNS = {
    "IP2": _ip_pattern(2),
    "IP3": _ip_pattern(3),
    "IP4": _ip_pattern(4),
    "IP6": _ip_pattern(6),
    "IP9": _ip_pattern(9),
    "Name-F": _NAME_BASE + r"\1\.",
    "Name-L": _NAME_BASE + r"\2\.",
    "Name": _NAME_BASE + r"\1\2",
    "XML": r"<([a-zA-Z])([a-zA-Z])([a-zA-Z])>([a-zA-Z]|[0-9]| )*</\1\2\3>",
    "Pr-C2": _product_pattern(2, False),
    "Pr-C3": _product_pattern(3, False),
    "Pr-C4": _product_pattern(4, False),
    "Pr-C6": _product_pattern(6, False),
    "Pr-C9": _product_pattern(9, False),
    "Pr-CL2": _product_pattern(1, True),
    "Pr-CL3": _product_pattern(2, True),
    "Pr-CL4": _product_pattern(3, True),
    "Pr-CL6": _product_pattern(5, True),
    "Pr-CL9": _product_pattern(8, True),
}

# register-value domains used when expanding benchmarks to plain SFAs
BENCHMARK_DOMAINS = {
    **{name: 10 for name in BENCHMARK_PATTERNS if name.startswith("IP")},
    **{name: 26 for name in ("Name-F", "Name-L", "Name")},
    "XML": 52,
    **{name: 2 ** 16 for name in BENCHMARK_PATTERNS if name.startswith("Pr-")},
}
