"""Effective Boolean algebras over integers and Unicode codepoints.

A predicate denotes a set of domain elements.  Two concrete algebra
instances are provided:

* ``INTEGERS`` -- arbitrary-precision integers with closed intervals
  (either bound may be infinite), divisibility tests ``div k``
  (residue 0) and singleton ``atom`` predicates.
* ``UNICODE`` -- codepoints 0..0x10FFFF with intervals and atoms.

Satisfiability, witness extraction and cardinality thresholds are decided
exactly by normalising a predicate into disjoint cells: one residue class
per modulus-lcm, each restricted to a finite union of intervals.  No
external solver is involved.  One walk, `Algebra.check`, both refuses a
predicate outside the algebra and returns its period, the lcm of its div
moduli, which fixes the residue classes.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence


class AlgebraError(ValueError):
    """Raised on malformed predicates or algebra-instance mismatches."""


# Cell decomposition enumerates every residue modulo the lcm of a
# predicate's div moduli; a larger lcm is refused.
MAX_DIV_LCM = 1 << 16

# Passes over predicates recurse once per level or more; parsed text is
# refused past this depth, well below the roughly 330 levels at which the
# decision procedures overflow the interpreter's default stack.
MAX_NESTING = 100


# ---------------------------------------------------------------------------
# Predicate syntax trees


class Predicate:
    __slots__ = ()


@dataclass(frozen=True)
class TruePred(Predicate):
    pass


@dataclass(frozen=True)
class FalsePred(Predicate):
    pass


@dataclass(frozen=True)
class Interval(Predicate):
    # Closed interval; None means unbounded on that side.
    lo: Optional[int]
    hi: Optional[int]


@dataclass(frozen=True)
class Div(Predicate):
    k: int


@dataclass(frozen=True)
class Atom(Predicate):
    value: int


@dataclass(frozen=True)
class Not(Predicate):
    arg: Predicate


@dataclass(frozen=True)
class And(Predicate):
    args: tuple


@dataclass(frozen=True)
class Or(Predicate):
    args: tuple


TRUE = TruePred()
FALSE = FalsePred()


def conj(parts: Sequence[Predicate]) -> Predicate:
    parts = tuple(parts)
    if not parts:
        return TRUE
    if len(parts) == 1:
        return parts[0]
    return And(parts)


def disj(parts: Sequence[Predicate]) -> Predicate:
    parts = tuple(parts)
    if not parts:
        return FALSE
    if len(parts) == 1:
        return parts[0]
    return Or(parts)


# ---------------------------------------------------------------------------
# Interval-set machinery.  An "ivs" is a tuple of disjoint, sorted, closed
# integer intervals (lo, hi); an unbounded end is -math.inf / math.inf.


def _iv_norm(ivs: list) -> tuple:
    out: list = []
    for lo, hi in sorted(iv for iv in ivs if iv[0] <= iv[1]):
        # merge touching or overlapping intervals
        if out and lo <= out[-1][1] + 1:
            if hi > out[-1][1]:
                out[-1] = (out[-1][0], hi)
        else:
            out.append((lo, hi))
    return tuple(out)


def iv_intersect(a: tuple, b: tuple) -> tuple:
    return _iv_norm([(max(x[0], y[0]), min(x[1], y[1])) for x in a for y in b])


def iv_union(a: tuple, b: tuple) -> tuple:
    return _iv_norm(list(a) + list(b))


def iv_complement(a: tuple, domain: tuple) -> tuple:
    # the gaps of a over all integers, then clipped to the domain
    out = []
    prev = -math.inf  # least point not yet covered
    for lo, hi in a:
        if prev < lo:
            out.append((prev, lo - 1))
        prev = hi + 1
    if prev < math.inf:
        out.append((prev, math.inf))
    return iv_intersect(tuple(out), domain)


def _first_in_class(lo: int, res: int, L: int) -> int:
    """Least x >= lo with x === res (mod L)."""
    return lo + ((res - lo) % L)


def _last_in_class(hi: int, res: int, L: int) -> int:
    """Greatest x <= hi with x === res (mod L)."""
    return hi - ((hi - res) % L)


def _count(cells, cap: int) -> int:
    """How many elements the cells hold, up to cap.  A cell (res, L, ivs)
    holds the x === res (mod L) inside the intervals ivs."""
    total = 0
    for res, L, ivs in cells:
        for lo, hi in ivs:
            # cap * L consecutive integers hold cap of each class; adding
            # keeps a float end away from an int too large for a float
            if lo + cap * L <= hi:
                return cap
            first = _first_in_class(lo, res, L)
            if first <= hi:
                total += (hi - first) // L + 1
                if total >= cap:
                    return cap
    return total


# ---------------------------------------------------------------------------
# Minterms


@dataclass(frozen=True)
class Minterm:
    """A minimal satisfiable sign-assignment over a source predicate set.

    `cells` are its non-empty cells (res, L, ivs), split off by
    `Algebra.minterms`, so its size and members are read without
    decomposing the conjunction again.  They are neither compared nor
    shown.
    """

    conjunction: Predicate
    bits: tuple
    cells: tuple = field(compare=False, repr=False)

    def __repr__(self):  # compact, for debugging normalized automata
        return "m" + "".join(str(b) for b in self.bits)

    def size(self, cap: int) -> int:
        """How many elements the minterm holds, up to cap."""
        return _count(self.cells, cap)

    def __contains__(self, a: int) -> bool:
        """Is the domain element a one of the minterm's elements?"""
        return any(
            a % L == res and any(lo <= a <= hi for lo, hi in ivs) for res, L, ivs in self.cells
        )


@dataclass(frozen=True)
class MintermSet:
    """The minterms of `sources`, in descending bit order.  `inside` maps
    each source to the indices of the minterms inside it."""

    sources: tuple
    minterms: tuple
    inside: dict = field(compare=False, repr=False)

    def __iter__(self):
        return iter(self.minterms)

    def __len__(self):
        return len(self.minterms)


# ---------------------------------------------------------------------------
# Algebras


class Algebra:
    """Base class; concrete instances fix the name, domain and literal syntax.

    The canonical witness order enumerates 0, 1, 2, ... and then -1, -2,
    ..., so every non-empty denotation has a least element even when it
    is unbounded below.  On a non-negative domain it is the natural order.
    """

    name = "?"
    _domain_ivs: tuple = ((-math.inf, math.inf),)

    # -- structural checks -------------------------------------------------

    def check(self, p: Predicate) -> int:
        """Refuse a predicate outside this algebra with AlgebraError, else
        return its period: the lcm of its div moduli, 1 when it has none."""
        if isinstance(p, (TruePred, FalsePred)):
            return 1
        if isinstance(p, Interval):
            for b in (p.lo, p.hi):
                if b is not None and not self._in_domain(b):
                    raise AlgebraError(f"interval bound {b!r} outside {self.name} domain")
            return 1
        if isinstance(p, Atom):
            if not self._in_domain(p.value):
                raise AlgebraError(f"atom {p.value!r} outside {self.name} domain")
            return 1
        if isinstance(p, Div):
            self._check_div(p)
            return p.k
        if isinstance(p, Not):
            return self.check(p.arg)
        if isinstance(p, (And, Or)):
            L = 1
            for q in p.args:
                L = math.lcm(L, self.check(q))
            return L
        raise AlgebraError(f"unknown predicate node {p!r}")

    def _check_div(self, p: Div) -> None:
        raise AlgebraError(f"div predicates are not part of the {self.name} algebra")

    def _in_domain(self, a) -> bool:
        if isinstance(a, int) and not isinstance(a, bool):
            for lo, hi in self._domain_ivs:
                if lo <= a <= hi:
                    return True
        return False

    # -- cell decomposition ------------------------------------------------

    def _period(self, p: Predicate) -> int:
        """p's period (see `check`), refused above MAX_DIV_LCM."""
        L = self.check(p)
        if L > MAX_DIV_LCM:
            raise AlgebraError(f"lcm {L} of div moduli exceeds {MAX_DIV_LCM}")
        return L

    def _restrict(self, p: Predicate, res: int, L: int) -> tuple:
        """Interval hull of [[p]] within the residue class res (mod L).

        Only elements === res (mod L) inside the returned intervals are
        meant; interval arithmetic never needs to know the class.
        """
        dom = self._domain_ivs
        if isinstance(p, TruePred):
            return dom
        if isinstance(p, FalsePred):
            return ()
        if isinstance(p, Interval):
            lo = -math.inf if p.lo is None else p.lo
            hi = math.inf if p.hi is None else p.hi
            return iv_intersect(((lo, hi),), dom)
        if isinstance(p, Div):
            return dom if res % p.k == 0 else ()
        if isinstance(p, Atom):
            return iv_intersect(((p.value, p.value),), dom) if p.value % L == res else ()
        if isinstance(p, Not):
            return iv_complement(self._restrict(p.arg, res, L), dom)
        if isinstance(p, And):
            out = dom
            for q in p.args:
                out = iv_intersect(out, self._restrict(q, res, L))
            return out
        if isinstance(p, Or):
            out: tuple = ()
            for q in p.args:
                out = iv_union(out, self._restrict(q, res, L))
            return out
        raise AlgebraError(f"unknown predicate node {p!r}")

    def _cells(self, p: Predicate):
        """p's non-empty cells (res, L, ivs), after checking p."""
        L = self._period(p)
        for res in range(L):
            ivs = self._restrict(p, res, L)
            if ivs:
                yield res, L, ivs

    # -- decision procedures -------------------------------------------------

    def is_sat(self, p: Predicate) -> bool:
        """True iff the denotation is non-empty: `has_min_size` at 1."""
        return self.has_min_size(p, 1)

    def has_min_size(self, p: Predicate, k: int) -> bool:
        """True iff the denotation holds at least k distinct elements."""
        if k < 0:
            raise AlgebraError("k must be non-negative")
        return self.size(p, k) == k

    def size(self, p: Predicate, cap: int) -> int:
        """How many distinct elements the denotation holds, up to cap.

        One pass over the cells, stopping once cap is reached, so
        infinite denotations are fine.
        """
        return _count(self._cells(p), cap)

    def witness(self, p: Predicate, excluded: Iterable[int] = ()) -> Optional[int]:
        """Deterministic pick from [[p]] minus the excluded set, or None.

        p is a predicate, or a basis `Minterm`, whose kept cells are read
        in place of decomposing its conjunction again.  Each cell drops
        the excluded elements of its residue class, and offers its least
        non-negative and greatest negative element.
        """
        cells = p.cells if isinstance(p, Minterm) else self._cells(p)
        holes = sorted({e for e in excluded if self._in_domain(e)})
        found = []
        for res, L, ivs in cells:
            kept = iv_complement(tuple((e, e) for e in holes if e % L == res), self._domain_ivs)
            for lo, hi in iv_intersect(ivs, kept):
                x = _first_in_class(max(lo, 0), res, L)
                if x <= hi:
                    found.append(x)
                y = _last_in_class(min(hi, -1), res, L)
                if y >= lo:
                    found.append(y)
        return min(found, key=self.sort_key, default=None)

    def sort_key(self, a: int):
        """Key realizing the canonical witness order."""
        return (0, a) if a >= 0 else (1, -a)

    def sorted_domain(self, values) -> list:
        """The distinct values in the canonical witness order, or
        AlgebraError naming one that is not a domain element.

        The type check runs in one pass over the value types, and only
        the least and the greatest value are compared with the domain's
        interval; the values are walked one by one only to name the
        offender.  The ascending order, split at 0, gives sort_key's
        order: 0, 1, 2, ..., then -1, -2, ....
        """
        values = set(values)
        ordered = sorted(values) if set(map(type, values)) <= {int} else None
        (lo, hi), = self._domain_ivs
        if ordered is None or ordered and not lo <= ordered[0] <= ordered[-1] <= hi:
            for a in values:
                if not self._in_domain(a):
                    raise AlgebraError(f"{a!r} is not an element of the {self.name} domain")
            ordered = sorted(values)  # all ints, some of a subclass
        cut = bisect.bisect_left(ordered, 0)
        return ordered[cut:] + ordered[:cut][::-1]

    # -- minterms ------------------------------------------------------------

    def minterms(self, predicates: Sequence[Predicate]) -> MintermSet:
        """All satisfiable sign-assignments over the given predicate set.

        Duplicates are removed (keeping first occurrence).  One residue
        class at a time, modulo the lcm of all the sources' div moduli,
        each source is decomposed once and splits every cell into its
        inside and outside parts, keeping the parts that hold a member
        of the class.  Each minterm keeps its parts as its cells, one
        per residue class at most, so no minterm is decomposed again.
        Bit vectors are listed in descending order.
        """
        src = tuple(dict.fromkeys(predicates))
        L = self._period(conj(src))
        dom = self._domain_ivs
        live = {}  # bits -> cells
        for res in range(L):
            cells = [((), dom)]  # (bits, intervals)
            for q in src:
                inside = self._restrict(q, res, L)
                halves = ((1, inside), (0, iv_complement(inside, dom)))
                split = [
                    (bits + (b,), iv_intersect(ivs, h)) for bits, ivs in cells for b, h in halves
                ]
                cells = [(bits, part) for bits, part in split if _count([(res, L, part)], 1)]
            for bits, part in cells:
                live.setdefault(bits, []).append((res, L, part))
        minterms = tuple(
            Minterm(conj([q if b else Not(q) for q, b in zip(src, bits)]), bits, tuple(live[bits]))
            for bits in sorted(live, reverse=True)
        )
        return MintermSet(src, minterms, {
            q: tuple(i for i, m in enumerate(minterms) if m.bits[j]) for j, q in enumerate(src)
        })

    # -- concrete syntax -----------------------------------------------------

    def parse(self, text: str) -> Predicate:
        p, pos = self._parse_pred(text, _skip_ws(text, 0), 0)
        pos = _skip_ws(text, pos)
        if pos != len(text):
            raise AlgebraError(f"trailing input at position {pos}: {text[pos:]!r}")
        self.check(p)
        return p

    def _parse_pred(self, s: str, i: int, depth: int):
        i = _skip_ws(s, i)
        if i >= len(s):
            raise AlgebraError("unexpected end of predicate")
        if depth == MAX_NESTING and s[i] in "!(":
            raise AlgebraError(f"predicate nested deeper than {MAX_NESTING} at position {i}")
        if s.startswith("true", i):
            return TRUE, i + 4
        if s.startswith("false", i):
            return FALSE, i + 5
        if s.startswith("div", i):
            i = _skip_ws(s, i + 3)
            k, i = _parse_int(s, i)
            if k < 1:
                raise AlgebraError("div modulus must be >= 1")
            return Div(k), i
        if s.startswith("atom", i):
            i = _skip_ws(s, i + 4)
            v, i = self._parse_literal(s, i)
            return Atom(v), i
        c = s[i]
        if c == "[":
            lo, i = self._parse_bound(s, _skip_ws(s, i + 1), low=True)
            if i >= len(s) or s[i] != "-":
                raise AlgebraError(f"expected '-' in interval at position {i}")
            hi, i = self._parse_bound(s, _skip_ws(s, i + 1), low=False)
            i = _skip_ws(s, i)
            if i >= len(s) or s[i] != "]":
                raise AlgebraError(f"expected ']' at position {i}")
            return Interval(lo, hi), i + 1
        if c == "!":
            i = _skip_ws(s, i + 1)
            if i >= len(s) or s[i] != "(":
                raise AlgebraError(f"expected '(' after '!' at position {i}")
            p, i = self._parse_pred(s, i + 1, depth + 1)
            i = _skip_ws(s, i)
            if i >= len(s) or s[i] != ")":
                raise AlgebraError(f"expected ')' at position {i}")
            return Not(p), i + 1
        if c == "(":
            # a run of one connective: (a & b & c) or (a | b | c)
            first, i = self._parse_pred(s, i + 1, depth + 1)
            i = _skip_ws(s, i)
            if i >= len(s) or s[i] not in "&|":
                raise AlgebraError(f"expected '&' or '|' at position {i}")
            op = s[i]
            args = [first]
            while i < len(s) and s[i] == op:
                q, i = self._parse_pred(s, i + 1, depth + 1)
                args.append(q)
                i = _skip_ws(s, i)
            if i >= len(s) or s[i] != ")":
                raise AlgebraError(f"expected ')' at position {i}")
            node = And if op == "&" else Or
            return node(tuple(args)), i + 1
        raise AlgebraError(f"cannot parse predicate at position {i}: {s[i:]!r}")

    def _parse_bound(self, s: str, i: int, low: bool):
        if low and s.startswith("-inf", i):
            return None, i + 4
        if not low and s.startswith("inf", i):
            return None, i + 3
        return self._parse_literal(s, i)

    def _parse_literal(self, s: str, i: int):
        raise NotImplementedError

    def show(self, p: Predicate) -> str:
        if isinstance(p, TruePred):
            return "true"
        if isinstance(p, FalsePred):
            return "false"
        if isinstance(p, Interval):
            lo = "-inf" if p.lo is None else self._show_literal(p.lo)
            hi = "inf" if p.hi is None else self._show_literal(p.hi)
            return f"[{lo}-{hi}]"
        if isinstance(p, Div):
            return f"div {p.k}"
        if isinstance(p, Atom):
            return f"atom {self._show_literal(p.value)}"
        if isinstance(p, Not):
            return f"!({self.show(p.arg)})"
        if isinstance(p, (And, Or)):
            op = " & " if isinstance(p, And) else " | "
            return "(" + op.join(self.show(q) for q in p.args) + ")"
        raise AlgebraError(f"unknown predicate node {p!r}")

    def _show_literal(self, v: int) -> str:
        raise NotImplementedError


def _skip_ws(s: str, i: int) -> int:
    while i < len(s) and s[i] == " ":
        i += 1
    return i


def _parse_int(s: str, i: int):
    j = i
    if j < len(s) and s[j] == "-":
        j += 1
    k = j
    while k < len(s) and s[k].isdigit():
        k += 1
    if k == j:
        raise AlgebraError(f"expected integer at position {i}")
    try:
        return int(s[i:k]), k
    except ValueError:  # longer than int() converts
        raise AlgebraError(f"integer too long at position {i}") from None


class IntegerAlgebra(Algebra):
    """All integers, with divisibility tests."""

    name = "int"

    def _check_div(self, p: Div) -> None:
        if not isinstance(p.k, int) or p.k < 1:
            raise AlgebraError("div modulus must be a positive integer")

    def _parse_literal(self, s: str, i: int):
        return _parse_int(s, i)

    def _show_literal(self, v: int) -> str:
        return str(v)


MAX_CODEPOINT = 0x10FFFF


class UnicodeAlgebra(Algebra):
    """Codepoints 0..0x10FFFF ordered naturally; no divisibility tests."""

    name = "unicode"
    _domain_ivs = ((0, MAX_CODEPOINT),)

    def _parse_literal(self, s: str, i: int):
        if s.startswith("U+", i):
            j = i + 2
            k = j
            while k < len(s) and s[k] in "0123456789abcdefABCDEF":
                k += 1
            if k == j:
                raise AlgebraError(f"expected hex digits at position {j}")
            v = int(s[j:k], 16)
            if v > MAX_CODEPOINT:
                raise AlgebraError(f"codepoint U+{s[j:k]} out of range")
            return v, k
        if s[i] == "'":
            if i + 2 >= len(s) or s[i + 2] != "'":
                raise AlgebraError(f"malformed character literal at position {i}")
            return ord(s[i + 1]), i + 3
        raise AlgebraError(f"expected character literal at position {i}")

    def _show_literal(self, v: int) -> str:
        if 0x20 <= v <= 0x7E and v != 0x27:
            return f"'{chr(v)}'"
        return f"U+{v:04X}"


INTEGERS = IntegerAlgebra()
UNICODE = UnicodeAlgebra()

_BY_NAME = {INTEGERS.name: INTEGERS, UNICODE.name: UNICODE}


def algebra_by_name(name: str) -> Algebra:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise AlgebraError(f"unknown algebra {name!r}") from None
