"""Independent brute-force oracles used as ground truth in the tests.

Everything here is deliberately naive: denotations are checked by
enumeration over a bounded slice of the domain, and regex matching is a
recursive backtracker.  These are computed first and the library results
are compared against them.
"""

from __future__ import annotations

from collections import deque
from itertools import product

from sra import algebra as alg

# Bounded slice of the integer domain used to cross-check the decision
# procedures.  Sound for predicates whose interval endpoints, atoms and
# modulus-lcm periods all fall well inside the range.
INT_RANGE = range(-100, 101)


def denotes(algebra, p, a) -> bool:
    """Is a in the denotation of p?  The tests' reference evaluator: it
    refuses an element outside the algebra's domain and a predicate
    outside the algebra, and then walks the predicate."""
    if not algebra._in_domain(a):
        raise alg.AlgebraError(f"{a!r} is not an element of the {algebra.name} domain")
    algebra.check(p)
    return evaluate(p, a)


def evaluate(p, a) -> bool:
    """Does the element a satisfy the predicate p, taken as checked?"""
    if isinstance(p, alg.TruePred):
        return True
    if isinstance(p, alg.FalsePred):
        return False
    if isinstance(p, alg.Interval):
        return (p.lo is None or a >= p.lo) and (p.hi is None or a <= p.hi)
    if isinstance(p, alg.Div):
        return a % p.k == 0
    if isinstance(p, alg.Atom):
        return a == p.value
    if isinstance(p, alg.Not):
        return not evaluate(p.arg, a)
    if isinstance(p, alg.And):
        return all(evaluate(q, a) for q in p.args)
    if isinstance(p, alg.Or):
        return any(evaluate(q, a) for q in p.args)
    raise alg.AlgebraError(f"unknown predicate node {p!r}")


def minterm_of(algebra, mts, a):
    """The unique minterm of mts containing the element a, found by the
    cells it keeps; an element outside the domain is refused as
    `denotes` refuses it."""
    denotes(algebra, alg.TRUE, a)
    for m in mts.minterms:
        for res, L, ivs in m.cells:
            if a % L == res and any(lo <= a <= hi for lo, hi in ivs):
                return m
    raise AssertionError(f"no minterm contains {a!r}")


def enum_denotation(algebra, p, rng=INT_RANGE):
    return [a for a in rng if denotes(algebra, p, a)]


def brute_is_sat(algebra, p, rng=INT_RANGE):
    return any(denotes(algebra, p, a) for a in rng)


def brute_count(algebra, p, rng=INT_RANGE):
    return sum(1 for a in rng if denotes(algebra, p, a))


def brute_minterm_bits(algebra, predicates, rng=INT_RANGE):
    """All sign patterns of the predicate set with an inhabitant in rng."""
    sat_bits = set()
    for a in rng:
        bits = tuple(1 if denotes(algebra, p, a) else 0 for p in predicates)
        sat_bits.add(bits)
    return sat_bits


def moves_on(sra, symbols):
    """(state, a) -> the (E, I, U, target) of each transition out of
    state whose guard admits the symbol a, for every a in symbols."""
    moves = {}
    for src, label, dst in sra.transitions:
        for a in symbols:
            if denotes(sra.algebra, label.guard, a):
                moves.setdefault((src, a), []).append((label.E, label.I, label.U, dst))
    return moves


def brute_step(moves, configs, a):
    """The configurations (state, valuation) that configs move to on a."""
    nxt = set()
    for state, vals in configs:
        holding = {r for r, v in enumerate(vals) if v == a}
        for E, I, U, dst in moves.get((state, a), ()):
            if E <= holding and not I & holding:
                nxt.add((dst, tuple(a if r in U else v for r, v in enumerate(vals))))
    return frozenset(nxt)


def brute_membership(sra, word):
    """Configuration-set search written independently of the library."""
    moves = moves_on(sra, set(word))
    configs = {(sra.initial, sra.initial_valuation)}
    for a in word:
        configs = brute_step(moves, configs, a)
        if not configs:
            return False
    return any(state in sra.finals for state, _ in configs)


def small_domain(S1, S2, rng=INT_RANGE):
    """The finite domain on which `brute_inclusion` decides S1 against
    S2: of each minterm of the pair's guards, its first n1 + n2 + 1
    elements in rng, where n1 and n2 count the operands' registers, and
    every initial register value.  Minterms are told apart by
    enumeration, so rng must hold that many elements of each minterm, or
    all of them."""
    # the guards were checked when the automata were made
    guards = list(dict.fromkeys(lab.guard for S in (S1, S2) for _, lab, _ in S.transitions))
    cap = len(S1.registers) + len(S2.registers) + 1
    minterms = {}
    for a in rng:
        members = minterms.setdefault(tuple(evaluate(g, a) for g in guards), [])
        if len(members) < cap:
            members.append(a)
    initial = {v for S in (S1, S2) for v in S.initial_valuation if v is not None}
    return sorted(initial.union(*minterms.values()))


def brute_inclusion(S1, S2, domain=None):
    """(True, None) when every word of S1 is a word of S2, else (False,
    w) with w a shortest word that S1 accepts and S2 rejects.

    A breadth-first search over pairs of configuration sets, stepped as
    `brute_membership` steps, on every symbol of a finite domain,
    `small_domain(S1, S2)` unless one is given.  So it has no bound on
    word length.  With a deterministic S2 the answer is exact: a
    separating word pairs one run of S1 with the one run of S2, and the
    two hold at most n1 + n2 values at any point.  An input that neither
    holds can be renamed to any element of its minterm that neither
    holds, and one of the n1 + n2 + 1 kept is always free (the renaming
    argument of Kaminski & Francez, TCS 1994).  The renamed word keeps
    both runs and the word's length.  Nothing here reads `sra.normal` or
    `sra.equiv`."""
    if domain is None:
        domain = small_domain(S1, S2)
    moves1, moves2 = moves_on(S1, domain), moves_on(S2, domain)
    start = tuple(frozenset({(S.initial, S.initial_valuation)}) for S in (S1, S2))
    parent = {start: None}
    queue = deque([start])
    while queue:
        node = left, right = queue.popleft()
        if any(q in S1.finals for q, _ in left) and not any(q in S2.finals for q, _ in right):
            word = []
            while parent[node] is not None:
                node, a = parent[node]
                word.append(a)
            return False, word[::-1]
        if not left:
            continue
        for a in domain:
            node2 = (brute_step(moves1, left, a), brute_step(moves2, right, a))
            if node2 not in parent:
                parent[node2] = (node, a)
                queue.append(node2)
    return True, None


def json_document(S):
    """The document `core.dumps` writes for S, built as plain dicts and
    lists: json.dumps(json_document(S), indent=2) + "\\n" is its text."""
    regs = S.registers
    return {
        "algebra": S.algebra.name,
        "registers": list(regs),
        "states": list(S.states),
        "initial": S.states[S.initial],
        "initial_valuation": {regs[r]: v for r, v in enumerate(S.initial_valuation)},
        "finals": [S.states[q] for q in sorted(S.finals)],
        "transitions": [
            {
                "from": S.states[src],
                "guard": S.algebra.show(lab.guard),
                "E": [regs[r] for r in sorted(lab.E)],
                "I": [regs[r] for r in sorted(lab.I)],
                "U": [regs[r] for r in sorted(lab.U)],
                "to": S.states[dst],
            }
            for src, lab, dst in S.transitions
        ],
    }


def breadth_first_reach(graph, stop=None, priority=None):
    """A plain breadth-first `normal.reach`: (parent, goal), where parent
    maps every discovered node, in discovery order, to (predecessor,
    step) or None, and goal is the first node discovered that passes
    stop.  It takes no priority."""
    assert priority is None
    parent = {graph.initial: None}
    if stop is not None and stop(graph.initial):
        return parent, graph.initial
    queue = deque([graph.initial])
    while queue:
        node = queue.popleft()
        for step in graph.successors(node):
            node2 = step[-1]
            if node2 not in parent:
                parent[node2] = (node, step)
                if stop is not None and stop(node2):
                    return parent, node2
                queue.append(node2)
    return parent, None


def words_up_to(alphabet, max_len):
    for n in range(max_len + 1):
        yield from (list(w) for w in product(alphabet, repeat=n))


# ---------------------------------------------------------------------------
# Naive regex backtracker (groups, backrefs, the whole supported grammar).
# Operates on the parsed AST from sra.regex so both share one grammar.


def backtrack_match(ast, text):
    from sra import regex as rx

    def match(node, pos, groups):
        """Yield (new_pos, groups) for every way node can match at pos."""
        if isinstance(node, rx.Lit):
            if pos < len(text) and text[pos] == node.char:
                yield pos + 1, groups
        elif isinstance(node, rx.Class):
            if pos < len(text) and denotes(alg.UNICODE, node.pred, ord(text[pos])):
                yield pos + 1, groups
        elif isinstance(node, rx.Dot):
            if pos < len(text) and text[pos] != "\n":
                yield pos + 1, groups
        elif isinstance(node, rx.Concat):
            def seq(items, p, g):
                if not items:
                    yield p, g
                    return
                for p2, g2 in match(items[0], p, g):
                    yield from seq(items[1:], p2, g2)
            yield from seq(list(node.items), pos, groups)
        elif isinstance(node, rx.Alt):
            for item in node.items:
                yield from match(item, pos, groups)
        elif isinstance(node, rx.Star):
            yield from repeat(node.item, pos, groups, 0, None)
        elif isinstance(node, rx.Plus):
            yield from repeat(node.item, pos, groups, 1, None)
        elif isinstance(node, rx.Repeat):
            yield from repeat(node.item, pos, groups, node.lo, node.hi)
        elif isinstance(node, rx.Group):
            for p2, g2 in match(node.item, pos, groups):
                g3 = dict(g2)
                g3[node.index] = text[pos:p2]
                yield p2, g3
        elif isinstance(node, rx.Backref):
            captured = groups.get(node.index)
            if captured is not None and text.startswith(captured, pos):
                yield pos + len(captured), groups
        else:  # pragma: no cover
            raise TypeError(node)

    def repeat(item, pos, groups, lo, hi):
        def go(p, g, n):
            if n >= lo:
                yield p, g
            if hi is not None and n >= hi:
                return
            for p2, g2 in match(item, p, g):
                if p2 == p:  # refuse empty-step loops
                    continue
                yield from go(p2, g2, n + 1)
        yield from go(pos, groups, 0)

    return any(p == len(text) for p, _ in match(ast, 0, {}))
