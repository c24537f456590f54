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


def enum_denotation(algebra, p, rng=INT_RANGE):
    return [a for a in rng if algebra.denotes(p, a)]


def brute_is_sat(algebra, p, rng=INT_RANGE):
    return any(algebra.denotes(p, a) for a in rng)


def brute_count(algebra, p, rng=INT_RANGE):
    return sum(1 for a in rng if algebra.denotes(p, a))


def brute_minterm_bits(algebra, predicates, rng=INT_RANGE):
    """All sign patterns of the predicate set with an inhabitant in rng."""
    sat_bits = set()
    for a in rng:
        bits = tuple(1 if algebra.denotes(p, a) else 0 for p in predicates)
        sat_bits.add(bits)
    return sat_bits


def brute_membership(sra, word):
    """Configuration-set search written independently of the library."""
    configs = {(sra.initial, sra.initial_valuation)}
    for a in word:
        nxt = set()
        for state, vals in configs:
            for src, label, dst in sra.transitions:
                if src != state:
                    continue
                if not sra.algebra.denotes(label.guard, a):
                    continue
                holding = {r for r, v in enumerate(vals) if v == a}
                if not label.E <= holding:
                    continue
                if label.I & holding:
                    continue
                newvals = tuple(
                    a if r in label.U else v for r, v in enumerate(vals)
                )
                nxt.add((dst, newvals))
        configs = nxt
        if not configs:
            return False
    return any(state in sra.finals for state, _ in configs)


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
            if pos < len(text) and alg.UNICODE.denotes(node.pred, ord(text[pos])):
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
