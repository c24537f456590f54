"""Similarity, inclusion and equivalence checks.

The checks run on normalized automata over a shared minterm basis.
Besides the two base states, each explored triple carries a register
correspondence: a tuple indexed by left register whose entry is the
right register holding the same value, or -1 when no right register
does.  A FIFO worklist grows the candidate relation from the initial
triple; a triple that cannot be matched disproves the simulation.

Inclusion and equivalence additionally require deterministic operands
and complete right-hand sides; a failed inclusion is backed by a
concrete separating word.  The worklist's parent map is walked back
with `normal.path`, and the matched steps on the way, one move per
side, are turned into the word by `normal.replay`.
Equivalence runs the one-way simulation in both directions over one
shared basis and one pair of lazily normalized automata.
"""

from __future__ import annotations

from collections import deque
from typing import Optional, Tuple

from .boolean_ops import complement, complete, intersect
from .core import Sra, SraError
from .normal import (
    LazyNorm, capped_sizes, is_deterministic, is_empty, minterm_basis, path, replay,
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


_FINALS_REASON = "left state is accepting, right state is not"


def _check_direction(ln1: LazyNorm, ln2: LazyNorm, key1, key2, sigma, sizes):
    """One-sided match of every move of key1 by a move of key2.

    Returns (required, None) with (triple, step) pairs forced into the
    relation — step is (m, ((op1, r), (op2, s))), the matched pair of
    moves, so that `normal.replay` can turn a failure path into a
    concrete word — or (None, reason) when some move cannot be matched.
    sizes[i] counts minterm i's elements up to one more than both sides'
    registers together, which decides whether a value fresh on both
    sides exists.
    """
    if ln1.is_final(key1) and not ln2.is_final(key2):
        return None, _FINALS_REASON
    algebra = ln1.algebra
    minterms = ln1.basis.minterms
    theta1 = key1[1]
    theta2 = key2[1]
    reads2, fresh2 = ln2.successor_index(key2)
    required = []
    for m, op, r, key1b in ln1.successors(key1):
        if op == "read":
            s = sigma[r]
            if s >= 0:
                matches = reads2.get((s, m))
                if not matches:
                    return None, (
                        f"no matching read of the corresponding register"
                        f" for guard {algebra.show(minterms[m].conjunction)}"
                    )
                for k2b in matches:
                    required.append(
                        ((key1b, k2b, sigma), (m, (("read", r), ("read", s))))
                    )
            else:
                matches = fresh2.get(m)
                if not matches:
                    return None, (
                        f"no fresh move matches a read of an uncorrelated"
                        f" register for guard {algebra.show(minterms[m].conjunction)}"
                    )
                for s2, k2b in matches:
                    required.append(
                        (
                            (key1b, k2b, _sigma_update(sigma, r, s2)),
                            (m, (("read", r), ("fresh", s2))),
                        )
                    )
        else:
            held = theta1.count(m)  # distinct values of m held on either side
            for s in range(ln2.nregs):
                if theta2[s] != m or s in sigma:
                    continue
                held += 1
                matches = reads2.get((s, m))
                if not matches:
                    return None, (
                        f"no read of register {ln2.S.registers[s]} matches a"
                        f" fresh move for guard {algebra.show(minterms[m].conjunction)}"
                    )
                for k2b in matches:
                    required.append(
                        (
                            (key1b, k2b, _sigma_update(sigma, r, s)),
                            (m, (("fresh", r), ("read", s))),
                        )
                    )
            if held < sizes[m]:
                matches = fresh2.get(m)
                if not matches:
                    return None, (
                        f"no fresh move matches a doubly-fresh input"
                        f" for guard {algebra.show(minterms[m].conjunction)}"
                    )
                for s2, k2b in matches:
                    required.append(
                        (
                            (key1b, k2b, _sigma_update(sigma, r, s2)),
                            (m, (("fresh", r), ("fresh", s2))),
                        )
                    )
    return required, None


def _normalized_pair(A: Sra, B: Sra):
    """Both single-valued operands normalized over one basis,
    with minterm sizes capped at one more than their registers together."""
    if A.algebra is not B.algebra:
        raise SraError("operands must share an algebra")
    basis = minterm_basis(A, B)
    ln1 = LazyNorm(A, basis)
    ln2 = LazyNorm(B, basis)
    return ln1, ln2, capped_sizes(A.algebra, basis, ln1.nregs + ln2.nregs + 1)


def _simulate(ln1: LazyNorm, ln2: LazyNorm, sizes):
    """Does ln2 simulate ln1?  None if so, else (parent, triple, reason):
    the search's parent map, the first triple that cannot be matched and
    why."""
    seed = (
        ln1.initial,
        ln2.initial,
        correspondence_of(ln1.S.initial_valuation, ln2.S.initial_valuation),
    )
    parent = {seed: None}
    queue = deque([seed])
    while queue:
        triple = queue.popleft()
        key1, key2, sigma = triple
        required, reason = _check_direction(ln1, ln2, key1, key2, sigma, sizes)
        if reason is not None:
            return parent, triple, reason
        for nt, step in required:
            if nt not in parent:
                parent[nt] = (triple, step)
                queue.append(nt)
    return None


def n_similar(S1: Sra, S2: Sra):
    """Does every behavior of S1 have a matching behavior in S2?

    Returns (True, None) or (False, trace) where the trace names the
    chain of state triples leading to the unmatched move.
    """
    A = to_single_valued(S1)
    B = to_single_valued(S2)
    failure = _simulate(*_normalized_pair(A, B))
    if failure is None:
        return True, None
    parent, triple, reason = failure
    triples = path(parent, triple)[0]
    return False, {
        "reason": reason,
        "path": [
            (key1[0], key2[0], tuple((r, s) for r, s in enumerate(sigma) if s >= 0))
            for key1, key2, sigma in triples
        ],
    }


def _require_deterministic(S: Sra, side: str):
    if not is_deterministic(S):
        raise SraError(f"{side} operand must be deterministic")


def includes(S1: Sra, S2: Sra) -> Tuple[bool, Optional[list]]:
    """Is every word of S1 accepted by S2?

    Requires deterministic operands.  On failure a separating word
    (accepted by S1, rejected by S2) is replayed from the failed
    simulation path; the intersection with the complement of the
    completed S2 serves as a fallback extraction route.
    """
    _require_deterministic(S1, "left")
    _require_deterministic(S2, "right")
    A = to_single_valued(S1)
    B = complete(to_single_valued(S2))
    ln1, ln2, sizes = _normalized_pair(A, B)
    failure = _simulate(ln1, ln2, sizes)
    if failure is None:
        return True, None
    parent, triple, reason = failure
    if reason != _FINALS_REASON:  # pragma: no cover - only on unexpected failure shapes
        empty, word = is_empty(intersect(A, complement(B)))
        if empty:
            raise SraError("internal error: no separating word found")
        return False, word
    # with B complete and deterministic, the failure path spells a word
    # that A accepts and B's one run rejects
    steps = path(parent, triple)[1]
    return False, replay(ln1, [A.initial_valuation, B.initial_valuation], steps)


def equivalent(S1: Sra, S2: Sra) -> bool:
    """Do both automata accept exactly the same words?

    Each completed side must simulate the other; both runs share one
    basis and the successor caches of one pair of normalized automata.
    """
    _require_deterministic(S1, "left")
    _require_deterministic(S2, "right")
    A = complete(to_single_valued(S1))
    B = complete(to_single_valued(S2))
    ln1, ln2, sizes = _normalized_pair(A, B)
    return _simulate(ln1, ln2, sizes) is None and _simulate(ln2, ln1, sizes) is None
