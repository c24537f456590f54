"""Every pair of a small chain family against the exact inclusion oracle.

    python tests/exhaustive_differential.py

The family pairs each 1-register `fixtures.family_chain` of one to three
moves with each 2-register one of three moves, in both orders.  Every
move reads a register or stores into it, over one of EQUALITY_GUARDS, so
every chain is equality-only: 258 x 1,728 chains, 891,648 ordered pairs.
The extended family gives the 1-register chains a third move, a store of
a value that their register does not hold, which is a disequality at
that one register.  Its 561 chains with at least one such move meet the
same 2-register chains, 1,938,816 ordered pairs more.

For each pair, `includes` must answer as `oracles.brute_inclusion` does,
and a failing pair's word must separate the operands and be as short as
the oracle's.  The first disagreement stops the script with a failed
assertion naming the pair's moves, and a non-zero exit status.  It takes
about 18 minutes on one core.  pytest does not collect this file.
"""

import time

from fixtures import chain_family, family_chain
from oracles import brute_inclusion, brute_membership, small_domain
from sra.equiv import includes


def agree(lefts, rights, name):
    """includes agrees with the oracle on every (left, right) and
    (right, left) pair; lefts and rights are lists of move tuples."""
    start = time.time()
    L = [family_chain(1, moves) for moves in lefts]
    R = [family_chain(2, moves) for moves in rights]
    # every chain has one or two registers and its guards among
    # EQUALITY_GUARDS, so one domain serves every pair
    domain = small_domain(family_chain(1, [("read", 0, g) for g in range(3)]), R[0])
    pairs = failing = 0
    for i, S1 in enumerate(L):
        for j, S2 in enumerate(R):
            for A, B, tag in ((S1, S2, (lefts[i], rights[j])), (S2, S1, (rights[j], lefts[i]))):
                ok, word = includes(A, B)
                expected, shortest = brute_inclusion(A, B, domain)
                assert ok == expected, tag
                if not ok:
                    assert len(word) == len(shortest), (tag, word, shortest)
                    assert brute_membership(A, word) and not brute_membership(B, word), tag
                    failing += 1
                pairs += 1
    print(f"{name}: {pairs} ordered pairs agree, {failing} not included, "
          f"{time.time() - start:.0f} s")


if __name__ == "__main__":
    rights = list(chain_family(2, (3,)))
    agree(list(chain_family(1, (1, 2, 3))), rights, "family")
    extended = [
        moves for moves in chain_family(1, (1, 2, 3), ("read", "store", "fresh"))
        if any(kind == "fresh" for kind, _, _ in moves)
    ]
    agree(extended, rights, "extended family")
