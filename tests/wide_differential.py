"""A wider differential of `sra.equiv` than the test suite runs.

    python tests/wide_differential.py

It checks `includes`, `equivalent` and `separating_word` against brute
force on every ordered pair of the equality-chain pools of seeds 0-299,
`includes` with nondeterministic lefts on the mixed pools of seeds 0-39,
and the regex pairs of seeds 1-5 against `re`.  The first disagreement
stops it with a failed assertion naming the seed and the pair, and a
non-zero exit status.  pytest does not collect this file.
"""

import random

from fixtures import random_equality_chain, random_pattern, small_backref_pattern
from oracles import brute_membership, words_up_to
from test_equiv import (
    REGEX_TEXTS,
    agree_with_brute_force,
    check_includes,
    mixed_pool,
    regex_pairs_agree_with_re,
)
from sra.normal import is_deterministic


def chains(seeds):
    # every word of an equality chain lies in 0..2 and has at most four
    # symbols
    words = [tuple(w) for w in words_up_to(range(0, 3), 4)]
    for seed in seeds:
        rng = random.Random(seed)
        agree_with_brute_force([random_equality_chain(rng) for _ in range(12)], words, seed)
    print(f"equality chains, seeds {seeds.start}-{seeds.stop - 1}: agree")


def mixed(seeds):
    words = [tuple(w) for w in words_up_to(range(0, 4), 4)]
    for seed in seeds:
        pool = mixed_pool(seed)
        lang = [{w for w in words if brute_membership(S, list(w))} for S in pool]
        for i, S1 in enumerate(pool):
            for j, S2 in enumerate(pool):
                if is_deterministic(S2):
                    check_includes(S1, S2, lang[i], lang[j], (seed, i, j))
    print(f"mixed pools, seeds {seeds.start}-{seeds.stop - 1}: agree")


def regex_pairs(seeds):
    for seed in seeds:
        rng = random.Random(seed)
        pairs = regex_pairs_agree_with_re([random_pattern(rng) for _ in range(100)], REGEX_TEXTS, seed)
        pairs += regex_pairs_agree_with_re(
            [small_backref_pattern(rng) for _ in range(40)], REGEX_TEXTS, seed
        )
        print(f"regex pairs, seed {seed}: {pairs} pairs agree with re")


if __name__ == "__main__":
    chains(range(300))
    mixed(range(40))
    regex_pairs(range(1, 6))
