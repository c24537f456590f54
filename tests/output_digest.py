"""One sha256 over the library's outputs on the stock benchmarks.

    python tests/output_digest.py [SRC_DIR]   # about 15-20 s

Run it on two trees (SRC_DIR defaults to this tree's src/) to check that
a change keeps every output byte-identical.  It hashes `dumps` of the 19
compiled stock patterns; `complete`, `complement` and `normalize` of the
single-valued smaller ones, and `normalize` of them as compiled, whose
state names show each slot's minterm; `union` and `intersect` of the
partner pairs and IP3/IP4, both ways; `includes`, `equivalent` and
`separating_word` answers and words on the partner pairs, and
`equivalent` of each smaller pattern with itself; `is_empty` witnesses
and `is_deterministic` answers; `LazyNorm`'s minterm sizes and, in
source order, its table of the minterms inside each source, for every
stock pattern's own basis and both ways over each partner pair's shared
basis; the benchmark's expansions and its overflow, and expansions of
`to_single_valued(example3())` and of seeded random automata, one of
them capped; `regex.match` verdicts of the nondeterministic
LONG_NONDET_PATTERNS on seeded texts of 5,000 and 12,500 characters and
on copies with one character changed, of every stock pattern on seeded
texts with non-ASCII characters and their mutants, and of
`(?:(.)(.)(.)\3\2\1)*` on a seeded 6,000-character text and a mutant.
Each text `dumps` writes is hashed with the text it writes of `loads`
of it and with the number of label objects that `loads` builds.  An
exception's type and text are hashed in place of a result.  Every
text `dumps` writes is also checked to be json.dumps(..., indent=2) of
its own document, so the script fails if the writer strays from the
standard library's layout.  pytest does not collect this file.
"""

import hashlib
import json
import random
import string
import sys
from pathlib import Path

sys.path.insert(0, sys.argv[1] if len(sys.argv) > 1 else str(Path(__file__).parents[1] / "src"))
from sra import regex as rx  # noqa: E402
from sra.boolean_ops import complement, complete, intersect, union  # noqa: E402
from sra import core  # noqa: E402
from sra.equiv import equivalent, includes, separating_word  # noqa: E402
from sra.expand import DEFAULT_MAX_STATES, expand_to_sfa  # noqa: E402
from sra.normal import (  # noqa: E402
    LazyNorm, is_deterministic, is_empty, minterm_basis, normalize,
)
from sra.single_valued import to_single_valued  # noqa: E402

from fixtures import (  # noqa: E402
    LONG_NONDET_PATTERNS, example3, long_nondet_text, mutants, random_sra, stock_text,
)

# the rest take minutes or gigabytes to single-value, normalize or intersect
SMALL = ("IP2", "IP3", "IP4", "Name-F", "Name-L", "Name", "XML",
         "Pr-C2", "Pr-C3", "Pr-CL2", "Pr-CL3")
PARTNERS = [(f"Pr-CL{k}", f"Pr-C{k}") for k in (2, 3, 4, 6, 9)] + [
    ("IP2", "IP3"), ("IP4", "IP6"), ("IP6", "IP9"), ("Name-F", "Name"), ("Name-L", "Name"),
]
EXPANSIONS = (
    ("IP3", string.digits),
    ("XML", "abcdefghABCDEFGH"),
    ("Name", string.ascii_lowercase + " ."),
    ("Name", "abcdefghijklmn ."),
)
# seeds of random_sra(max_registers=3) whose expansions over -2..3 have
# 18-27 states, each with the state limit it is expanded at
RANDOM_EXPANSIONS = ((5, DEFAULT_MAX_STATES), (21, 10), (49, DEFAULT_MAX_STATES))


STRAYED = []  # texts of dumps that json.dumps(..., indent=2) lays out otherwise


def dumps(S):
    """core.dumps(S), then the text dumps writes of loads of it and the
    number of label objects loads builds, noting in STRAYED a text that
    is not the standard library's indent=2 layout of its own document."""
    text = core.dumps(S)
    if json.dumps(json.loads(text), indent=2) + "\n" != text:
        STRAYED.append(text)
    T = core.loads(text)
    return text, core.dumps(T), len({id(lab) for _, lab, _ in T.transitions})


def basis_tables(ln):
    """ln's minterm sizes and, in source order, the minterms inside each
    source of its basis."""
    return ln.sizes, [ln.inside[q] for q in ln.basis.sources]


def main():
    digest = hashlib.sha256()

    def put(tag, f):
        try:
            out = f()
        except Exception as e:
            out = ("error", type(e).__name__, str(e))
        digest.update(repr((tag, out)).encode() + b"\n")

    stock = {name: rx.compile(p).sra for name, p in rx.BENCHMARK_PATTERNS.items()}
    for name, S in stock.items():
        put(("compile", name), lambda: dumps(S))
    for name in SMALL + ("IP6", "Pr-C4", "Pr-CL4"):
        sv = to_single_valued(stock[name])
        put(("complete", name), lambda: dumps(complete(sv)))
        put(("complement", name), lambda: dumps(complement(complete(sv))))
        if name in SMALL:
            put(("normalize", name), lambda: dumps(normalize(sv)))
            put(("normalize raw", name), lambda: dumps(normalize(stock[name])))
            put(("equivalent", name, name), lambda: equivalent(stock[name], stock[name]))
    for a, b in PARTNERS + [("IP3", "IP4")]:
        for x, y in ((a, b), (b, a)):
            put(("union", x, y), lambda: dumps(union(stock[x], stock[y])))
            if x in SMALL and y in SMALL:
                put(("intersect", x, y), lambda: dumps(intersect(stock[x], stock[y])))
    for a, b in PARTNERS:
        for x, y in ((a, b), (b, a)):
            put(("includes", x, y), lambda: includes(stock[x], stock[y]))
            put(("equivalent", x, y), lambda: equivalent(stock[x], stock[y]))
            put(("separating_word", x, y), lambda: separating_word(stock[x], stock[y]))
    for name, S in stock.items():
        put(("is_empty", name), lambda: is_empty(S))
        put(("is_deterministic", name), lambda: is_deterministic(S))
    for name, S in stock.items():
        put(("basis", name), lambda: basis_tables(LazyNorm(S)))
    for a, b in PARTNERS:
        for x, y in ((a, b), (b, a)):
            put(("basis", x, y), lambda: basis_tables(
                LazyNorm(stock[x], minterm_basis(stock[x], stock[y]))))
    for name, letters in EXPANSIONS:
        ex = expand_to_sfa(stock[name], [ord(c) for c in letters])
        put(("expand", name, letters), lambda: (
            ex.overflow, ex.state_count, ex.domain_size, dumps(ex.sfa)))
    expansions = [("example3", to_single_valued(example3()), [0, 1, 2, 3], DEFAULT_MAX_STATES)] + [
        (("random", seed), random_sra(random.Random(seed), max_registers=3), range(-2, 4), cap)
        for seed, cap in RANDOM_EXPANSIONS
    ]
    for tag, S, domain, cap in expansions:
        ex = expand_to_sfa(S, domain, max_states=cap)
        put(("expand", tag, cap), lambda: (
            ex.overflow, ex.state_count, ex.domain_size, ex.sfa and dumps(ex.sfa)))
    ex = expand_to_sfa(rx.compile(r"(...)\1").sra, range(2 ** 16), max_states=20_000)
    put(("overflow",), lambda: (ex.overflow, ex.sfa is None, ex.state_count))
    for pattern in LONG_NONDET_PATTERNS:
        cp, rng = rx.compile(pattern), random.Random(pattern)
        for n in (5_000, 12_500):
            for accept in (True, False):
                text = long_nondet_text(rng, pattern, n, accept)
                for _ in range(4):
                    put(("match", pattern, n, accept), lambda: rx.match(cp, text))
                    i = rng.randrange(n)
                    text = text[:i] + rng.choice("abcd") + text[i + 1:]
    for name, pattern in rx.BENCHMARK_PATTERNS.items():
        cp, rng = rx.compile(pattern), random.Random(name)
        for _ in range(4):
            text = stock_text(name, rng)
            for t in [text] + mutants(text, rng, 4):
                put(("match", name, t), lambda: rx.match(cp, t))
    pattern = r"(?:(.)(.)(.)\3\2\1)*"
    cp, rng = rx.compile(pattern), random.Random(pattern)
    letters = [chr(c) for c in range(33, 127)]
    text = "".join(a + b + c + c + b + a for a, b, c in (rng.sample(letters, 3) for _ in range(1000)))
    for t in [text] + mutants(text, rng, 1):
        put(("match", pattern, t), lambda: rx.match(cp, t))
    print(digest.hexdigest())
    if STRAYED:
        sys.exit(f"{len(STRAYED)} texts of dumps are not json.dumps(..., indent=2) of their document")


if __name__ == "__main__":
    main()
