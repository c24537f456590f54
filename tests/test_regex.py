import random
import re
import string

import pytest

from sra.algebra import UNICODE
from sra.core import SraError, membership
from sra.normal import is_deterministic
from sra import regex as rx

from oracles import backtrack_match, words_up_to


def ords(s):
    return [ord(c) for c in s]


# ---------------------------------------------------------------------------
# parser


def test_parse_backref_structure():
    ast = rx.parse(r"(\d)[a-z]*\1")
    assert isinstance(ast, rx.Concat)
    g, star, back = ast.items
    assert isinstance(g, rx.Group) and g.index == 1
    assert isinstance(g.item, rx.Class)
    assert isinstance(star, rx.Star) and isinstance(star.item, rx.Class)
    assert isinstance(back, rx.Backref) and back.index == 1


def test_parse_prefix_structure():
    ast = rx.parse(r"C:(.{3}) L:(.)")
    items = ast.items
    assert [type(x) for x in items[:2]] == [rx.Lit, rx.Lit]
    assert items[0].char == "C" and items[1].char == ":"
    g1 = items[2]
    assert isinstance(g1, rx.Group) and g1.index == 1
    assert isinstance(g1.item, rx.Repeat)
    assert (g1.item.lo, g1.item.hi) == (3, 3) and isinstance(g1.item.item, rx.Dot)
    g2 = items[-1]
    assert isinstance(g2, rx.Group) and g2.index == 2
    assert isinstance(g2.item, rx.Dot)


def test_parse_alternation_and_repeat_bounds():
    ast = rx.parse("ab|c{2,}|d")
    assert isinstance(ast, rx.Alt) and len(ast.items) == 3
    rep = ast.items[1]
    assert isinstance(rep, rx.Repeat) and rep.lo == 2 and rep.hi is None


@pytest.mark.parametrize(
    "pattern",
    [r"a\2", "(a", "a)", "*a", "a{", "a{2,1}", "[]", "[z-a]", r"\q", r"(\1)", "a{x}"],
)
def test_parse_errors_carry_a_position(pattern):
    with pytest.raises(rx.RegexError) as exc:
        rx.parse(pattern)
    assert exc.value.position >= 0


@pytest.mark.parametrize(
    "pattern",
    ["(" * 2000 + "a" + ")" * 2000, "a" + "*" * 2000, "a" + "{1}" * 2000],
    ids=["groups", "stars", "counts"],
)
def test_deep_nesting_is_a_regex_error(pattern):
    with pytest.raises(rx.RegexError):
        rx.compile(pattern)


def test_repeat_counts_and_builds_are_bounded():
    with pytest.raises(rx.RegexError) as exc:
        rx.compile("a{1001}")
    assert exc.value.position == 2
    with pytest.raises(rx.RegexError):
        rx.compile("(a{1000}){1000}")
    cp = rx.compile("a{1000}")
    assert rx.match(cp, "a" * 1000)
    assert not rx.match(cp, "a" * 999)
    # the optional copies nest, so moves grow linearly, not quadratically
    cp = rx.compile("(a|b){0,1000}")
    assert len(cp.sra.transitions) <= 4000
    assert rx.match(cp, "ab" * 500)
    assert not rx.match(cp, "a" * 1001)


@pytest.mark.parametrize(
    "pattern",
    ["a*b*", "(a*|b)c", "a*|b", "(ab+)*", "(a([ab])+)*", "(ab)+c*", "(a*b){0,2}a"],
)
def test_single_symbol_loops_stay_where_they_belong(pattern):
    # a self-loop must neither fire from a sibling branch nor be reached
    # by skipping the repetition it belongs to
    cp = rx.compile(pattern)
    for w in words_up_to("abc", 5):
        text = "".join(w)
        assert rx.match(cp, text) == bool(re.fullmatch(pattern, text, re.ASCII)), text


def test_class_and_escape_denotations():
    checks = [
        (r"\d", "5", True), (r"\d", "a", False),
        (r"\D", "a", True), (r"\D", "5", False),
        (r"\w", "_", True), (r"\w", "-", False),
        (r"\s", "\t", True), (r"\s", "x", False),
        ("[^\\s]", " ", False), ("[^\\s]", "q", True),
        (r"\.", ".", True), (r"\.", "x", False),
        ("[a-cx]", "b", True), ("[a-cx]", "x", True), ("[a-cx]", "d", False),
    ]
    for pattern, char, expected in checks:
        node = rx.parse(pattern)
        pred = rx.Atom(ord(node.char)) if isinstance(node, rx.Lit) else node.pred
        assert UNICODE.denotes(pred, ord(char)) == expected, (pattern, char)


# ---------------------------------------------------------------------------
# compilation


def test_compile_backref_pattern():
    cp = rx.compile(r"(\d)[a-z]*\1")
    assert cp.sra.registers == ("g1.0",)
    for text, expected in [
        ("5ab5", True), ("5ab6", False), ("5ab", False),
        ("55", True), ("5a5x", False), ("", False),
    ]:
        assert rx.match(cp, text) == expected, text


def test_compile_pair_pattern_exhaustive():
    cp = rx.compile(r"(.)\1")
    ast = rx.parse(r"(.)\1")
    for w in words_up_to("abc", 4):
        text = "".join(w)
        assert membership(cp.sra, ords(text)) == backtrack_match(ast, text), text


def test_product_code_pattern_worked_examples():
    cp = rx.compile(r"C:(.{3}) L:(.) D:[^\s]+( C:\1 L:\2 D:[^\s]+)+")
    assert rx.match(cp, "C:X4a L:4 D:bottle C:X4a L:4 D:jar")
    assert not rx.match(cp, "C:X4a L:4 D:bottle C:X5a L:4 D:jar")
    assert not rx.match(cp, "C:X4a L:4 D:bottle C:X4a L:5 D:jar")
    assert not rx.match(cp, "C:X4a L:4 D:bottle")
    free = rx.compile(r"C:(.{3}) L:. D:[^\s]+( C:\1 L:. D:[^\s]+)+")
    assert rx.match(free, "C:X4a L:4 D:bottle C:X4a L:5 D:jar")
    assert not rx.match(free, "C:X4a L:4 D:bottle C:X5a L:4 D:jar")


def test_referenced_group_must_have_fixed_length():
    for pattern in [r"(a*)\1", r"(a|bb)\1", r"(a{1,2})\1"]:
        with pytest.raises(SraError):
            rx.compile(pattern)
    rx.compile(r"(a|b)\1")  # fixed length one: fine


def test_unreferenced_groups_use_no_registers():
    cp = rx.compile(r"(a*)(b|cc)+")
    assert cp.sra.registers == ()


def test_register_count_is_total_referenced_length():
    cp = rx.compile(r"C:(.{3}) L:(.) D:[^\s]+( C:\1 L:\2 D:[^\s]+)+")
    assert cp.sra.registers == ("g1.0", "g1.1", "g1.2", "g2.0")


def test_match_is_anchored():
    cp = rx.compile("a.c")
    assert rx.match(cp, "abc")
    assert not rx.match(cp, "xabc")
    assert not rx.match(cp, "abcx")


def test_dot_excludes_newline():
    cp = rx.compile(".")
    assert rx.match(cp, "a")
    assert not rx.match(cp, "\n")


# ---------------------------------------------------------------------------
# oracle agreement


PLAIN_PATTERNS = [
    "a(b|c)*d",
    "[a-c]+",
    "a{2,4}b",
    "(ab|a)*",
    r"\d+\.\d+",
    "x|y|z",
    ".a.",
    "[^ab]c*",
    "(a|b)(c|d)",
    "a*b*c*",
    "(a|b){0,3}c",
    "(ab){1,3}",
    "a{0,2}(b|c){1,2}",
    "(a*b){0,2}a",
]


def test_plain_patterns_agree_with_backtracker_on_random_strings():
    rng = random.Random(11)
    alphabet = "abcd.x1 \n"
    for pattern in PLAIN_PATTERNS:
        ast = rx.parse(pattern)
        cp = rx.compile(ast)
        for _ in range(200):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 8)))
            assert rx.match(cp, text) == backtrack_match(ast, text), (pattern, text)


BACKREF_PATTERNS = [
    r"(.)\1",
    r"(.)(.)\2\1",
    r"(..)\1",
    r"(a|b)c\1",
    r"(.)a*\1",
    r"(a|b){0,2}\1",
    r"(a){1,3}c\1",
    r"(a(.)){0,2}\2",
]


def test_backref_patterns_agree_with_backtracker_exhaustively():
    for pattern in BACKREF_PATTERNS:
        ast = rx.parse(pattern)
        cp = rx.compile(ast)
        for w in words_up_to("abc1", 4):
            text = "".join(w)
            assert rx.match(cp, text) == backtrack_match(ast, text), (pattern, text)


def test_nondeterministic_pattern_falls_back_to_config_search():
    pattern = r"(.)(.)(\1|\2)"
    ast = rx.parse(pattern)
    cp = rx.compile(ast)
    assert not is_deterministic(cp.sra)
    for text in ["aba", "abb", "aab", "abc", "aaa", "ab"]:
        assert rx.match(cp, text) == backtrack_match(ast, text), text


# ---------------------------------------------------------------------------
# stock benchmark patterns

# name -> (states, transitions, registers) of the paper's table; sizes
# are matched up to 20%, register counts exactly (see below)
BENCHMARK_SIZES = {
    "IP2": (44, 46, 3),
    "IP3": (44, 46, 4),
    "IP4": (44, 46, 5),
    "IP6": (44, 46, 7),
    "IP9": (44, 46, 10),
    "Name-F": (7, 10, 2),
    "Name-L": (7, 10, 2),
    "Name": (7, 10, 3),
    "XML": (12, 16, 4),
    "Pr-C2": (26, 28, 3),
    "Pr-C3": (28, 30, 4),
    "Pr-C4": (30, 32, 5),
    "Pr-C6": (34, 36, 7),
    "Pr-C9": (40, 42, 10),
    "Pr-CL2": (26, 28, 3),
    "Pr-CL3": (28, 30, 4),
    "Pr-CL4": (30, 32, 5),
    "Pr-CL6": (34, 36, 7),
    "Pr-CL9": (40, 42, 10),
}


def within(actual, reference, tolerance=0.2):
    return reference * (1 - tolerance) <= actual <= reference * (1 + tolerance)


def compiled_benchmarks():
    return {name: rx.compile(p) for name, p in rx.BENCHMARK_PATTERNS.items()}


def test_benchmark_catalogue_is_complete():
    assert set(rx.BENCHMARK_PATTERNS) == set(BENCHMARK_SIZES)
    assert set(rx.BENCHMARK_DOMAINS) == set(BENCHMARK_SIZES)


def test_benchmark_sizes_match_references():
    bm = compiled_benchmarks()
    for name, (states, tr, regs) in BENCHMARK_SIZES.items():
        cp = bm[name]
        assert within(len(cp.sra.states), states), (name, len(cp.sra.states))
        assert within(len(cp.sra.transitions), tr), (name, len(cp.sra.transitions))
        # the paper's table counts one register beyond the group
        # registers, a scratch slot that this compiler does not create
        assert len(cp.sra.registers) + 1 == regs, name


def test_benchmarks_are_deterministic():
    for name, cp in compiled_benchmarks().items():
        assert is_deterministic(cp.sra), name


def test_benchmark_samples():
    bm = compiled_benchmarks()
    assert rx.match(bm["IP2"], "IP: 192.168.000.001:80 IP: 192.168.001.044:8080")
    assert not rx.match(bm["IP2"], "IP: 192.168.000.001:80 IP: 201.168.001.044:8080")
    assert rx.match(bm["Name"], "john smith js")
    assert not rx.match(bm["Name"], "john smith jx")
    assert rx.match(bm["Name-F"], "john smith j.")
    assert rx.match(bm["Name-L"], "john smith s.")
    assert rx.match(bm["XML"], "<div>text 42</div>")
    assert not rx.match(bm["XML"], "<div>text 42</dix>")
    assert rx.match(bm["Pr-C2"], "C:ab L:1 D:x C:ab L:2 D:y")
    assert not rx.match(bm["Pr-C2"], "C:ab L:1 D:x C:ac L:2 D:y")
    assert rx.match(bm["Pr-CL2"], "C:a L:1 D:x C:a L:1 D:y")
    assert not rx.match(bm["Pr-CL2"], "C:a L:1 D:x C:a L:2 D:y")


# e acute, no-break space and line separator: none is \s under re.ASCII,
# so each one is part of a [^\s]+ run, and . matches each one
NON_ASCII = "\u00e9\u00a0\u2028"


def _word(rng, alphabet, lo, hi):
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(lo, hi)))


def stock_text(name, rng):
    """A text the stock pattern accepts, with non-ASCII characters in
    product codes and descriptions."""
    if name.startswith("IP"):
        head = _word(rng, string.digits, int(name[2:]), int(name[2:]))

        def endpoint():
            digits = head + _word(rng, string.digits, 12 - len(head), 12 - len(head))
            address = ".".join(digits[i:i + 3] for i in range(0, 12, 3))
            return f"IP: {address}:{_word(rng, string.digits, 1, 4)}"

        return " ".join(endpoint() for _ in range(rng.randint(2, 3)))
    if name.startswith("Name"):
        first, last = (_word(rng, string.ascii_lowercase, 1, 6) for _ in range(2))
        suffix = {"Name-F": first[0] + ".", "Name-L": last[0] + ".", "Name": first[0] + last[0]}
        return f"{first} {last} {suffix[name]}"
    if name == "XML":
        tag = _word(rng, string.ascii_letters, 3, 3)
        return f"<{tag}>{_word(rng, string.ascii_letters + string.digits + ' ', 0, 8)}</{tag}>"
    lot_referenced = name.startswith("Pr-CL")
    width = int(name[5:]) - 1 if lot_referenced else int(name[4:])
    visible = string.ascii_letters + string.digits + NON_ASCII
    code = _word(rng, visible, width, width)
    if rng.random() < 0.5:  # a non-ASCII character right after C:
        code = rng.choice(NON_ASCII) + code[1:]
    lot = rng.choice(visible)
    return " ".join(
        f"C:{code} L:{lot if lot_referenced else rng.choice(visible)} D:{_word(rng, visible, 1, 5)}"
        for _ in range(rng.randint(2, 3))
    )


def mutants(text, rng, n):
    """Copies of text with one character replaced, inserted or deleted."""
    out = []
    for _ in range(n):
        i = rng.randrange(len(text))
        c = rng.choice(string.ascii_letters + string.digits + " .:" + NON_ASCII)
        out.append(rng.choice([text[:i] + c + text[i + 1:], text[:i] + c + text[i:],
                               text[:i] + text[i + 1:]]))
    return out


def seeded_texts(name, rng):
    texts = []
    for _ in range(4):
        text = stock_text(name, rng)
        texts += [text] + mutants(text, rng, 4)
    return texts


@pytest.mark.parametrize("name", sorted(rx.BENCHMARK_PATTERNS))
def test_cold_and_warm_match_agree_with_re(name):
    pattern = rx.BENCHMARK_PATTERNS[name]
    texts = seeded_texts(name, random.Random(name))
    expected = [re.fullmatch(pattern, t, re.ASCII) is not None for t in texts]
    assert any(expected) and not all(expected)
    if name.startswith("Pr-"):
        assert any(ok and not t.isascii() for ok, t in zip(expected, texts))
    cp = rx.compile(pattern)
    assert [rx.match(cp, t) for t in texts] == expected  # fills the table
    assert [rx.match(cp, t) for t in texts] == expected  # reads it warm


def test_nondeterministic_match_agrees_with_re_beyond_ascii():
    pattern = r"(..).*\1"
    rng = random.Random(7)
    texts = [_word(rng, "ab" + NON_ASCII, 0, 7) for _ in range(300)]
    cp = rx.compile(pattern)
    assert not is_deterministic(cp.sra)
    for t in texts:
        assert rx.match(cp, t) == (re.fullmatch(pattern, t, re.ASCII) is not None), t
