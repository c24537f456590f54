import random
import re

import pytest

from sra.algebra import UNICODE
from sra.core import SraError, membership
from sra.normal import is_deterministic
from sra import core, regex as rx

from fixtures import (
    LONG_NONDET_PATTERNS, NON_ASCII, long_nondet_text, mutants, random_pattern, random_word,
    stock_text,
)
from oracles import backtrack_match, denotes, words_up_to


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


TWELVE_GROUPS = "(1)(2)(3)(4)(5)(6)(7)(8)(9)(0)(1)(2)"


@pytest.mark.parametrize(
    "pattern, position, accepted, rejected",
    [
        # re reads ^ and $ as anchors, not as characters
        (r"^ab$", 0, "ab", "^ab$"),
        (r"a|^b", 2, "b", "^b"),
        # three octal digits are one character, 0o123 = S, not \12 3
        (TWELVE_GROUPS + r"\123", 39, "123456789012S", "123456789012123"),
        # a digit or letter escaped in a class is a special character
        (r"[\1]", 3, "\x01", "1"),
        (r"[\t]", 3, "\t", "t"),
        (r"\0", 2, "\x00", "0"),
        # re counts repeats in ASCII digits only, and reads this { as itself
        ("a{\u0663}", 2, "a{\u0663}", "aaa"),
        # re refuses a class escape as a range end, where a literal hyphen
        # would match -
        (r"[\d-z]", 1, None, "-"),
        (r"[\s-a]", 1, None, "-"),
        (r"[a-\d]", 3, None, "-"),
        # a quantifier after a quantifier is lazy, possessive or refused
        ("a*?", 2, "aa", "a?"),
        ("a??", 2, "a", "a?"),
        ("a{1,2}?", 6, "aa", "a?"),
        ("a*+", 2, "aa", "a+"),
        ("a?*", 2, None, "a"),
        # the (? forms other than (?:...) are not groups
        ("(?=a)a", 2, "a", "?=a"),
        ("(?i)a", 2, "A", "?ia"),
        ("(?P<x>a)", 2, "a", "P<x>a"),
        # re fails a reference to a group that took no part, and no
        # register records whether a group of length 0 did
        (r"()b|\1", 4, "b", ""),
        (r"(a|()b)\2", 7, "b", "a"),
    ],
)
def test_forms_re_reads_otherwise_are_refused(pattern, position, accepted, rejected):
    # accepted None: re refuses the pattern too
    if accepted is None:
        with pytest.raises(re.error):
            re.compile(pattern)
    else:
        assert re.fullmatch(pattern, accepted, re.ASCII)
        assert not re.fullmatch(pattern, rejected, re.ASCII)
    with pytest.raises(rx.RegexError) as exc:
        rx.compile(pattern)
    assert exc.value.position == position


@pytest.mark.parametrize(
    "pattern",
    [
        "ab?c", "(a|b)?c", "a?a?a", "(ab)?b?", "(a)b?\\1","(?:ab)*c", "(?:a|b)+c?",
        "(?:)a", "(?:a)(b)\\1", "(?:(a)b)\\1", r"[\w-]+", r"[-\d]b?", r"[\s-]a",
    ],
)
def test_optional_and_numberless_groups_agree_with_re(pattern):
    # (?:...) takes no group number, so \1 in (?:a)(b)\1 refers to (b)
    cp = rx.compile(pattern)
    for w in words_up_to("ab1- ", 4):
        text = "".join(w)
        assert rx.match(cp, text) == bool(re.fullmatch(pattern, text, re.ASCII)), text


@pytest.mark.parametrize(
    "pattern, texts",
    [
        (TWELVE_GROUPS + r"-\10", ["123456789012-0", "123456789012-10", "123456789012-1"]),
        (TWELVE_GROUPS + r"-\12\1", ["123456789012-21", "123456789012-12", "123456789012-11"]),
        (r"(a)\1{2}", ["aaa", "aa"]),
        (r"\^a\$", ["^a$", "a"]),
        (r"[^$]b[$]", ["ab$", "$b$", "ab"]),
        # group 1 refers to group 2, which closes first
        (r"((a)\2)\1", ["aaaa", "aa", "aaa", "aaaaa"]),
    ],
)
def test_references_and_escaped_anchors_agree_with_re(pattern, texts):
    cp = rx.compile(pattern)
    for text in texts:
        assert rx.match(cp, text) == bool(re.fullmatch(pattern, text, re.ASCII)), text


def test_reference_to_a_group_that_does_not_exist_is_refused():
    # with nine groups re reads \10 as a reference to group 10, not \1 0
    pattern = TWELVE_GROUPS[:27] + r"-\10"
    with pytest.raises(re.error, match="invalid group reference 10"):
        re.compile(pattern)
    with pytest.raises(rx.RegexError, match="group 10"):
        rx.compile(pattern)


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
    # a count longer than int() converts is refused the same way
    for pattern in ("a{" + "1" * 5000 + "}", "a{2," + "1" * 5000 + "}"):
        with pytest.raises(rx.RegexError, match="repeat count above 1000") as exc:
            rx.compile(pattern)
        assert exc.value.position == pattern.index("1" * 5000)
    assert rx.match(rx.compile("a{0001}"), "a")
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
        assert denotes(UNICODE, pred, ord(char)) == expected, (pattern, char)


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


def test_random_patterns_agree_with_re_or_are_refused():
    # differential testing against re (McKeeman 1998): a pattern either
    # matches every text up to length 4 over ab-1 as re.fullmatch does,
    # or is refused with an SraError where re may accept it
    texts = ["".join(w) for w in words_up_to("ab-1", 4)]
    rng = random.Random(0)
    for _ in range(1200):
        pattern = random_pattern(rng)
        try:
            cp = rx.compile(pattern)
        except SraError:
            continue
        expected = re.compile(pattern, re.ASCII)
        for text in texts:
            assert rx.match(cp, text) == bool(expected.fullmatch(text)), (pattern, text)


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
    texts = [random_word(rng, "ab" + NON_ASCII, 0, 7) for _ in range(300)]
    cp = rx.compile(pattern)
    assert not is_deterministic(cp.sra)
    for t in texts:
        assert rx.match(cp, t) == (re.fullmatch(pattern, t, re.ASCII) is not None), t


@pytest.mark.parametrize("cap", [1, 64])
def test_one_pattern_keeps_its_set_table_within_the_cap(monkeypatch, cap):
    # few letters, so valuations recur and rows are read as well as filled
    monkeypatch.setattr(core, "MAX_HELD", cap)
    pattern = r"(?:(.)(.)(.)\3\2\1)*"
    letters = "abcde" + NON_ASCII
    rng = random.Random(cap)
    cp = rx.compile(pattern)
    for i in range(60):
        text = "".join(a + b + c + c + b + a for a, b, c in (
            rng.sample(letters, 3) for _ in range(rng.randint(1, 40))))
        if i % 2:  # its mirror position no longer agrees with it
            j = rng.randrange(len(text))
            text = text[:j] + rng.choice(letters.replace(text[j], "")) + text[j + 1:]
        assert (re.fullmatch(pattern, text, re.ASCII) is not None) == (i % 2 == 0)
        assert rx.match(cp, text) == (i % 2 == 0), text
    assert sum(len(configs) for configs in cp.moves.sets) <= cp.moves.held <= cap


def test_rows_of_a_kept_table_stay_within_the_cap(monkeypatch):
    # each text captures a new pair, and its `.*` reads hundreds of
    # symbols: rows to sets already held must count against the cap
    monkeypatch.setattr(core, "MAX_HELD", 256)
    pattern = r"(..).*\1"
    alphabet = [chr(c) for c in range(0x400, 0x400 + 5000)]
    rng = random.Random(5)
    cp = rx.compile(pattern)
    for i in range(40):
        head = "".join(rng.choices(alphabet, k=2))
        text = head + "".join(rng.choices(alphabet, k=500)) + (head if i % 2 else head[::-1])
        assert rx.match(cp, text) == (re.fullmatch(pattern, text, re.ASCII) is not None)
    rows = sum(len(row) for _, row in cp.moves.sets.values())
    assert rows < cp.moves.held <= 256


def test_a_full_table_is_emptied_once_it_has_read_max_held_words(monkeypatch):
    # one text of new valuations fills the table; a miss after MAX_HELD
    # words empties it, so a short text repeated since then is read off
    # rows alone, with no `_run` call
    monkeypatch.setattr(core, "MAX_HELD", 64)
    cp = rx.compile(r"(?:(.)(.)(.)\3\2\1)*")
    rng = random.Random(3)
    letters = [chr(c) for c in range(0x400, 0x600)]
    assert rx.match(cp, "".join(a + b + c + c + b + a for a, b, c in (
        rng.sample(letters, 3) for _ in range(100))))
    runs = []
    real = core._run

    def counting(*args):
        runs.append(args)
        return real(*args)

    monkeypatch.setattr(core, "_run", counting)
    held = cp.moves.held
    for i in range(64):
        assert rx.match(cp, "abccba")
        assert i or cp.moves.held == held  # the next word does not empty it
    runs.clear()
    assert rx.match(cp, "abccba") and not rx.match(cp, "abccbb")
    assert len(runs) == 1  # the one miss of the rejected text
    assert cp.moves.held <= 64


def test_a_pattern_compiles_its_moves_once(monkeypatch):
    cp = rx.compile(r"(..).*\1")
    assert not is_deterministic(cp.sra)
    calls = []
    real = core.compile_guard

    def counting(p):
        calls.append(p)
        return real(p)

    monkeypatch.setattr(core, "compile_guard", counting)
    assert rx.match(cp, "abxyab") and calls
    compiled = len(calls)
    assert rx.match(cp, "abxyab")
    assert len(calls) == compiled


@pytest.mark.parametrize("pattern", LONG_NONDET_PATTERNS)
def test_long_nondeterministic_texts_agree_with_re(pattern):
    rng = random.Random(pattern)
    cp = rx.compile(pattern)
    assert not is_deterministic(cp.sra)
    for n in (5_000, 12_500):
        for accept in (True, False):
            text = long_nondet_text(rng, pattern, n, accept)
            assert (re.fullmatch(pattern, text, re.ASCII) is not None) == accept
            assert rx.match(cp, text) == accept, (n, accept)
