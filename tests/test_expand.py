import hashlib
import random

import pytest

from sra.algebra import AlgebraError, Atom, Div, TRUE, INTEGERS, UNICODE
from sra.core import Label, SraError, compile_guard, dumps, make_sra, membership
from sra.expand import CSV_HEADER, csv_report, expand_to_sfa, size_report
from sra import expand, regex as rx

from fixtures import digits_sfa, example3, first_symbol_repeats, random_sra, remark1
from oracles import denotes, words_up_to
from sra.single_valued import to_single_valued


def test_register_free_expansion_is_isomorphic():
    S = digits_sfa()
    ex = expand_to_sfa(S, [ord(c) for c in "0123456789"])
    assert not ex.overflow
    assert len(ex.sfa.states) == len(S.states)
    assert len(ex.sfa.transitions) == len(S.transitions)
    for w in words_up_to([ord("0"), ord("7"), ord("a")], 3):
        assert membership(ex.sfa, w) == membership(S, w)


def test_one_register_fixture_multiplies_by_stored_values():
    S = first_symbol_repeats()
    ex = expand_to_sfa(S, range(10))
    assert not ex.overflow
    # every state past the initial one exists once per stored digit
    assert len(ex.sfa.states) >= 10 * (len(S.states) - 1)


def test_language_preserved_exhaustively():
    for S in (remark1(), first_symbol_repeats(), to_single_valued(example3())):
        ex = expand_to_sfa(S, [0, 1, 2, 3])
        assert not ex.overflow
        for w in words_up_to([0, 1, 2, 3], 3):
            assert membership(ex.sfa, w) == membership(S, w), (w, S)


def test_state_count_bound():
    for S in (remark1(), first_symbol_repeats(), to_single_valued(example3())):
        for d in ([0, 1], [0, 1, 2, 3]):
            ex = expand_to_sfa(S, d)
            bound = len(S.states) * (len(d) + 1) ** max(len(S.registers), 1)
            assert ex.state_count <= bound


def test_larger_domain_never_shrinks_the_expansion():
    for S in (remark1(), first_symbol_repeats()):
        small = expand_to_sfa(S, [0, 1, 2])
        large = expand_to_sfa(S, [0, 1, 2, 3, 4])
        assert small.state_count <= large.state_count


def test_parallel_steps_merge_into_one_predicate():
    S = make_sra(
        INTEGERS, [], ["p", "q"], "p", {}, ["q"],
        [("p", Div(2), (), (), (), "q"), ("p", Div(3), (), (), (), "q")],
    )
    ex = expand_to_sfa(S, range(0, 10))
    assert len(ex.sfa.transitions) == 1
    assert membership(ex.sfa, [2])
    assert membership(ex.sfa, [3])
    assert not membership(ex.sfa, [1])


def test_initial_values_outside_the_domain_are_carried():
    S = make_sra(
        INTEGERS, ["r"], ["p", "q"], "p", {"r": 7}, ["q"],
        [("p", TRUE, ("r",), (), (), "q")],
    )
    ex = expand_to_sfa(S, [1, 2])
    assert not ex.overflow
    assert ex.domain_size == 3  # the stored 7 joins the two domain values
    assert membership(ex.sfa, [7])
    assert not membership(ex.sfa, [1])


def test_overflow_is_reported_not_raised():
    S = make_sra(
        INTEGERS,
        ["a", "b", "c"],
        ["0", "1", "2", "3"],
        "0",
        {},
        ["3"],
        [
            ("0", TRUE, (), (), ("a",), "1"),
            ("1", TRUE, (), (), ("b",), "2"),
            ("2", TRUE, (), (), ("c",), "3"),
        ],
    )
    ex = expand_to_sfa(S, range(100), max_states=50)
    assert ex.overflow
    assert ex.sfa is None
    assert ex.state_count == 51  # the configuration past the cap is counted
    row = size_report("cube", S, ex)
    assert row["sfa_states"] == "---" and row["sfa_tr"] == "---"


def test_overflow_on_a_wide_store_stops_at_the_cap(monkeypatch):
    # the first store alone has 65,536 candidate targets; the one past
    # the cap ends the expansion before the rest are built
    atoms, labels = [], []
    monkeypatch.setattr(expand, "Atom", lambda a: atoms.append(a) or Atom(a))
    monkeypatch.setattr(expand, "Label", lambda *parts: labels.append(parts) or Label(*parts))
    S = rx.compile(r"(...)\1").sra
    ex = expand_to_sfa(S, range(2**16), max_states=20_000)
    assert ex.overflow
    assert ex.sfa is None
    assert ex.state_count == 20_001
    assert len(atoms) < ex.state_count  # one per target found, not per candidate
    # labels are made for emitted transitions only, and the overflow
    # comes inside the first configuration: no value label is made
    assert len(labels) < len({lab.guard for _, lab, _ in S.transitions}) + 1


@pytest.mark.parametrize("pattern", ["abcd", r"(a)\1\1\1"], ids=["valuation_free", "general"])
def test_overflow_counts_the_configuration_past_the_cap_on_either_path(pattern):
    # "abcd" has no registers, so its states take their merged rows; the
    # overflow in (a)\1\1\1 comes at a state that reads a register
    ex = expand_to_sfa(rx.compile(pattern).sra, [97], max_states=2)
    assert ex.overflow and ex.sfa is None
    assert ex.state_count == 3


@pytest.mark.parametrize("cap", [0, -5])
def test_a_state_limit_below_one_is_refused(cap):
    with pytest.raises(SraError, match="max_states must be at least 1"):
        expand_to_sfa(rx.compile("").sra, [97], max_states=cap)


def test_domain_values_outside_the_algebra_are_refused():
    register_free = rx.compile("a").sra
    with pytest.raises(AlgebraError, match="^-5 is not an element of the unicode domain$"):
        expand_to_sfa(register_free, [ord("a"), -5])


@pytest.mark.parametrize("value", [True, 1.5, "x", -1, 0x110000])
def test_unicode_refuses_values_outside_its_domain_by_name(value):
    with pytest.raises(AlgebraError, match=f"^{value!r} is not an element of the unicode domain$"):
        expand_to_sfa(rx.compile("a").sra, [ord("a"), value])


def test_a_mixed_domain_is_refused_before_it_is_sorted():
    with pytest.raises(AlgebraError, match="^'x' is not an element of the unicode domain$"):
        expand_to_sfa(rx.compile("a").sra, [97, "x"])
    with pytest.raises(AlgebraError, match="^'x' is not an element of the int domain$"):
        INTEGERS.sorted_domain([3, "x", -1])


def test_domain_values_are_ordered_by_sort_key():
    S = make_sra(INTEGERS, ["r"], ["p"], "p", {}, [], [("p", TRUE, (), (), ("r",), "p")])
    domain = [3, -1, 0, -7, 2]
    ex = expand_to_sfa(S, domain)
    assert sorted(domain, key=INTEGERS.sort_key) == [0, 2, 3, -1, -7]
    assert ex.sfa.states == ("p|_", "p|0", "p|2", "p|3", "p|-1", "p|-7")
    assert INTEGERS.sorted_domain(domain + [2, 0]) == [0, 2, 3, -1, -7]
    assert UNICODE.sorted_domain([]) == []


def test_stock_expansion_sizes():
    domain = [ord(c) for c in "abcdefghijklmnopqrstuvwxyz ."]
    for name, states, transitions in (("Name", 2757, 3458), ("Name-F", 157, 208)):
        ex = expand_to_sfa(rx.compile(rx.BENCHMARK_PATTERNS[name]).sra, domain)
        assert not ex.overflow
        assert (ex.state_count, len(ex.sfa.states), len(ex.sfa.transitions)) == (
            states, states, transitions,
        ), name


def test_member_tables_from_compiled_guards_match_denotation():
    # expansion fills its per-guard tables with compiled guards
    digits = [ord(c) for c in "0123456789"]
    letters = [ord(c) for c in "abcdefghABCDEFGH"]
    for name, domain in (("IP3", digits), ("XML", letters)):
        S = rx.compile(rx.BENCHMARK_PATTERNS[name]).sra
        for guard in {lab.guard for _, lab, _ in S.transitions}:
            admits = compile_guard(guard)
            compiled = [a for a in domain if admits(a)]
            assert compiled == [a for a in domain if denotes(S.algebra, guard, a)], (name, guard)


def test_name_benchmark_expands_to_low_hundreds():
    cp = rx.compile(rx.BENCHMARK_PATTERNS["Name-F"])
    domain = [ord(c) for c in "abcdefghijklmnopqrstuvwxyz ."]
    ex = expand_to_sfa(cp.sra, domain)
    assert not ex.overflow
    n = len(ex.sfa.states)
    assert 10 * len(cp.sra.states) <= n <= 310
    assert rx.match(cp, "ann lee a.")
    assert membership(ex.sfa, [ord(c) for c in "ann lee a."])
    assert not membership(ex.sfa, [ord(c) for c in "ann lee l."])


def test_csv_report_format():
    S = to_single_valued(example3())
    ex = expand_to_sfa(S, [0, 1, 2, 3])
    text = csv_report([size_report("ex3", S, ex)])
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    cells = lines[1].split(",")
    assert cells[0] == "ex3"
    assert cells[1] == str(len(S.states))
    assert cells[4] == str(ex.domain_size)
    assert int(cells[5]) == len(ex.sfa.states)


@pytest.mark.parametrize("name, domain, digest", [
    ("IP3", "0123456789", "705ad1301063df58846ad5f0b5a51b5e5c717480c94088b3f5cd33a2ed486284"),
    ("Name", "abcdefghijklmnopqrstuvwxyz .",
     "a9d16c970fbda28dd8ee371e99abb577869f3a587287f79b9eb17d77af2f2f59"),
    ("XML", "abcdefghABCDEFGH", "119b42703b19f5e0da9db0d24b06e9803f8dd25299b40294a4772131b9ec3e0c"),
], ids=["IP3", "Name", "XML"])
def test_stock_expansions_are_byte_identical_to_the_pinned_text(name, domain, digest):
    # the digests were taken from the expansion that built a table per
    # guard and a label per transition; the text must not change
    ex = expand_to_sfa(rx.compile(rx.BENCHMARK_PATTERNS[name]).sra, [ord(c) for c in domain])
    assert hashlib.sha256(dumps(ex.sfa).encode()).hexdigest() == digest


# unsorted, with negative values; the initial values 1 and 2 lie outside it
PANEL_DOMAIN = [3, -1, 0, -2]


def random_panel():
    """24 seeded automata with registers and at least four moves.  Their
    moves exclude registers and read several registers at once, and they
    start from values outside PANEL_DOMAIN: rows no stock pattern has."""
    rng = random.Random(29)
    panel = []
    while len(panel) < 24:
        S = random_sra(rng, max_states=4, max_registers=3)
        if S.registers and len(S.transitions) >= 4:
            panel.append(S)
    return panel


PANEL = random_panel()


def result_digest(ex) -> str:
    text = "" if ex.sfa is None else dumps(ex.sfa)
    summary = (text, ex.overflow, ex.state_count, ex.domain_size)
    return hashlib.sha256(repr(summary).encode()).hexdigest()[:16]


# per panel automaton, result_digest of its expansion over PANEL_DOMAIN
# uncapped and at max_states=7, taken from the expansion that walked flat
# (state, *registers) tuples
PANEL_PINS = [
    ('db8cabe23d031ada', 'db8cabe23d031ada'),
    ('7a9d7185db850dea', '7a9d7185db850dea'),
    ('b7376d8aa56b9c2d', 'add5a3d99284610a'),
    ('d8a4482e2dc42a4a', 'd8a4482e2dc42a4a'),
    ('12f05f5e27dc4c87', '12f05f5e27dc4c87'),
    ('2e8ec4b8828c7e24', '59fcfceec9a4970c'),
    ('ce84b7422f673ec7', 'ce84b7422f673ec7'),
    ('0dd130afbb13f965', '0dd130afbb13f965'),
    ('463e978e7bcef912', '463e978e7bcef912'),
    ('d3ded0e34cf860ac', 'd3ded0e34cf860ac'),
    ('479db1758a8e4fb0', '59fcfceec9a4970c'),
    ('fe1cb113d8963bfd', 'fe1cb113d8963bfd'),
    ('e26d12178dd4d6cc', 'e26d12178dd4d6cc'),
    ('19e6271bc17b0c97', '19e6271bc17b0c97'),
    ('d522b98518d12ad0', 'd522b98518d12ad0'),
    ('9afb992f913865e0', '9afb992f913865e0'),
    ('5e85051a2fe0d032', '5e85051a2fe0d032'),
    ('bc5b475450ef9b74', 'bc5b475450ef9b74'),
    ('596ccd0830c5e14f', '59fcfceec9a4970c'),
    ('e6d5e0c66759c5c9', 'e6d5e0c66759c5c9'),
    ('b55a5f07180f10cc', 'b55a5f07180f10cc'),
    ('701d842cdb3ab329', '59fcfceec9a4970c'),
    ('9ec00a460334660b', '59fcfceec9a4970c'),
    ('26389900d00dcc32', '26389900d00dcc32'),
]


def test_the_panel_reaches_the_rows_the_stock_patterns_never_reach():
    labels = [lab for S in PANEL for _, lab, _ in S.transitions]
    assert any(len(lab.E) > 1 for lab in labels)
    assert any(lab.I for lab in labels)
    assert any(v is not None and v not in PANEL_DOMAIN for S in PANEL for v in S.initial_valuation)
    assert sum(expand_to_sfa(S, PANEL_DOMAIN, max_states=7).overflow for S in PANEL) >= 5


@pytest.mark.parametrize("i", range(len(PANEL)))
def test_random_expansions_keep_their_pinned_text_and_their_language(i):
    S = PANEL[i]
    ex = expand_to_sfa(S, PANEL_DOMAIN)
    capped = expand_to_sfa(S, PANEL_DOMAIN, max_states=7)
    assert (result_digest(ex), result_digest(capped)) == PANEL_PINS[i]
    assert not ex.overflow
    # the expansion stores only domain and initial values: a word over
    # them has the same verdict on both automata
    stored = [v for v in S.initial_valuation if v is not None and v not in PANEL_DOMAIN]
    for w in words_up_to(PANEL_DOMAIN + sorted(set(stored)), 3):
        assert membership(ex.sfa, w) == membership(S, w), w
