import hashlib

import pytest

from sra.algebra import AlgebraError, Atom, Div, TRUE, INTEGERS
from sra.core import SraError, compile_guard, dumps, make_sra, membership
from sra.expand import CSV_HEADER, csv_report, expand_to_sfa, size_report
from sra import expand, regex as rx

from fixtures import digits_sfa, example3, first_symbol_repeats, remark1
from oracles import words_up_to
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
    atoms = []
    monkeypatch.setattr(expand, "Atom", lambda a: atoms.append(a) or Atom(a))
    S = rx.compile(r"(...)\1").sra
    ex = expand_to_sfa(S, range(2**16), max_states=20_000)
    assert ex.overflow
    assert ex.sfa is None
    assert ex.state_count == 20_001
    assert len(atoms) < ex.state_count  # one per target found, not per candidate


@pytest.mark.parametrize("cap", [0, -5])
def test_a_state_limit_below_one_is_refused(cap):
    with pytest.raises(SraError, match="max_states must be at least 1"):
        expand_to_sfa(rx.compile("").sra, [97], max_states=cap)


def test_domain_values_outside_the_algebra_are_refused():
    register_free = rx.compile("a").sra
    with pytest.raises(AlgebraError, match="-5 is not a unicode domain element"):
        expand_to_sfa(register_free, [ord("a"), -5])


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
            assert compiled == [a for a in domain if S.algebra.denotes(guard, a)], (name, guard)


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
