import random

from sra import regex as rx
from sra.algebra import TRUE, INTEGERS
from sra.core import Label, make_sra, membership, validate
from sra.normal import is_empty, normalize
from sra.single_valued import (
    initial_slots,
    is_single_valued,
    sv_label_kind,
    to_single_valued,
)

from fixtures import (
    example3, first_symbol_repeats, random_sra, remark1, remark1_oracle, shared_labels,
)
from oracles import brute_membership, words_up_to


# ---------------------------------------------------------------------------
# is_single_valued


def test_output_of_translation_is_single_valued():
    for S in (example3(), remark1(), first_symbol_repeats()):
        T = to_single_valued(S)
        assert validate(T) == []
        assert is_single_valued(T)


def test_mixed_label_is_not_single_valued():
    S = make_sra(
        INTEGERS,
        ["r", "s"],
        ["p", "q"],
        "p",
        {},
        ["q"],
        [("p", TRUE, ("r",), (), ("s",), "q")],
    )
    assert not is_single_valued(S)


def test_non_injective_initial_valuation_is_not_single_valued():
    S = make_sra(INTEGERS, ["r", "s"], ["p"], "p", {"r": 5, "s": 5}, [], [])
    assert not is_single_valued(S)


def test_sv_label_kind_classification():
    assert sv_label_kind(2, Label(TRUE, frozenset({1}), frozenset(), frozenset())) == (
        "read",
        1,
    )
    assert sv_label_kind(
        2, Label(TRUE, frozenset(), frozenset({0, 1}), frozenset({0}))
    ) == ("fresh", 0)
    assert sv_label_kind(
        2, Label(TRUE, frozenset(), frozenset({0, 1}), frozenset())
    ) == ("fresh", -1)
    assert sv_label_kind(2, Label(TRUE, frozenset(), frozenset(), frozenset())) is None


# ---------------------------------------------------------------------------
# to_single_valued


def test_translation_preserves_membership_exhaustively():
    for S in (example3(), remark1(), first_symbol_repeats()):
        T = to_single_valued(S)
        for w in words_up_to(range(0, 4), 3):
            assert membership(S, w) == membership(T, w), (S.states, w)


def test_translation_preserves_membership_random_words():
    rng = random.Random(11)
    S = remark1()
    T = to_single_valued(S)
    for _ in range(50):
        w = [rng.randint(0, 8) for _ in range(rng.randint(0, 7))]
        assert membership(T, w) == remark1_oracle(w)


def test_translation_preserves_membership_on_random_automata():
    rng = random.Random(23)
    for _ in range(40):
        S = random_sra(rng)
        T = to_single_valued(S)
        assert is_single_valued(T)
        for w in words_up_to(range(0, 3), 3):
            assert brute_membership(S, w) == membership(T, w)


def test_translation_state_bound():
    for S in (example3(), remark1(), first_symbol_repeats()):
        T = to_single_valued(S)
        n = len(S.states)
        r = len(S.registers)
        assert len(T.registers) == r
        assert len(T.states) <= n * max(r, 1) ** r


def test_double_store_collapses_to_one_fresh_slot():
    S = make_sra(
        INTEGERS,
        ["r", "s"],
        ["p", "q"],
        "p",
        {},
        ["q"],
        [("p", TRUE, (), (), ("r", "s"), "q")],
    )
    T = to_single_valued(S)
    fresh = [
        (lab, dst)
        for _, lab, dst in T.transitions
        if sv_label_kind(len(T.registers), lab)[0] == "fresh"
    ]
    assert len(fresh) == 1
    (lab, dst) = fresh[0]
    assert len(lab.U) == 1  # both r and s now track a single slot


def test_translation_skip_store_read_chain():
    # a value consumed and dropped may reappear and be stored later; the
    # tracker slot for the dropped value must not capture the register
    S = make_sra(
        INTEGERS,
        ["r"],
        ["0", "1", "2", "3"],
        "0",
        {"r": None},
        ["3"],
        [
            ("0", TRUE, (), (), (), "1"),
            ("1", TRUE, (), (), ("r",), "2"),
            ("2", TRUE, ("r",), (), (), "3"),
        ],
    )
    T = to_single_valued(S)
    assert membership(S, [5, 5, 5])
    assert membership(T, [5, 5, 5])
    for w in words_up_to(range(0, 3), 3):
        assert membership(S, w) == membership(T, w), w


def test_translation_builds_one_label_per_guard_kind_and_slot():
    T = to_single_valued(rx.compile(rx.BENCHMARK_PATTERNS["IP4"]).sra)
    assert len(T.transitions) == 1818
    assert shared_labels(T) == 81


def test_translation_is_reproducible():
    S = remark1()
    assert to_single_valued(S) == to_single_valued(S)


def test_translation_of_already_single_valued_automaton():
    T = to_single_valued(remark1())
    assert is_single_valued(T)
    assert to_single_valued(T) is T


def test_registers_holding_one_value_share_the_least_slot():
    S = make_sra(
        INTEGERS,
        ["r", "s", "t"],
        ["p", "q", "f"],
        "p",
        {"r": 5, "s": 5},
        ["f"],
        [
            ("p", TRUE, ("s",), (), ("t",), "q"),
            ("p", TRUE, (), ("r",), (), "f"),
            ("q", TRUE, ("r", "t"), (), (), "f"),
        ],
    )
    assert initial_slots(S) == ((5, None, None), (0, 0, 2))
    T = to_single_valued(S)
    assert T.initial_valuation == (5, None, None)
    N = normalize(S)
    assert N.initial_valuation == (5, None, None)
    for w in words_up_to(range(4, 7), 3):
        assert brute_membership(S, w) == membership(T, w) == membership(N, w), w
    assert membership(S, [5, 5]) and membership(S, [6])
    # slot 1 holds nothing: no register maps to it
    empty, w = is_empty(S)
    assert not empty and brute_membership(S, w)
