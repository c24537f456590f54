import random

import pytest

from sra import regex as rx
from sra.algebra import Atom, Interval, FALSE, Or, TRUE, INTEGERS, UNICODE
from sra.boolean_ops import complete
from sra.core import (
    Label,
    SraError,
    dumps,
    from_json_dict,
    from_ra,
    from_sfa,
    loads,
    make_sra,
    membership,
    step,
    to_json_dict,
    validate,
)
from sra.normal import normalize
from sra.single_valued import to_single_valued

from fixtures import (
    digits_sfa,
    example3,
    first_symbol_repeats,
    random_sra,
    remark1,
    remark1_oracle,
)
from oracles import brute_membership, words_up_to


def simple_sra():
    return make_sra(
        INTEGERS,
        registers=["r"],
        states=["p", "q"],
        initial="p",
        initial_valuation={"r": 5},
        finals=["q"],
        transitions=[("p", TRUE, ("r",), (), (), "q")],
    )


# ---------------------------------------------------------------------------
# validate


def test_validate_well_formed():
    assert validate(simple_sra()) == []
    assert validate(example3()) == []
    assert validate(remark1()) == []


def test_validate_flags_e_i_overlap():
    S = simple_sra()
    bad = Label(TRUE, frozenset({0}), frozenset({0}), frozenset())
    S2 = S.__class__(
        algebra=S.algebra,
        registers=S.registers,
        states=S.states,
        initial=S.initial,
        initial_valuation=S.initial_valuation,
        finals=S.finals,
        transitions=((0, bad, 1),),
    )
    problems = validate(S2)
    assert len(problems) == 1 and "E and I overlap" in problems[0]


def test_validate_flags_unknown_register_index():
    S = simple_sra()
    bad = Label(TRUE, frozenset({3}), frozenset(), frozenset())
    S2 = S.__class__(
        algebra=S.algebra,
        registers=S.registers,
        states=S.states,
        initial=S.initial,
        initial_valuation=S.initial_valuation,
        finals=S.finals,
        transitions=((0, bad, 1),),
    )
    problems = validate(S2)
    assert any("not in R" in p for p in problems)


def test_make_sra_rejects_unknown_names():
    with pytest.raises(SraError):
        make_sra(INTEGERS, ["r"], ["p"], "nope", {}, [], [])
    with pytest.raises(SraError):
        make_sra(
            INTEGERS, ["r"], ["p"], "p", {}, [], [("p", TRUE, ("z",), (), (), "p")]
        )


# ---------------------------------------------------------------------------
# per-state index


def test_out_lists_each_states_transitions_in_order():
    rng = random.Random(11)
    for S in [example3(), remark1(), first_symbol_repeats()] + [
        random_sra(rng) for _ in range(30)
    ]:
        assert len(S.out) == len(S.states)
        for q, moves in enumerate(S.out):
            expected = [t for t in S.transitions if t[0] == q]
            assert moves == expected
            # the index holds the automaton's own triples, not copies
            assert all(a is b for a, b in zip(moves, expected))


def test_out_and_membership_leave_identity_and_json_alone():
    S = remark1()
    S.out
    assert membership(S, [2, 4, 2])
    fresh = remark1()
    assert S == fresh and fresh == S
    assert hash(S) == hash(fresh)
    assert dumps(S) == dumps(fresh)


# ---------------------------------------------------------------------------
# step


def test_step_read_matches_stored_value():
    S = simple_sra()
    assert step(S, (0, (5,)), 5) == {(1, (5,))}
    assert step(S, (0, (5,)), 6) == set()


def test_step_example3_initial_store():
    S = example3()
    assert step(S, (0, (None,)), 6) == {(1, (6,))}
    assert step(S, (0, (None,)), 0) == set()  # atom(0) excluded
    assert step(S, (0, (None,)), 4) == set()  # not divisible by 3


def test_step_changes_only_update_registers():
    rng = random.Random(7)
    for _ in range(60):
        S = random_sra(rng)
        v = tuple(rng.choice([None, 0, 1, 2]) for _ in S.registers)
        q = rng.randrange(len(S.states))
        a = rng.randint(0, 3)
        for dst, w in step(S, (q, v), a):
            assert 0 <= dst < len(S.states)
            assert len(w) == len(S.registers)
            # reconstruct which U could have produced w
            changed = {r for r in range(len(w)) if w[r] != v[r]}
            assert all(w[r] == a for r in changed)


# ---------------------------------------------------------------------------
# membership


def test_membership_remark1_examples():
    S = remark1()
    assert membership(S, [2, 4, 2])
    assert not membership(S, [2, 4, 6])
    assert not membership(S, [3])


def test_membership_remark1_exhaustive_small_words():
    S = remark1()
    for w in words_up_to(range(0, 7), 4):
        assert membership(S, w) == remark1_oracle(w), w


def test_membership_empty_word_iff_initial_final():
    S = remark1()
    assert not membership(S, [])
    T = make_sra(INTEGERS, [], ["p"], "p", {}, ["p"], [])
    assert membership(T, [])


def test_membership_matches_bruteforce_on_random_pairs():
    rng = random.Random(42)
    checked = 0
    while checked < 100:
        S = random_sra(rng)
        w = [rng.randint(0, 3) for _ in range(rng.randint(0, 4))]
        assert membership(S, w) == brute_membership(S, w)
        checked += 1


# ---------------------------------------------------------------------------
# embeddings


def test_from_ra_read_transition_shape():
    S = from_ra(["p", "q"], "p", ["q"], [("p", "read", "r", "q")])
    (src, lab, dst) = S.transitions[0]
    assert lab.guard == TRUE
    assert lab.E == frozenset({0}) and lab.I == frozenset() and lab.U == frozenset()


def test_from_ra_no_transitions():
    S = from_ra(["p"], "p", [], [])
    assert S.transitions == ()


def test_from_ra_first_symbol_repeats_cross_check():
    R = from_ra(
        ["a", "b", "c"],
        "a",
        ["c"],
        [
            ("a", "store", "r", "b"),
            ("b", "skip", None, "b"),
            ("b", "read", "r", "c"),
        ],
    )
    S = first_symbol_repeats()
    rng = random.Random(9)
    for _ in range(20):
        w = [rng.randint(0, 3) for _ in range(rng.randint(0, 5))]
        assert membership(R, w) == membership(S, w)


def test_from_sfa_digits():
    S = from_sfa(
        ["s", "t"],
        "s",
        ["t"],
        [
            ("s", Interval(ord("0"), ord("9")), "t"),
            ("t", Interval(ord("0"), ord("9")), "t"),
        ],
    )
    assert S.registers == ()
    ref = digits_sfa()
    rng = random.Random(3)
    for _ in range(20):
        w = [rng.choice([ord("0"), ord("7"), ord("a")]) for _ in range(rng.randint(0, 4))]
        assert membership(S, w) == membership(ref, w)


def test_from_sfa_bottom_guard_never_fires():
    S = from_sfa(["s", "t"], "s", ["t"], [("s", FALSE, "t")])
    assert not membership(S, [ord("x")])


def test_from_sfa_reachable_configurations_bounded_by_states():
    S = digits_sfa()
    seen = set()
    frontier = {(S.initial, S.initial_valuation)}
    for a in [ord("0"), ord("1"), ord("2")]:
        nxt = set()
        for c in frontier:
            nxt |= step(S, c, a)
        seen |= frontier
        frontier = nxt
    seen |= frontier
    assert len(seen) <= len(S.states)


# ---------------------------------------------------------------------------
# JSON round-trip


def test_json_round_trip_identity():
    wide = Or(tuple(Atom(i) for i in range(1200)))
    wide_sra = make_sra(INTEGERS, [], ["p", "q"], "p", {}, ["q"], [("p", wide, (), (), (), "q")])
    sv = to_single_valued(rx.compile(rx.BENCHMARK_PATTERNS["Name"]).sra)
    for S in (simple_sra(), example3(), remark1(), digits_sfa(), wide_sra, complete(sv), normalize(sv)):
        text = dumps(S)
        T = loads(text)
        assert T == S
        assert dumps(T) == text


def test_json_canonical_file_bit_exact():
    text = dumps(example3())
    assert dumps(loads(text)) == text


def test_json_rejects_malformed_documents():
    with pytest.raises(SraError):
        loads("{nope")
    with pytest.raises(SraError):
        from_json_dict({"algebra": "int"})
    d = to_json_dict(simple_sra())
    d["transitions"][0]["E"] = ["ghost"]
    with pytest.raises(SraError):
        from_json_dict(d)
    # a container of the wrong type is refused, not iterated or indexed
    for key, value in [
        ("initial_valuation", []),
        ("registers", "r"),
        ("states", "pq"),
        ("finals", "q"),
        ("transitions", {}),
    ]:
        d = to_json_dict(simple_sra())
        d[key] = value
        with pytest.raises(SraError):
            from_json_dict(d)
    d = to_json_dict(simple_sra())
    d["transitions"][0]["E"] = "r"
    with pytest.raises(SraError):
        from_json_dict(d)


def test_json_unicode_values_and_guards():
    S = make_sra(
        UNICODE,
        registers=["x"],
        states=["p", "q"],
        initial="p",
        initial_valuation={"x": ord("k")},
        finals=["q"],
        transitions=[("p", Atom(ord("k")), ("x",), (), (), "q")],
    )
    text = dumps(S)
    assert loads(text) == S
    assert dumps(loads(text)) == text
