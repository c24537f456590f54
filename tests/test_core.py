import dataclasses
import json
import random
import re
import tracemalloc

import pytest

from sra import regex as rx
from sra.algebra import Atom, Interval, FALSE, Or, TRUE, INTEGERS, UNICODE
from sra.boolean_ops import complete
from sra.core import (
    Label,
    SraError,
    dumps,
    from_json_dict,
    loads,
    make_sra,
    membership,
    validate,
)
from sra import core
from sra.normal import normalize
from sra.single_valued import to_single_valued

from fixtures import (
    digits_sfa,
    example3,
    first_symbol_repeats,
    from_ra,
    from_sfa,
    random_chain,
    random_sra,
    remark1,
    remark1_oracle,
    successors,
)
from oracles import brute_membership, json_document, words_up_to


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


def test_validate_checks_each_label_once_and_names_every_transition():
    overlap = Label(TRUE, frozenset({0}), frozenset({0}), frozenset())
    out_of_range = dataclasses.replace(overlap, I=frozenset(), U=frozenset({3}))
    S = dataclasses.replace(simple_sra(), transitions=(
        (0, overlap, 1), (1, out_of_range, 1), (1, overlap, 0), (0, out_of_range, 0),
    ))
    assert validate(S) == [
        "transition #0: E and I overlap ([0])",
        "transition #1: register index 3 in U not in R",
        "transition #2: E and I overlap ([0])",
        "transition #3: register index 3 in U not in R",
    ]


def test_validate_names_out_of_range_states_and_a_short_valuation():
    S = simple_sra()
    lab = S.transitions[0][1]
    S2 = dataclasses.replace(S, initial=2, finals=frozenset({1, 5}), initial_valuation=(),
                             transitions=((0, lab, 7),))
    assert validate(S2) == [
        "initial state index 2 out of range",
        "final state index 5 out of range",
        "initial valuation does not cover the register set exactly",
        "transition #0: target index 7 out of range",
    ]


def test_validate_checks_equal_but_distinct_guards_each(monkeypatch):
    outside = [Atom(0x110000), Atom(0x110000)]  # equal, not the same object
    S = make_sra(UNICODE, [], ["p", "q"], "p", {}, ["q"], [
        ("p", outside[0], (), (), (), "q"),
        ("p", outside[1], (), (), (), "q"),
        ("q", outside[0], (), (), (), "q"),
    ])
    checked = []
    check = type(UNICODE).check
    monkeypatch.setattr(type(UNICODE), "check", lambda alg, p: checked.append(p) or check(alg, p))
    problems = validate(S)
    assert [p.split(":")[0] for p in problems] == ["transition #0", "transition #1", "transition #2"]
    assert [id(p) for p in checked] == [id(g) for g in outside]


def test_make_sra_builds_one_label_per_distinct_guard_and_register_sets():
    digits = [Interval(0, 9), Interval(0, 9)]  # equal, not the same object
    S = make_sra(INTEGERS, ["r", "s"], ["p", "q"], "p", {}, ["q"], [
        ("p", digits[0], ("r",), (), ("s",), "q"),
        ("q", digits[0], ("r",), (), ("s",), "p"),
        ("p", digits[0], (), ("r",), ("s",), "q"),
        ("p", digits[1], ("r",), (), ("s",), "q"),
        ("q", digits[1], ("r",), (), ("s",), "q"),
    ])
    labels = [lab for _, lab, _ in S.transitions]
    assert labels[0] is labels[1] and labels[3] is labels[4]
    assert len({id(lab) for lab in labels}) == 3
    assert labels[0] == labels[3]
    # loads parses the one guard text once, so both digit guards become one
    loaded = [lab for _, lab, _ in loads(dumps(S)).transitions]
    assert loaded[0] is loaded[1] is loaded[3] is loaded[4] is not loaded[2]


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
# membership


def test_membership_remark1_examples():
    S = remark1()
    assert membership(S, [2, 4, 2])
    assert not membership(S, [2, 4, 6])
    assert not membership(S, [3])
    # any iterable word is read once, in order
    assert membership(S, (a for a in [2, 4, 2]))


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


def test_negative_symbols_do_not_read_cached_slots():
    S = make_sra(
        INTEGERS, [], ["p", "f"], "p", {}, ["f"],
        [("p", TRUE, (), (), (), "p"), ("p", Interval(0, 2), (), (), (), "f")],
    )
    for small in (0, 1, 2):
        assert membership(S, [small - 128, small])
        assert not membership(S, [small, small - 128])


# -128..-126 would alias table slots 0..2 if read as negative indexes;
# 128 and 200 lie past the cached ASCII range
WIDE_SYMBOLS = (-128, -127, -126, -1, 0, 1, 2, 3, 127, 128, 200)


@pytest.mark.parametrize("seed", [42, 47, 50])
def test_membership_matches_bruteforce_on_symbols_outside_the_cached_range(seed):
    rng = random.Random(seed)
    for _ in range(4000):
        S = random_chain(rng) if rng.random() < 0.5 else random_sra(rng)
        w = [rng.choice(WIDE_SYMBOLS) for _ in range(rng.randint(0, 10))]
        assert membership(S, w) == brute_membership(S, w), (S, w)


def long_words(seed):
    """Random automata, each with a word of 20-60 symbols over two or
    three values and one over WIDE_SYMBOLS: long enough that a
    membership run reads its set table's rows back."""
    rng = random.Random(seed)
    for _ in range(300):
        S = random_chain(rng) if rng.random() < 0.3 else random_sra(rng)
        values = rng.sample(range(4), rng.randint(2, 3))
        yield S, [rng.choice(values) for _ in range(rng.randint(20, 60))]
        yield S, [rng.choice(WIDE_SYMBOLS) for _ in range(rng.randint(20, 60))]


@pytest.mark.parametrize("seed", [42, 47])
def test_membership_reading_cached_rows_matches_bruteforce(seed):
    for S, w in long_words(seed):
        assert membership(S, w) == brute_membership(S, w), (S, w)


@pytest.mark.parametrize("cap", [1, 2])
def test_membership_past_the_table_cap_matches_bruteforce(monkeypatch, cap):
    monkeypatch.setattr(core, "MAX_HELD", cap)
    for S, w in long_words(42):
        assert membership(S, w) == brute_membership(S, w), (S, w)


def test_membership_past_the_table_cap_agrees_with_re(monkeypatch):
    # each group of six makes three new valuations, so the table fills
    pattern = r"(?:(.)(.)(.)\3\2\1)*"
    rng = random.Random(6)
    letters = [chr(c) for c in range(33, 127)]
    text = "".join(a + b + c + c + b + a for a, b, c in (rng.sample(letters, 3) for _ in range(1000)))
    S = rx.compile(pattern).sra
    calls = []
    real = core._run

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(core, "_run", counting)
    for t in (text, text[:-1] + text[-2]):
        calls.clear()
        assert membership(S, [ord(c) for c in t]) == (re.fullmatch(pattern, t, re.ASCII) is not None)
        assert core.MAX_HELD <= len(calls) < len(t)  # the rest read past the cap
    assert re.fullmatch(pattern, text, re.ASCII)


def test_membership_set_table_memory_is_bounded_when_sets_grow():
    # after `.*` every position may start the capture, so the sets grow
    # with the triples read: keeping every set met would take about 5 MB
    pattern = r".*(...).*\1"
    rng = random.Random(3)
    text = "".join(rng.choices([chr(c) for c in range(33, 127)], k=400))
    S = rx.compile(pattern).sra
    for t in (text, text + text[100:103]):
        word = [ord(c) for c in t]
        tracemalloc.start()
        try:
            got = membership(S, word)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == (re.fullmatch(pattern, t, re.ASCII) is not None)
        assert peak < 2_000_000, peak


def test_membership_compiles_only_the_states_it_reaches(monkeypatch):
    S = normalize(to_single_valued(rx.compile(rx.BENCHMARK_PATTERNS["Pr-CL3"]).sra))
    word = [ord(c) for c in "C:ab L:x D:y C:ab L:"]
    visited = {S.initial}
    configs = {(S.initial, S.initial_valuation)}
    for a in word:
        configs = {c for config in configs for c in successors(S, config, a)}
        visited |= {q for q, _ in configs}
    calls = []
    depth = [0]
    real = core.compile_guard

    def counting(p):  # counts guards, not their sub-predicates
        if not depth[0]:
            calls.append(p)
        depth[0] += 1
        try:
            return real(p)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(core, "compile_guard", counting)
    assert membership(S, word) is False
    assert 0 < len(calls) <= sum(len(S.out[q]) for q in visited) < len(S.states)


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
            nxt |= successors(S, c, a)
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


def test_json_round_trip_of_completed_and_normalized_ip4():
    sv = to_single_valued(rx.compile(rx.BENCHMARK_PATTERNS["IP4"]).sra)
    for S in (complete(sv), normalize(sv)):
        text = dumps(S)
        assert dumps(loads(text)) == text
        assert loads(text) == S


def test_json_rejects_malformed_documents_sharing_a_bad_guard():
    # two transitions share one guard outside the domain; each is named
    outside = Atom(0x110000)
    S = make_sra(UNICODE, [], ["p", "q"], "p", {}, ["q"], [
        ("p", outside, (), (), (), "q"),
        ("p", TRUE, (), (), (), "q"),
        ("q", outside, (), (), (), "q"),
    ])
    problems = validate(S)
    assert [p.split(":")[0] for p in problems] == ["transition #0", "transition #2"]
    assert all("bad guard" in p for p in problems)
    with pytest.raises(SraError, match="transition #0: bad guard.*transition #2: bad guard"):
        loads(dumps(S))


def test_json_parses_each_distinct_guard_text_once(monkeypatch):
    letters = Interval(ord("a"), ord("z"))
    S = make_sra(UNICODE, [], ["p", "q"], "p", {}, ["q"], [
        ("p", letters, (), (), (), "q") for _ in range(50)
    ])
    text = dumps(S)
    calls = []
    parse = type(UNICODE).parse
    monkeypatch.setattr(type(UNICODE), "parse", lambda alg, s: calls.append(s) or parse(alg, s))
    assert loads(text) == S
    assert calls == ["['a'-'z']"]


def test_json_canonical_file_bit_exact():
    text = dumps(example3())
    assert dumps(loads(text)) == text


def test_json_rejects_malformed_documents():
    with pytest.raises(SraError):
        loads("{nope")
    # json.loads raises a plain ValueError for an integer too long for int()
    with pytest.raises(SraError, match="not valid JSON"):
        loads(dumps(simple_sra()).replace('"r": 5', '"r": ' + "5" * 5000))
    with pytest.raises(SraError):
        from_json_dict({"algebra": "int"})
    d = json.loads(dumps(simple_sra()))
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
        d = json.loads(dumps(simple_sra()))
        d[key] = value
        with pytest.raises(SraError):
            from_json_dict(d)
    d = json.loads(dumps(simple_sra()))
    d["transitions"][0]["E"] = "r"
    with pytest.raises(SraError):
        from_json_dict(d)
    # the exact messages, on two transitions that share one label; the
    # loader builds that label once but still reads each transition
    bad = "expected integer at position 3"
    for index, key, value, message in [
        (None, "guard", "[1-", f"transition #0: bad guard: {bad}; transition #1: bad guard: {bad}"),
        (1, "from", "ghost", "unknown state 'ghost'"),
        (1, "to", "ghost", "unknown state 'ghost'"),
        (1, "U", ["ghost"], "unknown register 'ghost'"),
        (1, "I", "r", "malformed automaton document: 'I' is not a list"),
    ]:
        d = json.loads(dumps(make_sra(INTEGERS, ["r"], ["p", "q"], "p", {"r": 5}, ["q"], [
            ("p", TRUE, ("r",), (), (), "q"),
            ("q", TRUE, ("r",), (), (), "q"),
        ])))
        for t in d["transitions"] if index is None else [d["transitions"][index]]:
            t[key] = value
        with pytest.raises(SraError) as refused:
            from_json_dict(d)
        assert str(refused.value) == message


def writer_cases():
    """Automata whose text dumps must write byte for byte as the stdlib
    writes their document: edge cases of the layout and of names, and
    the compiled, completed and normalized small stock patterns."""
    yield make_sra(INTEGERS, [], ["p"], "p", {}, [], [])
    yield simple_sra()
    yield example3()
    yield remark1()
    yield digits_sfa()
    odd = ['q"uote', "back\\slash", "new\nline", "caf\u00e9", "clef \U0001d11e"]
    yield make_sra(UNICODE, odd, odd, odd[2], {odd[0]: 0x1D11E, odd[4]: ord('"')}, odd[3:], [
        (odd[0], Atom(0x1D11E), (odd[0],), (odd[1],), (odd[4],), odd[2]),
        (odd[2], Interval(ord("\\"), 0xE9), (), (), (), odd[3]),
        (odd[3], Or((Atom(ord('"')), Atom(10))), (odd[4],), (), (odd[0], odd[1]), odd[4]),
    ])
    # int state names; registers named by an int, None, True and a float,
    # which the stdlib writes as the keys "7", "null", "true" and "2.5"
    registers = [7, None, True, 2.5, "r"]
    yield make_sra(INTEGERS, registers, [0, 1, -2], 0, {7: -3, None: None, True: 0, 2.5: -10**30},
                   [1, -2], [
        (0, TRUE, (7,), ("r",), (None, True), 1),
        (1, Interval(-5, None), (), (), (2.5,), -2),
        (-2, FALSE, (), (), (), 0),
    ])
    for name in ("IP2", "Name-F", "Name-L", "Name", "XML", "Pr-C2", "Pr-CL2"):
        S = rx.compile(rx.BENCHMARK_PATTERNS[name]).sra
        sv = to_single_valued(S)
        yield from (S, complete(sv), normalize(sv), normalize(S))


def test_dumps_writes_the_stdlib_layout_of_the_document():
    for S in writer_cases():
        assert dumps(S) == json.dumps(json_document(S), indent=2) + "\n"


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
