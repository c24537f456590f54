import hashlib
import random

import pytest

from sra import regex as rx
from sra.algebra import Algebra, Div, Not, TRUE, INTEGERS
from sra.boolean_ops import complement, complete, intersect, is_complete, union
from sra.core import SraError, dumps, make_sra, membership
from sra.single_valued import sv_label_kind, to_single_valued

from fixtures import (
    digits_sfa, example3, first_symbol_repeats, remark1, remark1_oracle, successors,
)
from oracles import brute_membership, denotes, words_up_to


def strip_finals(S):
    return S.__class__(
        algebra=S.algebra,
        registers=S.registers,
        states=S.states,
        initial=S.initial,
        initial_valuation=S.initial_valuation,
        finals=frozenset(),
        transitions=S.transitions,
    )


def single_word_acceptor(value):
    from sra.algebra import Atom

    return make_sra(
        INTEGERS,
        [],
        ["s", "t"],
        "s",
        {},
        ["t"],
        [("s", Atom(value), (), (), (), "t")],
    )


PAIRS = [
    (remark1(), first_symbol_repeats()),
    (remark1(), to_single_valued(example3())),
    (first_symbol_repeats(), first_symbol_repeats()),
    (single_word_acceptor(1), remark1()),
    (to_single_valued(remark1()), first_symbol_repeats()),
]


# ---------------------------------------------------------------------------
# intersect


def test_intersect_label_pairing():
    S1 = make_sra(
        INTEGERS, ["r"], ["p", "q"], "p", {"r": 3}, ["q"],
        [("p", TRUE, ("r",), (), (), "q")],
    )
    S2 = make_sra(
        INTEGERS, ["s"], ["p", "q"], "p", {}, ["q"],
        [("p", Div(5), (), (), ("s",), "q")],
    )
    P = intersect(S1, S2)
    assert P.registers == ("1:r", "2:s")
    assert P.initial_valuation == (3, None)
    (_, lab, _) = P.transitions[0]
    assert lab.E == frozenset({0})
    assert lab.I == frozenset()
    assert lab.U == frozenset({1})
    assert denotes(INTEGERS, lab.guard, 10) and not denotes(INTEGERS, lab.guard, 3)


def test_intersect_builds_only_reachable_pairs():
    ip3 = rx.compile(rx.BENCHMARK_PATTERNS["IP3"]).sra
    ip4 = rx.compile(rx.BENCHMARK_PATTERNS["IP4"]).sra
    P = intersect(ip3, ip4)
    # of the 1,936 state pairs, only these are reachable through
    # move pairs whose guards hold together
    assert (len(P.states), len(P.transitions)) == (44, 46)
    assert P.states[P.initial] == f"({ip3.states[ip3.initial]},{ip4.states[ip4.initial]})"
    first = "IP: 123.456.789.012:80"
    for second, in_ip3, in_both in (
        ("IP: 123.456.789.012:8", True, True),
        ("IP: 123.956.789.012:8", True, False),
        ("IP: 124.456.789.012:8", False, False),
    ):
        word = [ord(c) for c in f"{first} {second}"]
        assert (membership(ip3, word), membership(P, word)) == (in_ip3, in_both), second


def test_intersect_agrees_with_conjunction_of_memberships():
    for S1, S2 in PAIRS:
        P = intersect(S1, S2)
        for w in words_up_to(range(0, 4), 3):
            assert membership(P, w) == (membership(S1, w) and membership(S2, w)), w


def test_intersect_with_finalless_operand_is_empty():
    S = remark1()
    P = intersect(S, strip_finals(S))
    for w in words_up_to(range(0, 4), 3):
        assert not membership(P, w)


def test_intersect_rejects_algebra_mismatch():
    with pytest.raises(SraError):
        intersect(remark1(), digits_sfa())


# ---------------------------------------------------------------------------
# union


def test_union_agrees_with_disjunction_of_memberships():
    for S1, S2 in PAIRS:
        P = union(S1, S2)
        for w in words_up_to(range(0, 4), 3):
            assert membership(P, w) == (membership(S1, w) or membership(S2, w)), w


def test_union_of_single_word_acceptors():
    P = union(single_word_acceptor(1), single_word_acceptor(2))
    assert membership(P, [1])
    assert membership(P, [2])
    assert not membership(P, [3])
    assert not membership(P, [1, 2])


def test_union_initial_state_finality():
    S = make_sra(INTEGERS, [], ["p"], "p", {}, ["p"], [])
    P = union(S, remark1())
    assert P.initial in P.finals
    assert membership(P, [])
    Q = union(remark1(), remark1())
    assert Q.initial not in Q.finals


def test_union_with_empty_language_changes_nothing():
    S = remark1()
    P = union(S, to_single_valued(example3()))
    for w in words_up_to(range(0, 4), 3):
        assert membership(P, w) == membership(S, w)


# ---------------------------------------------------------------------------
# complete


def already_complete():
    return make_sra(
        INTEGERS,
        ["r"],
        ["p"],
        "p",
        {},
        ["p"],
        [
            ("p", TRUE, (), ("r",), ("r",), "p"),
            ("p", TRUE, ("r",), (), (), "p"),
        ],
    )


def test_complete_of_complete_input_adds_only_the_sink():
    S = already_complete()
    assert is_complete(S)
    T = complete(S)
    assert len(T.states) == len(S.states) + 1
    # no gap transitions, only the sink's own loops
    assert len(T.transitions) == len(S.transitions) + len(T.registers) + 1
    rng = random.Random(17)
    for _ in range(50):
        w = [rng.randint(-5, 5) for _ in range(rng.randint(0, 6))]
        assert membership(T, w) == membership(S, w)


def test_complete_names_its_sink_apart_from_every_state():
    S = make_sra(INTEGERS, [], ["sink", "p"], "sink", {}, ["p"], [("sink", TRUE, (), (), (), "p")])
    T = complete(S)
    assert T.states == ("sink", "p", "sink'")
    assert T.finals == frozenset({1})


def test_complete_adds_negated_guard_to_sink():
    S = make_sra(
        INTEGERS,
        ["r"],
        ["p", "q"],
        "p",
        {},
        ["q"],
        [("p", Div(3), (), ("r",), ("r",), "p")],
    )
    T = complete(S)
    sink = len(S.states)
    gap_fresh = [
        lab
        for src, lab, dst in T.transitions
        if src == 0 and dst == sink and not lab.E and lab.I == frozenset({0})
    ]
    assert len(gap_fresh) == 1
    g = gap_fresh[0].guard
    assert denotes(INTEGERS, g, 4) and not denotes(INTEGERS, g, 6)


def test_complete_preserves_language():
    for S in (to_single_valued(remark1()), to_single_valued(example3()), digits_sfa()):
        T = complete(S)
        assert is_complete(T)
        assert len(T.registers) == len(S.registers)
        sample = range(0, 4) if S.algebra is INTEGERS else [ord("0"), ord("9"), ord("a")]
        for w in words_up_to(sample, 3):
            assert membership(T, w) == membership(S, w), w


def test_complete_makes_every_step_possible():
    S = complete(to_single_valued(remark1()))
    rng = random.Random(8)
    configs = {(S.initial, S.initial_valuation)}
    for _ in range(80):
        q, v = rng.choice(
            sorted(configs, key=lambda c: (c[0], [(x is None, x) for x in c[1]]))
        )
        a = rng.randint(-3, 6)
        succ = successors(S, (q, v), a)
        assert succ
        configs |= succ


def test_complete_keeps_nondeterministic_language_and_complement_refuses():
    S = make_sra(
        INTEGERS,
        ["r"],
        ["p", "q1", "q2"],
        "p",
        {},
        ["q1"],
        [
            ("p", TRUE, (), ("r",), ("r",), "q1"),
            ("p", TRUE, (), ("r",), ("r",), "q2"),
        ],
    )
    T = complete(S)
    assert is_complete(T)
    for w in words_up_to(range(0, 4), 3):
        assert membership(T, w) == brute_membership(S, w), w
    with pytest.raises(SraError):
        complement(T)


def test_completion_decides_each_channel_gap_once(monkeypatch):
    # a channel is a state's fresh moves or its reads of one register;
    # its gap depends on its guard objects alone, so equal channels of
    # different states need one satisfiability call between them
    S = to_single_valued(rx.compile(rx.BENCHMARK_PATTERNS["IP4"]).sra)
    n = len(S.registers)
    keys = set()
    for moves in S.out:
        channels = {("fresh", -1): [], **{("read", r): [] for r in range(n)}}
        for _, lab, _ in moves:
            op, r = sv_label_kind(n, lab)
            channels[("read", r) if op == "read" else ("fresh", -1)].append(id(lab.guard))
        keys |= {(channel, tuple(guards)) for channel, guards in channels.items()}
    assert len(keys) == 82
    calls = []
    is_sat = Algebra.is_sat
    monkeypatch.setattr(Algebra, "is_sat", lambda alg, p: calls.append(p) or is_sat(alg, p))
    C = complete(S)
    assert 0 < len(calls) <= len(keys)
    calls.clear()
    assert is_complete(C)
    assert 0 < len(calls) <= len(keys)


def test_complete_translates_a_multi_valued_automaton_first():
    # remark1's store label is neither read nor fresh
    S = remark1()
    T = complete(S)
    assert is_complete(T)
    assert dumps(T) == dumps(complete(to_single_valued(S)))
    for w in words_up_to(range(0, 4), 3):
        assert membership(T, w) == brute_membership(S, w), w


# ---------------------------------------------------------------------------
# complement


def test_complement_refuses_incomplete_input():
    with pytest.raises(SraError):
        complement(to_single_valued(remark1()))


def test_complement_flips_membership():
    C = complement(complete(to_single_valued(remark1())))
    assert not membership(C, [2, 4, 2])
    assert membership(C, [2, 4, 6])
    assert membership(C, [])
    for w in words_up_to(range(0, 4), 3):
        assert membership(C, w) == (not remark1_oracle(w)), w


def test_complement_is_an_involution_on_acceptance():
    S = complete(to_single_valued(remark1()))
    CC = complement(complement(S))
    rng = random.Random(4)
    for _ in range(50):
        w = [rng.randint(0, 6) for _ in range(rng.randint(0, 5))]
        assert membership(CC, w) == membership(S, w)


def test_complement_of_empty_language_accepts_everything():
    C = complement(complete(to_single_valued(example3())))
    for w in words_up_to(range(0, 4), 3):
        assert membership(C, w)


@pytest.mark.parametrize("build, digest", [
    (lambda P: union(P("IP3"), P("IP4")),
     "de292a31994b89d0d250620ad8d46eb1b0ec2e064901c113ed3c90e46810871c"),
    # no registers on the left, so the right operand's are not shifted
    (lambda P: union(rx.compile("[a-z]+ ").sra, P("Name")),
     "0ad84a1e487f6cfc985e3a13e165fd31e59cd214c737d649f9ddecdfe9ecb41b"),
    (lambda P: complete(to_single_valued(P("IP4"))),
     "93c6374b5767193a99c76e67ddf2470524398fc921440942bcb48976570a0be6"),
    (lambda P: complement(complete(to_single_valued(P("Name")))),
     "d640b8cabb30efe9622c8559bc6626144109c677936bc6f655da3913da879f47"),
], ids=["union_ip3_ip4", "union_register_free_name", "complete_ip4", "complement_name"])
def test_boolean_operations_are_byte_identical_to_the_pinned_text(build, digest):
    S = build(lambda name: rx.compile(rx.BENCHMARK_PATTERNS[name]).sra)
    assert hashlib.sha256(dumps(S).encode()).hexdigest() == digest
