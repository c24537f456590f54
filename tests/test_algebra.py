import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from sra.algebra import (
    INTEGERS,
    UNICODE,
    MAX_CODEPOINT,
    AlgebraError,
    And,
    Atom,
    Div,
    FALSE,
    Interval,
    Not,
    Or,
    TRUE,
    algebra_by_name,
    conj,
)

from oracles import (
    INT_RANGE, brute_count, brute_is_sat, brute_minterm_bits, denotes, enum_denotation, minterm_of,
)


X_GT_2 = Interval(3, None)
X_LT_5 = Interval(None, 4)

EXAMPLE_PREDS = (Atom(0), Div(3), And((Interval(0, 10), Div(5))), Not(Interval(0, 10)))


# ---------------------------------------------------------------------------
# denotes


def test_denotes_interval_and_div():
    p = And((Interval(0, 10), Div(5)))
    assert denotes(INTEGERS, p, 5)
    assert denotes(INTEGERS, p, 0)
    assert not denotes(INTEGERS, p, 3)


def test_denotes_negated_atom():
    assert not denotes(INTEGERS, Not(Atom(0)), 0)
    assert denotes(INTEGERS, Not(Atom(0)), 1)


def test_denotes_empty_language_guard_combination():
    p = And((Div(3), Not(Atom(0)), Div(5), Interval(0, 10)))
    for n in range(0, 11):
        assert not denotes(INTEGERS, p, n)


def test_denotes_rejects_wrong_instance():
    with pytest.raises(AlgebraError):
        denotes(UNICODE, Div(3), 5)
    with pytest.raises(AlgebraError):
        denotes(UNICODE, TRUE, -1)
    with pytest.raises(AlgebraError):
        denotes(INTEGERS, TRUE, "x")
    # every decision procedure checks its predicate in the walk that finds its period
    for bad in (Div(3), Atom(-1)):
        for decide in (
            lambda q: UNICODE.size(q, 1),
            UNICODE.is_sat,
            lambda q: UNICODE.has_min_size(q, 2),
            UNICODE.witness,
            lambda q: UNICODE.minterms([TRUE, q]),
        ):
            with pytest.raises(AlgebraError):
                decide(bad)


# ---------------------------------------------------------------------------
# is_sat


def test_is_sat_false_pred():
    assert not INTEGERS.is_sat(FALSE)
    assert not UNICODE.is_sat(FALSE)


def test_is_sat_integer_window():
    assert INTEGERS.is_sat(And((X_GT_2, X_LT_5)))


def test_is_sat_example_guard_conjunction_unsat():
    p = And((Div(3), Not(Atom(0)), Div(5), Interval(0, 10)))
    assert not INTEGERS.is_sat(p)


def test_is_sat_matches_bruteforce_on_samples():
    samples = [
        TRUE,
        FALSE,
        Interval(-7, 12),
        And((Interval(-50, 50), Div(7))),
        And((Div(4), Div(6), Interval(0, 11))),
        Or((Atom(-3), And((Interval(5, 9), Div(11))))),
        And((Not(Interval(-100, 99)), Interval(-100, 100))),
        And((Interval(3, 3), Div(2))),
    ]
    for p in samples:
        assert INTEGERS.is_sat(p) == brute_is_sat(INTEGERS, p), p


def test_div_lcm_above_cap_fails_fast():
    p = And((Div(1000003), Interval(1, 1000002)))
    for decide in (
        INTEGERS.is_sat,
        INTEGERS.witness,
        lambda q: INTEGERS.has_min_size(q, 1),
        lambda q: INTEGERS.size(q, 1),
        lambda q: INTEGERS.minterms([q]),
    ):
        with pytest.raises(AlgebraError):
            decide(p)
    assert not INTEGERS.is_sat(And((Div(1 << 16), Interval(1, (1 << 16) - 1))))
    # the period is found in the walk that checks the predicate
    assert INTEGERS.check(And((Div(4), Not(Div(6))))) == 12
    assert INTEGERS.check(TRUE) == 1


# ---------------------------------------------------------------------------
# has_min_size


def test_has_min_size_singleton():
    assert INTEGERS.has_min_size(Atom(0), 1)
    assert not INTEGERS.has_min_size(Atom(0), 2)


def test_has_min_size_three_multiples_of_five():
    p = And((Interval(0, 10), Div(5)))
    assert INTEGERS.has_min_size(p, 3)
    assert not INTEGERS.has_min_size(p, 4)


def test_has_min_size_full_unicode_domain():
    assert UNICODE.has_min_size(TRUE, MAX_CODEPOINT + 1)
    assert not UNICODE.has_min_size(TRUE, MAX_CODEPOINT + 2)


def test_has_min_size_matches_bruteforce_on_bounded_fragment():
    samples = [
        Interval(-3, 3),
        And((Interval(-30, 30), Div(4))),
        Or((Atom(1), Atom(1), Atom(2))),
        And((Interval(0, 20), Not(Div(2)))),
    ]
    for p in samples:
        n = brute_count(INTEGERS, p)
        assert INTEGERS.has_min_size(p, n)
        assert not INTEGERS.has_min_size(p, n + 1)
        assert INTEGERS.size(p, n + 1) == n


# ---------------------------------------------------------------------------
# witness


def test_witness_exhausted_set():
    p = And((Div(3), Interval(0, 10)))
    assert INTEGERS.witness(p, {0, 3, 6, 9}) is None


def test_witness_least_element():
    assert INTEGERS.witness(TRUE) == 0
    assert UNICODE.witness(TRUE) == 0


def test_witness_skips_exclusions():
    assert INTEGERS.witness(And((X_GT_2, X_LT_5)), {3}) == 4


def test_witness_unbounded_below_is_deterministic():
    p = Not(Interval(0, 10))
    w1 = INTEGERS.witness(p)
    w2 = INTEGERS.witness(p)
    assert w1 == w2 == 11  # canonical order prefers non-negative elements
    neg = And((Interval(None, -1), Div(4)))
    assert INTEGERS.witness(neg) == -4  # greatest negative when forced below 0


def test_witness_of_unbounded_predicates_is_an_int():
    assert INTEGERS.witness(Interval(None, -3)) == -3
    assert UNICODE.witness(Not(Interval(0, 0x10FFFE))) == 0x10FFFF
    unbounded = [
        Interval(None, None),
        Interval(None, -3),
        Interval(5, None),
        Not(Interval(-5, 5)),
        And((Interval(None, -1), Div(4))),
        Interval(10**400, None),
        Interval(None, -(10**400)),
        Not(Interval(-(10**400), None)),
    ]
    for p in unbounded:
        assert type(INTEGERS.witness(p)) is int, p
        assert type(INTEGERS.witness(p, {0, -1, 5, -4})) is int, p
        # an end beyond float range meets the infinite one without overflow
        assert INTEGERS.is_sat(p) and INTEGERS.has_min_size(p, 3), p


def test_witness_member_of_denotation():
    p = And((Interval(-40, 40), Div(7), Not(Atom(0))))
    w = INTEGERS.witness(p)
    assert w is not None and denotes(INTEGERS, p, w)


# ---------------------------------------------------------------------------
# minterms


def test_minterms_of_window_pair():
    mts = INTEGERS.minterms([X_GT_2, X_LT_5])
    assert len(mts) == 3
    bitsets = {m.bits for m in mts}
    assert bitsets == {(1, 1), (0, 1), (1, 0)}


def test_minterms_empty_set_is_top():
    mts = INTEGERS.minterms([])
    assert len(mts) == 1
    only = mts.minterms[0]
    assert mts.sources == () and only.bits == ()
    assert denotes(INTEGERS, only.conjunction, 42)


def test_minterms_of_example_predicate_set_match_bruteforce():
    mts = INTEGERS.minterms(EXAMPLE_PREDS)
    got = {m.bits for m in mts}
    expected = brute_minterm_bits(INTEGERS, EXAMPLE_PREDS)
    assert got == expected
    assert len(got) < 16  # some sign patterns are unsatisfiable


def test_minterms_partition_the_domain():
    mts = INTEGERS.minterms(EXAMPLE_PREDS)
    for a in list(range(-25, 26)) + [123, -999, 10**9]:
        holds = [m for m in mts if denotes(INTEGERS, m.conjunction, a)]
        assert len(holds) == 1, a


def test_minterms_pairwise_disjoint():
    mts = INTEGERS.minterms(EXAMPLE_PREDS)
    ms = list(mts)
    for i in range(len(ms)):
        for j in range(i + 1, len(ms)):
            assert not INTEGERS.is_sat(And((ms[i].conjunction, ms[j].conjunction)))


# ---------------------------------------------------------------------------
# property tests over the bounded integer fragment

bounded_ints = st.integers(min_value=-40, max_value=40)


@st.composite
def bounded_predicates(draw, depth=3):
    # finite ends and atoms lie in [-40, 40]
    if depth == 0:
        choice = draw(st.integers(min_value=0, max_value=6))
        if choice == 0:
            return TRUE
        if choice == 1:
            return FALSE
        if choice == 2:
            a = draw(bounded_ints)
            b = draw(bounded_ints)
            return Interval(min(a, b), max(a, b))
        if choice == 3:
            return Div(draw(st.integers(min_value=1, max_value=9)))
        if choice == 4:
            return Interval(draw(bounded_ints), None)
        if choice == 5:
            return Interval(None, draw(bounded_ints))
        return Atom(draw(bounded_ints))
    # the last choice stays off shallow draws, which minterm tests combine
    # at a cost linear in the lcm of all their moduli
    choice = draw(st.integers(min_value=0, max_value=4 if depth >= 2 else 3))
    if choice == 0:
        return draw(bounded_predicates(depth=0))
    if choice == 4:
        # several div leaves under a negated interval around 0: once their
        # lcm passes 100, every member lies beyond [-100, 100]
        moduli = draw(
            st.lists(st.integers(min_value=2, max_value=9), min_size=2, max_size=4)
        )
        lo = draw(st.integers(min_value=-40, max_value=0))
        hi = draw(st.integers(min_value=0, max_value=40))
        return And(tuple(Div(k) for k in moduli) + (Not(Interval(lo, hi)),))
    if choice == 1:
        return Not(draw(bounded_predicates(depth=depth - 1)))
    args = (
        draw(bounded_predicates(depth=depth - 1)),
        draw(bounded_predicates(depth=depth - 1)),
    )
    return And(args) if choice == 2 else Or(args)


@given(bounded_predicates(), bounded_predicates(), bounded_ints)
@settings(max_examples=150, deadline=None)
def test_connectives_agree_with_set_operations(p, q, a):
    assert denotes(INTEGERS, And((p, q)), a) == (
        denotes(INTEGERS, p, a) and denotes(INTEGERS, q, a)
    )
    assert denotes(INTEGERS, Or((p, q)), a) == (
        denotes(INTEGERS, p, a) or denotes(INTEGERS, q, a)
    )
    assert denotes(INTEGERS, Not(p), a) != denotes(INTEGERS, p, a)


def div_lcm(p):
    if isinstance(p, Div):
        return p.k
    if isinstance(p, Not):
        return div_lcm(p.arg)
    if isinstance(p, (And, Or)):
        return math.lcm(*(div_lcm(q) for q in p.args))
    return 1


def exact_window(p):
    """Integers on which a bounded predicate shows its whole denotation.

    Outside [-40, 40] every finite end and atom is passed, so membership
    there depends only on the residue modulo the lcm L of the div moduli:
    one period on each side, [-40 - L, 40 + L], meets every residue class
    that the denotation holds beyond [-40, 40].
    """
    L = div_lcm(p)
    return range(-40 - L, 41 + L)


@given(bounded_predicates())
@example(And((And((Div(7), Div(8))), And((Div(9), Not(Interval(-40, 40)))))))  # only +-504
@settings(max_examples=150, deadline=None)
def test_is_sat_agrees_with_bruteforce(p):
    assert INTEGERS.is_sat(p) == brute_is_sat(INTEGERS, p, exact_window(p))


@given(bounded_predicates(), st.integers(min_value=0, max_value=12))
@settings(max_examples=150, deadline=None)
def test_has_min_size_agrees_with_bruteforce(p, k):
    bounded = And((p, Interval(-100, 100)))
    assert INTEGERS.has_min_size(bounded, k) == (brute_count(INTEGERS, bounded) >= k)
    assert INTEGERS.size(bounded, k) == min(brute_count(INTEGERS, bounded), k)


@given(bounded_predicates(), st.sets(bounded_ints, max_size=5))
@settings(max_examples=150, deadline=None)
def test_witness_is_deterministic_and_valid(p, excluded):
    w1 = INTEGERS.witness(p, excluded)
    w2 = INTEGERS.witness(p, excluded)
    assert w1 == w2
    if w1 is not None:
        assert denotes(INTEGERS, p, w1)
        assert w1 not in excluded


@given(bounded_predicates(), st.sets(bounded_ints, max_size=3))
@settings(max_examples=100, deadline=None)
def test_witness_is_least_in_canonical_order(p, excluded):
    # the least non-negative and the greatest negative member both lie in
    # the exact window when they exist, so its least member is the witness
    members = [a for a in enum_denotation(INTEGERS, p, exact_window(p)) if a not in excluded]
    expected = min(members, key=lambda a: (a < 0, abs(a)), default=None)
    assert INTEGERS.witness(p, excluded) == expected


@given(st.lists(bounded_predicates(depth=1), min_size=0, max_size=4), bounded_ints)
@settings(max_examples=100, deadline=None)
def test_minterm_partition_property(preds, a):
    mts = INTEGERS.minterms(preds)
    holds = [m for m in mts if denotes(INTEGERS, m.conjunction, a)]
    assert len(holds) == 1


@given(
    st.lists(st.one_of(bounded_predicates(depth=1), st.builds(Div, st.integers(2, 9))), max_size=4)
)
@example([Div(4096), Interval(0, 30), Atom(7), Not(Div(2)), Interval(None, -5)])
@example([Div(6), Atom(4), Div(4), Atom(9)])
@settings(max_examples=100, deadline=None)
def test_minterm_basis_is_exact_and_ordered(preds):
    # every bit vector inhabited in the exact window of all the sources,
    # none other, listed with 1 before 0 at each position
    sources = tuple(dict.fromkeys(preds))
    mts = INTEGERS.minterms(preds)
    assert mts.sources == sources
    window = exact_window(conj(sources))
    expected = sorted(brute_minterm_bits(INTEGERS, sources, window), reverse=True)
    assert [m.bits for m in mts] == expected
    for m in mts:
        assert m.conjunction == conj([q if b else Not(q) for q, b in zip(sources, m.bits)])


def random_sources(rng):
    """Three to five sources drawn from div tests, atoms, bounded,
    unbounded and negated intervals."""
    def one():
        lo, hi = sorted(rng.sample(range(-30, 31), 2))
        return rng.choice([
            Div(rng.choice([2, 3, 4, 6, 12])),
            Atom(rng.randint(-20, 20)),
            Interval(lo, hi),
            Interval(lo, None),
            Interval(None, hi),
            Not(Interval(lo, hi)),
            And((Div(rng.choice([2, 5])), Interval(lo, None))),
        ])
    return [one() for _ in range(rng.randint(3, 5))]


def test_minterms_keep_cells_that_count_and_witness_as_their_conjunctions_do():
    # `size` and `witness` on the conjunction are the reference; the
    # kept cells answer the same at every cap and with members excluded
    for seed in range(40):
        mts = INTEGERS.minterms(random_sources(random.Random(seed)))
        for m in mts:
            for cap in range(5):
                assert m.size(cap) == INTEGERS.size(m.conjunction, cap), (seed, m, cap)
            excluded = [10**6]
            for _ in range(3):
                w = INTEGERS.witness(m, excluded)
                assert w == INTEGERS.witness(m.conjunction, excluded), (seed, m, excluded)
                if w is None:
                    break
                excluded.append(w)
        for a in range(-40, 41):
            holds = [m for m in mts if denotes(INTEGERS, m.conjunction, a)]
            assert holds == [minterm_of(INTEGERS, mts, a)], (seed, a)


def test_inside_table_lists_the_minterms_whose_bit_is_set():
    for seed in range(40):
        mts = INTEGERS.minterms(random_sources(random.Random(seed)))
        assert list(mts.inside) == list(mts.sources)
        for j, q in enumerate(mts.sources):
            assert mts.inside[q] == tuple(i for i, m in enumerate(mts) if m.bits[j])


def test_kept_cells_are_neither_compared_nor_shown():
    a, b = INTEGERS.minterms([Div(2)]), INTEGERS.minterms([Div(2), Div(2)])
    assert a == b and hash(a.minterms) == hash(b.minterms)
    m = a.minterms[0]
    assert m.cells and "cells" not in repr(m) and "inside" not in repr(a)


def test_minterm_of_refuses_an_element_outside_the_domain():
    mts = UNICODE.minterms([Interval(0, 10)])
    for a in (-1, MAX_CODEPOINT + 1, True, "x"):
        with pytest.raises(AlgebraError, match="is not an element of the unicode domain"):
            minterm_of(UNICODE, mts, a)


# ---------------------------------------------------------------------------
# concrete syntax


@pytest.mark.parametrize(
    "text",
    [
        "true",
        "false",
        "[0-10]",
        "[-5-inf]",
        "div 3",
        "atom -7",
        "!([0-10])",
        "(div 3 & !(atom 0))",
        "(([0-10] & div 5) | atom 12)",
        "(div 2 & [-inf-9] & !(atom 0))",
        "((div 2 | div 3) | atom 0)",  # left-nested pairs, as older files hold
    ],
)
def test_integer_syntax_round_trip(text):
    p = INTEGERS.parse(text)
    assert INTEGERS.show(p) == text
    assert INTEGERS.parse(INTEGERS.show(p)) == p


@pytest.mark.parametrize(
    "text",
    [
        "['a'-'z']",
        "[U+0000-U+10FFFF]",
        "atom 'x'",
        "atom U+000A",
        "(['0'-'9'] | atom ' ')",
        "!(atom U+0027)",
    ],
)
def test_unicode_syntax_round_trip(text):
    p = UNICODE.parse(text)
    assert UNICODE.show(p) == text
    assert UNICODE.parse(UNICODE.show(p)) == p


def test_parse_errors_report_position():
    with pytest.raises(AlgebraError):
        INTEGERS.parse("[0-")
    with pytest.raises(AlgebraError):
        INTEGERS.parse("(true &)")
    with pytest.raises(AlgebraError):
        INTEGERS.parse("true false")
    with pytest.raises(AlgebraError):
        UNICODE.parse("div 3")
    # one run of a connective never mixes & and |
    with pytest.raises(AlgebraError):
        INTEGERS.parse("(div 2 & div 3 | atom 0)")
    with pytest.raises(AlgebraError):
        INTEGERS.parse("(div 2 | div 3 & atom 0)")
    # an integer longer than int() converts is an error at its position
    long = "1" * 5000
    for text, position in [
        ("atom " + long, 5), ("div " + long, 4), ("[0-" + long + "]", 3), ("[-" + long + "-0]", 1),
    ]:
        with pytest.raises(AlgebraError, match=f"at position {position}$"):
            INTEGERS.parse(text)


def test_deep_nesting_is_an_algebra_error():
    with pytest.raises(AlgebraError):
        INTEGERS.parse("!(" * 2000 + "true" + ")" * 2000)


def test_algebra_by_name():
    assert algebra_by_name("int") is INTEGERS
    assert algebra_by_name("unicode") is UNICODE
    with pytest.raises(AlgebraError):
        algebra_by_name("rationals")
