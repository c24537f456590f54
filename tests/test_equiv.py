import random

import pytest

from sra.algebra import Div, Interval, INTEGERS
from sra.boolean_ops import complete, union
from sra.core import SraError, make_sra, membership
from sra.equiv import (
    correspondence_of,
    equivalent,
    includes,
    n_similar,
    separating_word,
)
from sra.normal import is_deterministic, normalize
from sra.single_valued import to_single_valued

from fixtures import (
    digits_sfa,
    example3,
    first_symbol_repeats,
    random_chain,
    random_equality_chain,
    random_sra,
    remark1,
)
from oracles import breadth_first_reach, brute_membership, words_up_to


def weakened_remark1():
    """Accepts every even word of length >= 1 (drops first=last)."""
    even = Div(2)
    return make_sra(
        INTEGERS,
        registers=["r"],
        states=["q0", "qf"],
        initial="q0",
        initial_valuation={"r": None},
        finals=["qf"],
        transitions=[
            ("q0", even, (), (), ("r",), "qf"),
            ("qf", even, (), (), (), "qf"),
        ],
    )


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


# ---------------------------------------------------------------------------
# correspondence_of


def test_correspondence_basic():
    # indexed by left register: the right partner, or -1 for none
    assert correspondence_of((None,), (None, None)) == (-1,)
    assert correspondence_of((5,), (None, 5)) == (1,)
    assert correspondence_of((5,), (7,)) == (-1,)
    assert correspondence_of((5, None, 7), (7, 5)) == (1, -1, 0)


def test_correspondence_rejects_non_injective():
    with pytest.raises(SraError):
        correspondence_of((5, 5), (None,))


# ---------------------------------------------------------------------------
# n_similar


def test_self_similarity():
    for S in (remark1(), to_single_valued(example3()), digits_sfa()):
        assert n_similar(S, S) == (True, None)


def test_empty_language_below_complete_automata():
    E = example3()
    for S2 in (complete(to_single_valued(remark1())), complete(to_single_valued(E))):
        assert n_similar(E, S2)[0]


def test_weakening_is_one_directional():
    S = remark1()
    W = weakened_remark1()
    assert n_similar(S, W) == (True, None)
    ok, trace = n_similar(W, S)
    assert not ok
    assert trace["path"][0][2] == ()  # seed carries the empty correspondence
    # W accepts where remark1 does not; example3's first move on an odd
    # multiple of 3 has no match in W, a dead end
    for left, right, reason in (
        (W, S, "left state qf accepts, right state qm does not"),
        (example3(), W, "no right move matches the left fresh input into r for guard ("),
    ):
        ok, trace = n_similar(left, right)
        assert not ok
        assert trace["reason"].startswith(reason)
        # every triple names a real right state: the dead end is not traced
        assert all(0 <= q2 < len(right.states) for _, q2, _ in trace["path"])


def test_equivalent_to_own_translation_and_normalization():
    for S in (remark1(), example3(), digits_sfa()):
        T = to_single_valued(S)
        assert equivalent(S, T)
        assert equivalent(T, normalize(T))


def test_finals_condition_breaks_equivalence():
    S = remark1()
    assert not equivalent(S, strip_finals(S))


def test_similarity_is_sound_for_bounded_inclusion():
    auts = [
        remark1(),
        weakened_remark1(),
        to_single_valued(example3()),
    ]
    for S1 in auts:
        for S2 in auts:
            ok, _ = n_similar(S1, complete(to_single_valued(S2)))
            if ok:
                for w in words_up_to(range(0, 5), 3):
                    assert not membership(S1, w) or membership(S2, w), (w, S1, S2)


# ---------------------------------------------------------------------------
# includes / equivalent


def test_includes_reflexive():
    for S in (remark1(), weakened_remark1(), digits_sfa()):
        assert includes(S, S) == (True, None)


def test_includes_of_weakening_and_separating_word():
    S = remark1()
    W = weakened_remark1()
    assert includes(S, W) == (True, None)
    ok, w = includes(W, S)
    assert not ok
    assert membership(W, w)
    assert not membership(S, w)


def test_includes_refuses_a_replayed_word_that_does_not_separate(monkeypatch):
    # the empty word is in neither operand
    monkeypatch.setattr("sra.equiv.replay", lambda *_: [])
    with pytest.raises(SraError, match="internal error"):
        includes(weakened_remark1(), remark1())
    with pytest.raises(SraError, match="internal error"):
        separating_word(remark1(), weakened_remark1())


def test_includes_rejects_nondeterministic_input():
    with pytest.raises(SraError):
        includes(first_symbol_repeats(), remark1())
    with pytest.raises(SraError):
        includes(remark1(), first_symbol_repeats())


def test_equivalence_checks():
    S = remark1()
    assert equivalent(S, S)
    assert not equivalent(S, weakened_remark1())
    empty = make_sra(INTEGERS, [], ["z"], "z", {}, [], [])
    assert equivalent(S, union(S, empty))


def deterministic_pool(seed, size):
    rng = random.Random(seed)
    pool = []
    while len(pool) < size:
        # chains reach inputs fresh to both sides within short words
        S = random_chain(rng) if rng.random() < 0.5 else random_sra(rng)
        if is_deterministic(S):
            pool.append(S)
    return pool


def agree_with_brute_force(pool, words, seed):
    """includes, equivalent and separating_word on every ordered pair of
    the pool agree with the languages cut to words, and every separating
    word separates."""
    lang = [{w for w in words if brute_membership(S, list(w))} for S in pool]
    for i, S1 in enumerate(pool):
        for j, S2 in enumerate(pool):
            ok, word = includes(S1, S2)
            if ok:
                assert word is None
                assert lang[i] <= lang[j], (seed, i, j)
            else:
                assert brute_membership(S1, word), (seed, i, j)
                assert not brute_membership(S2, word), (seed, i, j)
            both = ok and includes(S2, S1)[0]
            assert equivalent(S1, S2) == both, (seed, i, j)
            if both:
                assert lang[i] == lang[j], (seed, i, j)
            word = separating_word(S1, S2)
            if both:
                assert word is None, (seed, i, j)
            else:
                assert brute_membership(S1, word) != brute_membership(S2, word), (seed, i, j)


def test_similarity_traces_match_a_breadth_first_search(monkeypatch):
    pool = deterministic_pool(47, 14)
    pairs = [(S1, S2) for S1 in pool for S2 in pool]
    with monkeypatch.context() as m:
        m.setattr("sra.equiv.reach", breadth_first_reach)
        expected = [n_similar(S1, S2) for S1, S2 in pairs]
    assert [n_similar(S1, S2) for S1, S2 in pairs] == expected
    assert sum(not ok for ok, _ in expected) > 50


def test_includes_and_equivalent_agree_with_bounded_brute_force():
    # seed 47 catches a double count of the values both sides hold, and
    # seed 50 a doubly-fresh cap cut to one side's registers
    words = [tuple(w) for w in words_up_to(range(0, 4), 3)]
    for seed in (47, 50):
        agree_with_brute_force(deterministic_pool(seed, 14), words, seed)
    # equality-only chains take unread inputs fresh to both sides, and
    # restart where a small minterm runs out of such values: seed 5
    # catches a search that takes them fresh anyway, seed 128 one that
    # drops the move instead of restarting.  Every guard lies in [0,2]
    # and no chain has more than four moves, so these words are all of
    # their languages
    words = [tuple(w) for w in words_up_to(range(0, 3), 4)]
    for seed in (5, 60, 128):
        rng = random.Random(seed)
        agree_with_brute_force([random_equality_chain(rng) for _ in range(12)], words, seed)


def test_doubly_fresh_input_counts_shared_values_once():
    # after two symbols the left register and the right register t hold
    # the same value, s another one; a third value of [0,2] is fresh to
    # both sides, and it is the only way to tell the languages apart
    g = Interval(0, 2)
    L = make_sra(INTEGERS, ["r"], ["0", "1", "2", "3"], "0", {}, ["3"], [
        ("0", g, (), ("r",), ("r",), "1"),
        ("1", g, (), ("r",), ("r",), "2"),
        ("2", g, (), ("r",), ("r",), "3"),
    ])
    R = make_sra(INTEGERS, ["s", "t"], ["0", "1", "2", "3"], "0", {}, ["3"], [
        ("0", g, (), ("s", "t"), ("s",), "1"),
        ("1", g, (), ("s", "t"), ("t",), "2"),
        ("2", g, ("s",), (), (), "3"),
    ])
    ok, word = includes(L, R)
    assert not ok
    assert brute_membership(L, word) and not brute_membership(R, word)
    assert not equivalent(L, R)


def test_dead_end_replay_ignores_the_right_values():
    # after 5 6 the right side has no move, so the last input need not
    # avoid the 5 it stored: the only separating word repeats it
    L = make_sra(INTEGERS, [], ["0", "1", "2", "3"], "0", {}, ["3"], [
        ("0", Interval(5, 5), (), (), (), "1"),
        ("1", Interval(6, 6), (), (), (), "2"),
        ("2", Interval(5, 5), (), (), (), "3"),
    ])
    R = make_sra(INTEGERS, ["s"], ["0", "1"], "0", {}, ["1"], [
        ("0", Interval(5, 5), (), (), ("s",), "1"),
    ])
    assert includes(L, R) == (False, [5, 6, 5])
    assert brute_membership(L, [5, 6, 5]) and not brute_membership(R, [5, 6, 5])
    # the move into a dead end keeps its input class: R accepts x x
    # only, so a second input fresh to R separates, not the least value
    # 0 that R would read back
    g = Interval(0, 1)
    L = make_sra(INTEGERS, [], ["0", "1", "2"], "0", {}, ["2"], [
        ("0", g, (), (), (), "1"),
        ("1", g, (), (), (), "2"),
    ])
    R = make_sra(INTEGERS, ["s"], ["0", "1", "2"], "0", {}, ["2"], [
        ("0", g, (), (), ("s",), "1"),
        ("1", g, ("s",), (), (), "2"),
    ])
    assert includes(L, R) == (False, [0, 1])
    assert brute_membership(L, [0, 1]) and not brute_membership(R, [0, 1])


def test_projected_minterm_that_runs_out_restarts_the_search():
    # L stores two values of [0,1] and takes a third input, which must
    # repeat one of them: the search that takes every unread input fresh
    # to both sides finds no such value there, drops [0,1] from its
    # projected minterms and starts over.  R stops after two inputs, so
    # every word of L separates, but only through that coincidence.
    # Shrunk from the chain pair (10, 11) of seed 128
    g = Interval(0, 1)
    L = make_sra(INTEGERS, ["r", "t"], ["0", "1", "2", "3"], "0", {}, ["3"], [
        ("0", g, (), (), ("r",), "1"),
        ("1", g, (), (), ("t",), "2"),
        ("2", g, (), (), (), "3"),
    ])
    R = make_sra(INTEGERS, [], ["0", "1", "2"], "0", {}, ["2"], [
        ("0", g, (), (), (), "1"),
        ("1", g, (), (), (), "2"),
    ])
    ok, word = includes(L, R)
    assert not ok
    assert len(word) == 3
    assert brute_membership(L, word) and not brute_membership(R, word)
    assert not equivalent(L, R)
    assert not equivalent(R, L)


def test_an_operand_with_a_disequality_keeps_every_coincidence():
    # R accepts x y with y != x.  Taken fresh to both sides, L's unread
    # second input would always differ from x, and x x would never be
    # tried: so neither direction projects when a move excludes a register
    g = Interval(0, 2)
    L = make_sra(INTEGERS, [], ["0", "1", "2"], "0", {}, ["2"], [
        ("0", g, (), (), (), "1"),
        ("1", g, (), (), (), "2"),
    ])
    R = make_sra(INTEGERS, ["t"], ["0", "1", "2"], "0", {}, ["2"], [
        ("0", g, (), (), ("t",), "1"),
        ("1", g, (), ("t",), (), "2"),
    ])
    ok, word = includes(L, R)
    assert not ok
    assert word[0] == word[1]
    assert brute_membership(L, word) and not brute_membership(R, word)
    assert includes(R, L) == (True, None)
    assert not equivalent(L, R)
    assert not equivalent(R, L)
