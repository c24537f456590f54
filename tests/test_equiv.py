import random
import re

import pytest

from sra.algebra import Div, Interval, INTEGERS
from sra.boolean_ops import complete, union
from sra.core import SraError, make_sra, membership
from sra.equiv import correspondence_of, equivalent, includes, separating_word
from sra.normal import LazyNorm, is_deterministic, normalize
from sra import normal, regex as rx
from sra.single_valued import to_single_valued

from fixtures import (
    chain_family,
    digits_sfa,
    example3,
    family_chain,
    first_symbol_repeats,
    random_chain,
    random_equality_chain,
    random_pattern,
    random_sra,
    remark1,
    small_backref_pattern,
)
from oracles import brute_inclusion, brute_membership, words_up_to


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


def test_equivalent_to_own_translation_and_normalization():
    for S in (remark1(), example3(), digits_sfa()):
        T = to_single_valued(S)
        assert equivalent(S, T)
        assert equivalent(T, normalize(T))


def test_finals_condition_breaks_equivalence():
    S = remark1()
    assert not equivalent(S, strip_finals(S))


# ---------------------------------------------------------------------------
# includes / equivalent


def test_includes_reflexive():
    for S in (remark1(), weakened_remark1(), to_single_valued(example3()), digits_sfa()):
        assert includes(S, S) == (True, None)


def test_empty_language_below_complete_automata():
    E = example3()
    for S2 in (complete(to_single_valued(remark1())), complete(to_single_valued(E))):
        assert includes(E, S2) == (True, None)
    # example3's first move on an odd multiple of 3 has no match in the
    # weakening: a dead end, whose left side never accepts
    assert includes(E, weakened_remark1()) == (True, None)


def test_similarity_is_sound_for_bounded_inclusion():
    auts = [
        remark1(),
        weakened_remark1(),
        to_single_valued(example3()),
    ]
    words = list(words_up_to(range(0, 5), 3))
    lang = [{tuple(w) for w in words if membership(S, w)} for S in auts]
    for i, S1 in enumerate(auts):
        for j, S2 in enumerate(auts):
            check_includes(S1, complete(to_single_valued(S2)), lang[i], lang[j], (i, j))


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
    # only the right operand of includes must be deterministic
    N, D = first_symbol_repeats(), remark1()
    words = list(words_up_to(range(0, 4), 4))
    lang = [{tuple(w) for w in words if brute_membership(S, w)} for S in (N, D)]
    assert not check_includes(N, D, *lang, "N, D")
    with pytest.raises(SraError, match="right operand must be deterministic"):
        includes(D, N)
    for decide in (equivalent, separating_word):
        for S1, S2 in ((N, D), (D, N)):
            with pytest.raises(SraError, match="must be deterministic"):
                decide(S1, S2)


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


def check_includes(S1, S2, lang1, lang2, tag) -> bool:
    """includes(S1, S2) agrees with the languages cut to some words, and
    its separating word is in S1 and not in S2; returns its answer."""
    ok, word = includes(S1, S2)
    if ok:
        assert word is None, tag
        assert lang1 <= lang2, tag
    else:
        assert brute_membership(S1, word), tag
        assert not brute_membership(S2, word), tag
    return ok


def agree_with_brute_force(pool, words, seed):
    """includes, equivalent and separating_word on every ordered pair of
    the pool agree with the languages cut to words, and every separating
    word separates."""
    lang = [{w for w in words if brute_membership(S, list(w))} for S in pool]
    for i, S1 in enumerate(pool):
        for j, S2 in enumerate(pool):
            ok = check_includes(S1, S2, lang[i], lang[j], (seed, i, j))
            both = ok and includes(S2, S1)[0]
            assert equivalent(S1, S2) == both, (seed, i, j)
            if both:
                assert lang[i] == lang[j], (seed, i, j)
            word = separating_word(S1, S2)
            if both:
                assert word is None, (seed, i, j)
            else:
                assert brute_membership(S1, word) != brute_membership(S2, word), (seed, i, j)


def test_includes_and_equivalent_agree_with_bounded_brute_force():
    # seed 47 catches a double count of the values both sides hold, and
    # seed 50 a doubly-fresh cap cut to one side's registers; seeds 17
    # and 23 catch a coarse search that drops the classes of the right
    # side's uncorrelated values
    words = [tuple(w) for w in words_up_to(range(0, 4), 3)]
    for seed in (47, 50, 17, 23):
        agree_with_brute_force(deterministic_pool(seed, 14), words, seed)
    # equality-only chains take unread inputs fresh to both sides, and
    # keep a move's coincidences at a triple where a small minterm has
    # no such value: seed 5 catches a search that takes them fresh
    # anyway, seed 128 one that drops the move there.  At seed 11 the
    # most coarse failures go to the exact search, and seed 22 catches
    # an `equivalent` that confirms a coarse failure without checking
    # the minterms its path reads.  Every guard lies in [0,2] and no
    # chain has more than four moves, so these words are all of their
    # languages
    words = [tuple(w) for w in words_up_to(range(0, 3), 4)]
    for seed in (5, 60, 128, 11, 22):
        rng = random.Random(seed)
        agree_with_brute_force([random_equality_chain(rng) for _ in range(12)], words, seed)


def mixed_pool(seed):
    """Automata of which some are nondeterministic.  Unions of two
    equality-only chains are equality-only too, so against a chain they
    take unread inputs fresh to both sides."""
    rng = random.Random(seed)
    return (
        [random_sra(rng, 4, 3) for _ in range(6)]
        + [random_chain(rng) for _ in range(3)]
        + [union(random_equality_chain(rng), random_equality_chain(rng)) for _ in range(5)]
        + [random_equality_chain(rng) for _ in range(4)]
    )


def test_includes_with_nondeterministic_lefts_agrees_with_bounded_brute_force():
    # every word of an equality chain, and so of a union of two, lies
    # in 0..2 and has at most four symbols
    words = [tuple(w) for w in words_up_to(range(0, 4), 4)]
    nondeterministic = 0
    for seed in range(4):
        pool = mixed_pool(seed)
        lang = [{w for w in words if brute_membership(S, list(w))} for S in pool]
        rights = [j for j, S in enumerate(pool) if is_deterministic(S)]
        nondeterministic += len(pool) - len(rights)
        for i, S1 in enumerate(pool):
            for j in rights:
                check_includes(S1, pool[j], lang[i], lang[j], (seed, i, j))
    assert nondeterministic >= 10


def agree_with_the_exact_oracle(pairs, tag):
    """includes on each pair agrees with `oracles.brute_inclusion`, and
    a failing pair's word separates and is as short as the oracle's."""
    for i, (S1, S2) in enumerate(pairs):
        ok, word = includes(S1, S2)
        expected, shortest = brute_inclusion(S1, S2)
        assert ok == expected, (tag, i)
        if not ok:
            assert len(word) == len(shortest), (tag, i, word, shortest)
            assert brute_membership(S1, word) and not brute_membership(S2, word), (tag, i)


def test_includes_agrees_with_the_exact_oracle_on_random_pools():
    # the oracle has no bound on word length, and nondeterministic lefts
    # are taken too.  A double count of the values held by correlated
    # left and right registers fails at both seeds
    for seed in (47, 3):
        rng = random.Random(seed)
        rights = deterministic_pool(seed, 14) + [random_equality_chain(rng) for _ in range(12)]
        lefts = rights + [S for S in mixed_pool(seed) if not is_deterministic(S)]
        agree_with_the_exact_oracle([(S1, S2) for S1 in lefts for S2 in rights], seed)


def test_includes_agrees_with_the_exact_oracle_on_a_chain_panel():
    # 1-register chains of three moves over [0,2], some storing a value
    # fresh to their register, against every equality-only 2-register
    # chain of three moves over [0,2], in both orders.  A doubly-fresh
    # cap cut to the left side's registers misses the third value of
    # [0,2] that store-fresh-fresh takes against store-store-read, and
    # the double count of correlated registers fails here too
    lefts = [family_chain(1, m) for m in chain_family(1, (3,), ("read", "store", "fresh"))
             if all(g == 2 for *_, g in m)]
    rights = [family_chain(2, m) for m in chain_family(2, (3,)) if all(g == 2 for *_, g in m)]
    assert len(lefts) * len(rights) == 27 * 64
    agree_with_the_exact_oracle([(S1, S2) for S1 in lefts for S2 in rights], "1-2")
    agree_with_the_exact_oracle([(S2, S1) for S1 in lefts for S2 in rights], "2-1")


def regex_pairs_agree_with_re(patterns, texts, tag) -> int:
    """includes on every ordered pair of the patterns that compile, with
    a deterministic right operand, agrees with re.fullmatch(p, t,
    re.ASCII) on the texts, and its separating word is matched by the
    left pattern alone; where both operands are deterministic,
    equivalent agrees with includes both ways.  Returns the pairs
    checked."""
    compiled = []
    for pattern in patterns:
        try:
            S = rx.compile(pattern).sra
        except SraError:
            continue
        expected = re.compile(pattern, re.ASCII)
        lang = {t for t in texts if expected.fullmatch(t)}
        compiled.append((pattern, S, expected, lang, is_deterministic(S)))
    pairs = 0
    for p1, S1, re1, lang1, det1 in compiled:
        for p2, S2, re2, lang2, det2 in compiled:
            if not det2:
                continue
            pairs += 1
            ok, word = includes(S1, S2)
            if ok:
                assert lang1 <= lang2, (tag, p1, p2)
            else:
                text = "".join(map(chr, word))
                assert re1.fullmatch(text) and not re2.fullmatch(text), (tag, p1, p2, text)
            if det1:
                assert equivalent(S1, S2) == (ok and includes(S2, S1)[0]), (tag, p1, p2)
    return pairs


REGEX_TEXTS = ["".join(w) for w in words_up_to("ab-1", 5)]


def test_regex_pairs_agree_with_re():
    # differential testing against re (McKeeman 1998) on operands shaped
    # as compiled regexes: groups, stars around references and
    # nondeterministic lefts such as (.).*\1.  The second pool stores
    # three or four values of the two-element minterm [ab], so fresh
    # values run out at some triples and not at others
    rng = random.Random(1)
    pairs = regex_pairs_agree_with_re([random_pattern(rng) for _ in range(60)], REGEX_TEXTS, 1)
    pairs += regex_pairs_agree_with_re(
        [small_backref_pattern(rng) for _ in range(30)], REGEX_TEXTS, 1
    )
    assert pairs >= 1500


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


def test_projected_minterm_that_runs_out_keeps_that_moves_coincidences():
    # L stores two values of [0,1] and takes a third input, which must
    # repeat one of them: the search that takes every unread input fresh
    # to both sides finds no such value there, so at that triple it takes
    # the move's coincidences instead.  R stops after two inputs, so
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


def test_projected_minterm_has_fresh_values_again_once_a_register_is_overwritten():
    # L's third input repeats one of the two values of [0,1] it holds,
    # since none is fresh there; its fourth input, 5, overwrites r, so
    # its fifth may be fresh to both sides again.  R reads back its
    # second value at the end, so only a fifth input apart from the
    # second separates: the search takes the coincidence at one triple
    # and the fresh value at a later one
    g, h = Interval(0, 1), Interval(5, 5)
    L = make_sra(INTEGERS, ["r", "t"], ["0", "1", "2", "3", "4", "5"], "0", {}, ["5"], [
        ("0", g, (), (), ("r",), "1"),
        ("1", g, (), (), ("t",), "2"),
        ("2", g, (), (), (), "3"),
        ("3", h, (), (), ("r",), "4"),
        ("4", g, (), (), (), "5"),
    ])
    R = make_sra(INTEGERS, ["s", "u"], ["0", "1", "2", "3", "4", "5"], "0", {}, ["5"], [
        ("0", g, (), (), ("s",), "1"),
        ("1", g, (), (), ("u",), "2"),
        ("2", g, (), (), (), "3"),
        ("3", h, (), (), ("s",), "4"),
        ("4", g, ("u",), (), (), "5"),
    ])
    words = [tuple(w) for w in words_up_to((0, 1, 5), 5)]
    lang = [{w for w in words if brute_membership(S, list(w))} for S in (L, R)]
    assert not check_includes(L, R, *lang, "L, R")
    word = includes(L, R)[1]
    assert word[2] in word[:2] and word[4] != word[1]
    assert check_includes(R, L, *reversed(lang), "R, L")
    assert not equivalent(L, R) and not equivalent(R, L)
    word = separating_word(L, R)
    assert brute_membership(L, word) and not brute_membership(R, word)


def recorded_triples(monkeypatch, coarse_only=False) -> list:
    """The right keys of the triples that simulations expand from now
    on, dead ends aside, on the coarse view alone if coarse_only: each
    calls `LazyNorm.successor_index` once."""
    explored = []
    successor_index = LazyNorm.successor_index

    def record(ln, key):
        if ln.coarse or not coarse_only:
            explored.append(key)
        return successor_index(ln, key)

    monkeypatch.setattr(LazyNorm, "successor_index", record)
    return explored


def test_the_coarse_view_takes_no_coincidence_of_an_equality_only_pair(monkeypatch):
    # Pr-C4 runs out of fresh whitespace characters, and five groups of
    # [0-3] run out of fresh digits at the fifth.  The coarse view takes
    # every input the left side does not read as fresh to both sides, so
    # self-equivalence never splits on which stored values coincide: 60
    # and 24 triples, all coarse.  A coarse view that kept the
    # coincidences of a minterm without fresh values explored 742 and 80
    explored = recorded_triples(monkeypatch)
    digits = "([0-3])" * 5 + "-" + "".join("\\%d" % i for i in range(1, 6))
    for pattern, triples in ((rx.BENCHMARK_PATTERNS["Pr-C4"], 60), (digits, 24)):
        S = rx.compile(pattern).sra
        explored.clear()
        assert equivalent(S, S)
        assert len(explored) == triples, pattern


def test_nine_register_self_equivalence_searches_few_triples(monkeypatch):
    # the coarse triples of Pr-C9 and Pr-CL9 no longer grow with the set
    # partitions of their nine code registers; a coarse view that kept
    # every coincidental store in small minterms ran out of memory on
    # Pr-C9 and took minutes on Pr-CL9
    explored = recorded_triples(monkeypatch)
    for name, triples in (("Pr-C9", 80), ("Pr-CL9", 76)):
        S = rx.compile(rx.BENCHMARK_PATTERNS[name]).sra
        explored.clear()
        assert equivalent(S, S)
        assert len(explored) == triples, name


@pytest.mark.parametrize("k, length", [(4, 27), (6, 31), (9, 37)])
def test_lot_referenced_codes_are_not_included_in_plain_codes(k, length):
    # Pr-CLk repeats its lot character, which Pr-Ck does not ask for:
    # the shortest separating word keeps its length
    p1, p2 = rx.BENCHMARK_PATTERNS[f"Pr-CL{k}"], rx.BENCHMARK_PATTERNS[f"Pr-C{k}"]
    S1, S2 = rx.compile(p1).sra, rx.compile(p2).sra
    ok, word = includes(S1, S2)
    assert not ok and len(word) == length
    text = "".join(map(chr, word))
    assert membership(S1, word) and re.fullmatch(p1, text, re.ASCII)
    assert not membership(S2, word) and not re.fullmatch(p2, text, re.ASCII)


def test_an_operand_with_a_disequality_keeps_every_coincidence(monkeypatch):
    # R accepts x y with y != x.  Taken fresh to both sides, L's unread
    # second input would always differ from x, and x x would never be
    # tried: so neither direction takes a canonical fresh input when a
    # move excludes a register
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
    # on the coarse view too: three stores and then an input != s against
    # four stores keep the right values each unread input may equal, 19
    # coarse triples, where the equality-only twin, whose last input may
    # be anything, takes 5
    explored = recorded_triples(monkeypatch, coarse_only=True)
    L = make_sra(INTEGERS, ["r"], ["0", "1", "2", "3", "4"], "0", {}, ["4"], [
        (str(i), g, (), (), ("r",), str(i + 1)) for i in range(4)
    ])
    for I, triples in ((("s",), 19), ((), 5)):
        R = make_sra(INTEGERS, ["s", "t", "u"], ["0", "1", "2", "3", "4"], "0", {}, ["4"], [
            ("0", g, (), (), ("s",), "1"),
            ("1", g, (), (), ("t",), "2"),
            ("2", g, (), (), ("u",), "3"),
            ("3", g, (), I, (), "4"),
        ])
        explored.clear()
        assert includes(R, L) == (True, None)
        assert len(explored) == triples, I


def test_spurious_coarse_failures_fall_back_to_the_exact_search(monkeypatch):
    # the coarse view forgets which one-element minterm of [ab] a stored
    # value lies in, so its search fails in both orders; the exact search,
    # built only then, proves inclusion
    views = []

    class RecordingLazyNorm(LazyNorm):
        def __init__(self, *args):
            views.append("coarse" if args[2] else "exact")
            super().__init__(*args)

    monkeypatch.setattr("sra.equiv.LazyNorm", RecordingLazyNorm)
    A, B = rx.compile(r"([ab])\1").sra, rx.compile("aa|bb").sra
    for S1, S2 in ((A, B), (B, A)):
        views.clear()
        assert includes(S1, S2) == (True, None)
        assert views == ["coarse", "coarse", "exact", "exact"]
    assert equivalent(A, B) and separating_word(A, B) is None
    # a nondeterministic left operand's coarse failure may replay to a
    # separating word and still not walk with exact slot minterms: it
    # goes to the exact search too
    views.clear()
    assert includes(rx.compile(r"(.).*\1").sra, rx.compile(r"\d.+").sra) == (False, [0, 0])
    assert views == ["coarse", "coarse", "exact", "exact"]
    # Pr-CL2's coarse failure against Pr-C2 is spurious too, and the exact
    # search keeps its shortest word
    p1, p2 = rx.BENCHMARK_PATTERNS["Pr-CL2"], rx.BENCHMARK_PATTERNS["Pr-C2"]
    S1, S2 = rx.compile(p1).sra, rx.compile(p2).sra
    views.clear()
    ok, word = includes(S1, S2)
    assert not ok and len(word) == 23
    assert views == ["coarse", "coarse", "exact", "exact"]
    text = "".join(map(chr, word))
    assert membership(S1, word) and re.fullmatch(p1, text, re.ASCII)
    assert not membership(S2, word) and not re.fullmatch(p2, text, re.ASCII)


def test_coarse_search_forgets_which_literal_minterm_a_code_character_lies_in(monkeypatch):
    # Pr-C2 stores two code characters that its literals split into many
    # one-element minterms; the exact search keeps 1,088 triples per
    # direction apart by them, and the coarse search 26.  It was 48 while
    # the coarse view kept the coincidences of those one-element minterms
    explored = recorded_triples(monkeypatch)
    S = rx.compile(rx.BENCHMARK_PATTERNS["Pr-C2"]).sra
    assert equivalent(S, S)
    assert len(explored) == 2 * 26


def test_the_exact_view_reads_each_bases_rows_off_the_coarse_view(monkeypatch):
    # Pr-CL2 ⊄ Pr-C2 fails on the coarse view, unconfirmed, and then on
    # the exact one; both views ask `slot_moves` for a base only once.
    # That is 28 bases.  It was 29 while the coarse search took the
    # coincidences of one-element minterms, and so reached the right base
    # where Pr-C2's two code registers share one slot
    calls = []
    slot_moves = normal.slot_moves
    monkeypatch.setattr(
        normal, "slot_moves", lambda S, *base: calls.append(base) or slot_moves(S, *base)
    )
    left = rx.compile(rx.BENCHMARK_PATTERNS["Pr-CL2"]).sra
    right = rx.compile(rx.BENCHMARK_PATTERNS["Pr-C2"]).sra
    assert includes(left, right)[0] is False
    assert len(calls) == 28
