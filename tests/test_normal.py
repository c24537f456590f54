import random

import pytest

from sra import regex as rx
from sra.algebra import Algebra, And, Atom, Div, Interval, Not, Or, TRUE, INTEGERS
from sra.core import Label, make_sra, membership
from sra import normal
from sra.normal import (
    LazyNorm,
    final_distances,
    is_deterministic,
    is_empty,
    minterm_basis,
    normalize,
    path,
    reach,
)
from sra.core import SraError
from sra.equiv import equivalent, includes
from sra.single_valued import to_single_valued

from fixtures import (
    digits_sfa,
    example3,
    first_symbol_repeats,
    random_chain,
    random_sra,
    remark1,
    remark1_oracle,
    shared_labels,
)
from oracles import breadth_first_reach, brute_membership, denotes, minterm_of, words_up_to


OUTSIDE = Or((Interval(None, -1), Interval(11, None)))


def empty_language_with_loop():
    """Single-valued variant of the empty-language fixture.

    State 1 keeps consuming the stored value while it is outside [0,10];
    the exit to state 2 wants it in [0,10] and divisible by 5, which no
    reachable register content satisfies.
    """
    g1 = And((Div(3), Not(Atom(0))))
    g2 = And((Interval(0, 10), Div(5)))
    return make_sra(
        INTEGERS,
        registers=["r"],
        states=["0", "1", "2"],
        initial="0",
        initial_valuation={"r": None},
        finals=["2"],
        transitions=[
            ("0", g1, (), ("r",), ("r",), "1"),
            ("1", OUTSIDE, ("r",), (), (), "1"),
            ("1", g2, ("r",), (), (), "2"),
        ],
    )


def sv_fixtures():
    return [
        to_single_valued(example3()),
        to_single_valued(remark1()),
        to_single_valued(first_symbol_repeats()),
        empty_language_with_loop(),
    ]


# ---------------------------------------------------------------------------
# minterm_basis


def test_basis_of_two_overlapping_guards():
    mts = minterm_basis(to_single_valued(example3()))
    # div3-nonzero and [0,10]-div5 share no point, so only the all-negative
    # and the two single-positive assignments survive
    assert len(mts.sources) == 2
    assert sorted(m.bits for m in mts) == [(0, 0), (0, 1), (1, 0)]


def test_basis_of_top_guard_only():
    S = make_sra(INTEGERS, [], ["p"], "p", {}, ["p"], [("p", TRUE, (), (), (), "p")])
    mts = minterm_basis(S)
    assert len(mts) == 1
    assert INTEGERS.is_sat(next(iter(mts)).conjunction)


def test_basis_includes_initial_value_atoms():
    S = make_sra(
        INTEGERS,
        ["r"],
        ["p"],
        "p",
        {"r": 5},
        [],
        [("p", TRUE, ("r",), (), (), "p")],
    )
    mts = minterm_basis(S)
    assert Atom(5) in mts.sources
    assert len(mts) == 2  # the point 5 and everything else


def test_pair_basis_refines_each_single_basis():
    S1 = to_single_valued(example3())
    S2 = to_single_valued(remark1())
    joint = minterm_basis(S1, S2)
    sample = range(-20, 21)
    for single in (minterm_basis(S1), minterm_basis(S2)):
        for a in sample:
            coarse = minterm_of(INTEGERS, single, a)
            fine = minterm_of(INTEGERS, joint, a)
            for b in sample:
                if denotes(INTEGERS, fine.conjunction, b):
                    assert denotes(INTEGERS, coarse.conjunction, b)


# the partner pairs of the stock benchmarks
STOCK_PAIRS = [(f"Pr-CL{k}", f"Pr-C{k}") for k in (2, 3, 4, 6, 9)] + [
    ("IP2", "IP3"), ("IP4", "IP6"), ("IP6", "IP9"), ("Name-F", "Name"), ("Name-L", "Name"),
]


def test_stock_pair_bases_count_their_minterms_as_their_conjunctions_do():
    stock = {name: rx.compile(p).sra for name, p in rx.BENCHMARK_PATTERNS.items()}
    for a, b in STOCK_PAIRS:
        S1, S2 = stock[a], stock[b]
        basis = minterm_basis(S1, S2)
        for m in basis:
            for cap in range(5):
                assert m.size(cap) == S1.algebra.size(m.conjunction, cap), (a, b, m, cap)
        ln = LazyNorm(S1, basis)
        assert ln.inside is basis.inside
        assert ln.sizes == [S1.algebra.size(m.conjunction, len(S1.registers) + 1) for m in basis]


def test_decisions_decompose_no_minterm_conjunction_again(monkeypatch):
    # sizes and replayed inputs are read off the cells each minterm keeps
    # from `Algebra.minterms`
    conjunctions, decomposed = set(), []
    minterms, size, cells = Algebra.minterms, Algebra.size, Algebra._cells

    def recording_minterms(self, predicates):
        basis = minterms(self, predicates)
        conjunctions.update(m.conjunction for m in basis)
        return basis

    def recording_size(self, p, cap):
        if p in conjunctions:
            decomposed.append(p)
        return size(self, p, cap)

    def recording_cells(self, p):
        if p in conjunctions:
            decomposed.append(p)
        return cells(self, p)

    monkeypatch.setattr(Algebra, "minterms", recording_minterms)
    monkeypatch.setattr(Algebra, "size", recording_size)
    monkeypatch.setattr(Algebra, "_cells", recording_cells)
    stock = {name: rx.compile(p).sra for name, p in rx.BENCHMARK_PATTERNS.items()}
    assert equivalent(stock["Pr-C2"], stock["Pr-C2"])
    assert not is_empty(stock["IP4"])[0]
    assert not includes(stock["Pr-CL2"], stock["Pr-C2"])[0]
    assert conjunctions and decomposed == []


def test_basis_rejects_mixed_algebras():
    with pytest.raises(SraError):
        minterm_basis(to_single_valued(example3()), digits_sfa())


# ---------------------------------------------------------------------------
# enabled


def enabled(ln, theta, kind, i) -> bool:
    """Can a read/fresh transition guarded by minterm i fire under theta,
    whose slots hold sets of minterm indices?"""
    op, r = kind
    if op == "read":
        return i in theta[r]
    if op == "fresh":
        guard = ln.basis.minterms[i].conjunction
        return ln.algebra.has_min_size(guard, sum(i in held for held in theta) + 1)
    raise SraError(f"not a read/fresh label kind: {kind!r}")


def test_enabled_read_requires_matching_abstraction():
    ln = LazyNorm(empty_language_with_loop())
    assert enabled(ln, (frozenset({0}),), ("read", 0), 0)
    assert not enabled(ln, (frozenset({1}),), ("read", 0), 0)
    assert not enabled(ln, (frozenset(),), ("read", 0), 0)


def test_enabled_fresh_counts_occupied_values():
    S = make_sra(
        INTEGERS,
        ["r"],
        ["p"],
        "p",
        {},
        [],
        [("p", Atom(7), (), ("r",), ("r",), "p")],
    )
    ln = LazyNorm(S)
    j = ln.basis.sources.index(Atom(7))
    point = next(i for i, m in enumerate(ln.basis) if m.bits[j])
    assert enabled(ln, (frozenset(),), ("fresh", 0), point)
    # the only element of the guard is already held by a register
    assert not enabled(ln, (frozenset({point}),), ("fresh", 0), point)


# ---------------------------------------------------------------------------
# normalize


def base_of(name):
    return name.split("|")[0]


def test_normalize_drops_unreachable_exit_and_splits_state():
    N = normalize(empty_language_with_loop())
    bases = [base_of(s) for s in N.states]
    # the stored value is either inside or outside [0,10]: two copies of 1
    assert bases.count("1") == 2
    assert "2" not in bases
    assert N.finals == frozenset()


def test_normalize_register_free_same_language():
    S = digits_sfa()
    N = normalize(S)
    assert N.registers == ()
    rng = random.Random(2)
    pool = [ord("0"), ord("5"), ord("9"), ord("a")]
    for _ in range(40):
        w = [rng.choice(pool) for _ in range(rng.randint(0, 4))]
        assert membership(N, w) == membership(S, w)


def test_normalize_preserves_membership_exhaustively():
    for S in sv_fixtures() + [example3(), remark1(), first_symbol_repeats()]:
        N = normalize(S)
        for w in words_up_to(range(0, 5), 3):
            assert membership(N, w) == membership(S, w), w


def test_normalize_state_and_transition_bounds():
    for S in sv_fixtures():
        N = normalize(S)
        n, r = len(S.states), len(S.registers)
        m = len(minterm_basis(S))
        assert len(N.states) <= n * (m + 1) ** max(r, 1)
        assert len(N.transitions) <= len(S.transitions) * m * (m + 1) ** max(r, 1)


@pytest.mark.parametrize("name, states", [("Pr-C2", 1132), ("Pr-C3", 8962)])
def test_normalized_state_counts_of_stock_patterns(name, states):
    # one slot per register, so an input stored nowhere adds no slot for
    # the abstraction to track; normalizing on the fly and normalizing
    # the materialized translation give the same count
    S = rx.compile(rx.BENCHMARK_PATTERNS[name]).sra
    T = to_single_valued(S)
    assert len(T.registers) == len(S.registers)
    assert len(normalize(S).states) == states
    assert len(normalize(T).states) == states


@pytest.mark.parametrize("name, states, transitions", [("Pr-C2", 48, 119), ("IP4", 543, 1818)])
def test_translation_sizes_of_stock_patterns(name, states, transitions):
    T = to_single_valued(rx.compile(rx.BENCHMARK_PATTERNS[name]).sra)
    assert (len(T.states), len(T.transitions)) == (states, transitions)


def test_normalization_builds_one_label_per_minterm_kind_and_slot():
    N = normalize(to_single_valued(rx.compile(rx.BENCHMARK_PATTERNS["Pr-CL3"]).sra))
    assert len(N.transitions) == 15232
    assert shared_labels(N) == 48


def test_single_valued_input_keeps_identity_slot_map():
    # every base of a single-valued input pairs a state with the
    # identity map, so its normalized graph is over its own states
    for S in sv_fixtures():
        identity = tuple(range(len(S.registers)))
        assert all(f == identity for (_, f), _ in reach(LazyNorm(S))[0])


def test_every_constructed_transition_is_enabled_at_source():
    for S in sv_fixtures():
        ln = LazyNorm(S)
        assert LazyNorm(S, coarse=True).initial == ln.initial
        seen = {ln.initial}
        stack = [ln.initial]
        while stack:
            key = stack.pop()
            # the exact view knows each slot's minterm, or that it is empty
            assert all(len(held) <= 1 for held in key[1])
            for i, op, r, _, key2 in ln.successors(key):
                assert enabled(ln, key[1], (op, r), i)
                if key2 not in seen:
                    seen.add(key2)
                    stack.append(key2)


def test_read_guards_per_register_are_unique_at_each_state():
    for S in sv_fixtures():
        N = normalize(S)
        guards = {}
        for src, lab, _ in N.transitions:
            if lab.E:
                (r,) = lab.E
                guards.setdefault((src, r), set()).add(lab.guard)
        for gs in guards.values():
            assert len(gs) == 1


# ---------------------------------------------------------------------------
# is_empty


def test_emptiness_of_unsatisfiable_exit():
    assert is_empty(example3()) == (True, None)
    assert is_empty(empty_language_with_loop()) == (True, None)


def test_mutated_exit_guard_is_reachable():
    S = example3(final_guard=And((Interval(0, 10), Div(3))))
    empty, w = is_empty(S)
    assert not empty
    assert membership(S, w)


def test_initial_final_state_gives_empty_witness():
    S = make_sra(INTEGERS, [], ["p"], "p", {}, ["p"], [])
    assert is_empty(S) == (False, [])


def test_nonempty_witness_is_accepted():
    for S in (remark1(), first_symbol_repeats()):
        empty, w = is_empty(S)
        assert not empty
        assert membership(S, w)
    assert remark1_oracle(is_empty(remark1())[1])


def test_emptiness_agrees_with_brute_force_on_random_automata():
    rng = random.Random(31)
    for _ in range(40):
        S = random_sra(rng)
        empty, w = is_empty(S)
        found = any(brute_membership(S, list(u)) for u in words_up_to(range(0, 4), 3))
        if found:
            assert not empty
        if not empty:
            assert membership(S, w)
        else:
            assert not found


def replay_by_witness(ln, valuations, steps):
    """`normal.replay`'s word, with one witness call per fresh step on the
    minterm with every held value excluded."""
    vs = [list(v) for v in valuations]
    word = []
    for m, sides, *_ in steps:
        live = [(v, side) for v, side in zip(vs, sides) if side is not None]
        reads = [v[r] for v, (op, r) in live if op == "read"]
        if reads:
            a = reads[0]
        else:
            excluded = [x for v, _ in live for x in v if x is not None]
            a = ln.algebra.witness(ln.basis.minterms[m].conjunction, excluded=excluded)
        for v, (op, r) in live:
            if op != "read" and r >= 0:
                v[r] = a
        word.append(a)
    return word


def test_replay_takes_the_least_free_members_as_a_witness_per_step_does(monkeypatch):
    # every stock emptiness witness, and the one path that each failing
    # inclusion between stock pairs replays, coarse or exact
    replayed = []
    replay = normal.replay

    def checked(ln, valuations, steps):
        word = replay(ln, valuations, steps)
        expected = replay_by_witness(ln, valuations, steps)
        assert word == expected
        replayed.append(word)
        return word

    monkeypatch.setattr("sra.normal.replay", checked)
    monkeypatch.setattr("sra.equiv.replay", checked)
    stock = {name: rx.compile(p).sra for name, p in rx.BENCHMARK_PATTERNS.items()}
    for S in stock.values():
        assert not is_empty(S)[0]
    pairs = [("Pr-CL2", "Pr-C2"), ("Pr-C3", "Pr-CL3"), ("IP3", "IP4"), ("Name-F", "Name-L"),
             ("XML", "Name")]
    for n1, n2 in pairs:
        for S1, S2 in ((stock[n1], stock[n2]), (stock[n2], stock[n1])):
            includes(S1, S2)
    rx1, rx2 = rx.compile(r"([ab])\1").sra, rx.compile("aa|bb").sra
    includes(rx1, rx2)
    # one replay per witness and per failing inclusion, 9 of the 10; the
    # inclusion that holds, and ([ab])\1 in aa|bb, replay nothing
    assert len(replayed) == 19 + 9


def test_replay_refuses_a_step_whose_minterm_has_no_member_left():
    # three fresh inputs of [0,1] taken apart: the third has no member
    # left, which no path that the searches replay asks for
    g = Interval(0, 1)
    S = make_sra(INTEGERS, ["r", "t"], ["0", "1", "2", "3"], "0", {}, ["3"], [
        ("0", g, (), ("r", "t"), ("r",), "1"),
        ("1", g, (), ("r", "t"), ("t",), "2"),
        ("2", g, (), ("r", "t"), (), "3"),
    ])
    ln = LazyNorm(S)
    m = next(i for i in range(len(ln.basis.minterms)) if ln.sizes[i] == 2)
    steps = [(m, (("fresh", 0),)), (m, (("fresh", 1),))]
    assert normal.replay(ln, [ln.valuation], steps) == [0, 1]
    with pytest.raises(SraError, match="internal error"):
        normal.replay(ln, [ln.valuation], steps + [(m, (("fresh", -1),))])


def goal_depths(S):
    """Steps to the accepting state found breadth-first and in A* order,
    both on one LazyNorm, or None where none is found."""
    ln = LazyNorm(S)
    dist = final_distances(S)
    depths = []
    for priority in (None, lambda key: dist[key[0][0]]):
        parent, goal = reach(ln, ln.is_final, priority)
        depths.append(None if goal is None else len(path(parent, goal)[1]))
    return depths


@pytest.mark.parametrize("name, length", [
    ("Pr-C2", 25), ("Pr-C4", 29), ("Pr-CL4", 27), ("IP4", 43), ("IP6", 43),
    ("XML", 11), ("Name", 6), ("Name-F", 6),
])
def test_guided_search_finds_a_shortest_witness(name, length):
    S = rx.compile(rx.BENCHMARK_PATTERNS[name]).sra
    assert goal_depths(S) == [length, length]
    assert len(is_empty(S)[1]) == length


def test_guided_search_reroutes_through_a_shorter_prefix():
    # a1-a3 look one move from f through reads of the empty register y,
    # which never fire; b looks four moves away.  Both lead to x, which
    # is three moves from f: a shortest word takes b, not the a's.
    moves = [("p", "a1"), ("a1", "a2"), ("a2", "a3"), ("a3", "x"), ("p", "b"),
             ("b", "x"), ("x", "y1"), ("y1", "y2"), ("y2", "f")]
    S = make_sra(
        INTEGERS, ["y"], ["p", "a1", "a2", "a3", "b", "x", "y1", "y2", "f"], "p", {}, ["f"],
        [(src, TRUE, (), (), (), dst) for src, dst in moves]
        + [(a, TRUE, ("y",), (), (), "f") for a in ("a1", "a2", "a3")],
    )
    assert final_distances(S)[:5] == [2, 1, 1, 1, 4]
    assert goal_depths(S) == [5, 5]
    empty, word = is_empty(S)
    assert not empty and len(word) == 5 and membership(S, word)


def test_guided_search_is_shortest_on_random_automata():
    rng = random.Random(47)
    for _ in range(300):
        S = random_chain(rng) if rng.random() < 0.3 else random_sra(rng, 6, 3)
        breadth_first, guided = goal_depths(S)
        assert breadth_first == guided, S


def test_search_without_a_priority_is_breadth_first():
    # normalized state numbering and dumps follow the discovery order,
    # and the determinism check's clash is the first one discovered
    rng = random.Random(47)
    pool = [rx.compile(rx.BENCHMARK_PATTERNS[name]).sra for name in ("IP4", "Pr-C2", "Pr-CL3")]
    pool += [random_sra(rng, 6, 3) for _ in range(60)]
    clashes = 0
    for S in pool:
        ln = LazyNorm(S)
        parent = reach(ln)[0]
        assert list(parent.items()) == list(breadth_first_reach(ln)[0].items())

        def clash(key):
            return normal._clashes(ln.successors(key))

        goal = reach(ln, clash)[1]
        assert goal == breadth_first_reach(ln, clash)[1]
        clashes += goal is not None
    assert clashes > 10


def test_emptiness_without_a_path_to_a_final_builds_nothing(monkeypatch):
    # the final state has no incoming move, so no normalized state is needed
    S = make_sra(
        INTEGERS, ["x"], ["p", "q"], "p", {}, ["q"],
        [("p", TRUE, (), (), ("x",), "p"), ("q", TRUE, ("x",), (), (), "p")],
    )

    def no_lazy_norm(*args):
        raise AssertionError("LazyNorm built")

    monkeypatch.setattr(normal, "LazyNorm", no_lazy_norm)
    assert is_empty(S) == (True, None)


# ---------------------------------------------------------------------------
# is_deterministic


def test_deterministic_fixtures():
    assert is_deterministic(remark1())
    assert is_deterministic(digits_sfa())
    S = make_sra(
        INTEGERS, ["r"], ["p", "q"], "p", {}, ["q"], [("p", TRUE, ("r",), (), (), "q")]
    )
    assert is_deterministic(S)


def test_two_fresh_targets_same_guard_different_registers():
    S = make_sra(
        INTEGERS,
        ["r", "s"],
        ["p", "q"],
        "p",
        {},
        ["q"],
        [
            ("p", TRUE, (), ("r", "s"), ("r",), "q"),
            ("p", TRUE, (), ("r", "s"), ("s",), "q"),
        ],
    )
    assert not is_deterministic(S)


def test_same_store_different_targets():
    S = make_sra(
        INTEGERS,
        ["r"],
        ["p", "q1", "q2"],
        "p",
        {},
        ["q1"],
        [
            ("p", TRUE, (), (), ("r",), "q1"),
            ("p", TRUE, (), (), ("r",), "q2"),
        ],
    )
    assert not is_deterministic(S)


def test_disjoint_guards_stay_deterministic():
    S = make_sra(
        INTEGERS,
        ["r"],
        ["p", "q1", "q2"],
        "p",
        {},
        ["q1"],
        [
            ("p", Div(2), (), (), ("r",), "q1"),
            ("p", Not(Div(2)), (), (), ("r",), "q2"),
        ],
    )
    assert is_deterministic(S)


def test_determinism_fast_path_hashes_no_label(monkeypatch):
    # equal labels that are separate objects are two moves to the fast
    # path, so the full check decides; a label's hash walks its guard
    S = make_sra(
        INTEGERS,
        ["r"],
        ["p", "q"],
        "p",
        {},
        ["q"],
        [
            ("p", Interval(0, 5), (), (), ("r",), "q"),
            ("p", Interval(0, 5), (), (), ("r",), "q"),
            ("p", Interval(6, 9), (), (), ("r",), "q"),
        ],
    )
    labels = [lab for _, lab, _ in S.transitions]
    assert labels[0] == labels[1] and labels[0] is not labels[1]
    stock = [rx.compile(p).sra for p in rx.BENCHMARK_PATTERNS.values()]
    with monkeypatch.context() as patch:
        def refuse(label):
            raise AssertionError("a label was hashed")

        patch.setattr(Label, "__hash__", refuse)
        assert not normal._syntactically_deterministic(S)
        for T in stock:
            normal._syntactically_deterministic(T)
    assert is_deterministic(S)


def test_nondeterminism_only_counts_reachable_states():
    # the clashing pair sits in a state no run reaches
    S = make_sra(
        INTEGERS,
        ["r"],
        ["p", "dead", "q1", "q2"],
        "p",
        {},
        ["q1"],
        [
            ("p", TRUE, (), (), ("r",), "q1"),
            ("dead", TRUE, (), (), ("r",), "q1"),
            ("dead", TRUE, (), (), ("r",), "q2"),
        ],
    )
    assert is_deterministic(S)
