"""End-to-end acceptance checks, one test per promised behavior.

Each test exercises a full pipeline (fixtures or compiled patterns
through the decision procedures) and asserts both the results and the
stated time budgets.
"""

import math
import time

from sra.algebra import And, Atom, Div, Interval, Or, INTEGERS, TRUE
from sra.boolean_ops import complement, complete, intersect, union
from sra.core import make_sra, membership
from sra.equiv import equivalent, includes, n_similar
from sra.expand import expand_to_sfa
from sra.normal import is_deterministic, is_empty, normalize
from sra.single_valued import to_single_valued
from sra import regex as rx

from fixtures import example3, first_symbol_repeats, remark1
from oracles import brute_minterm_bits, words_up_to


def test_1_emptiness_and_mutated_witness():
    t0 = time.perf_counter()
    empty, _ = is_empty(example3())
    assert empty

    mutated = example3(final_guard=And((Interval(0, 10), Div(3))))
    empty, witness = is_empty(mutated)
    assert not empty
    assert membership(mutated, witness)
    assert time.perf_counter() - t0 < 1.0


def test_2_minterm_reproduction():
    t0 = time.perf_counter()
    gt2 = Interval(3, None)  # x > 2 on integers
    lt5 = Interval(None, 4)  # x < 5
    ms = INTEGERS.minterms([gt2, lt5])
    assert len(ms) == 3
    positives = {frozenset(q for q, b in zip(ms.sources, m.bits) if b) for m in ms}
    assert positives == {
        frozenset({gt2, lt5}),
        frozenset({gt2}),
        frozenset({lt5}),
    }

    predicates = [
        Atom(0),
        Div(3),
        And((Interval(0, 10), Div(5))),
        Or((Interval(None, -1), Interval(11, None))),
    ]
    ms = INTEGERS.minterms(predicates)
    assert {m.bits for m in ms} == brute_minterm_bits(INTEGERS, predicates)
    assert time.perf_counter() - t0 < 1.0


def test_3_product_code_inclusion_with_separating_word():
    t0 = time.perf_counter()
    # same record shape and code width; A additionally pins the lot field
    A = rx.compile(r"C:(..) L:(.) D:[^\s]+( C:\1 L:\2 D:[^\s]+)+").sra
    B = rx.compile(rx.BENCHMARK_PATTERNS["Pr-C2"]).sra

    ok, _ = includes(A, B)
    assert ok
    ok, word = includes(B, A)
    assert not ok
    assert membership(B, word) and not membership(A, word)
    assert time.perf_counter() - t0 < 60.0


def test_4_decision_procedures_finish_at_small_register_counts():
    rows = [
        ("Pr-C2", "Pr-CL2"),
        ("Pr-C3", "Pr-CL3"),
        ("Pr-CL2", "Pr-C2"),
        ("Pr-CL3", "Pr-C3"),
        ("IP2", "IP3"),
        ("IP3", "IP4"),
    ]
    compiled = {}
    for name in {n for row in rows for n in row}:
        compiled[name] = rx.compile(rx.BENCHMARK_PATTERNS[name]).sra
    for n1, n2 in rows:
        S1, S2 = compiled[n1], compiled[n2]

        t0 = time.perf_counter()
        empty, _ = is_empty(S1)
        assert not empty
        assert time.perf_counter() - t0 < 120.0, (n1, "emptiness")

        t0 = time.perf_counter()
        assert equivalent(S1, S1)
        assert time.perf_counter() - t0 < 120.0, (n1, "self-equivalence")

        t0 = time.perf_counter()
        ok, word = includes(S2, S1)
        if not ok:
            assert membership(S2, word) and not membership(S1, word)
        assert time.perf_counter() - t0 < 120.0, (n2, "included in", n1)


def test_5_expansion_blowup_and_overflow():
    two_reg = rx.compile(rx.BENCHMARK_PATTERNS["Name"]).sra
    assert len(two_reg.registers) == 2
    domain = [ord(c) for c in "abcdefghijklmnopqrstuvwxyz ."]
    ex = expand_to_sfa(two_reg, domain)
    assert not ex.overflow
    assert len(ex.sfa.states) >= 10 * len(two_reg.states)

    three_reg = rx.compile(r"(...)\1").sra
    assert len(three_reg.registers) == 3
    ex = expand_to_sfa(three_reg, range(2 ** 16))
    assert ex.overflow
    assert ex.sfa is None


def test_6_membership_scales_linearly():
    cp = rx.compile(rx.BENCHMARK_PATTERNS["Pr-C2"])
    assert is_deterministic(cp.sra)
    unit = "C:ab L:x D:yz"
    rx.match(cp, unit)  # warm the compiled scanner before timing
    points = []
    for size in (10 ** k for k in range(2, 8)):
        reps = max(2, round(size / (len(unit) + 1)))
        text = " ".join([unit] * reps)
        best = math.inf
        for _ in range(3 if size <= 10 ** 5 else 1):
            t0 = time.perf_counter()
            rx.match(cp, text)
            best = min(best, time.perf_counter() - t0)
        points.append((len(text), best))
    assert points[-1][1] < 10.0
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(t) for _, t in points]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum(
        (x - mx) ** 2 for x in xs
    )
    assert 0.85 <= slope <= 1.15, slope


def test_7_construction_invariants_exhaustively_at_tiny_scale():
    t0 = time.perf_counter()

    def single_word_acceptor(value):
        return make_sra(
            INTEGERS, [], ["s", "t"], "s", {}, ["t"],
            [("s", Atom(value), (), (), (), "t")],
        )

    mutated = example3(final_guard=And((Interval(0, 10), Div(3))))
    pairs = [
        (remark1(), first_symbol_repeats()),
        (remark1(), to_single_valued(example3())),
        (first_symbol_repeats(), to_single_valued(mutated)),
        (single_word_acceptor(1), remark1()),
        (to_single_valued(remark1()), single_word_acceptor(3)),
    ]
    alphabet = [0, 1, 2, 3]
    for A, B in pairs:
        both = intersect(A, B)
        either = union(A, B)
        variants = {}
        for tag, S in (("A", A), ("B", B)):
            sv = to_single_valued(S)
            variants[tag] = [sv, normalize(sv)]
            if is_deterministic(S):
                total = complete(sv)
                variants[tag].append(total)
                variants[tag].append((complement(total), True))
        for w in words_up_to(alphabet, 3):
            mA = membership(A, w)
            mB = membership(B, w)
            assert membership(both, w) == (mA and mB), w
            assert membership(either, w) == (mA or mB), w
            for tag, expect in (("A", mA), ("B", mB)):
                for v in variants[tag]:
                    if isinstance(v, tuple):  # complemented variant
                        assert membership(v[0], w) == (not expect), w
                    else:
                        assert membership(v, w) == expect, w

    # simulation agrees with brute-force inclusion on deterministic,
    # completed fixtures; separating words from includes are verified
    det = {
        "none": complete(to_single_valued(example3())),
        "even-ends-equal": complete(to_single_valued(remark1())),
        "repeated-multiple-of-3": complete(to_single_valued(mutated)),
    }
    for na, A in det.items():
        for nb, B in det.items():
            brute = all(
                membership(B, w)
                for w in words_up_to([0, 1, 2, 3, 4], 3)
                if membership(A, w)
            )
            ok, _ = n_similar(A, B)
            assert ok == brute, (na, nb)
            ok, word = includes(A, B)
            assert ok == brute, (na, nb)
            if not ok:
                assert membership(A, word) and not membership(B, word)
    assert time.perf_counter() - t0 < 300.0


def test_8_determinism_check_on_fixtures_and_benchmarks():
    assert not is_deterministic(first_symbol_repeats())
    same_guard_same_register = make_sra(
        INTEGERS, ["r"], ["p", "q1", "q2"], "p", {}, ["q1"],
        [
            ("p", TRUE, (), (), ("r",), "q1"),
            ("p", TRUE, (), (), ("r",), "q2"),
        ],
    )
    assert not is_deterministic(same_guard_same_register)
    same_guard_two_registers = make_sra(
        INTEGERS, ["r", "s"], ["p", "q"], "p", {}, ["q"],
        [
            ("p", TRUE, (), (), ("r",), "q"),
            ("p", TRUE, (), (), ("s",), "q"),
        ],
    )
    assert not is_deterministic(same_guard_two_registers)
    assert is_deterministic(remark1())
    for name, cp in rx.benchmark_patterns().items():
        assert is_deterministic(cp.sra), name


def test_9_inclusion_finishes_at_four_registers():
    rows = [("Pr-CL4", "Pr-C4", False), ("IP6", "IP4", True)]
    for n1, n2, expected in rows:
        S1 = rx.compile(rx.BENCHMARK_PATTERNS[n1]).sra
        S2 = rx.compile(rx.BENCHMARK_PATTERNS[n2]).sra
        t0 = time.perf_counter()
        ok, word = includes(S1, S2)
        assert ok == expected, (n1, "included in", n2)
        if not ok:
            assert membership(S1, word) and not membership(S2, word)
        assert time.perf_counter() - t0 < 30.0, (n1, "included in", n2)
