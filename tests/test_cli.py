import json
import re
from pathlib import Path

import pytest

from sra.algebra import INTEGERS, MAX_NESTING, TRUE, And, Div, Interval
from sra.cli import UsageError, _parse_domain, main
from sra.core import dumps, loads, make_sra, membership
from sra.normal import LazyNorm
from sra import regex as rx

from fixtures import example3, first_symbol_repeats, remark1


def write_sra(tmp_path, name, S):
    path = tmp_path / name
    path.write_text(dumps(S), encoding="utf-8")
    return str(path)


def write_text(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# predicates


def test_member_pattern():
    assert main(["member", "--pattern", r"(\d)[a-z]*\1", "--input", "5ab5"]) == 0
    assert main(["member", "--pattern", r"(\d)[a-z]*\1", "--input", "5ab6"]) == 1


def test_member_integer_automaton(tmp_path):
    path = write_sra(tmp_path, "r1.json", remark1())
    assert main(["member", "--sra", path, "--input", "2 4 2"]) == 0
    assert main(["member", "--sra", path, "--input", "[2, 4, 6]"]) == 1


def test_member_names_an_input_symbol_outside_the_domain(tmp_path, capsys):
    path = write_sra(tmp_path, "r1.json", remark1())
    assert main(["member", "--sra", path, "--input", '[2, "x"]']) == 2
    assert "input symbol 'x' is not an element of the int domain\n" in capsys.readouterr().err


def test_empty_verb(tmp_path, capsys):
    path = write_sra(tmp_path, "e3.json", example3())
    assert main(["empty", "--sra", path]) == 0
    assert "empty" in capsys.readouterr().out

    mutated = example3(final_guard=And((Interval(0, 10), Div(3))))
    path = write_sra(tmp_path, "e3m.json", mutated)
    assert main(["empty", "--sra", path]) == 1
    witness = json.loads(capsys.readouterr().out)["witness"]
    assert membership(mutated, witness)


def test_deterministic_verb(tmp_path, capsys):
    assert main(["deterministic", "--sra", write_sra(tmp_path, "a.json", remark1())]) == 0
    assert (
        main(
            ["deterministic", "--sra", write_sra(tmp_path, "b.json", first_symbol_repeats())]
        )
        == 1
    )
    assert "nondeterministic" in capsys.readouterr().out


def test_subset_verb(tmp_path, capsys):
    narrow = write_text(tmp_path, "narrow.regex", r"(\d)\1")
    wide = write_text(tmp_path, "wide.regex", r"(\d)\d")
    assert main(["subset", "--lhs", narrow, "--rhs", wide]) == 0
    capsys.readouterr()
    assert main(["subset", "--lhs", wide, "--rhs", narrow]) == 1
    out = json.loads(capsys.readouterr().out)
    word = out["counterexample"]
    assert len(word) == 2 and word[0] != word[1]


def test_subset_takes_a_nondeterministic_lhs_only(tmp_path, capsys):
    repeats = write_text(tmp_path, "repeats.regex", r"(.).*\1")
    assert main(["deterministic", "--sra", repeats]) == 1
    assert main(["subset", "--lhs", repeats, "--rhs", write_text(tmp_path, "w.regex", ".+")]) == 0
    capsys.readouterr()
    no_a = write_text(tmp_path, "no_a.regex", "(.)[^a]*")
    assert main(["subset", "--lhs", repeats, "--rhs", no_a]) == 1
    text = json.loads(capsys.readouterr().out)["text"]
    assert re.fullmatch(r"(.).*\1", text) and not re.fullmatch("(.)[^a]*", text)
    assert main(["subset", "--lhs", no_a, "--rhs", repeats]) == 2
    assert "right operand must be deterministic" in capsys.readouterr().err


def test_equiv_verb(tmp_path, capsys):
    patterns = {"a": r"(\d)\1", "c": r"(\d)\d"}
    path = {k: write_text(tmp_path, f"{k}.regex", p) for k, p in patterns.items()}
    b = write_text(tmp_path, "b.regex", patterns["a"])
    assert main(["equiv", "--lhs", path["a"], "--rhs", b]) == 0
    assert capsys.readouterr().out == "equivalent\n"
    # the separating word is found whichever operand accepts it
    for lhs, rhs in (("a", "c"), ("c", "a")):
        assert main(["equiv", "--lhs", path[lhs], "--rhs", path[rhs]]) == 1
        out = json.loads(capsys.readouterr().out)
        word = out["counterexample"]
        assert out["text"] == "".join(map(chr, word))
        for k, p in patterns.items():
            assert bool(re.fullmatch(p, out["text"], re.ASCII)) == (k == "c")
            assert membership(rx.compile(p).sra, word) == (k == "c")


def test_equiv_builds_one_normalized_pair(tmp_path, capsys, monkeypatch):
    # the answer and the separating word come from one search
    built = []

    class CountingLazyNorm(LazyNorm):
        def __init__(self, *args, **kwargs):
            built.append(args[0])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr("sra.equiv.LazyNorm", CountingLazyNorm)
    lhs = write_text(tmp_path, "lhs.regex", rx.BENCHMARK_PATTERNS["Name"])
    rhs = write_text(tmp_path, "rhs.regex", rx.BENCHMARK_PATTERNS["Name-F"])
    for a, b in ((lhs, rhs), (rhs, lhs)):
        built.clear()
        assert main(["equiv", "--lhs", a, "--rhs", b]) == 1
        word = json.loads(capsys.readouterr().out)["counterexample"]
        assert len(built) == 2
        assert membership(built[0], word) != membership(built[1], word)


def test_pattern_files_keep_trailing_spaces(tmp_path):
    # a pattern file ends in a line terminator; the space before it is
    # part of the pattern
    spaced = write_text(tmp_path, "spaced.regex", "a \n")
    assert main(["member", "--sra", spaced, "--input", "a "]) == 0
    assert main(["member", "--sra", spaced, "--input", "a"]) == 1
    plain = write_text(tmp_path, "plain.regex", "a\n")
    assert main(["subset", "--lhs", spaced, "--rhs", plain]) == 1
    assert main(["subset", "--lhs", spaced, "--rhs", spaced]) == 0


def test_input_files_drop_only_the_final_line_terminator(tmp_path):
    # like a pattern file, an input file ends in a line terminator that
    # is not part of the word
    word = write_text(tmp_path, "word.txt", "abab\n")
    assert main(["member", "--pattern", r"(ab)\1", "--input-file", word]) == 0
    spaced = write_text(tmp_path, "spaced.txt", "a \n")
    assert main(["member", "--pattern", "a ", "--input-file", spaced]) == 0
    assert main(["member", "--pattern", "a", "--input-file", spaced]) == 1


# ---------------------------------------------------------------------------
# constructions


def test_compile_roundtrip(tmp_path):
    out = str(tmp_path / "out.json")
    assert main(["compile", "--pattern", r"(\d)\1", "--out", out]) == 0
    S = loads(Path(out).read_text())
    assert membership(S, [ord("7"), ord("7")])
    assert not membership(S, [ord("7"), ord("8")])


def test_compile_emit_normalized(tmp_path):
    out = str(tmp_path / "norm.json")
    src = write_sra(tmp_path, "r1.json", remark1())
    assert main(["compile", "--sra", src, "--emit-normalized", "--out", out]) == 0
    N = loads(Path(out).read_text())
    assert membership(N, [2, 4, 2])
    assert not membership(N, [2, 4, 6])


def test_union_and_intersect_verbs(tmp_path):
    a = write_text(tmp_path, "a.regex", "ab")
    b = write_text(tmp_path, "b.regex", "cd")
    out = str(tmp_path / "u.json")
    assert main(["union", "--lhs", a, "--rhs", b, "--out", out]) == 0
    U = loads(Path(out).read_text())
    assert membership(U, [ord("a"), ord("b")])
    assert membership(U, [ord("c"), ord("d")])
    assert not membership(U, [ord("a"), ord("d")])

    out = str(tmp_path / "i.json")
    assert main(["intersect", "--lhs", a, "--rhs", a, "--out", out]) == 0
    I = loads(Path(out).read_text())
    assert membership(I, [ord("a"), ord("b")])
    assert not membership(I, [ord("c"), ord("d")])


def test_complement_verb(tmp_path):
    out = str(tmp_path / "c.json")
    assert main(["complement", "--pattern", "[0-9]", "--complete", "--out", out]) == 0
    C = loads(Path(out).read_text())
    assert not membership(C, [ord("5")])
    assert membership(C, [ord("x")])
    assert membership(C, [])


def test_expand_verb(tmp_path, capsys):
    assert (
        main(["expand", "--pattern", r"(\d)\1", "--domain", "48-57", "--name", "pair"])
        == 0
    )
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0].startswith("name,sra_states")
    cells = lines[1].split(",")
    assert cells[0] == "pair"
    assert int(cells[5]) >= 10


def test_expand_overflow_report(tmp_path, capsys):
    code = main(
        [
            "expand", "--pattern", r"(...)\1", "--domain", "0-255",
            "--max-states", "100", "--name", "big",
        ]
    )
    assert code == 0
    assert "---" in capsys.readouterr().out


def test_expand_domain_ranges_may_have_negative_ends(tmp_path, capsys):
    path = write_sra(tmp_path, "r1.json", remark1())

    def report(domain):
        code = main(["expand", "--sra", path, f"--domain={domain}"])
        return code, capsys.readouterr()

    listed = report("-3,-2,-1,0,1,2,3")[1].out
    code, out = report("-3-3")
    assert code == 0 and out.out == listed
    assert out.out.split("\n")[1].split(",")[4] == "7"  # reg_domain
    code, out = report("-5--1")
    assert code == 0 and out.out.split("\n")[1].split(",")[4] == "5"
    code, out = report("5--1")
    assert code == 2 and "empty domain" in out.err


@pytest.mark.parametrize("args", [
    ["compile", "--pattern", r"(\d)\1"],
    ["expand", "--pattern", r"(\d)\1", "--domain", "48-57", "--name", "paar-\u00fc"],
])
def test_stdout_holds_the_bytes_of_the_out_file(tmp_path, capsys, args):
    out = tmp_path / "out"
    assert main(args + ["--out", str(out)]) == 0
    assert main(args) == 0
    assert capsys.readouterr().out == out.read_bytes().decode("utf-8")


def test_bench_verb(tmp_path):
    out = str(tmp_path / "bench.csv")
    assert main(["bench", "--sizes", "100,1000", "--out", out]) == 0
    lines = Path(out).read_text().strip().split("\n")
    assert lines[0] == "length,seconds"
    sizes = [int(line.split(",")[0]) for line in lines[1:]]
    assert len(sizes) == 2 and sizes[0] < sizes[1]


def test_bench_warms_the_scanner_on_the_unit_first(tmp_path, monkeypatch):
    texts = []
    real = rx.match

    def recording(cp, text):
        texts.append(text)
        return real(cp, text)

    monkeypatch.setattr(rx, "match", recording)
    out = str(tmp_path / "bench.csv")
    assert main(["bench", "--unit", "C:ab L:x D:yz", "--sizes", "100,1000", "--out", out]) == 0
    assert texts[0] == "C:ab L:x D:yz"
    assert [len(t) for t in texts[1:]] == [
        int(line.split(",")[0]) for line in Path(out).read_text().split("\n")[1:-1]
    ]


# ---------------------------------------------------------------------------
# errors

def test_usage_errors(tmp_path, capsys):
    assert main(["member", "--pattern", "ab"]) == 2  # no input
    assert main(["member"]) == 2  # no automaton
    assert main(["member", "--sra", "nope.json", "--pattern", "ab", "--input", "x"]) == 2
    assert main(["empty", "--sra", str(tmp_path / "missing.json")]) == 2
    assert main(["frobnicate"]) == 2
    assert main(["compile", "--pattern", "(ab"]) == 2  # parse error
    for cap in ("0", "-3"):
        assert main(["expand", "--pattern", "a", "--domain", "a-c", "--max-states", cap]) == 2
    assert main(["expand", "--pattern", "a", "--domain", "-5"]) == 2  # not a code point
    capsys.readouterr()


def test_json_files_are_read_as_utf8_text(tmp_path, capsys):
    path = tmp_path / "x.json"
    path.write_bytes(b'{"algebra": "\xff"}')
    assert main(["empty", "--sra", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    # the final line terminator is optional
    path.write_text(dumps(remark1()).removesuffix("\n"), encoding="utf-8")
    assert main(["deterministic", "--sra", str(path)]) == 0


def nested(guard, depth):
    return "!(" * depth + guard + ")" * depth


def json_text(**changes):
    d = json.loads(dumps(remark1()))
    d.update(changes)
    return json.dumps(d)


@pytest.mark.parametrize(
    "verb, flag, text",
    [
        ("compile", "--pattern", "(" * 2000 + "a" + ")" * 2000),
        ("compile", "--pattern", "a" + "*" * 2000),
        ("compile", "--pattern", "a" + "{1}" * 2000),
        ("compile", "--pattern", "a{1001}"),
        ("compile", "--pattern", "(a{1000}){1000}"),
        ("compile", "--pattern", "(?:a?){1000}"),
        ("compile", "--pattern", "(?:(?:ab){0,500}){60}"),
        ("compile", "--pattern", "(?:(?:a?){1000}){2}"),
        ("empty", "--sra", json_text(transitions=[
            {"from": "q0", "guard": "!(" * 2000 + "true" + ")" * 2000,
             "E": [], "I": [], "U": [], "to": "qf"}
        ])),
        ("empty", "--sra", json_text(transitions=[
            {"from": "q0", "guard": nested("true", MAX_NESTING + 1),
             "E": [], "I": [], "U": [], "to": "qf"}
        ])),
        ("empty", "--sra", json_text(transitions=[
            {"from": "q0", "guard": "(div 1000003 & [1-1000002])",
             "E": [], "I": [], "U": [], "to": "qf"}
        ])),
        ("empty", "--sra", json_text(initial_valuation=[])),
        ("compile", "--pattern", "^ab$"),
        ("compile", "--pattern", "(1)(2)(3)(4)(5)(6)(7)(8)(9)-\\10"),
        ("compile", "--pattern", "(1)(2)(3)(4)(5)(6)(7)(8)(9)(0)(1)(2)\\123"),
        ("compile", "--pattern", "[\\1]"),
        ("compile", "--pattern", "[\\d-z]"),
        ("compile", "--pattern", "(a*)\\1"),
        ("empty", "--sra", "[" * 100_000),
    ],
    ids=[
        "groups", "stars", "counts", "big_count", "big_build", "optional_copies",
        "nested_optional_copies", "optional_copies_twice", "guard", "guard_above_cap",
        "div_lcm", "valuation", "anchor", "missing_group", "octal", "class_octal",
        "class_escape_range", "no_fixed_length", "nested_json",
    ],
)
def test_hostile_input_exits_2_without_traceback(tmp_path, capsys, verb, flag, text):
    if flag == "--sra":
        text = write_text(tmp_path, "hostile.json", text)
    assert main([verb, flag, text]) == 2
    assert "Traceback" not in capsys.readouterr().err


def hostile_document(*path, value):
    """remark1's document with the entry at path replaced by value."""
    d = json.loads(dumps(remark1()))
    inner = d
    for key in path[:-1]:
        inner = inner[key]
    inner[path[-1]] = value
    return json.dumps(d)


@pytest.mark.parametrize(
    "text",
    [
        hostile_document("transitions", 0, "U", value=[["r"]]),
        hostile_document("transitions", 0, "E", value=[["r"]]),
        hostile_document("transitions", 0, "from", value=["q0"]),
        hostile_document("registers", value=[["r"]]),
        hostile_document("finals", value=[["qf"]]),
        hostile_document("initial_valuation", value={"r": True}),
    ],
    ids=["U_list", "E_list", "from_list", "registers_list", "finals_list", "valuation_bool"],
)
def test_hostile_documents_are_refused_with_an_error_line(tmp_path, capsys, text):
    path = write_text(tmp_path, "hostile.json", text)
    assert main(["empty", "--sra", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


VERB_ARGS = [
    ("compile", ["--sra", "{}", "--complete", "--emit-normalized"]),
    ("member", ["--sra", "{}", "--input", "2 4 2"]),
    ("empty", ["--sra", "{}"]),
    ("deterministic", ["--sra", "{}"]),
    ("subset", ["--lhs", "{}", "--rhs", "{}"]),
    ("equiv", ["--lhs", "{}", "--rhs", "{}"]),
    ("complement", ["--sra", "{}", "--complete"]),
    ("intersect", ["--lhs", "{}", "--rhs", "{}"]),
    ("union", ["--lhs", "{}", "--rhs", "{}"]),
    ("expand", ["--sra", "{}", "--domain", "0-5"]),
]


@pytest.mark.parametrize("verb, args", VERB_ARGS, ids=[v for v, _ in VERB_ARGS])
def test_guards_nested_at_the_cap_go_through_every_verb(tmp_path, capsys, verb, args):
    # remark1 with every guard `div 2` under an even number of negations
    d = json.loads(dumps(remark1()))
    for t in d["transitions"]:
        t["guard"] = nested("div 2", MAX_NESTING)
    path = write_text(tmp_path, "deep.json", json.dumps(d))
    expected = 1 if verb == "empty" else 0  # empty prints a witness
    assert main([verb] + [a.format(path) for a in args]) == expected
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "text", ['["a"]', "[1.5]", "[true]", "[null]", "[[1]]", "[1e400]", "[" * 100_000],
    ids=["string", "float", "bool", "null", "list", "overflow", "nested"],
)
def test_member_rejects_symbols_outside_the_domain(tmp_path, capsys, text):
    # store any first symbol, then read it back: every non-empty word of
    # integers equal to the first one is accepted
    S = make_sra(INTEGERS, ["r"], ["q0", "q1"], "q0", {}, ["q1"], [
        ("q0", TRUE, (), (), ("r",), "q1"),
        ("q1", TRUE, ("r",), (), (), "q1"),
    ])
    path = write_sra(tmp_path, "store_read.json", S)
    assert main(["member", "--sra", path, "--input", "[7, 7]"]) == 0
    assert main(["member", "--sra", path, "--input", text]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize(
    "guard",
    ["[1%s-inf]" % ("0" * 400), "!([-1%s-inf])" % ("0" * 400)],
    ids=["above", "below"],
)
def test_bounds_beyond_float_range_decide_without_traceback(tmp_path, capsys, guard):
    text = json_text(transitions=[
        {"from": "q0", "guard": guard, "E": [], "I": [], "U": [], "to": "qf"}
    ])
    assert main(["empty", "--sra", write_text(tmp_path, "huge.json", text)]) == 1
    assert "Traceback" not in capsys.readouterr().err


def test_domain_parsing():
    assert _parse_domain("a-c") == [ord("a"), ord("b"), ord("c")]
    assert _parse_domain("1-3,7") == [1, 2, 3, 7]
    assert _parse_domain("x") == [ord("x")]
    assert _parse_domain("-5") == [-5]
    assert _parse_domain("-2-1,-5--4") == [-2, -1, 0, 1, -5, -4]
    with pytest.raises(UsageError):
        _parse_domain("")
    with pytest.raises(UsageError):
        _parse_domain("foo-bar")
    for spec in ("--5", "---"):  # a lone "-" is no low end of a range
        with pytest.raises(UsageError):
            _parse_domain(spec)
    assert _parse_domain("-") == [ord("-")]
    assert len(_parse_domain("0-1114111")) == 0x110000
    # refused from the range sizes, before 10^8 values are listed
    with pytest.raises(UsageError):
        _parse_domain("0-99999999")
    with pytest.raises(UsageError):
        _parse_domain("0-1114111,a")
