import json

import pytest

from sra.algebra import And, Div, Interval
from sra.cli import UsageError, _parse_domain, main
from sra.core import loads, membership, save, to_json_dict

from fixtures import example3, first_symbol_repeats, remark1


def write_sra(tmp_path, name, S):
    path = tmp_path / name
    save(S, path)
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


def test_equiv_verb(tmp_path):
    a = write_text(tmp_path, "a.regex", r"(\d)\1")
    b = write_text(tmp_path, "b.regex", r"(\d)\1")
    c = write_text(tmp_path, "c.regex", r"(\d)\d")
    assert main(["equiv", "--lhs", a, "--rhs", b]) == 0
    assert main(["equiv", "--lhs", a, "--rhs", c]) == 1


def test_pattern_files_keep_trailing_spaces(tmp_path):
    # a pattern file ends in a line terminator; the space before it is
    # part of the pattern
    spaced = write_text(tmp_path, "spaced.regex", "a \n")
    assert main(["member", "--sra", spaced, "--input", "a "]) == 0
    assert main(["member", "--sra", spaced, "--input", "a"]) == 1
    plain = write_text(tmp_path, "plain.regex", "a\n")
    assert main(["subset", "--lhs", spaced, "--rhs", plain]) == 1
    assert main(["subset", "--lhs", spaced, "--rhs", spaced]) == 0


# ---------------------------------------------------------------------------
# constructions


def test_compile_roundtrip(tmp_path):
    out = str(tmp_path / "out.json")
    assert main(["compile", "--pattern", r"(\d)\1", "--out", out]) == 0
    S = loads(open(out).read())
    assert membership(S, [ord("7"), ord("7")])
    assert not membership(S, [ord("7"), ord("8")])


def test_compile_emit_normalized(tmp_path):
    out = str(tmp_path / "norm.json")
    src = write_sra(tmp_path, "r1.json", remark1())
    assert main(["compile", "--sra", src, "--emit-normalized", "--out", out]) == 0
    N = loads(open(out).read())
    assert membership(N, [2, 4, 2])
    assert not membership(N, [2, 4, 6])


def test_union_and_intersect_verbs(tmp_path):
    a = write_text(tmp_path, "a.regex", "ab")
    b = write_text(tmp_path, "b.regex", "cd")
    out = str(tmp_path / "u.json")
    assert main(["union", "--lhs", a, "--rhs", b, "--out", out]) == 0
    U = loads(open(out).read())
    assert membership(U, [ord("a"), ord("b")])
    assert membership(U, [ord("c"), ord("d")])
    assert not membership(U, [ord("a"), ord("d")])

    out = str(tmp_path / "i.json")
    assert main(["intersect", "--lhs", a, "--rhs", a, "--out", out]) == 0
    I = loads(open(out).read())
    assert membership(I, [ord("a"), ord("b")])
    assert not membership(I, [ord("c"), ord("d")])


def test_complement_verb(tmp_path):
    out = str(tmp_path / "c.json")
    assert main(["complement", "--pattern", "[0-9]", "--complete", "--out", out]) == 0
    C = loads(open(out).read())
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


def test_bench_verb(tmp_path):
    out = str(tmp_path / "bench.csv")
    assert main(["bench", "--sizes", "100,1000", "--out", out]) == 0
    lines = open(out).read().strip().split("\n")
    assert lines[0] == "length,seconds"
    sizes = [int(line.split(",")[0]) for line in lines[1:]]
    assert len(sizes) == 2 and sizes[0] < sizes[1]


# ---------------------------------------------------------------------------
# errors

def test_usage_errors(tmp_path, capsys):
    assert main(["member", "--pattern", "ab"]) == 2  # no input
    assert main(["member"]) == 2  # no automaton
    assert main(["member", "--sra", "nope.json", "--pattern", "ab", "--input", "x"]) == 2
    assert main(["empty", "--sra", str(tmp_path / "missing.json")]) == 2
    assert main(["frobnicate"]) == 2
    assert main(["compile", "--pattern", "(ab"]) == 2  # parse error
    capsys.readouterr()


def json_text(**changes):
    d = to_json_dict(remark1())
    d.update(changes)
    return json.dumps(d)


@pytest.mark.parametrize(
    "verb, flag, text",
    [
        ("compile", "--pattern", "(" * 2000 + "a" + ")" * 2000),
        ("compile", "--pattern", "a" + "*" * 2000),
        ("compile", "--pattern", "a" + "{1}" * 2000),
        ("empty", "--sra", json_text(transitions=[
            {"from": "q0", "guard": "!(" * 2000 + "true" + ")" * 2000,
             "E": [], "I": [], "U": [], "to": "qf"}
        ])),
        ("empty", "--sra", json_text(initial_valuation=[])),
    ],
    ids=["groups", "stars", "counts", "guard", "valuation"],
)
def test_hostile_input_exits_2_without_traceback(tmp_path, capsys, verb, flag, text):
    if flag == "--sra":
        text = write_text(tmp_path, "hostile.json", text)
    assert main([verb, flag, text]) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_domain_parsing():
    assert _parse_domain("a-c") == [ord("a"), ord("b"), ord("c")]
    assert _parse_domain("1-3,7") == [1, 2, 3, 7]
    assert _parse_domain("x") == [ord("x")]
    assert _parse_domain("-5") == [-5]
    with pytest.raises(UsageError):
        _parse_domain("")
    with pytest.raises(UsageError):
        _parse_domain("foo-bar")
