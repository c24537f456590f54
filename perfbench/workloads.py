"""Seeded inputs, known-answer tables and oracle checks for the workloads.

A pass runs three parts, decide, match and build, each at "full" or
"probe" scale.  The workload names the part that runs at full scale;
the other two run a small fixed probe, so that every end-to-end metric
is measured on every workload.

Every result is checked against an oracle that is not the code under
test: verdicts against a known-answer table, and words, texts and the
languages of built automata against ``re.fullmatch(pattern, text,
re.ASCII)``.  A failed check or an exception counts as one failed
operation; the pass goes on.

The library is imported inside ``setup`` so that import time counts as
set-up time, and it is always called through module attributes so that
the tracer's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import io
import json
import random
import re
import shutil
import statistics
import string
import time
from collections import defaultdict
from pathlib import Path

WORKLOADS = ("decide", "match", "build")

ALNUM = string.ascii_letters + string.digits
DATA = ALNUM + "-_.#"

# ---------------------------------------------------------------------------
# decide: (verb, left, right, expected verdict)

STOCK = (
    "IP2", "IP3", "IP4", "IP6", "IP9", "Name-F", "Name-L", "Name", "XML",
    "Pr-C2", "Pr-C3", "Pr-C4", "Pr-C6", "Pr-C9",
    "Pr-CL2", "Pr-CL3", "Pr-CL4", "Pr-CL6", "Pr-CL9",
)
DETERMINISM = tuple(("is_deterministic", name, None, True) for name in STOCK)

DECIDE = {
    "full": (
        ("equivalent", "Pr-C2", "Pr-C2", True),
        ("equivalent", "IP4", "IP4", True),
        ("equivalent", "IP3", "IP3", True),
        ("equivalent", "IP3", "IP4", False),
        ("includes", "Pr-CL2", "Pr-C2", False),
        ("includes", "Pr-C2", "Pr-CL2", False),
        ("includes", "IP4", "IP3", True),
        ("includes", "IP3", "IP4", False),
        ("is_empty", "Pr-C2", None, False),
        ("is_empty", "IP4", None, False),
        ("is_empty", "IP6", None, False),
    ) + DETERMINISM,
    "probe": (
        ("equivalent", "Name", "Name", True),
        ("equivalent", "Name-L", "Name-L", True),
        ("equivalent", "Name-F", "Name", False),
        ("includes", "XML", "XML", True),
        ("includes", "Name-F", "Name", False),
        ("is_empty", "IP3", None, False),
        ("is_empty", "XML", None, False),
    ) + DETERMINISM,
}

# ---------------------------------------------------------------------------
# match: characters per text; one accepted and one rejected text per
# family

NONDET_PATTERN = r"(..).*\1"
MATCH = {
    "full": {"det_chars": 200_000, "nondet_chars": 100_000},
    "probe": {"det_chars": 12_500, "nondet_chars": 12_500},
}

# ---------------------------------------------------------------------------
# build

DOMAINS = {  # register domains of the expansions
    "digits": string.digits,
    "name28": string.ascii_lowercase + " .",
    "name16": "abcdefghijklmn .",
}
BUILD = {
    "full": {
        "templates": 8,
        "chains": ("IP4", "Pr-CL3"),
        "cli": "IP4",
        "boolean": ("IP3", "IP4"),
        "expand": (("IP3", "digits"), ("XML", "letters16"), ("Name", "name28")),
        "overflow_cap": 20_000,
    },
    "probe": {
        "templates": 1,
        "chains": ("Name",),
        "cli": "Name-F",
        "boolean": ("Name-F", "Name"),
        "expand": (("Name", "name16"),),
        "overflow_cap": None,
    },
}
# sample words per automaton for the language checks; membership on the
# normalized Pr-CL3 (about 9,700 states) costs seconds a word, so the
# largest automata get fewer
SAMPLES = 6
SAMPLES_LARGE = 2
LARGE_STATES = 5_000


# ---------------------------------------------------------------------------
# text families: a pattern plus a seeded generator of accepted texts and
# texts rejected only by their last record


class Product:
    """Product records sharing a code (and, with lot_ref, a lot)."""

    def __init__(self, width, lot_ref, tags=("C", "L", "D")):
        self.width, self.lot_ref, self.tags = width, lot_ref, tags
        c, l, d = tags
        code = "(" + "." * width + ")"
        lot, lot_back = ("(.)", r"\2") if lot_ref else (".", ".")
        self.pattern = (
            f"{c}:{code} {l}:{lot} {d}:[^\\s]+( {c}:\\1 {l}:{lot_back} {d}:[^\\s]+)+"
        )
        self.mutation_alphabet = ALNUM[:6] + " :"

    def text(self, rng, records, accept):
        c, l, d = self.tags
        code = "".join(rng.choices(ALNUM, k=self.width))
        lot = rng.choice(ALNUM)

        def record(rec_code):
            rec_lot = lot if self.lot_ref else rng.choice(ALNUM)
            data = "".join(rng.choices(DATA, k=rng.randint(1, 8)))
            return f"{c}:{rec_code} {l}:{rec_lot} {d}:{data}"

        body = _records(rng, records - 1, lambda: record(code))
        return " ".join(body + [record(code if accept else _differ(rng, code, ALNUM))])

    def record_chars(self):  # about, for sizing long texts
        return 3 * 3 + self.width + 1 + 5


class Endpoints:
    """IP:port endpoint lists whose addresses share the first n digits."""

    def __init__(self, shared, tag="IP"):
        self.shared, self.tag = shared, tag
        first, back = [], []
        for i in range(12):
            if i in (3, 6, 9):
                first.append("\\.")
                back.append("\\.")
            first.append("(\\d)" if i < shared else "\\d")
            back.append(f"\\{i + 1}" if i < shared else "\\d")
        self.pattern = (
            f"{tag}: {''.join(first)}:\\d+( {tag}: {''.join(back)}:\\d+)+"
        )
        self.mutation_alphabet = string.digits + ".:"

    def text(self, rng, records, accept):
        prefix = "".join(rng.choices(string.digits, k=self.shared))

        def record(head):
            digits = head + "".join(rng.choices(string.digits, k=12 - self.shared))
            addr = ".".join(digits[j:j + 3] for j in range(0, 12, 3))
            port = "".join(rng.choices(string.digits, k=rng.randint(1, 5)))
            return f"{self.tag}: {addr}:{port}"

        body = _records(rng, records - 1, lambda: record(prefix))
        last = record(prefix if accept else _differ(rng, prefix, string.digits))
        return " ".join(body + [last])

    def record_chars(self):  # about, for sizing long texts
        return len(self.tag) + 2 + 15 + 4


class Tagged:
    """XML elements whose closing tag repeats a three-letter opening tag."""

    pattern = r"<([a-zA-Z])([a-zA-Z])([a-zA-Z])>([a-zA-Z]|[0-9]| )*</\1\2\3>"

    def __init__(self, letters=string.ascii_letters):
        self.letters = letters
        self.mutation_alphabet = letters[:4] + "<>/ 1"

    def text(self, rng, records, accept):
        tag = "".join(rng.choices(self.letters, k=3))
        close = tag if accept else _differ(rng, tag, self.letters)
        body = "".join(rng.choices(self.letters + "0123456789 ", k=4 * records))
        return f"<{tag}>{body}</{close}>"


class Initials:
    """A first and last name followed by their initials."""

    pattern = r"([a-z])[a-z]* ([a-z])[a-z]* \1\2"

    def __init__(self, letters=string.ascii_lowercase):
        self.letters = letters
        self.mutation_alphabet = letters[:3] + " ."

    def text(self, rng, records, accept):
        first, last = ("".join(rng.choices(self.letters, k=rng.randint(1, 2 + records)))
                       for _ in range(2))
        initials = first[0] + last[0]
        if not accept:
            initials = _differ(rng, initials, self.letters)
        return f"{first} {last} {initials}"


class Repeat2:
    """Two characters, any filler, then the same two characters again."""

    pattern = NONDET_PATTERN
    mutation_alphabet = "abc"

    def text(self, rng, records, accept):
        head = "".join(rng.choices("ab", k=2))
        tail = head if accept else _differ(rng, head, "ab")
        filler = "".join(rng.choices("abcd xy", k=max(0, records - 4)))
        return head + filler + tail

    def record_chars(self):  # a record is one character here
        return 1


def _records(rng, n, make, distinct=512):
    """n records drawn from a seeded pool of distinct ones (long texts)."""
    if n <= distinct:
        return [make() for _ in range(n)]
    return rng.choices([make() for _ in range(distinct)], k=n)


def _differ(rng, s, alphabet):
    """s with one position changed to another letter of the alphabet."""
    i = rng.randrange(len(s))
    c = rng.choice([a for a in alphabet if a != s[i]])
    return s[:i] + c + s[i + 1:]


def family(name):
    """The text family of a stock pattern name."""
    if name.startswith("Pr-CL"):
        return Product(int(name[5:]) - 1, True)
    if name.startswith("Pr-C"):
        return Product(int(name[4:]), False)
    if name.startswith("IP"):
        return Endpoints(int(name[2:]))
    return {"XML": Tagged, "Name": Initials}[name]()


def expansion_family(name, domain):
    """The family of a stock pattern whose stored letters lie in domain."""
    letters = "".join(c for c in domain if c.isalpha())
    if name == "XML":
        return Tagged(letters)
    if name == "Name":
        return Initials(letters)
    return family(name)


def draw_template(rng, i):
    """A product or IP template with seeded widths and tags."""
    tags = rng.sample(string.ascii_uppercase, 3)
    if i % 2 == 0:
        return Product(rng.randint(1, 4), rng.random() < 0.5, tuple(tags))
    return Endpoints(rng.randint(1, 6), tags[0] + tags[1])


def sample_words(rng, fam, n):
    """n short texts: accepted, rejected and randomly mutated ones."""
    words = []
    for k in range(n):
        text = fam.text(rng, rng.randint(2, 3), accept=k % 2 == 0)
        if k % 3 == 2:
            i = rng.randrange(len(text))
            text = text[:i] + rng.choice(fam.mutation_alphabet) + text[i + 1:]
        words.append(text)
    return words


def oracle(pattern, text) -> bool:
    return re.fullmatch(pattern, text, re.ASCII) is not None


def text_of(word) -> str:
    return "".join(map(chr, word))


# ---------------------------------------------------------------------------
# one pass

# rounds per pass, by workload: each round takes one sample of each probe
ROUNDS = {"decide": 20, "match": 10, "build": 20}
REPEATED = ("match",)  # full parts cheap and cache-free enough to sample every round


def decide_metrics(acc):
    verbs = ("equiv_s", "includes_s", "empty_s")
    return {"decide_s": sum(acc[k] for k in verbs + ("deterministic_s",)),
            **{k: acc[k] for k in verbs}}


def match_metrics(acc):
    return {f"match_{path}_mchar_per_s": _rate(acc[f"{path}_chars"] / 1e6, acc[f"{path}_s"])
            for path in ("det", "nondet")}


def build_metrics(acc):
    return {
        "build_s": acc["build_s"] + acc["json_s"] + acc["expand_s"],
        "expand_kstates_per_s": _rate(acc["expand_states"] / 1e3, acc["expand_s"]),
        "json_mb_per_s": _rate(acc["json_bytes"] / 1e6, acc["json_s"]),
    }


METRICS = {"decide": decide_metrics, "match": match_metrics, "build": build_metrics}


# Times are reported in reference seconds: measured seconds scaled by
# REFERENCE_S over the time reference_loop_s takes around then.  The
# loop is plain Python that touches no sra code, so a change to the
# library moves the reported times exactly as it moves the measured
# ones, while a change in the speed of the machine moves neither.
REFERENCE_S = 0.003
REFERENCE_ITERATIONS = 10_000


def reference_loop_s(repeat=5):
    """Median time of a few runs of a fixed loop of tuple hashing and
    dict updates on a small table.  The loop keeps nothing, so the
    size of the heap the pass has built does not slow it."""
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        table = {}
        for i in range(REFERENCE_ITERATIONS):
            key = (i & 1023, i & 7)
            table[key] = table.get(key, 0) + i % 13
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _rate(amount, seconds):
    # a part whose timed work failed before it started reports 0
    return amount / seconds if seconds > 0 else 0.0


class Pass:
    """One pass: the workload's part at full scale, the other two parts
    as probes.

    The pass runs in ROUNDS[workload] rounds.  The full part's steps are
    spread over the rounds and run once, each on cold caches, giving one
    sample of its metrics; match, whose scans share no cache, is instead
    sampled in every round.  Each round ends with one sample of each
    probe part, so probes are sampled throughout the pass, warm after
    the first.  A full collection precedes every full-part step and
    every sample, so no timing pays for garbage an earlier one left.
    """

    def __init__(self, workload, seed, scratch: Path):
        self.workload = workload
        self.seed = seed
        self.scratch = scratch
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.samples = defaultdict(list)
        self.acc = defaultdict(float)  # times and sizes of the running unit
        # context the oracle checks run in; the tracer swaps in its pause
        self.untraced = contextlib.nullcontext

    def scale(self, part):
        return "full" if part == self.workload else "probe"

    def op(self, what, fn):
        """Run one checked operation; count it, and count a failure."""
        self.attempted += 1
        try:
            ok = fn()
        except Exception as exc:  # a crash is a failed operation, not the end of the run
            ok = False
            what = f"{what}: {type(exc).__name__}: {exc}"
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    # -- set-up --------------------------------------------------------------

    def setup(self):
        """Imports, pattern compilation, seeded inputs and lazy tables."""
        from sra import (
            algebra, boolean_ops, cli, core, equiv, expand, normal, regex, single_valued,
        )

        self.lib = {
            "algebra": algebra, "boolean_ops": boolean_ops, "cli": cli, "core": core,
            "equiv": equiv, "expand": expand, "normal": normal,
            "regex": regex, "single_valued": single_valued,
        }
        self.patterns = {name: regex.BENCHMARK_PATTERNS[name] for name in STOCK}
        self.stock = {name: regex.compile(p).sra for name, p in self.patterns.items()}
        rng = random.Random(self.seed)
        self.decide_order = list(DECIDE[self.scale("decide")])
        rng.shuffle(self.decide_order)
        self.match_texts = self._match_texts(random.Random(rng.random()))
        self._verdicts = {}  # re's verdict per text, as texts are rescanned
        build_rng = random.Random(rng.random())
        self.domains = dict(DOMAINS, letters16="".join(build_rng.sample(string.ascii_letters, 16)))
        self.templates = [draw_template(build_rng, i)
                          for i in range(BUILD[self.scale("build")]["templates"])]
        self.sample_rng = random.Random(build_rng.random())

    def _match_texts(self, rng):
        spec = MATCH[self.scale("match")]
        regex = self.lib["regex"]
        texts = []
        for path, fam in (("det", family("Pr-C2")), ("det", family("IP4")), ("nondet", Repeat2())):
            cp = regex.compile(fam.pattern)
            regex.match(cp, "")  # fills the lazy determinism flag and scan table
            records = max(2, spec[f"{path}_chars"] // fam.record_chars())
            for accept in (True, False):
                texts.append((path, fam.pattern, cp, fam.text(rng, records, accept), accept))
        return texts

    # -- the three parts, as (label, checked step) lists ----------------------

    def steps(self, part):
        return getattr(self, f"_{part}_steps")()

    def _decide_steps(self):
        table = self.decide_order if self.scale("decide") == "full" else DECIDE["probe"]
        return [(f"{verb}({left}{', ' + right if right else ''})",
                 functools.partial(self._decide_one, verb, left, right, expected))
                for verb, left, right, expected in table]

    def _decide_one(self, verb, left, right, expected):
        equiv, normal = self.lib["equiv"], self.lib["normal"]
        A = self.stock[left]
        if verb == "equivalent":
            return self._timed("equiv_s", equiv.equivalent, A, self.stock[right]) == expected
        if verb == "is_deterministic":
            return self._timed("deterministic_s", normal.is_deterministic, A) == expected
        if verb == "includes":
            ok, word = self._timed("includes_s", equiv.includes, A, self.stock[right])
            if ok != expected:
                return False
            return word is None if ok else self._separates(word, left, right)
        if verb == "is_empty":
            empty, word = self._timed("empty_s", normal.is_empty, A)
            return empty == expected and (empty or self._separates(word, left, None))
        raise ValueError(verb)

    def _separates(self, word, left, right) -> bool:
        """The word is in the left language and outside the right one,
        both by membership replay and by re."""
        membership = self.lib["core"].membership
        text = text_of(word)
        with self.untraced():
            inside = membership(self.stock[left], word) and oracle(self.patterns[left], text)
            if right is None:
                return inside
            return inside and not (membership(self.stock[right], word)
                                   or oracle(self.patterns[right], text))

    def _match_steps(self):
        return [(f"match {path} {pattern} accept={accept}",
                 functools.partial(self._match_one, path, pattern, cp, text, accept))
                for path, pattern, cp, text, accept in self.match_texts]

    def _match_one(self, path, pattern, cp, text, accept):
        got = self._timed(f"{path}_s", self.lib["regex"].match, cp, text)
        self.acc[f"{path}_chars"] += len(text)
        if text not in self._verdicts:
            self._verdicts[text] = oracle(pattern, text)
        return got == self._verdicts[text] == accept

    def _build_steps(self):
        spec = BUILD[self.scale("build")]
        exported = []  # (label, automaton) for the JSON round trips
        steps = [(f"compile {fam.pattern}", functools.partial(self._compile, fam))
                 for fam in self.templates]
        steps += [(f"chain {name}", functools.partial(self._chain, name, exported))
                  for name in spec["chains"]]
        left, right = spec["boolean"]
        steps.append((f"intersect/union {left} {right}",
                      functools.partial(self._boolean, left, right, exported)))
        steps.append((f"cli round trip {spec['cli']}",
                      functools.partial(self._cli, spec["cli"])))
        steps += [(f"json round trip {i}", functools.partial(self._export, exported, i))
                  for i in range(len(spec["chains"]) + 2)]
        steps += [(f"expand {name} over {domain}",
                   functools.partial(self._expand, name, domain))
                  for name, domain in spec["expand"]]
        if spec["overflow_cap"]:
            steps.append(("expand overflow",
                          functools.partial(self._overflow, spec["overflow_cap"])))
        return steps

    def _agrees(self, automata, pattern, fam, also=None) -> bool:
        """Every automaton's verdict on seeded sample words equals re's.

        `also` maps an automaton label to a function giving its expected
        verdict on a text, for automata whose language is not pattern's.
        """
        membership = self.lib["core"].membership
        largest = max(len(S.states) for S in automata.values())
        n = SAMPLES_LARGE if largest > LARGE_STATES else SAMPLES
        with self.untraced():
            for text in sample_words(self.sample_rng, fam, n):
                word = [ord(c) for c in text]
                for label, S in automata.items():
                    expect = (also or {}).get(label, lambda t: oracle(pattern, t))(text)
                    if membership(S, word) != expect:
                        return False
        return True

    def _compile(self, fam):
        S = self._timed("build_s", self.lib["regex"].compile, fam.pattern).sra
        return self._agrees({"source": S}, fam.pattern, fam)

    def _chain(self, name, exported):
        lib = self.lib
        S = self.stock[name]
        sv = self._timed("build_s", lib["single_valued"].to_single_valued, S)
        completed = self._timed("build_s", lib["boolean_ops"].complete, sv)
        normalized = self._timed("build_s", lib["normal"].normalize, sv)
        exported.append((f"completed {name}", completed))
        return self._agrees(
            {"source": S, "completed": completed, "normalized": normalized},
            self.patterns[name], family(name))

    def _boolean(self, left, right, exported):
        boolean_ops = self.lib["boolean_ops"]
        A, B = self.stock[left], self.stock[right]
        both = self._timed("build_s", boolean_ops.intersect, A, B)
        either = self._timed("build_s", boolean_ops.union, A, B)
        exported += [(f"{left} & {right}", both), (f"{left} | {right}", either)]
        pl, pr = self.patterns[left], self.patterns[right]
        return self._agrees(
            {"both": both, "either": either}, pr, family(right),
            also={"both": lambda t: oracle(pl, t) and oracle(pr, t),
                  "either": lambda t: oracle(pl, t) or oracle(pr, t)})

    def _cli(self, name):
        main = self.lib["cli"].main
        pattern = self.patterns[name]
        path = self.scratch / f"{name}.normalized.json"
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc_compile = self._timed("build_s", main, [
                "compile", "--pattern", pattern, "--emit-normalized", "--out", str(path)])
            rc_empty = self._timed("build_s", main, ["empty", "--sra", str(path)])
        if (rc_compile, rc_empty) != (0, 1):
            return False
        witness = json.loads(out.getvalue().splitlines()[-1])["witness"]
        return oracle(pattern, text_of(witness)) and self._round_trip(path.read_text())

    def _export(self, exported, i) -> bool:
        """Dump the i-th exported automaton and check its round trip."""
        text = self._timed("json_s", self.lib["core"].dumps, exported[i][1])
        return self._round_trip(text, dumped=True)

    def _round_trip(self, text, dumped=False) -> bool:
        """The text fixpoint dumps(loads(text)) == text, timed as JSON work.

        loads(dumps(S)) == S does not hold: loads re-nests n-ary And
        guards into left-deep binary ones, so the text is compared.
        """
        core = self.lib["core"]
        again = self._timed("json_s", core.dumps, self._timed("json_s", core.loads, text))
        self.acc["json_bytes"] += (3 if dumped else 2) * len(text)
        return again == text

    def _expand(self, name, domain):
        letters = self.domains[domain]
        ex = self._timed("expand_s", self.lib["expand"].expand_to_sfa,
                         self.stock[name], [ord(c) for c in letters])
        self.acc["expand_states"] += ex.state_count
        return not ex.overflow and self._agrees(
            {"expanded": ex.sfa}, self.patterns[name], expansion_family(name, letters))

    def _overflow(self, cap):
        S = self.lib["regex"].compile(r"(...)\1").sra
        ex = self._timed("expand_s", self.lib["expand"].expand_to_sfa,
                         S, range(2 ** 16), max_states=cap)
        self.acc["expand_states"] += ex.state_count
        # 65,536 ** 3 reachable valuations dwarf any cap
        return ex.overflow and ex.sfa is None and ex.state_count == cap + 1

    # -- timing ------------------------------------------------------------

    def _timed(self, key, fn, *args, **kwargs):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        self.acc[key] += time.perf_counter() - t0
        return result

    def _unit(self, steps, into):
        """Run steps; add their times, in reference seconds, to `into`.

        The reference loop is timed just before and just after, and the
        steps' times are scaled by REFERENCE_S over the mean of the two
        readings, so a drift in machine speed cancels out.
        """
        gc.collect()
        before = reference_loop_s()
        self.acc = defaultdict(float)
        for label, fn in steps:
            self.op(label, fn)
        factor = REFERENCE_S / ((before + reference_loop_s()) / 2)
        for key, value in self.acc.items():
            into[key] += value * factor if key.endswith("_s") else value

    # -- running the pass ----------------------------------------------------

    def run(self):
        """Fill self.samples: metric name -> values, one per sample."""
        self.scratch.mkdir(parents=True, exist_ok=True)
        try:
            full = defaultdict(float)
            steps = self.steps(self.workload)
            rounds = ROUNDS[self.workload]
            for i in range(rounds):
                if self.workload in REPEATED:
                    self._sample(self.workload)
                else:
                    for step in steps[i * len(steps) // rounds:(i + 1) * len(steps) // rounds]:
                        self._forget_caches()
                        self._unit([step], full)
                for part in WORKLOADS:
                    if part != self.workload:
                        self._sample(part)
        finally:
            shutil.rmtree(self.scratch, ignore_errors=True)
            with contextlib.suppress(OSError):  # other passes may still use it
                self.scratch.parent.rmdir()
        if self.workload not in REPEATED:
            for name, value in METRICS[self.workload](full).items():
                self.samples[name].append(value)

    def _forget_caches(self):
        """Empty the cache the library keeps between calls.

        Full-part steps then run as in a fresh process, whatever order
        the seed shuffled them into; probes keep their warm caches.
        """
        for algebra in (self.lib["algebra"].UNICODE, self.lib["algebra"].INTEGERS):
            getattr(algebra, "_size_cache", {}).clear()

    def _sample(self, part):
        acc = defaultdict(float)
        self._unit(self.steps(part), acc)
        for name, value in METRICS[part](acc).items():
            self.samples[name].append(value)
