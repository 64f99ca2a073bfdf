"""Seeded corpus of `cactus` CLI calls with their outputs, for Tier-1 to replay.

    python tests/make_cli_corpus.py --check   # rebuild in memory, compare with the file
    python tests/make_cli_corpus.py --write   # rebuild and overwrite the file

Each line of ``cli_corpus.jsonl`` is one call: its argv, its stdin (null
for none), its exit code, and what it wrote to stdout and to stderr.  An
output of more than `LITERAL` characters is stored as ``sha256:<hex>`` of
its UTF-8 bytes, so the file stays small.  The inputs come from one seeded
`random.Random` and the generators of `helpers`, and every call runs
in-process through `cli.run`, as the replay in `test_cli_corpus.py` does.

The cases cover every verb on seeded words, at arities up to and past the
spelling tables' bound; every `ParseError` message of both grammars; both
strand bounds; `separate` in both rings, separated, trivial, capped, with
``--max-degree 0`` and on odd words in Z; and `verify` on good, tampered,
reordered and malformed certificates and on a few hundred mutated ones.
Help and usage errors are left out, since argparse words them and its
wording differs between Python versions; so are calls at huge arities,
which their subprocess tests run.

A change that moves any output, or that shifts the seeded inputs, shows as
a difference under ``--check``.  A change that means to move them rewrites
the file with ``--write``, and the file's diff shows which cases moved.
"""

import argparse
import contextlib
import copy
import hashlib
import io
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
if __name__ == "__main__":  # run as a script: import the package from this checkout
    sys.path.insert(0, str(HERE.parent / "src"))

from cactus_groups import cli  # noqa: E402
from cactus_groups.words import CactusGenerator  # noqa: E402
from helpers import (  # noqa: E402
    compose_permutations,
    generator_permutation,
    identity_permutation,
    nested_commutator_text,
    random_cactus_word,
    random_diagram_word,
    random_even_lean_word,
    random_even_word,
    random_lean_word,
    reference_lean_reduce,
)

CORPUS = HERE / "cli_corpus.jsonl"
SEED = 11
LITERAL = 300  # longest output stored as it is
MAX_BYTES = 1 << 20

ALT = "t{1,2} t{1,3} t{1,2} t{1,3}"
WORKED = "s1,2 s1,3 s1,2 s1,3 s1,2 s1,3"
CACTUS_VERBS = ("perm", "is-pure", "eq", "diagram", "gamma0", "project", "render")
DIAGRAM_VERBS = ("nf", "deq", "delta", "separate", "make-generator", "render")
# A token for each error message of each grammar; the last is past MAX_STRAND.
BAD_GENERATORS = ("x", "s1;2", "s0,2", "s3,2", "s2,2", "s1,9", "s1,5000")
BAD_CHORDS = ("x", "t{}", "t{1,,2}", "t{2,1}", "t{1,1}", "t{0,1}", "t{9}", "t{1,5000}")


def _call(argv, stdin=None):
    """Exit code, stdout and stderr of ``cli.run(argv)`` with ``stdin`` as
    its standard input."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(list(argv))
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def _stored(text):
    if len(text) <= LITERAL:
        return text
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


def _line(argv, stdin, outcome):
    code, out, err = outcome
    return {"argv": list(argv), "stdin": stdin, "code": code,
            "stdout": _stored(out), "stderr": _stored(err)}


def record(argv, stdin=None):
    """The corpus line of one call, as a dict."""
    return _line(argv, stdin, _call(argv, stdin))


def cactus_text(letters):
    return " ".join(f"s{g.p},{g.q}" for g in letters)


def chord_text(mask):
    return "t{" + ",".join(str(i + 1) for i in range(mask.bit_length()) if mask >> i & 1) + "}"


def diagram_text(letters):
    return " ".join(map(chord_text, letters))


def _inversions(perm):
    return sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:])


def pure_cactus_text(rng, n, length):
    """A seeded word followed by the adjacent swaps that sort its
    permutation back: a pure word."""
    w = random_cactus_word(rng, n, length)
    perm = identity_permutation(n)
    letters = list(w.letters)
    for g in letters:
        perm = compose_permutations(perm, generator_permutation(g, n))
    swaps = [CactusGenerator(p, p + 1) for p in range(1, n)]
    while perm != identity_permutation(n):
        for g in swaps:
            moved = compose_permutations(perm, generator_permutation(g, n))
            if _inversions(moved) < _inversions(perm):
                perm = moved
                letters.append(g)
                break
    return cactus_text(letters)


def _verb_cases(rng):
    """Each verb on seeded words at n = 2 ... 7, and at 11 and 12, past the
    spelling tables."""

    def cactus(n, length):
        return cactus_text(random_cactus_word(rng, n, length).letters)

    for n in (*[rng.randrange(2, 8) for _ in range(14)], 11, 12):
        yield "perm", "--n", str(n), cactus(n, rng.randrange(9))
        yield "diagram", "--n", str(n), cactus(n, rng.randrange(9))
        yield "is-pure", "--n", str(n), pure_cactus_text(rng, n, rng.randrange(5))
        yield "is-pure", "--n", str(n), cactus(n, rng.randrange(5))
        yield "gamma0", "--n", str(n), pure_cactus_text(rng, n, rng.randrange(6))
        yield "gamma0", "--n", str(n), cactus(n, rng.randrange(4))
        u = random_cactus_word(rng, n, rng.randrange(6))
        g = random_cactus_word(rng, n, 1)
        yield "eq", "--n", str(n), cactus_text(u.letters), cactus_text((u * g * g).letters)
        yield "eq", "--n", str(n), cactus_text(u.letters), cactus(n, len(u))
        yield "render", "--n", str(n), cactus(n, rng.randrange(4))
    for n in (*[rng.randrange(2, 7) for _ in range(12)], 11, 12):
        w = random_diagram_word(rng, n, rng.randrange(12)).letters
        even = random_even_word(rng, n, rng.randrange(6)).letters
        yield "nf", "--n", str(n), diagram_text(w)
        yield "nf", "--n", str(n), diagram_text(even)
        yield "deq", "--n", str(n), diagram_text(w), diagram_text(reference_lean_reduce(w))
        shuffled = list(w)
        rng.shuffle(shuffled)
        yield "deq", "--n", str(n), diagram_text(w), diagram_text(shuffled)
        yield "delta", "--n", str(n), diagram_text(w)
        drawn = random_diagram_word(rng, n, rng.randrange(4)).letters
        yield "render", "--n", str(n), diagram_text(drawn)
    for n in (3, 4, 5, 6):
        for _ in range(3):
            yield "project", "--n", str(n), pure_cactus_text(rng, n, rng.randrange(1, 8))
        yield "project", "--n", str(n), cactus(n, 3)
    # every chord on more than two strands at n = 5, and some past the tables
    for mask in range(1, 1 << 5):
        if mask.bit_count() > 2:
            yield "make-generator", "--n", "5", chord_text(mask)
    yield "make-generator", "--n", "12", "t{2,7,12}"
    yield "make-generator", "--n", "64", "t{1,33,64}"
    yield "render", "--n", "26", "s1,26 s3,20"


def _fixed_cases():
    """Worked examples, spellings the tables miss, and every error a verb
    reports for a word it cannot read."""
    yield "perm", "--n", "3", ""
    yield "perm", "--n", "3", "  s1,2\t s2,3\n"
    yield "perm", "--n", "3", "s01,3 s1,03"  # read by the validating path
    yield "perm", "--n", "3", "s١,٣"  # Arabic-Indic digits
    yield "nf", "--n", "3", "t{01,2} t{1,02}"
    yield "nf", "--n", "3", "t{١,٢}"
    yield "is-pure", "--n", "3", WORKED
    yield "gamma0", "--n", "3", WORKED
    yield "project", "--n", "3", WORKED
    yield "eq", "--n", "3", WORKED, ""
    yield "eq", "--n", "3", WORKED + " " + WORKED, ""
    yield "diagram", "--n", "3", WORKED
    yield "delta", "--n", "3", "t{1,3} t{1,2} t{1,2} t{2,3} t{2,3}"
    yield "project", "--n", "21", "s1,2 s1,2"
    yield "render", "--n", "27", "t{1}"
    yield "render", "--n", "3", "x s1,2"
    yield "render", "--n", "3", "t{1} s1,2"
    # make-generator's own errors
    yield "make-generator", "--n", "3", "t{1,2}"
    yield "make-generator", "--n", "4", "t{1,2,3} t{1,2,3,4}"
    yield "make-generator", "--n", "4", ""
    yield "make-generator", "--n", "4", "t{1,2,5}"
    # non-positive arities, for every verb that reads one
    for verb in cli._VERBS:
        if verb == "verify":
            continue
        word = "t{1}" if verb in DIAGRAM_VERBS else "s9,1"
        words = (word, word) if verb in ("eq", "deq") else (word,)
        ring = ("--ring", "f2") if verb == "separate" else ()
        for n in ("0", "-3"):
            yield (verb, "--n", n, *ring, *words)
    # every message of each grammar, once per verb that reads it: the bad
    # token after one to three good ones, and again later
    good = {"cactus": ("s1,2", "s2,3", "s1,3"), "diagram": ("t{1,2}", "t{2,3}", "t{1,2,3}")}
    for grammar, verbs, bad_tokens in (
        ("cactus", CACTUS_VERBS, BAD_GENERATORS), ("diagram", DIAGRAM_VERBS, BAD_CHORDS)
    ):
        for verb in verbs:
            if verb == "render" and grammar == "cactus":
                continue  # the first token picks render's grammar
            for index, bad in enumerate(bad_tokens):
                tokens = [*good[grammar][: index % 3 + 1], bad, good[grammar][0], bad]
                if verb == "make-generator":
                    tokens = [bad]
                text = " ".join(tokens)
                if verb == "render":
                    text = "t{1} " + text
                words = (good[grammar][0], text) if verb in ("eq", "deq") else (text,)
                ring = ("--ring", "z") if verb == "separate" else ()
                yield (verb, "--n", "3", *ring, *words)
    # both strand bounds: MAX_STRAND, and arities past the spelling tables
    yield "nf", "--n", "4096", "t{4096} t{1,4096} t{4096}"
    yield "nf", "--n", "4097", "t{4097}"
    yield "nf", "--n", "100000", "t{1,100000}"
    yield "deq", "--n", "100000", "t{1}", "t{1,100000}"
    yield "is-pure", "--n", "4096", "s1,4096 s1,4096"
    yield "is-pure", "--n", "20000", "s1,20000"
    yield "eq", "--n", "20000", "s1,2", "s1,2 s1,20000"
    yield "perm", "--n", "4097", "s1,4097"
    yield "perm", "--n", "4096", "s4095,4096"
    yield "diagram", "--n", "4096", "s4090,4096 s1,2"
    yield "gamma0", "--n", "64", "s1,2 s1,2"
    yield "delta", "--n", "30", "t{1,30} t{2,29} t{1,30}"
    yield "nf", "--n", "11", "t{1,11} t{11} t{1,11} t{2,3,11}"
    # argparse reads these calls, and they answer as plain calls do
    yield "nf", "--n=3", "t{1,2} t{1,2,3} t{1,3}"
    yield "separate", "--ring=z", "--n", "3", ALT


def _separate_cases(rng):
    """`separate` in both rings: separated, trivial, capped, with a cap
    below 1, and words outside the even subgroup."""
    for ring in ("f2", "z"):
        yield "separate", "--n", "3", "--ring", ring, ALT
        for brackets in range(1, 5):
            yield "separate", "--n", "6", "--ring", ring, nested_commutator_text(brackets)
        capped = nested_commutator_text(3)
        yield "separate", "--n", "6", "--ring", ring, "--max-degree", "2", capped
        yield "separate", "--n", "3", "--ring", ring, "--max-degree", "1", ALT
        yield "separate", "--max-degree", "9", "--ring", ring, "--n", "3", ALT
        for cap in ("0", "-1"):
            yield "separate", "--n", "3", "--ring", ring, "--max-degree", cap, ALT
            yield "separate", "--n", "3", "--ring", ring, "--max-degree", cap, ""
        yield "separate", "--n", "3", "--ring", ring, ""
        yield "separate", "--n", "3", "--ring", ring, "t{1,2} t{1,3} t{1,3} t{1,2}"
        yield "separate", "--n", "11", "--ring", ring, "t{1,11} t{2,11} t{1,11} t{2,11}"
        # odd words: F2 separates them in degree 1, Z refuses them first
        for cap in ((), ("--max-degree", "0"), ("--max-degree", "-1"), ("--max-degree", "2")):
            yield ("separate", "--n", "3", "--ring", ring, *cap, "t{1,2,3}")
            yield ("separate", "--n", "3", "--ring", ring, *cap, "t{1,2} t{1,2} t{1,3}")
        for _ in range(8):
            n = rng.randrange(3, 6)
            w = random_even_lean_word(rng, n, rng.randrange(2, 4))
            yield "separate", "--n", str(n), "--ring", ring, diagram_text(w.letters)
            w = random_even_word(rng, n, rng.randrange(0, 5))
            yield "separate", "--n", str(n), "--ring", ring, diagram_text(w.letters)
            trivial = (*w.letters, *reversed(w.letters))
            yield "separate", "--n", str(n), "--ring", ring, diagram_text(trivial)
            w = random_lean_word(rng, n, rng.randrange(1, 6))
            yield "separate", "--n", str(n), "--ring", ring, diagram_text(w.letters)


# Values of the wrong type or range for any field of a certificate.
_STRANGE = (None, True, False, 1.0, "1", [], {}, -1, 0, 2, 2**70, [[1, 2]])
_STRANGE_CHORDS = ([2, 1], [], [0], [True], [1.0], [1, 4097], [1, 1], "t{1,2}", [[1]], 3)


def _mutated_element(rng, element):
    tokens = element.split()
    kind = rng.randrange(6)
    if kind == 0 and tokens:
        del tokens[rng.randrange(len(tokens))]
    elif kind == 1 and tokens:
        tokens.insert(rng.randrange(len(tokens) + 1), rng.choice(tokens))
    elif kind == 2 and len(tokens) > 1:
        i = rng.randrange(len(tokens) - 1)
        tokens[i], tokens[i + 1] = tokens[i + 1], tokens[i]
    elif kind == 3:
        return rng.choice(("", "t{0}", "t{1,4097}", "t{4096}", "s1,2", "t{2,1}"))
    elif kind == 4:
        return element + " " + element
    else:
        tokens.append(chord_text(rng.randrange(1, 16)))
    return " ".join(tokens)


def mutate(rng, data):
    """Change one part of a certificate's JSON data in place: a field's
    value or type, the witness list, one entry, one monomial or one chord."""
    witness = data["witness"]
    entry = rng.choice(witness)
    mono = entry["monomial"]
    kind = rng.randrange(16)
    if kind == 0:
        data["degree"] += rng.choice((-1, 1))
    elif kind == 1:
        data[rng.choice(("degree", "ring", "element", "witness"))] = rng.choice(_STRANGE)
    elif kind == 2:
        data["ring"] = rng.choice(("f2-nilpotent", "z-torsion-free", "f3", ""))
    elif kind == 3:
        data["element"] = _mutated_element(rng, data["element"])
    elif kind == 4:
        del data[rng.choice(sorted(data))]
    elif kind == 5:
        data["note"] = 1  # a key the layout does not name
    elif kind == 6:
        witness.remove(entry)
    elif kind == 7:
        witness.append(copy.deepcopy(entry))
    elif kind == 8:
        rng.shuffle(witness)
    elif kind == 9:
        entry["coeff"] = rng.choice((-entry["coeff"], entry["coeff"] + 1, 0))
    elif kind == 10:
        entry[rng.choice(("coeff", "monomial"))] = rng.choice(_STRANGE)
    elif kind == 11:
        del entry[rng.choice(("coeff", "monomial"))]
    elif kind == 12:
        mono.reverse()
    elif kind == 13:
        mono.insert(rng.randrange(len(mono) + 1), rng.choice(mono))
    elif kind == 14:
        mono[rng.randrange(len(mono))] = rng.choice(_STRANGE_CHORDS)
    else:
        chord = rng.choice(mono)
        chord[rng.randrange(len(chord))] += rng.choice((-1, 1))


def _verify_cases(rng, certificates):
    """`verify` on each certificate by argument, on some by stdin, tampered,
    reordered, malformed and mutated."""
    for cert in certificates:
        yield ("verify", cert), None
    for cert in certificates[::3]:
        yield ("verify", "-"), cert
    for cert in certificates[:12]:
        data = json.loads(cert)
        if len(data["witness"]) > 1:
            tampered = copy.deepcopy(data)
            tampered["witness"].pop()
            yield ("verify", json.dumps(tampered)), None
            reordered = copy.deepcopy(data)
            reordered["witness"].reverse()
            yield ("verify", json.dumps(reordered)), None
        for key in ("degree", "element"):
            raised = copy.deepcopy(data)
            raised[key] = data[key] + 1 if key == "degree" else data[key] + " t{1,2}"
            yield ("verify", json.dumps(raised)), None
        # keys in reverse order, and spread over lines
        yield ("verify", "-"), json.dumps(dict(reversed(data.items())), indent=1)
    for text in (
        "", "{", "[1]", "{} {}", "null", '"x"', "{'degree': 1}", '{"element": "t{1,2}"}',
        '{"element": "t{1,2}", "ring": "f2-nilpotent", "degree": 1, '
        '"witness": [{"monomial": [[2, 1]], "coeff": 1}]}',
        '{"element": "t{4097}", "ring": "f2-nilpotent", "degree": 1, '
        '"witness": [{"monomial": [[4097]], "coeff": 1}]}',
        '{"element": "t{4096}", "ring": "f2-nilpotent", "degree": 1, '
        '"witness": [{"monomial": [[4096]], "coeff": 1}]}',
        '{"element": "t{1,2}", "ring": "f2-nilpotent", "degree": 1, '
        '"witness": [{"monomial": [[1, 100000]], "coeff": 1}]}',
    ):
        yield ("verify", text), None
    yield ("verify", "-"), ""
    for _ in range(300):
        data = json.loads(rng.choice(certificates))
        for _ in range(rng.choice((1, 1, 1, 2))):
            try:
                mutate(rng, data)
            except (KeyError, TypeError, AttributeError, IndexError):
                break  # an earlier change took away what this one reads
        text = json.dumps(data, sort_keys=rng.random() < 0.5)
        if rng.random() < 0.1:
            text = text[: rng.randrange(1, len(text))]  # cut short: not JSON
        yield (("verify", "-"), text) if rng.random() < 0.3 else (("verify", text), None)


def build():
    """Every case of the corpus, in order, as dicts."""
    rng = random.Random(SEED)
    calls = [*_verb_cases(rng), *_fixed_cases(), *_separate_cases(rng)]
    outcomes = [_call(argv) for argv in calls]
    cases = [_line(argv, None, outcome) for argv, outcome in zip(calls, outcomes)]
    certificates = [
        out.rstrip("\n")
        for argv, (code, out, _) in zip(calls, outcomes)
        if argv[0] == "separate" and code == 0
    ]
    cases += [record(argv, stdin) for argv, stdin in _verify_cases(rng, certificates)]
    for case in cases:
        assert case["code"] in (0, 1, 2), case  # never an internal error
        assert not case["stderr"].startswith("usage:"), case  # argparse's wording
    return cases


def load():
    with open(CORPUS) as f:
        return [json.loads(line) for line in f]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true", help="compare with the committed file")
    mode.add_argument("--write", action="store_true", help="overwrite the committed file")
    args = parser.parse_args()
    text = "".join(json.dumps(case) + "\n" for case in build())
    assert len(text.encode()) < MAX_BYTES, len(text.encode())
    if args.write:
        CORPUS.write_text(text)
        print(f"wrote {text.count(chr(10))} cases, {len(text.encode())} bytes, to {CORPUS.name}")
        return 0
    built, committed = text.splitlines(), CORPUS.read_text().splitlines()
    moved = [i for i, (a, b) in enumerate(zip(built, committed), 1) if a != b]
    for i in moved[:5]:
        print(f"line {i} differs:\n  built:     {built[i - 1]}\n  committed: {committed[i - 1]}")
    if len(built) != len(committed):
        print(f"{len(built)} cases built, {len(committed)} committed")
    if moved or len(built) != len(committed):
        print(f"{CORPUS.name} is stale: {len(moved)} lines differ")
        return 1
    print(f"{CORPUS.name}: {len(built)} cases, all as committed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
