"""The benchmark's workloads: seeded inputs, the call into the package, the check.

Every workload is a closed loop run by one client: one process, one
thread, each operation sent after the previous one returns.  An operation
is a call into the package on text inputs (parsing included) plus a
check of its answer against a known answer from `knowns`, which never
imports the package.  Operations are built in fixed rounds, so a round
holds the same mix of sizes on every seed and the seed only changes the
words.

Calls go through module attributes (``cactus_core.equal_in_Jn(...)``),
never through names bound here, so the traced run sees them.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from typing import Any, Callable

import knowns as K
from cactus_groups import (
    algebra_f2,
    algebra_z,
    cactus_core,
    certificates,
    cli,
    diagram_group,
    words,
)


@dataclass(frozen=True)
class Op:
    """One operation: ``call`` runs it, ``check`` judges its result.

    ``tag`` groups latencies (``L1000``, ``separate``, ...); ``inputs``
    holds the text the package receives.
    """

    tag: str
    inputs: tuple
    call: Callable[[], Any]
    check: Callable[[Any], bool]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # Length of the operation list the timed loop cycles through; the tail
    # percentile is chosen for this count.
    fixed_ops: int
    # Operations in each pass of a traced run (untraced, then traced).
    trace_ops: int
    make_ops: Callable[[random.Random], Any]  # seeded rng -> iterator of Op

    def build(self, seed: int, count: int) -> list[Op]:
        """The first ``count`` operations for ``seed``; a prefix of any
        longer list for the same seed."""
        ops = self.make_ops(random.Random(f"{self.name}:{seed}"))
        return [next(ops) for _ in range(count)]


# --- wordproblem-long ---------------------------------------------------------------

LENGTHS = (40, 200, 1000)
SWEEP_WORDS = {40: 5, 200: 8, 1000: 3}  # words per n in the length sweep
WORDPROBLEM_N = (4, 5, 6, 7, 8)


def _eq_op(rng: random.Random, n: int, length: int, equal: bool) -> Op:
    g, h = K.cactus_pair(rng, n, length, equal)
    g_text, h_text = K.cactus_word_text(g), K.cactus_word_text(h)

    def call():
        return cactus_core.equal_in_Jn(
            words.parse_cactus_word(g_text, n), words.parse_cactus_word(h_text, n)
        )

    return Op(f"L{length}", (n, g_text, h_text), call, lambda result: result is equal)


def _deq_op(rng: random.Random, n: int, length: int, equal: bool) -> Op:
    a, b, _ = K.chord_pair(rng, n, length, equal)
    a_text, b_text = K.chord_word_text(a), K.chord_word_text(b)

    def call():
        return diagram_group.equal_diagrams(
            words.parse_diagram_word(a_text, n), words.parse_diagram_word(b_text, n)
        )

    return Op(f"L{length}", (n, a_text, b_text), call, lambda result: result is equal)


def normal_form_ok(letters, base) -> bool:
    """A normal form of a word equal to the reduced word ``base``: reduced,
    equal to ``base`` up to commutations, and with no adjacent commuting
    pair in decreasing order (a swap would make it smaller)."""
    if not K.is_reduced(letters) or not K.trace_equivalent(letters, base):
        return False
    return not any(
        a > b and K.commute(a, b) for a, b in zip(letters, letters[1:])
    )


def _nf_op(rng: random.Random, n: int, length: int, equal: bool) -> Op:
    a, b, base = K.chord_pair(rng, n, length, equal)
    a_text, b_text = K.chord_word_text(a), K.chord_word_text(b)

    def call():
        return (
            diagram_group.lex_normal_form(words.parse_diagram_word(a_text, n)),
            diagram_group.lex_normal_form(words.parse_diagram_word(b_text, n)),
        )

    def check(result):
        nf_a, nf_b = result
        return (nf_a == nf_b) is equal and normal_form_ok(nf_a.letters, base)

    return Op(f"L{length}", (n, a_text, b_text), call, check)


def wordproblem_round(rng: random.Random, first_equal: bool = True, lengths=LENGTHS):
    """One round: every (kind, n, L), equal and unequal pairs alternating,
    with L varying fastest so that a cut-off loop holds equal counts at
    each length."""
    slot = 0
    for make in (_eq_op, _deq_op, _nf_op):
        for n in WORDPROBLEM_N:
            for length in lengths:
                yield make(rng, n, length, (slot % 2 == 0) is first_equal)
                slot += 1


def _wordproblem_ops(rng: random.Random):
    """Rounds alternate which pairs are equal, so two rounds hold both."""
    first_equal = True
    while True:
        yield from wordproblem_round(rng, first_equal)
        first_equal = not first_equal


def length_sweep_ops(seed: int) -> list[Op]:
    """The cactus word problem at each length, n = 4..8, equal and unequal
    pairs alternating: the length sweep measured beside the other
    workloads.  Shorter lengths get more words, since they cost less."""
    rng = random.Random(f"length-sweep:{seed}")
    return [
        _eq_op(rng, n, length, (n + k) % 2 == 0)
        for length, per_n in SWEEP_WORDS.items()
        for n in WORDPROBLEM_N
        for k in range(per_n)
    ]


# --- certify-deep -----------------------------------------------------------------

CERTIFY_N = (4, 5, 6)


def _separate_op(rng: random.Random, n: int, depth: int, ring: str) -> Op:
    letters = K.commutator(rng, n, depth)
    text = K.chord_word_text(letters)
    separate = "nilpotent_separation" if ring == "f2" else "tfn_separation"
    module = algebra_f2 if ring == "f2" else algebra_z
    ring_name = certificates.RING_F2 if ring == "f2" else certificates.RING_Z
    # A depth-k commutator lies in the k-th lower central term, which the
    # mod-2 map sends to 1 + (degree >= k).  The integer map is a
    # homomorphism on the even subgroup only, which guarantees degree 2.
    least = depth if ring == "f2" else 2

    def call():
        cert = getattr(module, separate)(words.parse_diagram_word(text, n))
        payload = cert.to_json()
        back = certificates.SeparationCertificate.from_json(payload)
        return cert, back, certificates.verify_certificate(back)

    def check(result):
        cert, back, verified = result
        return (
            verified is True
            and back == cert
            and cert.ring == ring_name
            and cert.element == text
            and least <= cert.degree <= len(letters)
        )

    return Op("separate", (n, ring, text), call, check)


def _find_class(keys, letters):
    for key in keys:
        if len(key) == len(letters) and K.trace_equivalent(key, letters):
            return key
    return None


def _f2_image_op(rng: random.Random, n: int, length: int) -> Op:
    letters = K.random_reduced(rng, n, length)
    text = K.chord_word_text(letters)

    def call():
        return algebra_f2.f2_image(words.parse_diagram_word(text, n), length)

    def check(series):
        # The only subsequence of full length is the word itself, and a
        # reduced word's monomial does not vanish.
        top = [m for m in series.support if len(m) == length]
        return len(top) == 1 and K.trace_equivalent(top[0], letters)

    return Op("f2_image", (n, text), call, check)


def _z_image_op(rng: random.Random, n: int, length: int) -> Op:
    letters = K.random_even_reduced(rng, n, length // 2)
    text = K.chord_word_text(letters)

    def call():
        return algebra_z.z_image(words.parse_diagram_word(text, n), length)

    def check(series):
        key = _find_class(series.coeffs, letters)
        return key is not None and series.coeffs[key] == (-1) ** (length // 2)

    return Op("z_image", (n, text), call, check)


def certify_round(rng: random.Random):
    for n in CERTIFY_N:
        for depth in (2, 3, 4):
            for ring in ("f2", "z"):
                yield _separate_op(rng, n, depth, ring)
        for length in (4, 5, 6, 7, 8):
            yield _f2_image_op(rng, n, length)
        for length in (4, 6, 8):
            yield _z_image_op(rng, n, length)


def _certify_ops(rng: random.Random):
    while True:
        yield from certify_round(rng)


# --- cli-mixed ------------------------------------------------------------------------

CLI_N = (3, 4, 5, 6)
BAD_EVERY = 20  # one request in twenty is malformed


def cli_call(argv: list[str]):
    """``cli.run`` with its output captured: (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue()


def _cli_op(verb: str, argv: list[str], check: Callable[[int, str], bool]) -> Op:
    return Op(verb, tuple(argv), lambda: cli_call(argv), lambda result: check(*result))


def _expect(code: int, stdout: str):
    return lambda got_code, got_out: got_code == code and got_out == stdout


def _decision(value: bool):
    return _expect(0 if value else 1, "true\n" if value else "false\n")


def _vector(values) -> str:
    return "[" + ",".join(str(v) for v in values) + "]\n"


def _cactus(rng: random.Random, n: int, low: int = 4, high: int = 40) -> list:
    gens = K.cactus_generators(n)
    return [rng.choice(gens) for _ in range(rng.randint(low, high))]


def _pure(rng: random.Random, n: int, high: int = 40) -> list:
    """A pure word of at most ``high`` letters."""
    return K.purify(_cactus(rng, n, 2, high - n * (n - 1) // 2), n)


def _parse_cactus_output(text: str) -> list | None:
    letters = []
    for token in text.split():
        if not token.startswith("s"):
            return None
        p, q = token[1:].split(",")
        letters.append((int(p), int(q)))
    return letters


def _cli_perm(rng, n):
    w = _cactus(rng, n)
    return ["perm", "--n", str(n), K.cactus_word_text(w)], _expect(0, _vector(K.permutation(w, n)))


def _cli_is_pure(rng, n):
    w = _pure(rng, n) if rng.random() < 0.5 else _cactus(rng, n)
    pure = K.permutation(w, n) == tuple(range(1, n + 1))
    return ["is-pure", "--n", str(n), K.cactus_word_text(w)], _decision(pure)


def _cli_eq(rng, n):
    equal = rng.random() < 0.5
    g, h = K.cactus_pair(rng, n, 2 * rng.randint(12, 17), equal)
    argv = ["eq", "--n", str(n), K.cactus_word_text(g), K.cactus_word_text(h)]
    return argv, _decision(equal)


def _cli_diagram(rng, n):
    w = _cactus(rng, n)
    expected = K.chord_word_text(K.diagram(w, n)) + "\n"
    return ["diagram", "--n", str(n), K.cactus_word_text(w)], _expect(0, expected)


def _cli_nf(rng, n):
    core = K.random_reduced(rng, n, rng.randint(3, 6))
    target = len(core) + 2 * rng.randint(1, 12)
    w = K.scramble_chords(rng, core, n, target, 2 * target)
    expected = K.chord_word_text(K.lex_least_class(core)) + "\n"
    return ["nf", "--n", str(n), K.chord_word_text(w)], _expect(0, expected)


def _cli_deq(rng, n):
    equal = rng.random() < 0.5
    a, b, _ = K.chord_pair(rng, n, 2 * rng.randint(8, 18), equal)
    argv = ["deq", "--n", str(n), K.chord_word_text(a), K.chord_word_text(b)]
    return argv, _decision(equal)


def _cli_delta(rng, n):
    w = [rng.randrange(1, 1 << n) for _ in range(rng.randint(4, 40))]
    expected = " ".join(K.chord_text(c) for c in K.odd_chords(w)) + "\n"
    return ["delta", "--n", str(n), K.chord_word_text(w)], _expect(0, expected)


def _cli_gamma0(rng, n):
    # A pure word's diagram is a homomorphism, so w w meets every chord
    # an even number of times: half the requests have answer true.
    if rng.random() < 0.5:
        w = _pure(rng, n, 20)
        w = w + w
    else:
        w = _pure(rng, n)
    even = not K.odd_chords(K.diagram(w, n))
    return ["gamma0", "--n", str(n), K.cactus_word_text(w)], _decision(even)


def _cli_project(rng, n):
    w = _pure(rng, n)
    odd = set(K.odd_chords(K.diagram(w, n)))
    expected = _vector(1 if m in odd else 0 for m in K.big_chords(n))
    return ["project", "--n", str(n), K.cactus_word_text(w)], _expect(0, expected)


def _cli_make_generator(rng, n):
    mask = rng.choice(K.big_chords(n))

    def check(code, out):
        w = _parse_cactus_output(out)
        return (
            code == 0
            and w is not None
            and K.permutation(w, n) == tuple(range(1, n + 1))
            and [c for c in K.diagram(w, n) if c.bit_count() > 2] == [mask]
        )

    return ["make-generator", "--n", str(n), K.chord_text(mask)], check


def _cli_separate(rng, n):
    ring = rng.choice(("f2", "z"))
    ring_name = certificates.RING_F2 if ring == "f2" else certificates.RING_Z
    if rng.random() < 0.25:
        text = K.chord_word_text(K.scramble_chords(rng, [], n, 2 * rng.randint(2, 10), 40))
        trivial = json.dumps({"element": text, "ring": ring_name, "trivial": True}, sort_keys=True)
        return ["separate", "--n", str(n), "--ring", ring, text], _expect(1, trivial + "\n")
    depth = rng.choice((2, 3))
    letters = K.commutator(rng, n, depth)
    text = K.chord_word_text(letters)
    least = depth if ring == "f2" else 2

    def check(code, out):
        if code != 0:
            return False
        cert = certificates.SeparationCertificate.from_json(out)
        return (
            cert.ring == ring_name
            and cert.element == text
            and least <= cert.degree <= len(letters)
            and certificates.verify_certificate(cert)
        )

    return ["separate", "--n", str(n), "--ring", ring, text], check


def _cli_render(rng, n):
    if rng.random() < 0.5:
        w = _cactus(rng, n, 1, 12)
        text, expected = K.cactus_word_text(w), K.render(w, n, cactus=True)
    else:
        w = [rng.randrange(1, 1 << n) for _ in range(rng.randint(1, 12))]
        text, expected = K.chord_word_text(w), K.render(w, n, cactus=False)
    return ["render", "--n", str(n), text], _expect(0, expected + "\n")


CLI_VERBS = (
    _cli_perm,
    _cli_is_pure,
    _cli_eq,
    _cli_diagram,
    _cli_nf,
    _cli_deq,
    _cli_delta,
    _cli_gamma0,
    _cli_project,
    _cli_make_generator,
    _cli_separate,
    _cli_render,
)


def _splice(text: str, token: str, rng: random.Random) -> str:
    tokens = text.split()
    tokens.insert(rng.randrange(len(tokens) + 1), token)
    return " ".join(tokens)


def _bad_requests(rng: random.Random, n: int) -> list[list[str]]:
    """Inputs the README classes as bad input (exit 2): parse errors,
    arity mismatches and words outside a verb's domain."""
    w = K.cactus_word_text(_cactus(rng, n))
    chords = K.chord_word_text([rng.randrange(1, 1 << n) for _ in range(8)])
    moving = _cactus(rng, n)
    while K.permutation(moving, n) == tuple(range(1, n + 1)):
        moving = _cactus(rng, n)
    big = K.chord_text(rng.choice(K.big_chords(n)))
    return [
        ["perm", "--n", str(n), _splice(w, "s0,2", rng)],
        ["eq", "--n", str(n), w, _splice(w, "s2,2", rng)],
        ["nf", "--n", str(n), _splice(chords, "t{2,1}", rng)],
        ["deq", "--n", str(n), chords, _splice(chords, f"t{{1,{n + 1}}}", rng)],
        ["project", "--n", str(n), K.cactus_word_text(moving)],
        ["separate", "--n", str(n), "--ring", "z", K.chord_word_text([rng.randrange(1, 1 << n)])],
        ["make-generator", "--n", str(n), "t{1,2}"],
        ["make-generator", "--n", str(n), f"{big} {big}"],
        ["diagram", "--n", str(n), _splice(w, "x1,2", rng)],
        ["eq", "--n", str(n), w],
    ]


def _cli_ops(rng: random.Random):
    good = bad = 0
    index = 0
    while True:
        n = CLI_N[index % len(CLI_N)]
        if index % BAD_EVERY == BAD_EVERY - 1:
            requests = _bad_requests(rng, n)
            argv = requests[bad % len(requests)]
            bad += 1
            yield _cli_op("bad-input", argv, _expect(2, ""))
        else:
            make = CLI_VERBS[good % len(CLI_VERBS)]
            good += 1
            argv, check = make(rng, n)
            yield _cli_op(argv[0], argv, check)
        index += 1


def oneshot_argvs(seed: int, count: int) -> list[tuple[list[str], Callable[[int, str], bool]]]:
    """Well-formed CLI requests for whole-process calls, one per verb in turn."""
    rng = random.Random(f"oneshot:{seed}")
    return [CLI_VERBS[i % len(CLI_VERBS)](rng, CLI_N[i % len(CLI_N)]) for i in range(count)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "wordproblem-long",
            "long-word equality and normal forms: puts its time into lean "
            "reduction, lex_least and diagram_of, with almost no algebra",
            fixed_ops=135,
            trace_ops=45,
            make_ops=_wordproblem_ops,
        ),
        Workload(
            "certify-deep",
            "short deep commutators and full-degree images: millions of small "
            "kernel calls in both algebras, plus certificate write and verify",
            fixed_ops=420,
            trace_ops=210,
            make_ops=_certify_ops,
        ),
        Workload(
            "cli-mixed",
            "all twelve CLI verbs on short words with 5% bad input: per-call "
            "argparse, parsing, formatting and JSON overhead",
            fixed_ops=1200,
            trace_ops=600,
            make_ops=_cli_ops,
        ),
    )
}
