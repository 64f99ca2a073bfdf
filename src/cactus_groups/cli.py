"""Command-line front end.

One verb per library capability.  Exit codes: 0 for success or a positive
decision, 1 for a negative decision (false answers, failed separations),
2 for usage or input errors, 3 for an internal error (a bug, never an
answer).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Sequence

from .algebra_f2 import nilpotent_separation
from .algebra_z import tfn_separation
from .cactus_core import (
    diagram_of,
    equal_in_Jn,
    is_pure,
    word_permutation,
)
from .certificates import (
    RING_F2,
    RING_Z,
    DegreeCapReached,
    SeparationCertificate,
    verify_certificate,
)
from .diagram_group import (
    construct_pure_generator,
    delta,
    equal_diagrams,
    gamma_circ_projection,
    in_gamma_circ,
    lex_normal_form,
)
from .render import render_ascii
from .words import (
    CactusWord,
    ParseError,
    format_cactus_word,
    format_chord,
    format_diagram_word,
    parse_cactus_word,
    parse_diagram_word,
)


def _fmt_vector(values: Sequence[int]) -> str:
    return "[" + ",".join(str(v) for v in values) + "]"


def _decision(value: bool) -> int:
    print("true" if value else "false")
    return 0 if value else 1


# Entries of the identity tail that `perm` formats per write.
_PERM_CHUNK = 1 << 12


def _cmd_perm(args: argparse.Namespace) -> int:
    w = parse_cactus_word(args.word, args.n)
    # The permutation is the identity past the largest q: write the moved
    # prefix, then the tail in chunks, so memory follows the word, not n.
    m = max((g.q for g in w.letters), default=1)
    write = sys.stdout.write
    write("[" + ",".join(map(str, word_permutation(CactusWord(m, w.letters)))))
    for start in range(m + 1, args.n + 1, _PERM_CHUNK):
        stop = min(start + _PERM_CHUNK, args.n + 1)
        write("," + ",".join(map(str, range(start, stop))))
    write("]\n")
    return 0


def _cmd_is_pure(args: argparse.Namespace) -> int:
    return _decision(is_pure(parse_cactus_word(args.word, args.n)))


def _cmd_eq(args: argparse.Namespace) -> int:
    g = parse_cactus_word(args.word1, args.n)
    h = parse_cactus_word(args.word2, args.n)
    return _decision(equal_in_Jn(g, h))


def _cmd_diagram(args: argparse.Namespace) -> int:
    w = parse_cactus_word(args.word, args.n)
    print(format_diagram_word(diagram_of(w)))
    return 0


def _cmd_nf(args: argparse.Namespace) -> int:
    w = parse_diagram_word(args.word, args.n)
    print(format_diagram_word(lex_normal_form(w)))
    return 0


def _cmd_deq(args: argparse.Namespace) -> int:
    g = parse_diagram_word(args.word1, args.n)
    h = parse_diagram_word(args.word2, args.n)
    return _decision(equal_diagrams(g, h))


def _cmd_delta(args: argparse.Namespace) -> int:
    w = parse_diagram_word(args.word, args.n)
    odd = sorted(delta(w))
    print(" ".join(format_chord(mask) for mask in odd))
    return 0


def _cmd_gamma0(args: argparse.Namespace) -> int:
    return _decision(in_gamma_circ(parse_cactus_word(args.word, args.n)))


def _cmd_project(args: argparse.Namespace) -> int:
    w = parse_cactus_word(args.word, args.n)
    print(_fmt_vector(gamma_circ_projection(w)))
    return 0


def _parse_single_chord(text: str, n: int) -> int:
    w = parse_diagram_word(text, n)
    if len(w.letters) != 1:
        # Point at the first surplus token, or at the missing first one.
        tokens = text.split()
        token, position = (tokens[1], 2) if tokens else ("", 1)
        raise ParseError(
            f"expected exactly one chord token, got {len(w.letters)}", token, position
        )
    return w.letters[0]


def _cmd_make_generator(args: argparse.Namespace) -> int:
    mask = _parse_single_chord(args.chord, args.n)
    w = construct_pure_generator(args.n, mask)
    print(format_cactus_word(w))
    return 0


def _cmd_separate(args: argparse.Namespace) -> int:
    w = parse_diagram_word(args.word, args.n)
    element = format_diagram_word(w)
    ring = RING_F2 if args.ring == "f2" else RING_Z
    separate = nilpotent_separation if args.ring == "f2" else tfn_separation
    try:
        cert = separate(w, max_degree=args.max_degree)
    except DegreeCapReached:
        print(
            json.dumps(
                {
                    "element": element,
                    "ring": ring,
                    "separated": False,
                    "max_degree": args.max_degree,
                },
                sort_keys=True,
            )
        )
        return 1
    if cert is None:
        print(json.dumps({"element": element, "ring": ring, "trivial": True}, sort_keys=True))
        return 1
    print(cert.to_json())
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    text = sys.stdin.read() if args.certificate == "-" else args.certificate
    return _decision(verify_certificate(SeparationCertificate.from_json(text)))


def _cmd_render(args: argparse.Namespace) -> int:
    tokens = args.word.split()
    if tokens and tokens[0].startswith("t"):
        w = parse_diagram_word(args.word, args.n)
    else:
        w = parse_cactus_word(args.word, args.n)
    print(render_ascii(w))
    return 0


def _add_n(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--n", type=int, required=True, help="number of strands")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cactus",
        description="Word problems, parity maps, and separation certificates "
        "for cactus groups and their chord-diagram quotients.",
    )
    subs = parser.add_subparsers(dest="verb", required=True)

    p = subs.add_parser("perm", help="permutation induced by a cactus word")
    _add_n(p)
    p.add_argument("word")
    p.set_defaults(func=_cmd_perm)

    p = subs.add_parser("is-pure", help="does the cactus word induce the identity permutation")
    _add_n(p)
    p.add_argument("word")
    p.set_defaults(func=_cmd_is_pure)

    p = subs.add_parser("eq", help="are two cactus words equal in the group")
    _add_n(p)
    p.add_argument("word1")
    p.add_argument("word2")
    p.set_defaults(func=_cmd_eq)

    p = subs.add_parser("diagram", help="chord-diagram image of a cactus word")
    _add_n(p)
    p.add_argument("word")
    p.set_defaults(func=_cmd_diagram)

    p = subs.add_parser("nf", help="lexicographic lean normal form of a diagram word")
    _add_n(p)
    p.add_argument("word")
    p.set_defaults(func=_cmd_nf)

    p = subs.add_parser("deq", help="are two diagram words equal in the group")
    _add_n(p)
    p.add_argument("word1")
    p.add_argument("word2")
    p.set_defaults(func=_cmd_deq)

    p = subs.add_parser("delta", help="chords met an odd number of times")
    _add_n(p)
    p.add_argument("word")
    p.set_defaults(func=_cmd_delta)

    p = subs.add_parser("gamma0", help="is the cactus word pure with an all-even diagram")
    _add_n(p)
    p.add_argument("word")
    p.set_defaults(func=_cmd_gamma0)

    p = subs.add_parser("project", help="parity vector of a pure cactus word")
    _add_n(p)
    p.add_argument("word")
    p.set_defaults(func=_cmd_project)

    p = subs.add_parser(
        "make-generator", help="pure cactus word whose only large chord is the given one"
    )
    _add_n(p)
    p.add_argument("chord", help="chord token such as t{1,2,3}")
    p.set_defaults(func=_cmd_make_generator)

    p = subs.add_parser("separate", help="separation certificate for a diagram word")
    _add_n(p)
    p.add_argument("--ring", choices=["f2", "z"], required=True)
    p.add_argument("--max-degree", type=int, default=None, help="degree cap for the search")
    p.add_argument("word")
    p.set_defaults(func=_cmd_separate)

    p = subs.add_parser("verify", help="re-check a separation certificate")
    p.add_argument("certificate", help="certificate JSON, or - to read it from stdin")
    p.set_defaults(func=_cmd_verify)

    p = subs.add_parser("render", help="ASCII picture of a cactus or diagram word")
    _add_n(p)
    p.add_argument("--format", choices=["ascii"], default="ascii")
    p.add_argument("word")
    p.set_defaults(func=_cmd_render)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    """Execute one command; returns the exit code instead of exiting."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # exit 1 must only ever mean "false"
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
