"""Command-line front end.

One verb per library capability.  Exit codes: 0 for success or a positive
decision, 1 for a negative decision (false answers, failed separations),
2 for usage or input errors, 3 for an internal error (a bug, never an
answer), 141 (128 + SIGPIPE) when the reader closed stdout before the
output was written, as ``| head`` does.

The verbs and their options are described once, in ``_VERBS``.  A plain
call (exact option names, each followed by its value) is read straight
from that table without loading argparse; every other call, help and
usage errors included, goes to argparse parsers built from the same
table: a call that names a verb to that verb's parser, the rest to the
top-level parser.  Likewise each command reads its layer through the
package (``_lib.cactus_core.equal_in_Jn``), which loads a layer the first
time it is read, so a call loads only the layers its verb uses: only
``separate`` and ``verify`` load the certificate layer and `json`.
"""

from __future__ import annotations

import functools
import os
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, Any, Callable, NamedTuple, Sequence

import cactus_groups as _lib

from .words import (
    CactusWord,
    DiagramWord,
    ParseError,
    format_cactus_word,
    format_diagram_word,
    parse_cactus_word,
    parse_diagram_word,
)

if TYPE_CHECKING:
    import argparse


def __getattr__(name: str) -> Any:
    # The package's public names, such as ``cli.equal_in_Jn``, read through
    # the package on every read, so each sees what its layer binds now.
    if name in _lib.__all__:
        return getattr(_lib, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _fmt_vector(values: Sequence[int]) -> str:
    return "[" + ",".join(str(v) for v in values) + "]"


def _decision(value: bool) -> int:
    print("true" if value else "false")
    return 0 if value else 1


# Entries of the identity tail that `perm` formats per write.
_PERM_CHUNK = 1 << 12


def _cmd_perm(args: SimpleNamespace) -> int:
    w = parse_cactus_word(args.word, args.n)
    # The permutation is the identity past the largest q: write the moved
    # prefix, then the tail in chunks, so memory follows the word, not n.
    m = max((g.q for g in w.letters), default=1)
    write = sys.stdout.write
    # unchecked: m >= 1 and every letter's q is at most m
    moved = _lib.cactus_core.word_permutation(CactusWord._unchecked(m, w.letters))
    write("[" + ",".join(map(str, moved)))
    for start in range(m + 1, args.n + 1, _PERM_CHUNK):
        stop = min(start + _PERM_CHUNK, args.n + 1)
        write("," + ",".join(map(str, range(start, stop))))
    write("]\n")
    return 0


def _cmd_is_pure(args: SimpleNamespace) -> int:
    return _decision(_lib.cactus_core.is_pure(parse_cactus_word(args.word, args.n)))


def _cmd_eq(args: SimpleNamespace) -> int:
    g = parse_cactus_word(args.word1, args.n)
    h = parse_cactus_word(args.word2, args.n)
    return _decision(_lib.cactus_core.equal_in_Jn(g, h))


def _cmd_diagram(args: SimpleNamespace) -> int:
    w = parse_cactus_word(args.word, args.n)
    print(format_diagram_word(_lib.cactus_core.diagram_of(w)))
    return 0


def _cmd_nf(args: SimpleNamespace) -> int:
    w = parse_diagram_word(args.word, args.n)
    print(format_diagram_word(_lib.diagram_group.lex_normal_form(w)))
    return 0


def _cmd_deq(args: SimpleNamespace) -> int:
    g = parse_diagram_word(args.word1, args.n)
    h = parse_diagram_word(args.word2, args.n)
    return _decision(_lib.diagram_group.equal_diagrams(g, h))


def _cmd_delta(args: SimpleNamespace) -> int:
    w = parse_diagram_word(args.word, args.n)
    # unchecked: the odd chords are letters of the parsed word
    odd = tuple(sorted(_lib.diagram_group.delta(w)))
    print(format_diagram_word(DiagramWord._unchecked(w.n, odd)))
    return 0


def _cmd_gamma0(args: SimpleNamespace) -> int:
    return _decision(_lib.diagram_group.in_gamma_circ(parse_cactus_word(args.word, args.n)))


def _cmd_project(args: SimpleNamespace) -> int:
    w = parse_cactus_word(args.word, args.n)
    print(_fmt_vector(_lib.diagram_group.gamma_circ_projection(w)))
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


def _cmd_make_generator(args: SimpleNamespace) -> int:
    mask = _parse_single_chord(args.chord, args.n)
    w = _lib.diagram_group.construct_pure_generator(args.n, mask)
    print(format_cactus_word(w))
    return 0


def _cmd_separate(args: SimpleNamespace) -> int:
    import json

    certificates = _lib.certificates
    w = parse_diagram_word(args.word, args.n)
    if args.ring == "f2":
        separate, ring = _lib.algebra_f2.nilpotent_separation, certificates.RING_F2
    else:
        separate, ring = _lib.algebra_z.tfn_separation, certificates.RING_Z
    try:
        cert = separate(w, max_degree=args.max_degree)
    except certificates.DegreeCapReached:
        report = {"separated": False, "max_degree": args.max_degree}
    else:
        if cert is not None:
            print(cert.to_json())
            return 0
        report = {"trivial": True}
    print(json.dumps({"element": format_diagram_word(w), "ring": ring, **report}, sort_keys=True))
    return 1


def _cmd_verify(args: SimpleNamespace) -> int:
    certificates = _lib.certificates
    text = sys.stdin.read() if args.certificate == "-" else args.certificate
    cert = certificates.SeparationCertificate.from_json(text)
    return _decision(certificates.verify_certificate(cert))


def _cmd_render(args: SimpleNamespace) -> int:
    tokens = args.word.split()
    if tokens and tokens[0].startswith("t"):
        w = parse_diagram_word(args.word, args.n)
    else:
        w = parse_cactus_word(args.word, args.n)
    print(_lib.render.render_ascii(w))
    return 0


class _Option(NamedTuple):
    """A verb's ``--flag VALUE`` option, in ``add_argument``'s terms."""

    flag: str
    type: Callable[[str], Any] | None = None
    choices: tuple[str, ...] | None = None
    required: bool = False
    help: str | None = None


_N = _Option("--n", int, required=True, help="number of strands")
_WORD = ("word", None)

# verb -> (help, command, options, positionals as (name, help))
_VERBS: dict[str, tuple[str, Callable[[SimpleNamespace], int], tuple, tuple]] = {
    "perm": ("permutation induced by a cactus word", _cmd_perm, (_N,), (_WORD,)),
    "is-pure": (
        "does the cactus word induce the identity permutation", _cmd_is_pure, (_N,), (_WORD,)
    ),
    "eq": (
        "are two cactus words equal in the group", _cmd_eq, (_N,),
        (("word1", None), ("word2", None)),
    ),
    "diagram": ("chord-diagram image of a cactus word", _cmd_diagram, (_N,), (_WORD,)),
    "nf": ("lexicographic lean normal form of a diagram word", _cmd_nf, (_N,), (_WORD,)),
    "deq": (
        "are two diagram words equal in the group", _cmd_deq, (_N,),
        (("word1", None), ("word2", None)),
    ),
    "delta": ("chords met an odd number of times", _cmd_delta, (_N,), (_WORD,)),
    "gamma0": (
        "does the pure cactus word meet every chord an even number of times", _cmd_gamma0,
        (_N,), (_WORD,),
    ),
    "project": ("parity vector of a pure cactus word", _cmd_project, (_N,), (_WORD,)),
    "make-generator": (
        "pure cactus word whose only large chord is the given one", _cmd_make_generator,
        (_N,), (("chord", "chord token such as t{1,2,3}"),),
    ),
    "separate": (
        "separation certificate for a diagram word", _cmd_separate,
        (
            _N,
            _Option("--ring", choices=("f2", "z"), required=True),
            _Option("--max-degree", int, help="degree cap for the search"),
        ),
        (_WORD,),
    ),
    "verify": (
        "re-check a separation certificate", _cmd_verify, (),
        (("certificate", "certificate JSON, or - to read it from stdin"),),
    ),
    "render": ("ASCII picture of a cactus or diagram word", _cmd_render, (_N,), (_WORD,)),
}


def _plain(func: Callable[[SimpleNamespace], int], options: tuple, positionals: tuple) -> tuple:
    """What `_read` needs of a verb, derived once from its ``_VERBS`` entry:
    the command, each flag's (type, choices, dest), the dests of the
    required options, every option's dest (in table order) mapped to None,
    and the positionals' names."""
    # each option's dest, as argparse derives it
    dest = {option.flag: option.flag[2:].replace("-", "_") for option in options}
    return (
        func,
        {option.flag: (option.type, option.choices, dest[option.flag]) for option in options},
        frozenset(dest[option.flag] for option in options if option.required),
        dict.fromkeys(dest.values()),
        tuple(name for name, _ in positionals),
    )


_PLAIN = {
    verb: _plain(func, options, positionals)
    for verb, (_, func, options, positionals) in _VERBS.items()
}


def _read(argv: Sequence[str]) -> SimpleNamespace | None:
    """The arguments of a plain call, read from the verb table: exactly what
    the verb's argparse parser would give.  None for every call that is not
    plain (``-h``, ``--``, ``--opt=value``, an abbreviation, a value that
    starts with ``-`` or does not convert, a missing or extra argument, an
    unknown verb): argparse reads those.  A lone ``-`` is a positional, and
    a repeated option keeps its last value, as in argparse."""
    entry = _PLAIN.get(argv[0]) if argv else None
    if entry is None:
        return None
    func, flags, required, defaults, names = entry
    values: dict[str, Any] = {}
    words = []
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-") or token == "-":
            words.append(token)
            continue
        option = flags.get(token)
        value = next(tokens, "-")  # a missing value reads as one that starts with -
        if option is None or value.startswith("-"):
            return None
        convert, choices, dest = option
        try:
            value = convert(value) if convert else value
        except ValueError:
            return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
    if len(words) != len(names) or not required <= values.keys():
        return None
    args = {**defaults, **values}
    args.update(zip(names, words))
    return SimpleNamespace(**args, func=func)


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser, and each verb's own parser by verb name, built
    from the verb table.  Only calls that ``_read`` leaves load argparse."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="cactus",
        description="Word problems, parity maps, and separation certificates "
        "for cactus groups and their chord-diagram quotients.",
    )
    subs = parser.add_subparsers(dest="verb", required=True)
    for verb, (text, func, options, positionals) in _VERBS.items():
        sub = subs.add_parser(verb, help=text)
        for option in options:
            kwargs = option._asdict()
            sub.add_argument(kwargs.pop("flag"), **kwargs)
        for name, text in positionals:
            sub.add_argument(name, help=text)
        sub.set_defaults(func=func)
    return parser, subs.choices


# Exit code for a reader that closed stdout early: 128 + SIGPIPE.
_CLOSED_PIPE = 141


def _silence_stdout() -> None:
    """Point stdout's descriptor at the null device, so that the flush at
    exit cannot fail on a pipe whose reader has gone."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return  # an in-memory stream has no descriptor to redirect
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def run(argv: Sequence[str] | None = None) -> int:
    """Execute one command; returns the exit code instead of exiting."""
    if argv is None:
        argv = sys.argv[1:]
    args = _read(argv)
    if args is None:
        # A known verb goes to its own parser: one argparse pass, not two.
        # Everything else (no verb, an unknown one, -h) gets the top level.
        parser, verbs = _build_parser()
        sub = verbs.get(argv[0]) if argv else None
        try:
            args = (
                sub.parse_args(argv[1:], SimpleNamespace())
                if sub
                else parser.parse_args(argv, SimpleNamespace())
            )
        except SystemExit as exc:  # a usage error, or help printed
            return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except BrokenPipeError:  # the reader closed stdout: not an error of ours
        _silence_stdout()
        return _CLOSED_PIPE
    except (ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # exit 1 must only ever mean "false"
        report = f"internal error: {type(exc).__name__}: {exc}"
    print(report, file=sys.stderr)  # with the failing call's frames let go
    return 3


def main() -> None:
    try:
        code = run()
    except Exception:  # the error report itself failed, as a MemoryError can
        code = 3
    try:
        # Output that fits the buffer is written only now.
        sys.stdout.flush()
    except BrokenPipeError:
        _silence_stdout()
        code = _CLOSED_PIPE
    sys.exit(code)


if __name__ == "__main__":
    main()
