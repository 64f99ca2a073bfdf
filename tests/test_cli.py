import contextlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cactus_groups import algebra_f2, cactus_core, cli
from cactus_groups.cactus_core import word_permutation
from cactus_groups.certificates import SeparationCertificate, verify_certificate
from cactus_groups.diagram_group import lex_normal_form
from cactus_groups.words import parse_cactus_word, parse_diagram_word
from helpers import nested_commutator_text, peak_bytes, run_fresh

WORKED = "s1,2 s1,3 s1,2 s1,3 s1,2 s1,3"
ALT = "t{1,2} t{1,3} t{1,2} t{1,3}"
LEAN_SCAN = "t{1,2,3} t{1,2} t{2,4} t{2,4} t{1,3}"


def run(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv, exit_code, expected_out",
    [
        (("perm", "--n", "3", "s1,3"), 0, "[3,2,1]\n"),
        (("perm", "--n", "3", ""), 0, "[1,2,3]\n"),
        (("is-pure", "--n", "4", "s1,4 s2,3 s1,4 s2,3"), 0, "true\n"),
        (("is-pure", "--n", "3", "s1,2"), 1, "false\n"),
        (("eq", "--n", "4", "s1,4 s2,3", "s2,3 s1,4"), 0, "true\n"),
        (("eq", "--n", "4", "s1,2 s3,4", "s3,4 s1,2"), 0, "true\n"),
        (("eq", "--n", "3", WORKED, ""), 1, "false\n"),
        (("diagram", "--n", "3", "s1,3 s1,2"), 0, "t{1,2,3} t{2,3}\n"),
        (("diagram", "--n", "3", ""), 0, "\n"),
        (
            ("nf", "--n", "3", "t{3} t{1,2} t{1,2,3} t{1,3} t{1,2,3} t{2,3} t{1,2,3} t{3}"),
            0,
            "t{1,2} t{1,3} t{2,3} t{1,2,3}\n",
        ),
        (("nf", "--n", "4", "t{3,4} t{1,2}"), 0, "t{1,2} t{3,4}\n"),
        (("deq", "--n", "3", "t{1,2} t{1,2}", ""), 0, "true\n"),
        (("deq", "--n", "3", "t{1,2} t{2,3}", "t{2,3} t{1,2}"), 1, "false\n"),
        (("delta", "--n", "3", "t{1,2} t{1,2} t{1,3}"), 0, "t{1,3}\n"),
        (("delta", "--n", "3", "t{1,2} t{1,2}"), 0, "\n"),
        (("gamma0", "--n", "3", WORKED), 1, "false\n"),
        (("gamma0", "--n", "3", ""), 0, "true\n"),
        (("project", "--n", "4", ""), 0, "[0,0,0,0,0]\n"),
        (("project", "--n", "3", WORKED), 0, "[1]\n"),
        (("make-generator", "--n", "3", "t{1,2,3}"), 0, "s1,3 s1,2 s2,3 s1,2\n"),
        (("render", "--n", "4", "t{1,2,4}"), 0, "| | | |\n*-*-|-*\n| | | |\n"),
        (("render", "--n", "3", ""), 0, "| | |\n"),
        (("render", "--n", "7", "s3,7"), 0, "| | | | | | |\n| | X-X-X-X-X\n| | | | | | |\n"),
        (("gamma0", "--n", "64", "s1,2 s1,2"), 0, "true\n"),
        # Lean reduction looks at the last chord first: in LEAN_SCAN,
        # t{1,2} and t{1,3} commute with t{1,2,3} and are scanned for, the
        # first t{2,4} crosses it and goes at the end, the second cancels it.
        (("nf", "--n", "4", LEAN_SCAN), 0, "t{1,2} t{1,3} t{1,2,3}\n"),
        (("deq", "--n", "4", LEAN_SCAN, "t{1,2} t{1,2,3} t{1,3}"), 0, "true\n"),
        (("deq", "--n", "4", LEAN_SCAN, "t{1,3} t{1,2} t{1,2,3}"), 1, "false\n"),
        # The last t{1,2} scans past three chords that commute with it, and
        # cancels the first t{1,2} or goes in front.
        (("nf", "--n", "5", "t{4,5} t{1,2} t{3,4} t{1,2,3,4} t{1,2}"), 0,
         "t{4,5} t{3,4} t{1,2,3,4}\n"),
        (("nf", "--n", "5", "t{4,5} t{3,4} t{1,2,3,4} t{1,2}"), 0,
         "t{1,2} t{4,5} t{3,4} t{1,2,3,4}\n"),
        # eq decides in three stages: length parity, permutation, reduction.
        # These two differ only in their permutations.
        (("eq", "--n", "3", "s1,2 s2,3", "s2,3 s1,2"), 1, "false\n"),
        # The product of the t{1,2,3} and t{1,2,4} generators is pure with
        # even length parity; the reduction answers, as neither chord cancels.
        (("eq", "--n", "4", "s1,3 s1,2 s2,3 s1,2 s3,4 s1,3 s1,2 s2,3 s1,2 s3,4", ""), 1,
         "false\n"),
        # WORKED WORKED is even in both parities and reduces to six chords.
        (("eq", "--n", "3", f"{WORKED} {WORKED}", ""), 1, "false\n"),
        (("eq", "--n", "3", f"{WORKED} {WORKED}", f"{WORKED} {WORKED}"), 0, "true\n"),
        # the nested rewrite s1,3 s1,2 = s2,3 s1,3
        (("eq", "--n", "3", "s1,3 s1,2", "s2,3 s1,3"), 0, "true\n"),
    ],
)
def test_verb_outputs(capsys, argv, exit_code, expected_out):
    code, out, err = run(capsys, *argv)
    assert code == exit_code
    assert out == expected_out
    assert err == ""


def test_separate_f2(capsys):
    code, out, err = run(
        capsys, "separate", "--n", "3", "--ring", "f2", "t{1,2} t{1,3} t{1,2} t{1,3}"
    )
    assert code == 0
    data = json.loads(out)
    assert data["ring"] == "f2-nilpotent"
    assert data["degree"] == 2
    assert data["witness"] == [
        {"coeff": 1, "monomial": [[1, 2], [1, 3]]},
        {"coeff": 1, "monomial": [[1, 3], [1, 2]]},
    ]
    cert = SeparationCertificate.from_json(out)
    assert verify_certificate(cert)


def test_separate_z(capsys):
    code, out, err = run(
        capsys, "separate", "--n", "3", "--ring", "z", "t{1,2} t{1,3} t{1,2} t{1,3}"
    )
    assert code == 0
    data = json.loads(out)
    assert data["ring"] == "z-torsion-free"
    assert {"coeff": -1, "monomial": [[1, 3], [1, 2]]} in data["witness"]
    assert verify_certificate(SeparationCertificate.from_json(out))


@pytest.mark.parametrize("ring", ["f2", "z"])
def test_verify_reads_separate_output_from_stdin(capsys, monkeypatch, ring):
    code, cert, _ = run(capsys, "separate", "--n", "3", "--ring", ring, ALT)
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(cert))
    assert run(capsys, "verify", "-") == (0, "true\n", "")


@pytest.mark.parametrize("ring", ["f2", "z"])
def test_verify_checks_a_depth_five_commutator_certificate(capsys, monkeypatch, ring):
    code, cert, _ = run(capsys, "separate", "--n", "6", "--ring", ring, nested_commutator_text(5))
    assert code == 0
    assert json.loads(cert)["degree"] == 6
    monkeypatch.setattr("sys.stdin", io.StringIO(cert))
    assert run(capsys, "verify", "-") == (0, "true\n", "")
    data = json.loads(cert)
    data["witness"].pop()
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(data)))
    assert run(capsys, "verify", "-") == (1, "false\n", "")


@pytest.mark.parametrize("ring", ["f2", "z"])
def test_verify_rejects_a_tampered_witness(capsys, ring):
    _, cert, _ = run(capsys, "separate", "--n", "3", "--ring", ring, ALT)
    data = json.loads(cert)
    data["witness"].pop()
    assert run(capsys, "verify", json.dumps(data)) == (1, "false\n", "")


@pytest.mark.parametrize(
    "text",
    ["", "{", "[1]", '{"element": "t{1,2}"}',
     '{"element": "t{1,2}", "ring": "f2-nilpotent", "degree": 1, '
     '"witness": [{"monomial": [[2, 1]], "coeff": 1}]}',
     # deep enough that json.loads raises RecursionError
     pytest.param("[" * 1000 + "]" * 1000, id="nested 1000 deep")],
)
def test_verify_rejects_malformed_certificates(capsys, text):
    code, out, err = run(capsys, "verify", text)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


# Each would cost memory that grows with a number typed on the command line:
# a strand walk over 1..q, a q-bit chord mask, or a 2^n projection vector.
# Just past each bound, so that a missing bound costs seconds, not gigabytes.
@pytest.mark.parametrize(
    "argv, fragment",
    [
        (("is-pure", "--n", "20000", "s1,20000"), "q exceeds the strand bound 4096"),
        (("eq", "--n", "20000", "s1,2", "s1,2 s1,20000"), "q exceeds the strand bound 4096"),
        (("nf", "--n", "100000", "t{100000}"), "strand exceeds the bound 4096"),
        (("deq", "--n", "100000", "t{1}", "t{1,100000}"), "strand exceeds the bound 4096"),
        (
            (
                "verify",
                '{"element": "t{1,2}", "ring": "f2-nilpotent", "degree": 1, '
                '"witness": [{"monomial": [[1, 100000]], "coeff": 1}]}',
            ),
            "numbered from 1 to 4096",
        ),
        (("project", "--n", "21", "s1,2 s1,2"), "arity 21 exceeds 20"),
    ],
    ids=["is-pure", "eq", "nf", "deq", "verify", "project"],
)
def test_numbers_past_a_bound_exit_2_without_allocating(capsys, argv, fragment):
    outcome = []
    assert peak_bytes(lambda: outcome.append(run(capsys, *argv))) < 1 << 20
    code, out, err = outcome[0]
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and fragment in err


@pytest.mark.parametrize("argv", [("nf", "--n", "-3", "t{1}"), ("perm", "--n", "0", "s9,1")])
def test_nonpositive_arity_is_reported_before_tokens(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: arity must be positive, got {argv[2]}\n"


def test_separate_trivial_element(capsys):
    code, out, err = run(capsys, "separate", "--n", "3", "--ring", "f2", "t{1,2} t{1,2}")
    assert code == 1
    assert json.loads(out) == {
        "element": "t{1,2} t{1,2}",
        "ring": "f2-nilpotent",
        "trivial": True,
    }


def test_separate_degree_cap(capsys):
    code, out, err = run(
        capsys,
        "separate", "--n", "3", "--ring", "f2", "--max-degree", "1",
        "t{1,2} t{1,3} t{1,2} t{1,3}",
    )
    assert code == 1
    assert json.loads(out) == {
        "element": "t{1,2} t{1,3} t{1,2} t{1,3}",
        "max_degree": 1,
        "ring": "f2-nilpotent",
        "separated": False,
    }


def test_separate_rejects_odd_parity_for_z(capsys):
    code, out, err = run(capsys, "separate", "--n", "3", "--ring", "z", "t{1,2,3}")
    assert code == 2
    assert out == ""
    assert "even diagram subgroup" in err


def test_project_rejects_non_pure(capsys):
    code, out, err = run(capsys, "project", "--n", "3", "s1,2")
    assert code == 2
    assert out == ""
    assert err == "error: word is not pure (nontrivial strand permutation)\n"


def test_parse_error_reports_token_and_position(capsys):
    code, out, err = run(capsys, "perm", "--n", "3", "s9,2")
    assert code == 2
    assert err == "error: token 1 ('s9,2'): p must be less than q\n"
    code, out, err = run(capsys, "nf", "--n", "3", "t{1,2} t{9}")
    assert code == 2
    assert "token 2" in err


def test_unknown_verb_is_usage_error(capsys):
    code, out, err = run(capsys, "bogus")
    assert code == 2
    assert "invalid choice" in err


def test_missing_n_is_usage_error(capsys):
    code, out, err = run(capsys, "perm", "s1,2")
    assert code == 2


def test_cli_reads_the_package_names_through_the_package():
    assert cli.equal_in_Jn is cactus_core.equal_in_Jn
    assert cli.nilpotent_separation is algebra_f2.nilpotent_separation
    with pytest.raises(AttributeError, match="no_such_name"):
        cli.no_such_name


# A plain call is read from the verb table; every other call goes to the
# argparse parser built from the same table for its verb, or to the
# top-level parser without one.  Usage errors, help, option spellings and
# abbreviations read as with the top-level parser.
@pytest.mark.parametrize(
    "argv, exit_code, expected_out, last_err_line",
    [
        (("perm", "--n", "3"), 2, "",
         "cactus perm: error: the following arguments are required: word"),
        (("perm", "s1,2"), 2, "", "cactus perm: error: the following arguments are required: --n"),
        (("perm", "--n", "x", "s1,2"), 2, "",
         "cactus perm: error: argument --n: invalid int value: 'x'"),
        (("perm", "--n=3", "s1,2"), 0, "[2,1,3]\n", None),
        (
            ("separate", "--n", "3", "--ri", "f2", ALT),
            0,
            lambda capsys: run(capsys, "separate", "--n", "3", "--ring", "f2", ALT)[1],
            None,
        ),
        ((), 2, "", "cactus: error: the following arguments are required: verb"),
        (("bogus",), 2, "", "cactus: error: argument verb: invalid choice: 'bogus' "),
        (("-h",), 0, lambda capsys: cli._build_parser()[0].format_help(), None),
        (("eq", "-h"), 0, lambda capsys: cli._build_parser()[1]["eq"].format_help(), None),
        (("eq", "--n", "3", "s1,2"), 2, "",
         "cactus eq: error: the following arguments are required: word2"),
    ],
    ids=["missing positional", "missing --n", "--n x", "--n=3", "--ri abbreviation",
         "no arguments", "bogus", "-h", "eq -h", "eq missing word2"],
)
def test_usage_outcomes(capsys, argv, exit_code, expected_out, last_err_line):
    if callable(expected_out):
        expected_out = expected_out(capsys)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (exit_code, expected_out)
    if last_err_line is None:
        assert err == ""
    else:
        prog = last_err_line.partition(": error")[0]
        assert err.startswith(f"usage: {prog} ")
        assert err.splitlines()[-1].startswith(last_err_line)


# Arguments the verb's parser does not know are reported under that verb's
# usage; through the top-level parser they were reported under its usage.
@pytest.mark.parametrize(
    "argv, unrecognized",
    [
        (("eq", "--n", "3", "s1,2", "s1,2", "x"), "x"),
        (("eq", "--n", "3", "--bogus", "s1,2", "s1,2"), "--bogus"),
    ],
    ids=["extra argument", "unknown option"],
)
def test_unrecognized_arguments_report_the_verb_usage(capsys, argv, unrecognized):
    assert run(capsys, *argv) == (
        2,
        "",
        "usage: cactus eq [-h] --n N word1 word2\n"
        f"cactus eq: error: unrecognized arguments: {unrecognized}\n",
    )


def test_every_verb_has_its_own_parser():
    _, verbs = cli._build_parser()
    assert list(verbs) == [
        "perm", "is-pure", "eq", "diagram", "nf", "deq", "delta", "gamma0", "project",
        "make-generator", "separate", "verify", "render",
    ]
    assert all(sub.prog == f"cactus {name}" for name, sub in verbs.items())


PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def argparse_namespace(argv):
    """What argparse makes of argv, as a dict; None for a usage error or help."""
    parser, verbs = cli._build_parser()
    sub = verbs.get(argv[0]) if argv else None
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return vars(sub.parse_args(argv[1:]) if sub else parser.parse_args(argv))
    except SystemExit:
        return None


def spellings(argv):
    """Other spellings of a call: argparse accepts some, and rejects others."""
    verb, rest = argv[0], argv[1:]
    options, positionals, tokens = [], [], iter(rest)
    for token in tokens:
        if token.startswith("--"):
            options += [token, next(tokens)]
        else:
            positionals.append(token)
    i = rest.index("--n")
    n = rest[i + 1]
    yield [verb, *rest[:i], f"--n={n}", *rest[i + 2:]]
    yield [verb, *positionals, *options]
    yield [*argv, "--n", str(int(n) + 1)]  # argparse keeps the last value
    yield from ([verb, *rest[:i + 1], bad, *rest[i + 2:]] for bad in ("-3", "x", ""))
    if "--ring" in rest:
        r = rest.index("--ring")
        yield [verb, *rest[:r], "--ri", *rest[r + 1:]]
        yield [verb, *rest[:r + 1], "q", *rest[r + 2:]]
        yield [verb, "--max-degree", "2", *rest]
    yield [verb, "--", *rest]
    yield ["--", *argv]
    yield [verb, "-h", *rest]
    yield argv[:-1]
    yield [*argv, "x"]


# The reader must give what the verb's parser gives, or leave the call to it.
def test_the_reader_agrees_with_argparse(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import workloads

    plain = [
        list(op.inputs)
        for seed in (1, 2, 3)
        for op in workloads.WORKLOADS["cli-mixed"].build(seed, 1200)
    ]
    for argv in plain:
        read, expected = cli._read(argv), argparse_namespace(argv)
        # a call argparse accepts as spelled here is always a plain one
        assert (vars(read) if read else None) == expected, argv
        for variant in spellings(argv):
            read = cli._read(variant)
            assert read is None or vars(read) == argparse_namespace(variant), variant
    # a lone - is a positional, as in argparse
    for argv in (
        ["verify", "-"], ["nf", "--n", "3", "-"], ["verify", "-", "-"], ["nf", "--n", "-", "t{1}"]
    ):
        read = cli._read(argv)
        assert (vars(read) if read else None) == argparse_namespace(argv), argv
    assert cli._read(["verify", "-"]) is not None


CERT = json.dumps(
    {"element": "t{1,2}", "ring": "f2-nilpotent", "degree": 1,
     "witness": [{"monomial": [[1, 2]], "coeff": 1}]},
    sort_keys=True,
)


# Only a call the reader leaves loads argparse (and gettext with it).
@pytest.mark.parametrize(
    "argv, stdin, out, err_end",
    [
        (("nf", "--n", "3", "t{1,2}"), None, "t{1,2}\n0 False\n", ""),
        (("verify", "-"), CERT, "true\n0 False\n", ""),
        (("eq", "--n", "3", "s1,2"), None, "2 True\n",
         "cactus eq: error: the following arguments are required: word2\n"),
    ],
    ids=["plain", "verify from stdin", "usage error"],
)
def test_argparse_is_loaded_only_for_calls_the_reader_leaves(argv, stdin, out, err_end):
    script = (
        "import sys\n"
        "from cactus_groups import cli\n"
        "code = cli.run(sys.argv[1:])\n"
        "print(code, 'argparse' in sys.modules)\n"
    )
    done = run_fresh(script, argv, stdin)
    assert done.stdout == out
    assert done.stderr.endswith(err_end) and bool(done.stderr) == bool(err_end)


HEAVY = ("dataclasses", "inspect", "json")

# The package's modules each call loads, beyond `cli` and `words`, which
# importing `cactus_groups.cli` loads; importing the package loads none.
CORE = ("_kernels_py", "cactus_core", "kernels")
GROUP = (*CORE, "diagram_group")
# The algebras and certificates stand on `words` and `kernels` alone.
CERTIFICATES = ("_kernels_py", "kernels", "algebra_f2", "algebra_z", "certificates")


# Each stage of a fresh interpreter loads exactly the layers it uses, and
# a plain verb loads none of the heavy modules; separate and verify load
# the certificate layer.  Modules the bare interpreter already holds (a
# .pth file may import any of them) are left out.
@pytest.mark.parametrize(
    "argv, output, layers",
    [
        (("nf", "--n", "3", "t{1,2} t{1,2}"), "", GROUP),
        (("eq", "--n", "3", "s1,2", "s1,2"), "true", CORE),
        (("perm", "--n", "3", "s1,3"), "[3,2,1]", CORE),
        (("render", "--n", "2", "t{1,2}"), None, ("render",)),
        (("separate", "--n", "2", "--ring", "f2", "t{1,2}"), CERT, CERTIFICATES),
        (("verify", CERT), "true", CERTIFICATES),
        (("is-pure", "--n", "3", ""), "true", CORE),
        (("diagram", "--n", "3", "s1,3 s1,2"), "t{1,2,3} t{2,3}", CORE),
        (("deq", "--n", "3", "t{1,2} t{1,2}", ""), "true", GROUP),
        (("delta", "--n", "3", "t{1,2} t{1,3}"), "t{1,2} t{1,3}", GROUP),
        (("gamma0", "--n", "3", ""), "true", GROUP),
        (("project", "--n", "3", ""), "[0]", GROUP),
        (("make-generator", "--n", "3", "t{1,2,3}"), "s1,3 s1,2 s2,3 s1,2", GROUP),
    ],
    ids=[
        "nf", "eq", "perm", "render", "separate", "verify", "is-pure", "diagram", "deq",
        "delta", "gamma0", "project", "make-generator",
    ],
)
def test_only_separate_and_verify_load_the_certificate_layer(argv, output, layers):
    script = (
        "import sys\n"
        "seen = set(sys.modules)\n"
        "def loaded():\n"
        "    global seen\n"
        "    new, seen = set(sys.modules) - seen, set(sys.modules)\n"
        "    return ','.join(sorted(name.removeprefix('cactus_groups.') for name in new\n"
        f"                          if name.startswith('cactus_groups.') or name in {HEAVY!r}))\n"
        "import cactus_groups\n"
        "stages = [loaded()]\n"
        "from cactus_groups import cli\n"
        "stages.append(loaded())\n"
        "code = cli.run(sys.argv[1:])\n"
        "print(code, *stages, loaded(), sep=';')\n"
    )
    done = run_fresh(script, argv)
    *lines, report = done.stdout.splitlines()
    assert done.stderr == ""
    if output is not None:
        assert lines == [output]
    code, package, cli_module, call = report.split(";")
    assert (code, package, cli_module) == ("0", "", "cli,words")
    if "certificates" in layers:
        assert set(call.split(",")).difference(HEAVY) == set(layers)
    else:
        assert call == ",".join(sorted(layers))


def test_render_rejects_too_many_strands(capsys):
    code, out, err = run(capsys, "render", "--n", "27", "")
    assert code == 2
    assert err.startswith("error:")


# The printed generator is read back: it is pure and projects to the basis
# vector of its chord (t{1,3,5} is coordinate 7 of 16 at n = 5).
@pytest.mark.parametrize(
    "n, chord, generator, projection",
    [
        (4, "t{1,2,4}", "s3,4 s1,3 s1,2 s2,3 s1,2 s3,4", "[0,1,0,0,0]"),
        (5, "t{1,3,5}", "s2,3 s4,5 s3,4 s1,3 s1,2 s2,3 s1,2 s3,4 s4,5 s2,3",
         "[0,0,0,0,0,0,1,0,0,0,0,0,0,0,0,0]"),
    ],
    ids=["t{1,2,4}", "t{1,3,5}"],
)
def test_make_generator_output_is_pure_and_reusable(capsys, n, chord, generator, projection):
    code, out, _ = run(capsys, "make-generator", "--n", str(n), chord)
    assert (code, out) == (0, generator + "\n")
    word = out.strip()
    assert run(capsys, "is-pure", "--n", str(n), word) == (0, "true\n", "")
    assert run(capsys, "project", "--n", str(n), word) == (0, projection + "\n", "")


# Past the word's largest q, perm writes the identity tail in chunks.
@pytest.mark.parametrize(
    "n",
    [5, 9, cli._PERM_CHUNK + 4, cli._PERM_CHUNK + 5, cli._PERM_CHUNK + 6, 3 * cli._PERM_CHUNK + 11],
)
@pytest.mark.parametrize("word", ["", "s1,2", "s2,5 s1,4 s3,4", "s1,5 s5,5", "s5,9"])
def test_perm_output_matches_word_permutation(capsys, n, word):
    code, out, err = run(capsys, "perm", "--n", str(n), word)
    try:
        expected = "[" + ",".join(map(str, word_permutation(parse_cactus_word(word, n)))) + "]\n"
    except ValueError as exc:
        assert (code, out, err) == (2, "", f"error: {exc}\n")
    else:
        assert (code, out, err) == (0, expected, "")


def test_perm_memory_follows_the_word(monkeypatch):
    class Sink:
        size, head, tail = 0, "", ""

        def write(self, s):
            self.size += len(s)
            self.head = (self.head + s)[:7]
            self.tail = (self.tail + s)[-9:]
            return len(s)

    sink = Sink()
    monkeypatch.setattr(sys, "stdout", sink)
    outcome = []
    assert peak_bytes(lambda: outcome.append(cli.run(["perm", "--n", "200000", "s1,3"]))) < 1 << 20
    assert outcome == [0]
    assert sink.size == len("[" + ",".join(map(str, range(1, 200001))) + "]\n")
    assert (sink.head, sink.tail) == ("[3,2,1,", ",200000]\n")


# Each call reads only the strands its word touches, or writes its output in
# chunks, so it answers at a huge arity within a 400 MB address space.  The
# cap is set in the child itself, since forking a threaded process is unsafe.
@pytest.mark.parametrize(
    "argv, head, size",
    [
        (("eq", "--n", "100000000", "s1,2", "s1,2"), "true\n", 5),
        (("is-pure", "--n", "100000000", "s1,2 s1,2"), "true\n", 5),
        (("make-generator", "--n", "100000000", "t{1,2,3}"), "s1,3 s1,2 s2,3 s1,2\n", 20),
        (("gamma0", "--n", "64", "s1,2 s1,2"), "true\n", 5),
        (("perm", "--n", "10000000", "s1,2"), "[2,1,3,", 78_888_899),
    ],
    ids=["eq", "is-pure", "make-generator", "gamma0", "perm"],
)
def test_huge_arities_answer_under_a_400_mb_address_space_cap(tmp_path, argv, head, size):
    script = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (400 << 20, 400 << 20))\n"
        "from cactus_groups import cli\n"
        "cli.main()\n"
    )
    path = tmp_path / "out"
    with open(path, "w") as stdout:
        done = run_fresh(script, argv, stdout=stdout)
    assert (done.returncode, done.stderr) == (0, "")
    assert path.stat().st_size == size
    with open(path) as f:
        assert f.read(len(head)) == head


def test_make_generator_memory_follows_the_chord(capsys):
    argv = ("make-generator", "--n", "200000", "t{1,2,3}")
    outcome = []
    assert peak_bytes(lambda: outcome.append(run(capsys, *argv))) < 1 << 16
    assert outcome == [(0, "s1,3 s1,2 s2,3 s1,2\n", "")]


def test_make_generator_rejects_small_chord(capsys):
    code, out, err = run(capsys, "make-generator", "--n", "3", "t{1,2}")
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "chords, message",
    [
        ("t{1,2,3} t{1,2,3,4}", "error: token 2 ('t{1,2,3,4}'): expected exactly one chord token, got 2\n"),
        ("", "error: token 1 (''): expected exactly one chord token, got 0\n"),
    ],
    ids=["two chords", "no chord"],
)
def test_make_generator_needs_exactly_one_chord(capsys, chords, message):
    code, out, err = run(capsys, "make-generator", "--n", "4", chords)
    assert code == 2
    assert out == ""
    assert err == message


@pytest.mark.parametrize("ring", ["f2", "z"])
@pytest.mark.parametrize("cap", ["0", "-3"])
def test_separate_rejects_degree_cap_below_one(capsys, ring, cap):
    code, out, err = run(
        capsys, "separate", "--n", "3", "--ring", ring, "--max-degree", cap,
        "t{1,2} t{1,3} t{1,2} t{1,3}",
    )
    assert code == 2
    assert out == ""
    assert err == f"error: max_degree must be at least 1, got {cap}\n"


def test_nf_output_round_trips(capsys):
    text = "t{2,3} t{1,2,3} t{1,2,3} t{1,2} t{3,4}"
    code, out, _ = run(capsys, "nf", "--n", "4", text)
    assert code == 0
    reparsed = parse_diagram_word(out.strip(), 4)
    assert reparsed == lex_normal_form(parse_diagram_word(text, 4))
    code, out2, _ = run(capsys, "nf", "--n", "4", out.strip())
    assert out2 == out


def test_diagram_output_round_trips(capsys):
    code, out, _ = run(capsys, "diagram", "--n", "5", "s1,5 s2,4 s1,3")
    assert code == 0
    parse_diagram_word(out.strip(), 5)


def test_main_entry_point_exits():
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == 2


def test_repeated_calls_give_identical_results(capsys):
    # The parser is built once and shared by every call; no call may leave
    # state behind that changes a later one.
    sequence = [
        ("perm", "--n", "3"),  # usage error: missing word
        ("nf", "--n", "3", "t{1,2} t{1,2,3} t{1,3}"),
        ("bogus",),
        ("separate", "--n", "3", "--ring", "f2", "--max-degree", "1",
         "t{1,2} t{1,3} t{1,2} t{1,3}"),
        ("separate", "--n", "3", "--ring", "z", "t{1,2} t{1,3} t{1,2} t{1,3}"),
        ("render", "--n", "4", "t{1,2,4}"),
        ("separate", "--n", "3", "--ring", "f2", "t{1,2} t{1,3}"),
        ("nf", "--n", "4", "t{3,4} t{1,2}"),
    ]

    def outcomes():
        return [run(capsys, *argv)[:2] for argv in sequence]

    first = outcomes()
    assert [code for code, _ in first] == [2, 0, 2, 1, 0, 0, 0, 0]
    assert outcomes() == first


def test_internal_error_exits_3(capsys, monkeypatch):
    def broken(word):
        raise RuntimeError("kernel fault")

    monkeypatch.setattr("cactus_groups.diagram_group.lex_normal_form", broken)
    code, out, err = run(capsys, "nf", "--n", "3", "t{1,2}")
    assert code == 3
    assert out == ""
    assert err == "internal error: RuntimeError: kernel fault\n"


# The report is printed once the failing call's frames are let go; if the
# print itself fails, as under MemoryError, main still exits 3, never 1.
def test_a_failing_error_report_still_exits_3(monkeypatch):
    def broken(word):
        raise RuntimeError("kernel fault")

    handled = []

    class Exhausted:
        def write(self, s):
            handled.append(sys.exc_info()[1])
            raise MemoryError

    monkeypatch.setattr("cactus_groups.diagram_group.lex_normal_form", broken)
    monkeypatch.setattr(sys, "argv", ["cactus", "nf", "--n", "3", "t{1,2}"])
    monkeypatch.setattr(sys, "stderr", Exhausted())
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == 3
    assert handled == [None]


# Token soup for every verb: options drawn from the verb table or not at
# all, in any order, now and then among stray tokens.  Arities stay small,
# so no call writes a large output.  Whatever the input, the answer is 0, 1
# or 2, and 1 means a negative answer: "false", or separate's report of a
# trivial element or a reached degree cap.
_NUMBERS = ("3", "4", "5", "6") * 3 + ("2", "1", "0", "-1")
_GENERATORS = ("s1,2", "s1,3", "s2,3", "s1,4", "s3,4") * 3 + ("s2,1", "s1,9", "x")
_CHORDS = ("t{1,2}", "t{1,3}", "t{2,3}", "t{1,2,3}", "t{3}", "t{1,2,4}") * 3 + (
    "t{2,1}", "t{}", "t{7}"
)
_CERTIFICATE = (
    '{"degree": 1, "element": "%s", "ring": "f2-nilpotent", '
    '"witness": [{"coeff": 1, "monomial": [[1, 2]]}]}'
)
_CERTIFICATES = (
    "-", "{", "[]", *(_CERTIFICATE % e for e in ("t{1,2}", "t{1,3}", "t{1,2} t{1,2}"))
)
_STRAYS = (
    *cli._VERBS, *_NUMBERS, "--n", "--ring", "f2", "z", "--max-degree",
    "-", "--", "-h", "--n=3", "--ri",
)
_DIAGRAM_VERBS = {"nf", "deq", "delta", "separate", "make-generator"}


def _word(rng, verb, name):
    """Mostly a word the verb reads, sometimes one of the other kind."""
    alphabet = _CHORDS if (verb in _DIAGRAM_VERBS) == (rng.random() < 0.8) else _GENERATORS
    length = 1 if name == "chord" and rng.random() < 0.8 else rng.randrange(7)
    return " ".join(rng.choice(alphabet) for _ in range(length))


@st.composite
def _soup(draw):
    # Seeded by Hypothesis, but uniform: its own Random favours small
    # draws, which would turn most calls into usage errors.
    rng = draw(st.randoms(use_true_random=True))
    verb = rng.choice(sorted(cli._VERBS))
    _, _, options, positionals = cli._VERBS[verb]
    units = []  # an option with its value moves as one
    for option in options:
        if option.required or rng.random() < 0.5:
            units.append([option.flag, rng.choice(option.choices or _NUMBERS)])
    for name, _ in positionals:
        token = rng.choice(_CERTIFICATES) if name == "certificate" else _word(rng, verb, name)
        units.append([token])
    if rng.random() < 0.5:
        rng.shuffle(units)
    if rng.random() < 0.25:
        units.append([rng.choice(_STRAYS + _CERTIFICATES) for _ in range(rng.randint(1, 2))])
    return [verb, *(token for unit in units for token in unit)], rng.choice(_CERTIFICATES)


def _negative_answer(verb, out):
    if out == "false\n":
        return True
    if verb != "separate":
        return False
    report = json.loads(out)
    return report.keys() - {"trivial", "separated", "max_degree"} == {"element", "ring"} and (
        report.get("trivial") is True or report.get("separated") is False
    )


@settings(max_examples=300)
@given(_soup())
def test_token_soup_exits_0_1_or_2(call):
    argv, stdin = call
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
    finally:
        sys.stdin = saved
    assert code in (0, 1, 2), err.getvalue()
    if code == 1:
        assert _negative_answer(argv[0], out.getvalue())


def test_closed_stdout_in_process_exits_141(monkeypatch, capsys):
    class Closed:
        def write(self, s):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", Closed())
    assert cli.run(["perm", "--n", "3", "s1,2"]) == 141
    assert capsys.readouterr().err == ""


def cactus_process(*argv, stdout=subprocess.PIPE, stdin=None):
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.Popen(
        [sys.executable, "-m", "cactus_groups.cli", *argv],
        env=env,
        stdin=stdin,
        stdout=stdout,
        stderr=subprocess.PIPE,
    )


# A reader that stops early, as `| head -c 7` does, is not an error: the
# writer exits 141 (128 + SIGPIPE) with nothing on stderr, whether the pipe
# closes mid-output or before the buffered output is flushed at exit.
def test_closed_stdout_pipe_mid_output_exits_141():
    # the output is megabytes, so the writer blocks on the full pipe until
    # the reader closes it
    proc = cactus_process("perm", "--n", "1000000", "s1,2")
    assert proc.stdout.read(7) == b"[2,1,3,"
    proc.stdout.close()
    with proc.stderr:
        err = proc.stderr.read()
    assert (proc.wait(timeout=60), err) == (141, b"")


def test_closed_stdout_pipe_at_exit_exits_141():
    # the reader is gone before the writer starts; its few bytes wait in
    # the buffer until the flush at exit
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = cactus_process("nf", "--n", "3", "t{1,2} t{1,2,3} t{1,3}", stdout=write_end)
    finally:
        os.close(write_end)
    with proc.stderr:
        err = proc.stderr.read()
    assert (proc.wait(timeout=60), err) == (141, b"")


def test_deeply_nested_certificate_on_stdin_exits_2():
    # json.loads raises RecursionError at this depth: malformed input, not
    # an internal error.  Read from stdin, since one argv string is capped
    # at 128 KB.
    proc = cactus_process("verify", "-", stdin=subprocess.PIPE)
    out, err = proc.communicate(b"[" * 100_000 + b"]" * 100_000, timeout=60)
    assert (proc.returncode, out) == (2, b"")
    assert err.startswith(b"error: not JSON")
