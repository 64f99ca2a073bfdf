import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

from cactus_groups import cli
from cactus_groups.cactus_core import word_permutation
from cactus_groups.certificates import SeparationCertificate, verify_certificate
from cactus_groups.diagram_group import lex_normal_form
from cactus_groups.words import parse_cactus_word, parse_diagram_word
from helpers import nested_commutator_text, peak_bytes

WORKED = "s1,2 s1,3 s1,2 s1,3 s1,2 s1,3"
ALT = "t{1,2} t{1,3} t{1,2} t{1,3}"


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
    ],
    ids=["missing positional", "missing --n", "--n x", "--n=3", "--ri abbreviation",
         "no arguments", "bogus", "-h", "eq -h"],
)
def test_usage_outcomes(capsys, argv, exit_code, expected_out, last_err_line):
    if callable(expected_out):
        expected_out = expected_out(capsys)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (exit_code, expected_out)
    if last_err_line is None:
        assert err == ""
    else:
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
    assert cli._read(["verify", "-"]) is None


# Only a call the reader leaves loads argparse (and gettext with it).
@pytest.mark.parametrize(
    "argv, exit_code, loaded, err_end",
    [
        (("nf", "--n", "3", "t{1,2}"), 0, False, ""),
        (("eq", "--n", "3", "s1,2"), 2, True,
         "cactus eq: error: the following arguments are required: word2\n"),
    ],
    ids=["plain", "usage error"],
)
def test_argparse_is_loaded_only_for_calls_the_reader_leaves(argv, exit_code, loaded, err_end):
    script = (
        "import sys\n"
        "from cactus_groups import cli\n"
        "code = cli.run(sys.argv[1:])\n"
        "print(code, 'argparse' in sys.modules)\n"
    )
    done = run_fresh(script, argv)
    assert done.stdout.splitlines()[-1] == f"{exit_code} {loaded}"
    assert done.stderr.endswith(err_end) and bool(done.stderr) == bool(err_end)


def run_fresh(script, argv):
    """``python -c script *argv`` in a fresh interpreter that imports the
    package from this checkout."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run(
        [sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True, timeout=60
    )


CERT = json.dumps(
    {"element": "t{1,2}", "ring": "f2-nilpotent", "degree": 1,
     "witness": [{"monomial": [[1, 2]], "coeff": 1}]},
    sort_keys=True,
)
HEAVY = ("dataclasses", "inspect", "json", "cactus_groups.certificates")


# A plain verb loads none of the heavy modules; separate and verify load
# the certificate layer.  Modules the bare interpreter already holds (a
# .pth file may import any of them) are left out.
@pytest.mark.parametrize(
    "argv, output, heavy",
    [
        (("nf", "--n", "3", "t{1,2} t{1,2}"), "", False),
        (("eq", "--n", "3", "s1,2", "s1,2"), "true", False),
        (("perm", "--n", "3", "s1,3"), "[3,2,1]", False),
        (("render", "--n", "2", "t{1,2}"), None, False),
        (("separate", "--n", "2", "--ring", "f2", "t{1,2}"), CERT, True),
        (("verify", CERT), "true", True),
    ],
    ids=["nf", "eq", "perm", "render", "separate", "verify"],
)
def test_only_separate_and_verify_load_the_certificate_layer(argv, output, heavy):
    script = (
        "import sys\n"
        "bare = set(sys.modules)\n"
        "from cactus_groups import cli\n"
        "code = cli.run(sys.argv[1:])\n"
        f"print(code, *sorted(set(sys.modules).difference(bare).intersection({HEAVY!r})))\n"
    )
    done = run_fresh(script, argv)
    *lines, report = done.stdout.splitlines()
    assert done.stderr == ""
    if output is not None:
        assert lines == [output]
    code, *loaded = report.split()
    assert code == "0"
    if heavy:
        assert "cactus_groups.certificates" in loaded
    else:
        assert loaded == []


def test_render_rejects_too_many_strands(capsys):
    code, out, err = run(capsys, "render", "--n", "27", "")
    assert code == 2
    assert err.startswith("error:")


def test_make_generator_output_is_pure_and_reusable(capsys):
    code, out, _ = run(capsys, "make-generator", "--n", "4", "t{1,2,4}")
    assert code == 0
    word = parse_cactus_word(out.strip(), 4)
    code, out, _ = run(capsys, "is-pure", "--n", "4", out.strip())
    assert code == 0
    code, out, _ = run(capsys, "project", "--n", "4", "s3,4 s1,3 s1,2 s2,3 s3,4 s1,2")
    assert code == 0
    assert out == "[0,1,0,0,0]\n"
    assert word.n == 4


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

    monkeypatch.setattr(cli, "lex_normal_form", broken)
    code, out, err = run(capsys, "nf", "--n", "3", "t{1,2}")
    assert code == 3
    assert out == ""
    assert err == "internal error: RuntimeError: kernel fault\n"


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
