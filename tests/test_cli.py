import json

import pytest

from cactus_groups import cli
from cactus_groups.certificates import SeparationCertificate, verify_certificate
from cactus_groups.diagram_group import lex_normal_form
from cactus_groups.words import parse_cactus_word, parse_diagram_word

WORKED = "s1,2 s1,3 s1,2 s1,3 s1,2 s1,3"


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
        (("render", "--n", "4", "--format", "ascii", "t{1,2,4}"), 0, "| | | |\n*-*-|-*\n| | | |\n"),
        (("render", "--n", "3", ""), 0, "| | |\n"),
        (("render", "--n", "7", "s3,7"), 0, "| | | | | | |\n| | X-X-X-X-X\n| | | | | | |\n"),
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
