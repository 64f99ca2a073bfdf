import json

import pytest

from cactus_groups import algebra_f2, algebra_z, certificates, kernels
from cactus_groups.algebra_f2 import f2_image, nilpotent_separation
from cactus_groups.algebra_z import tfn_separation, z_image
from cactus_groups.certificates import (
    RING_F2,
    RING_Z,
    CertificateFormatError,
    DegreeCapReached,
    SeparationCertificate,
    verify_certificate,
)
from cactus_groups.words import DiagramWord, format_diagram_word, parse_diagram_word
from helpers import (
    nested_commutator_text,
    peak_bytes,
    random_diagram_word,
    random_even_lean_word,
    random_even_word,
    random_lean_word,
)
from ring_reference import (
    f2_homogeneous_component,
    f2_is_one,
    f2_terms,
    z_homogeneous_component,
    z_is_one,
    z_terms,
)
from walk_reference import expand_f2, expand_z

ALT = "t{1,2} t{1,3} t{1,2} t{1,3}"
WORKED_DIAGRAM = "t{1,2} t{1,2,3} t{1,3} t{1,2,3} t{2,3} t{1,2,3}"


def dw(text, n=3):
    return parse_diagram_word(text, n)


def f2_cert(text, n=3, **kwargs):
    return nilpotent_separation(dw(text, n), **kwargs)


def test_construction_validation():
    good = dict(element="t{1,2}", ring=RING_F2, degree=1, witness=(((3,), 1),))
    SeparationCertificate(**good)
    with pytest.raises(ValueError):
        SeparationCertificate(**{**good, "ring": "unknown"})
    with pytest.raises(ValueError):
        SeparationCertificate(**{**good, "degree": 0})
    with pytest.raises(ValueError):
        SeparationCertificate(**{**good, "witness": ()})
    with pytest.raises(ValueError):
        SeparationCertificate(**{**good, "witness": (((3,), 0),)})
    with pytest.raises(ValueError):
        SeparationCertificate(**{**good, "witness": (((3, 5), 1),)})
    with pytest.raises(ValueError):
        SeparationCertificate(**{**good, "witness": (((3,), 2),)})  # mod-2 coeff
    zgood = dict(element=ALT, ring=RING_Z, degree=2, witness=(((3, 5), 2),))
    SeparationCertificate(**zgood)


def test_json_round_trip_f2():
    cert = f2_cert(ALT)
    data = json.loads(cert.to_json())
    assert data["ring"] == RING_F2
    assert data["degree"] == 2
    assert {"monomial": [[1, 2], [1, 3]], "coeff": 1} in data["witness"]
    assert SeparationCertificate.from_json(cert.to_json()) == cert


def test_json_round_trip_z():
    cert = tfn_separation(dw(ALT))
    data = json.loads(cert.to_json())
    assert data["ring"] == RING_Z
    assert {"monomial": [[1, 3], [1, 2]], "coeff": -1} in data["witness"]
    assert SeparationCertificate.from_json(cert.to_json()) == cert


def test_verify_accepts_real_certificates():
    assert verify_certificate(f2_cert(ALT))
    assert verify_certificate(f2_cert(WORKED_DIAGRAM))
    assert verify_certificate(f2_cert("t{1,2}"))
    assert verify_certificate(tfn_separation(dw(ALT)))
    assert verify_certificate(tfn_separation(dw("t{1,2} t{2,3} t{1,2} t{2,3}")))


# The element is read at arity MAX_STRAND.  Each one reduces to t{1,2}, so
# it verifies exactly when its repeated chord parses.
@pytest.mark.parametrize(
    "strand, verified",
    [("4096", True), ("4097", False), ("a", False), ("9" * 5000, False)],
    ids=["4096", "4097", "letter", "5000-digits"],
)
def test_verify_reads_the_element_up_to_the_strand_bound(strand, verified):
    element = f"t{{1,2}} t{{{strand}}} t{{{strand}}}"
    assert verify_certificate(SeparationCertificate(element, RING_F2, 1, (((3,), 1),))) is verified


def test_verify_rejects_tampered_witness():
    cert = f2_cert(ALT)
    extra = SeparationCertificate(
        cert.element, cert.ring, cert.degree, cert.witness + (((3, 6), 1),)
    )
    assert not verify_certificate(extra)
    short = SeparationCertificate(
        cert.element, cert.ring, cert.degree, cert.witness[:1]
    )
    assert not verify_certificate(short)


def test_verify_rejects_tampered_sign():
    cert = tfn_separation(dw(ALT))
    flipped = SeparationCertificate(
        cert.element,
        cert.ring,
        cert.degree,
        tuple((m, -c) for m, c in cert.witness),
    )
    assert not verify_certificate(flipped)


def test_verify_rejects_non_minimal_degree():
    # the degree-4 component is correct, but the minimal degree is 2
    top = z_homogeneous_component(z_image(dw(ALT), 4), 4)
    cert = SeparationCertificate(ALT, RING_Z, 4, tuple(sorted(top.items())))
    assert not verify_certificate(cert)


def test_verify_rejects_wrong_element():
    cert = f2_cert(ALT)
    other = SeparationCertificate(
        "t{1,2} t{2,3} t{1,2} t{2,3}", cert.ring, cert.degree, cert.witness
    )
    assert not verify_certificate(other)


def test_verify_rejects_malformed_element():
    cert = SeparationCertificate("x{1}", RING_F2, 1, (((3,), 1),))
    assert not verify_certificate(cert)


def test_a_witness_strand_past_the_bound_is_a_format_error():
    data = {**GOOD, "witness": [{"monomial": [[1, 10**10]], "coeff": 1}]}
    with pytest.raises(CertificateFormatError, match="numbered from 1 to 4096"):
        SeparationCertificate.from_json(json.dumps(data))
    data["witness"][0]["monomial"] = [[1, 4096]]
    assert SeparationCertificate.from_dict(data).witness == ((((1 << 4095) | 1,), 1),)


def test_an_element_strand_past_the_bound_verifies_false_without_allocating():
    cert = SeparationCertificate("t{1,2} t{1000000}", RING_F2, 1, (((3,), 1),))
    outcome = []
    assert peak_bytes(lambda: outcome.append(verify_certificate(cert))) < 1 << 16
    assert outcome == [False]


def test_verify_rejects_trivial_element():
    cert = SeparationCertificate("t{1,2} t{1,2}", RING_F2, 1, (((3,), 1),))
    assert not verify_certificate(cert)
    assert not verify_certificate(SeparationCertificate("", RING_F2, 1, (((3,), 1),)))


def test_verify_rejects_odd_parity_z_element():
    cert = SeparationCertificate("t{1,2,3}", RING_Z, 1, (((7,), 1),))
    assert not verify_certificate(cert)


def test_degree_cap():
    with pytest.raises(DegreeCapReached):
        f2_cert(ALT, max_degree=1)
    with pytest.raises(DegreeCapReached):
        tfn_separation(dw(ALT), max_degree=1)
    assert f2_cert(ALT, max_degree=2).degree == 2


def test_from_dict_normalizes_masks():
    data = {
        "element": "t{1,2}",
        "ring": RING_F2,
        "degree": 1,
        "witness": [{"monomial": [[1, 2]], "coeff": 1}],
    }
    cert = SeparationCertificate.from_dict(data)
    assert cert.witness == (((3,), 1),)
    assert verify_certificate(cert)


def test_verify_long_low_degree_certificate():
    # 1201 letters with an odd count of t{1,2}: separated in degree 1.
    text = "t{1,2} t{2,3} " * 600 + "t{1,2}"
    cert = f2_cert(text)
    assert cert.degree == 1
    assert dict(cert.witness) == {(3,): 1}
    assert verify_certificate(cert)
    assert verify_certificate(SeparationCertificate.from_json(cert.to_json()))


def test_expansions_match_the_images(rng):
    # the subsequence walks and the append-based images share only the primitive
    for _ in range(40):
        n = rng.choice([3, 4])
        w = random_lean_word(rng, n, rng.randrange(1, 7))
        k = rng.randrange(1, len(w) + 1)
        f2 = expand_f2(w.letters, k)
        image = f2_image(w, k)
        assert all(f2[d] == f2_homogeneous_component(image, d) for d in range(1, k + 1))
        even = random_even_word(rng, n, rng.randrange(1, 4))
        z = expand_z(kernels.lean_reduce(even.letters), k)
        zimage = z_image(even, k)
        assert all(z[d] == z_homogeneous_component(zimage, d) for d in range(1, k + 1))


def graded(terms, k):
    """The first k components a graded search yields, degree -> {mono: coeff}."""
    return {d: dict(comp) for d, comp in zip(range(1, k + 1), terms)}


def test_graded_components_match_the_walks_and_the_images(rng):
    # three traversals of the same product: prefix by prefix per degree,
    # letter by letter for all degrees at once, and subsequence by subsequence
    for _ in range(60):
        n = rng.choice([3, 4])
        for w in (
            random_diagram_word(rng, n, rng.randrange(1, 7)),
            random_lean_word(rng, n, rng.randrange(1, 7)),
        ):
            k = len(w) + 1
            comps = graded(algebra_f2._graded_terms(w.letters), k)
            walk = expand_f2(w.letters, k)
            image = f2_image(w, k)
            for d in range(1, k + 1):
                assert set(comps[d]) == walk[d] == f2_homogeneous_component(image, d)
                assert set(comps[d].values()) <= {1}
        # every chord of an even word occurs an even number of times, lean or not
        for w in (
            random_even_word(rng, n, rng.randrange(1, 4)),
            random_even_lean_word(rng, n, rng.randrange(2, 4)),
        ):
            k = len(w) + 1
            comps = graded(algebra_z._graded_terms(w.letters), k)
            walk = expand_z(w.letters, k)
            image = z_image(w, k)
            for d in range(1, k + 1):
                assert comps[d] == walk[d] == z_homogeneous_component(image, d)


def separate_by_images(w, image, is_one, terms):
    """The search by whole images, degree 1, 2, ... until one is not 1."""
    lean = DiagramWord(w.n, kernels.lean_reduce(w.letters))
    for k in range(1, len(lean) + 1):
        series = image(lean, k)
        if not is_one(series):
            return k, terms(series)
    raise AssertionError("no separating degree up to the lean length")


@pytest.mark.parametrize(
    "separate, image, is_one, terms, words",
    [
        (nilpotent_separation, f2_image, f2_is_one, f2_terms, random_diagram_word),
        (tfn_separation, z_image, z_is_one, z_terms, random_even_word),
    ],
    ids=["f2", "z"],
)
def test_graded_search_matches_the_search_by_images(rng, separate, image, is_one, terms, words):
    checked = 0
    while checked < 60:
        n = rng.choice([3, 4])
        w = words(rng, n, rng.randrange(1, 7))
        if not kernels.lean_reduce(w.letters):
            continue
        checked += 1
        degree, witness = separate_by_images(w, image, is_one, terms)
        cert = separate(w)
        assert (cert.degree, cert.witness) == (degree, witness)
        assert separate(w, max_degree=degree) == cert
        if degree > 1:
            with pytest.raises(DegreeCapReached):
                separate(w, max_degree=degree - 1)


@pytest.mark.parametrize("brackets", [4, 5])
@pytest.mark.parametrize("separate", [nilpotent_separation, tfn_separation], ids=["f2", "z"])
def test_deep_commutator_certificates_verify(separate, brackets):
    # five brackets, six chords, degree 6: the subsequence walk takes more
    # than a minute per ring here, the image a few milliseconds
    w = dw(nested_commutator_text(brackets), 6)
    cert = separate(w)
    assert cert.degree == brackets + 1
    back = SeparationCertificate.from_json(cert.to_json())
    assert back == cert
    assert verify_certificate(back)
    dropped = SeparationCertificate(cert.element, cert.ring, cert.degree, cert.witness[1:])
    assert not verify_certificate(dropped)
    if cert.ring == RING_Z:
        (mono, coeff), *rest = cert.witness
        changed = (mono, coeff + 1 if coeff != -1 else 1)
        assert not verify_certificate(
            SeparationCertificate(cert.element, cert.ring, cert.degree, (changed, *rest))
        )


@pytest.mark.parametrize(
    "ring, coeff, word",
    [(RING_F2, 1, nested_commutator_text(2)), (RING_Z, -1, nested_commutator_text(2))],
    ids=["f2", "z"],
)
def test_verify_rejects_a_degree_above_the_lean_length_without_an_image(
    monkeypatch, ring, coeff, word
):
    calls = []
    # the names the verifier calls, bound in its own module
    for name in ("f2_image", "z_image"):
        original = getattr(certificates, name)
        monkeypatch.setattr(
            certificates, name, lambda *args, _f=original: calls.append(args) or _f(*args)
        )
    mask = parse_diagram_word(word, 6).letters[0]
    claimed = SeparationCertificate(word, ring, 200, (((mask,) * 200, coeff),))
    assert len(kernels.lean_reduce(parse_diagram_word(word, 6).letters)) == 10
    assert not verify_certificate(claimed)
    assert calls == []
    # the same counters do see the image of an honest certificate
    assert verify_certificate(nilpotent_separation(dw(word, 6)))
    assert len(calls) == 1


GOOD = {
    "element": "t{1,2}",
    "ring": RING_F2,
    "degree": 1,
    "witness": [{"monomial": [[1, 2]], "coeff": 1}],
}


@pytest.mark.parametrize(
    "data",
    [
        {},
        [],
        "t{1,2}",
        {k: v for k, v in GOOD.items() if k != "witness"},
        {k: v for k, v in GOOD.items() if k != "element"},
        {**GOOD, "degree": "1"},
        {**GOOD, "degree": True},
        {**GOOD, "element": 12},
        {**GOOD, "ring": None},
        {**GOOD, "witness": {"monomial": [[1, 2]], "coeff": 1}},
        {**GOOD, "witness": [[[1, 2]]]},
        {**GOOD, "witness": [{"monomial": [[1, 2]]}]},
        {**GOOD, "witness": [{"monomial": [[1, 2]], "coeff": 1.0}]},
        {**GOOD, "witness": [{"monomial": [[]], "coeff": 1}]},
        {**GOOD, "witness": [{"monomial": [[0, 2]], "coeff": 1}]},
        {**GOOD, "witness": [{"monomial": [["1", 2]], "coeff": 1}]},
        {**GOOD, "witness": [{"monomial": [3], "coeff": 1}]},
        {**GOOD, "witness": [{"monomial": "t{1,2}", "coeff": 1}]},
        {**GOOD, "witness": []},
        {**GOOD, "ring": "unknown"},
        {**GOOD, "degree": 0},
        {**GOOD, "witness": [{"monomial": [[1, 2], [1, 3]], "coeff": 1}]},
        {**GOOD, "witness": [{"monomial": [[2, 1]], "coeff": 1}]},
        {**GOOD, "witness": [{"monomial": [[1, 2, 1]], "coeff": 1}]},
        {**GOOD, "witness": [{"monomial": [[1, 1]], "coeff": 1}]},
        {**GOOD, "witness": [{"monomial": [[1, 2]], "coeff": 1}] * 2},
        {**GOOD, "witness": [{"monomial": [[1, 4097]], "coeff": 1}]},
    ],
)
def test_from_dict_rejects_malformed_data(data):
    with pytest.raises(CertificateFormatError):
        SeparationCertificate.from_dict(data)


@pytest.mark.parametrize("separate", [nilpotent_separation, tfn_separation], ids=["f2", "z"])
def test_from_dict_rejects_a_repeated_monomial(separate):
    data = separate(dw(ALT)).to_dict()
    data["witness"].append(dict(data["witness"][0]))
    with pytest.raises(CertificateFormatError, match="more than once"):
        SeparationCertificate.from_dict(data)


@pytest.mark.parametrize("separate", [nilpotent_separation, tfn_separation], ids=["f2", "z"])
@pytest.mark.parametrize("strands", [[2, 1], [1, 2, 1]])
def test_from_dict_rejects_unordered_strands(separate, strands):
    data = separate(dw(ALT)).to_dict()
    data["witness"][0]["monomial"][0] = strands
    with pytest.raises(CertificateFormatError, match="strictly ascending"):
        SeparationCertificate.from_dict(data)


@pytest.mark.parametrize(
    "text",
    [
        "", "{", "null", "[1]", '{"element": "t{1,2}"}',
        # deep enough that json.loads raises RecursionError
        pytest.param("[" * 1000 + "]" * 1000, id="nested 1000 deep"),
        pytest.param("[" * 100_000 + "]" * 100_000, id="nested 100000 deep"),
    ],
)
def test_from_json_rejects_malformed_text(text):
    with pytest.raises(CertificateFormatError):
        SeparationCertificate.from_json(text)


def test_format_error_is_a_value_error():
    assert issubclass(CertificateFormatError, ValueError)
    assert SeparationCertificate.from_dict(GOOD).witness == (((3,), 1),)
