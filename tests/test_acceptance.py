"""Acceptance gate: the ten headline checks, each printing a PASS/FAIL line.

Each criterion runs at its pinned scale with a fixed seed, so the suite is
deterministic.  The two search-heavy criteria also assert their wall-clock
budgets.
"""

import contextlib
import io
import itertools
import json
import random
import time

import pytest

import oracle
from cactus_groups import cli, kernels
from cactus_groups.algebra_f2 import f2_image, homogeneous_component, nilpotent_separation
from cactus_groups.algebra_z import tfn_separation, z_image
from cactus_groups.cactus_core import diagram_of, equal_in_Jn, inverse_word, is_pure
from cactus_groups.certificates import SeparationCertificate, verify_certificate
from cactus_groups.diagram_group import (
    big_chord_sets,
    commute,
    construct_pure_generator,
    equal_diagrams,
    gamma_circ_projection,
    lex_normal_form,
    projection_dimension,
)
from cactus_groups.words import (
    CactusGenerator,
    CactusWord,
    DiagramWord,
    format_diagram_word,
    parse_cactus_word,
    parse_diagram_word,
)
from helpers import (
    all_generators,
    random_cactus_word,
    random_diagram_word,
    random_even_lean_word,
    random_lean_word,
)

SEED = 20250817
ALPHA3 = tuple(range(1, 8))


@pytest.fixture
def report(capsys):
    @contextlib.contextmanager
    def _report(num, name):
        with capsys.disabled():
            try:
                yield
            except BaseException:
                print(f"[FAIL] criterion {num:2d}: {name}", flush=True)
                raise
            print(f"[PASS] criterion {num:2d}: {name}", flush=True)

    return _report


def random_pure_word(rng, n, pool):
    u = random_cactus_word(rng, n, rng.randrange(0, 6))
    core = CactusWord(n, ())
    for _ in range(rng.randrange(0, 3)):
        core = core * rng.choice(pool)
    return u * core * inverse_word(u)


def test_criterion_01_relation_soundness(report):
    with report(1, "defining relations hold in both groups"):
        for n in range(2, 6):
            empty = CactusWord(n, ())
            gens = all_generators(n)
            for g in gens:
                assert equal_in_Jn(CactusWord(n, (g, g)), empty)
            for a in gens:
                for b in gens:
                    if a.q < b.p or b.q < a.p:
                        assert equal_in_Jn(
                            CactusWord(n, (a, b)), CactusWord(n, (b, a))
                        )
                    elif a.p <= b.p and b.q <= a.q and a != b:
                        c = CactusGenerator(a.p + a.q - b.q, a.p + a.q - b.p)
                        assert equal_in_Jn(
                            CactusWord(n, (a, b)), CactusWord(n, (c, a))
                        )
            masks = range(1, 1 << n)
            for i in masks:
                assert equal_diagrams(DiagramWord(n, (i, i)), DiagramWord(n, ()))
                for j in masks:
                    if commute(i, j):
                        assert equal_diagrams(
                            DiagramWord(n, (i, j)), DiagramWord(n, (j, i))
                        )


def test_criterion_02_oracle_equivalence(report):
    with report(2, "normal-form equality matches bounded relation search"):
        start = time.monotonic()
        rng = random.Random(SEED)
        words = [
            t for L in range(5) for t in itertools.product(ALPHA3, repeat=L)
        ]
        nf = {w: kernels.lex_least(kernels.lean_reduce(w)) for w in words}
        ids_at = {}
        for bound in range(2, 7):
            seeds = [w for w in words if len(w) <= bound - 2]
            ids = oracle.component_partition(
                [DiagramWord(3, w) for w in seeds], max_len=bound, state_cap=4 * 10**6
            )
            ids_at[bound] = dict(zip(seeds, ids))

        def search_equal(w1, w2):
            table = ids_at[max(len(w1), len(w2)) + 2]
            return table[w1] == table[w2]

        disagreements = 0
        short = [w for w in words if len(w) <= 2]
        for w1 in short:
            for w2 in short:
                lib = equal_diagrams(DiagramWord(3, w1), DiagramWord(3, w2))
                if lib != search_equal(w1, w2):
                    disagreements += 1
        for _ in range(10**5):
            w1 = rng.choice(words)
            w2 = rng.choice(words)
            if (nf[w1] == nf[w2]) != search_equal(w1, w2):
                disagreements += 1
        # spot-check that the batched component search matches one-pair BFS
        for _ in range(150):
            w1 = rng.choice(words)
            w2 = rng.choice(words)
            direct = oracle.bfs_equal(DiagramWord(3, w1), DiagramWord(3, w2))
            if direct != search_equal(w1, w2):
                disagreements += 1
        elapsed = time.monotonic() - start
        assert disagreements == 0
        assert elapsed < 120


def test_criterion_03_lean_uniqueness(report):
    with report(3, "lean words are equal exactly when normal forms match"):
        words = [
            t for L in range(6) for t in itertools.product(ALPHA3, repeat=L)
        ]
        leans = [w for w in words if kernels.is_lean(w)]
        nf = {w: kernels.lex_least(w) for w in leans}
        # at the default bound max(len)+2, every pair of lean words of
        # length <= 5 is decided by the flood at its own bound; checking
        # that flood labels and normal forms induce the same partition at
        # every bound covers all pairs at once
        for bound in range(2, 8):
            seeds = [w for w in leans if len(w) <= bound - 2]
            ids = oracle.component_partition(
                [DiagramWord(3, w) for w in seeds], max_len=bound, state_cap=4 * 10**6
            )
            id_to_nf = {}
            nf_to_id = {}
            for w, comp in zip(seeds, ids):
                assert id_to_nf.setdefault(comp, nf[w]) == nf[w]
                assert nf_to_id.setdefault(nf[w], comp) == comp
        # direct one-pair spot checks of the same statement
        rng = random.Random(SEED + 3)
        for _ in range(120):
            w1 = rng.choice(leans)
            w2 = rng.choice(leans)
            same = oracle.bfs_equal(DiagramWord(3, w1), DiagramWord(3, w2))
            assert same == (nf[w1] == nf[w2])


def test_criterion_04_dimension_constants(report):
    with report(4, "projection dimensions are 1, 5, 16 for n = 3, 4, 5"):
        expected = {3: 1, 4: 5, 5: 16}
        for n, dim in expected.items():
            assert projection_dimension(n) == dim
            assert len(big_chord_sets(n)) == dim
            vec = gamma_circ_projection(CactusWord(n, ()))
            assert len(vec) == dim


def test_criterion_05_surjectivity(report):
    with report(5, "constructed generators project to the standard basis"):
        for n in (3, 4, 5):
            big = big_chord_sets(n)
            vectors = []
            for idx, mask in enumerate(big):
                w = construct_pure_generator(n, mask)
                assert is_pure(w)
                vec = gamma_circ_projection(w)
                assert vec == tuple(1 if i == idx else 0 for i in range(len(big)))
                vectors.append(vec)
            assert len(set(vectors)) == len(big)


def test_criterion_06_pair_parity(report):
    with report(6, "pure words meet every strand pair evenly"):
        rng = random.Random(SEED + 6)
        for n in (3, 4, 5):
            pool = [construct_pure_generator(n, m) for m in big_chord_sets(n)]
            for _ in range(1000):
                w = random_pure_word(rng, n, pool)
                assert is_pure(w)
                masks = diagram_of(w).letters
                for i in range(1, n + 1):
                    for j in range(i + 1, n + 1):
                        pair = (1 << (i - 1)) | (1 << (j - 1))
                        assert sum(1 for m in masks if m & pair == pair) % 2 == 0


def test_criterion_07_nilpotent_separation(report):
    with report(7, "every lean word earns a mod-2 certificate with its own top term"):
        start = time.monotonic()
        rng = random.Random(SEED + 7)
        for _ in range(1000):
            n = rng.choice([3, 4])
            d = rng.randrange(1, 9)
            u = random_lean_word(rng, n, d)
            cert = nilpotent_separation(u)
            assert cert is not None
            assert 1 <= cert.degree <= d
            canonical = kernels.lex_least(u.letters)
            assert canonical in homogeneous_component(f2_image(u, d), d)
        elapsed = time.monotonic() - start
        assert elapsed < 300


def test_criterion_08_torsion_free_separation(report):
    with report(8, "even lean words earn integer certificates with sign (-1)^(d/2)"):
        rng = random.Random(SEED + 8)
        for _ in range(1000):
            n = rng.choice([3, 4])
            pairs = rng.randrange(2, 5) if n == 4 else rng.randrange(2, 4)
            u = random_even_lean_word(rng, n, pairs)
            d = len(u)
            cert = tfn_separation(u)
            assert cert is not None
            assert 1 <= cert.degree <= d
            canonical = kernels.lex_least(u.letters)
            assert z_image(u, d).coefficient(canonical) == (-1) ** (d // 2)


def test_criterion_09_worked_element(report):
    with report(9, "the worked element reproduces its full pipeline"):
        w = parse_cactus_word("s1,2 s1,3 s1,2 s1,3 s1,2 s1,3", 3)
        assert is_pure(w)
        diagram = diagram_of(w)
        assert diagram == parse_diagram_word(
            "t{1,2} t{1,2,3} t{1,3} t{1,2,3} t{2,3} t{1,2,3}", 3
        )
        assert lex_normal_form(diagram) == parse_diagram_word(
            "t{1,2} t{1,3} t{2,3} t{1,2,3}", 3
        )
        assert gamma_circ_projection(w) == (1,)
        cert = nilpotent_separation(diagram)
        assert cert.degree == 1
        assert verify_certificate(cert)


def test_criterion_10_certificate_reverification(report):
    with report(10, "every emitted certificate re-verifies independently"):
        rng = random.Random(SEED + 10)

        def emit_and_check(ring, word):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.run(
                    ["separate", "--n", str(word.n), "--ring", ring,
                     format_diagram_word(word)]
                )
            assert code == 0
            payload = json.loads(out.getvalue())
            assert payload["ring"].startswith(ring[0])
            cert = SeparationCertificate.from_json(out.getvalue())
            assert verify_certificate(cert)
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.run(["verify", out.getvalue()]) == 0

        checked = 0
        while checked < 500:
            n = rng.choice([3, 4])
            w = random_diagram_word(rng, n, rng.randrange(1, 7))
            if not kernels.lean_reduce(w.letters):
                continue
            emit_and_check("f2", w)
            checked += 1
        for _ in range(500):
            n = rng.choice([3, 4])
            u = random_even_lean_word(rng, n, rng.randrange(2, 4))
            emit_and_check("z", u)
