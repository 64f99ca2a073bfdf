"""The committed CLI corpus, replayed byte for byte (see make_cli_corpus.py)."""

from cactus_groups import cli
from make_cli_corpus import CORPUS, MAX_BYTES, load, record


def test_the_committed_corpus_replays_byte_for_byte():
    assert CORPUS.stat().st_size < MAX_BYTES
    cases = load()
    assert {case["argv"][0] for case in cases} == set(cli._VERBS)
    moved = [
        (i, case, replayed)
        for i, case in enumerate(cases, 1)
        if (replayed := record(case["argv"], case["stdin"])) != case
    ]
    assert not moved, f"{len(moved)} of {len(cases)} cases moved; the first: {moved[0]}"
