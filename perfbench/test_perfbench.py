"""Tests of the benchmark itself: generators, checkers, tracing, output.

Run from the repository root: python3 -m pytest perfbench -q
"""

import dataclasses
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import hostspeed
import knowns as K
import run
import tracer
import workloads
from cactus_groups import algebra_f2, algebra_z, cactus_core, certificates, cli, kernels
from cactus_groups import _kernels_py
from cactus_groups.algebra_f2 import F2Series
from cactus_groups.algebra_z import ZSeries
from cactus_groups.words import DiagramWord

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parent / "BENCHMARK.json"


def sample_ops(name: str, count: int = 60) -> list:
    """Cheap operations of each workload (long words left out)."""
    if name == "wordproblem-long":
        rng = random.Random(3)
        return [
            op
            for first_equal in (True, False)
            for op in workloads.wordproblem_round(rng, first_equal, lengths=(40,))
        ]
    return workloads.WORKLOADS[name].build(3, count)


# --- generators -------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_deterministic_for_a_seed(name):
    workload = workloads.WORKLOADS[name]
    count = 45 if name != "cli-mixed" else 200
    first = [op.inputs for op in workload.build(11, count)]
    again = [op.inputs for op in workload.build(11, count)]
    other = [op.inputs for op in workload.build(12, count)]
    assert first == again
    assert first != other
    assert [op.inputs for op in workload.build(11, 5)] == first[:5]


def test_length_sweep_and_oneshot_inputs_are_deterministic():
    assert [op.inputs for op in workloads.length_sweep_ops(4)] == [
        op.inputs for op in workloads.length_sweep_ops(4)
    ]
    assert [a for a, _ in workloads.oneshot_argvs(4, 12)] == [
        a for a, _ in workloads.oneshot_argvs(4, 12)
    ]


def test_rounds_hold_a_fixed_mix():
    ops = workloads.WORKLOADS["wordproblem-long"].build(5, 45)
    tags = [op.tag for op in ops]
    assert tags.count("L40") == tags.count("L200") == tags.count("L1000") == 15
    cli_ops = workloads.WORKLOADS["cli-mixed"].build(5, 400)
    assert sum(op.tag == "bad-input" for op in cli_ops) == 400 // workloads.BAD_EVERY
    assert {op.tag for op in cli_ops} >= {make(random.Random(0), 4)[0][0] for make in workloads.CLI_VERBS}


def test_known_pairs_agree_with_definitions():
    rng = random.Random(8)
    for n in (3, 5):
        for equal in (True, False):
            g, h = K.cactus_pair(rng, n, 40, equal)
            assert K.permutation(g, n) == K.permutation(h, n)
            assert len(g) == len(h) == 40
            a, b, base = K.chord_pair(rng, n, 40, equal)
            assert len(a) == len(b) == 40
            assert K.is_reduced(base)
            assert (sorted(K.odd_chords(a)) == sorted(K.odd_chords(b))) or not equal


def test_unequal_cactus_insert_has_odd_big_chord():
    for n in (3, 4, 6):
        for k in range(1, n - 1):
            word = K.odd_pure_word(k)
            assert K.permutation(word, n) == tuple(range(1, n + 1))
            big = [c for c in K.odd_chords(K.diagram(word, n)) if c.bit_count() > 2]
            assert big == [0b111 << (k - 1)]


def test_commutators_are_certified_nontrivial():
    rng = random.Random(2)
    for n in (4, 5, 6):
        for depth in (2, 3, 4):
            word = K.commutator(rng, n, depth)
            assert len(word) == {2: 4, 3: 10, 4: 22}[depth]
            assert not K.odd_chords(word)
            assert _kernels_py.lean_reduce(tuple(word)) != ()


def test_centralizer_criterion_rejects_commuting_letters():
    # t{1,2} and t{3,4} commute, so [t{1,2}, t{3,4}] is trivial.
    assert not K.commutator_is_nontrivial([0b0011], 0b1100, 4)
    assert K.commutator_is_nontrivial([0b0011], 0b0110, 4)


def test_independent_checkers_reject_wrong_words():
    assert K.trace_equivalent([3, 12], [12, 3])  # disjoint chords commute
    assert not K.trace_equivalent([3, 6], [6, 3])  # overlapping chords do not
    assert not K.trace_equivalent([3, 6], [3, 5])
    assert K.is_reduced([3, 6, 3]) and not K.is_reduced([3, 12, 3])
    assert K.lex_least_class([12, 3, 6]) == (3, 12, 6)


# --- checkers -----------------------------------------------------------------------


def wrong_answers(name, op, result):
    """Deliberately wrong answers of the right shape."""
    if name == "cli-mixed":
        code, out = result
        return [(code, out + "x"), (0 if code else 1, out)]
    if isinstance(result, bool):
        return [not result]
    if op.tag in ("L40", "L200", "L1000"):  # normal forms of a pair
        nf_a, nf_b = result
        shorter = DiagramWord(nf_a.n, nf_a.letters[1:])
        return [(shorter, nf_b), (nf_b, nf_a) if nf_a != nf_b else (nf_a, shorter)]
    if op.tag == "separate":
        cert, back, verified = result
        moved = dataclasses.replace(back, element=back.element + " t{1,2}")
        return [(cert, back, False), (cert, moved, True)]
    if op.tag == "f2_image":
        top = max(result.support, key=len)
        return [F2Series(result.degree, result.support - {top})]
    if op.tag == "z_image":
        return [ZSeries(result.degree, {m: -c for m, c in result.coeffs.items()})]
    raise AssertionError(f"no wrong answers for {op.tag}")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_checkers_accept_answers_and_reject_wrong_ones(name):
    tally = run.Tally()
    for op in sample_ops(name):
        _, result, error = run.run_op(op)
        if error is not None:  # the known make-generator defect
            assert isinstance(error, TypeError) and op.inputs[0] == "make-generator"
            continue
        assert run.judge(op, result, None, tally), op.inputs
        for wrong in wrong_answers(name, op, result):
            assert not run.judge(op, wrong, None, tally), (op.inputs, wrong)


def test_deferred_checks_run_after_the_pass():
    seen = []
    op = workloads.Op("x", (), lambda: 1, lambda r: seen.append(r) or r == 1)
    samples = run.Samples([op])
    samples.run_all(defer_checks=True)
    assert seen == [] and samples.tally.attempted == 0
    samples.check_deferred()
    assert seen == [1] and samples.tally.attempted == 1 and samples.ok == [True]


def test_failures_are_counted_not_dropped():
    boom = workloads.Op("x", (), lambda: 1 / 0, lambda r: True)
    fine = workloads.Op("x", (), lambda: 1, lambda r: r == 1)
    samples = run.Samples([boom, fine, boom])
    samples.run_all()
    samples.run_all()
    assert (samples.tally.attempted, samples.tally.failed) == (6, 4)
    assert samples.tally.errors == {"ZeroDivisionError": 4}
    assert samples.ok == [False, True, False]
    assert samples.executions == 6 and len(samples.op_ms()) == 3


# --- tracing ------------------------------------------------------------------------


def test_wrappers_cover_every_binding_and_are_removed():
    import cactus_groups

    bindings = [
        (cactus_core, "equal_in_Jn"),
        (cli, "equal_in_Jn"),
        (cactus_groups, "equal_in_Jn"),
        (kernels, "lean_reduce"),
        (_kernels_py, "lean_reduce"),
        (algebra_f2, "f2_image"),
        (cli, "nilpotent_separation"),
        (cli, "run"),
    ]
    originals = [getattr(module, attr) for module, attr in bindings]
    from_json = vars(certificates.SeparationCertificate)["from_json"]
    trace = tracer.Tracer()
    with trace:
        assert all(hasattr(getattr(m, a), tracer.MARK) for m, a in bindings)
        assert cactus_core.equal_in_Jn is cli.equal_in_Jn
        with pytest.raises(RuntimeError):
            run.require_untraced()
    assert [getattr(m, a) for m, a in bindings] == originals
    assert all(getattr(m, a) is o for (m, a), o in zip(bindings, originals))
    assert vars(certificates.SeparationCertificate)["from_json"] is from_json
    assert tracer.bound_wrappers() == []
    run.require_untraced()


def test_wrappers_are_removed_after_an_error():
    with pytest.raises(ZeroDivisionError):
        with tracer.Tracer():
            1 / 0
    assert tracer.bound_wrappers() == []


def test_out_of_scope_modules_are_not_layers():
    names = set(tracer.layer_functions().values())
    assert not any(n.startswith(("oracle.", "render.")) for n in names)
    assert {"kernels.lean_reduce", "cli.run", "words.parse_cactus_word"} <= names


def traced_counts(ops):
    trace = tracer.Tracer()
    with trace:
        results = [op.call() for op in ops]
    assert all(op.check(r) for op, r in zip(ops, results))
    counts = {
        name: (stat.calls, dict(stat.count)) for name, stat in trace.stats.items()
    }
    return trace, counts


def test_per_layer_counts_repeat_exactly_and_spans_nest():
    ops = sample_ops("certify-deep", 42) + sample_ops("cli-mixed", 40)[:19]
    trace, first = traced_counts(ops)
    _, second = traced_counts(ops)
    assert first == second
    assert first["certificates.verify_certificate"][1]["kernel_calls"] > 0
    ids = {span[0] for span in trace.spans}
    assert all(parent == 0 or parent in ids for _, parent, *_ in trace.spans)
    for stat in trace.stats.values():
        assert stat.self_s <= stat.total_s + 1e-9


def test_layer_metrics_match_benchmark_json():
    spec = json.loads(BENCHMARK.read_text())
    trace, _ = traced_counts(sample_ops("cli-mixed", 19))
    metrics = run.layer_metrics(trace.stats, 0.1)
    assert list(metrics) == [m["name"] for m in spec["per_layer"]]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END_UNITS.items()
    )
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]
    assert metrics["cli.run.calls"][0] == 19


# --- output -------------------------------------------------------------------------


def test_reference_speed_scales_by_the_faster_reference():
    assert hostspeed.reference_s() > 0
    nominal = hostspeed.NOMINAL_S
    assert hostspeed.at_reference_speed(1.0, nominal, 2 * nominal) == 1.0
    assert hostspeed.at_reference_speed(1.0, 2 * nominal, 4 * nominal) == 0.5


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(45) == 75.0
    assert run.tail_percentile(135) == 90.0
    assert run.tail_percentile(420) == 95.0
    assert run.tail_percentile(1200) == 99.0
    assert run.tail_percentile(20000) == 99.9
    assert run.percentile([1, 2, 3, 4, 5], 50) == 3


def test_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCHMARK, tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-mixed", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_compare_flags_different_backends():
    def report(backend, value):
        return {
            "stamp": {"workload": "cli-mixed", "trace": 0, "seed": 1,
                      "commit": "abc", "kernel_backend": backend},
            "metrics": {"ops_per_s": {"value": value, "unit": "1/s"}},
        }

    lines, code = compare.compare(report("python", 10.0), report("python", 12.0))
    assert code == 0 and "1.200" in lines[-1]
    lines, code = compare.compare(report("python", 10.0), report("cython", 12.0))
    assert code == 3 and any(line.startswith("FLAG") for line in lines)
