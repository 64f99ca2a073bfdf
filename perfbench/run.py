"""Layered benchmark for cactus-groups.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see `workloads.WORKLOADS`): ``wordproblem-long``,
``certify-deep`` and ``cli-mixed``.  Each is a closed loop run by one
client in this process; the package is imported from ``src`` of the
checkout and receives only inputs generated from ``--seed``.  Every
answer is checked against a known answer.  An exception fails its
operation and the run goes on; failures are counted, never dropped.

``--trace 0`` runs the timed loop for ``--seconds`` seconds in all, with
no tracing installed, and prints the end-to-end metrics.  The run is cut
into `WINDOWS` stretches, each with its share of every measurement, and
every time is reported at the reference speed of `hostspeed`, which
takes out the swings in CPU speed that other tenants of a shared machine
cause; the figures as measured are printed beside them.

``--trace 1`` alternates untraced and traced passes over a fixed list of
operations (``--seconds`` does not apply) and prints the per-layer
metrics, so that counts repeat exactly for a seed.

Standard output: a readable report, a ``REPORT {...}`` line holding the
stamp (kernel backend, Python, commit, nproc, seed) and every figure, and
last one JSON line with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``correct`` is false when any answer came back wrong;
operations that raised are counted in ``failed``.  Compare two saved
reports with ``perfbench/compare.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# The run is measured in this many stretches.
WINDOWS = 4
SETUP_PER_WINDOW = 2
ONESHOT_ARGVS = 8
# Short operations of the length sweep run several times in a row.
SWEEP_REPEATS = {"L40": 10}
TRACE_ROUNDS = 2
# Percentiles considered for the tail; the highest with at least ten
# samples beyond it at the workload's fixed operation count is reported.
TAIL_LADDER = (75.0, 90.0, 95.0, 99.0, 99.9)
CHILD_TIMEOUT_S = 60

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "latency_p50_ms.L40": "ms",
    "latency_p50_ms.L200": "ms",
    "latency_p50_ms.L1000": "ms",
    "cli_oneshot_ms": "ms",
}


# --- statistics ------------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks."""
    data = sorted(values)
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def tail_percentile(count: int) -> float:
    fitting = [q for q in TAIL_LADDER if count * (100.0 - q) / 100.0 >= 10]
    return max(fitting) if fitting else 50.0


# --- stamp --------------------------------------------------------------------------


def commit() -> str:
    """The checked-out commit, read from ``.git`` when there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp(args) -> dict:
    import cactus_groups

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "kernel_backend": cactus_groups.KERNEL_BACKEND,
        "python": platform.python_version(),
        "commit": commit(),
        "nproc": len(os.sched_getaffinity(0)),
    }


# --- running operations ----------------------------------------------------------------


class Tally:
    """Outcomes of checked operations."""

    def __init__(self):
        self.attempted = 0
        self.wrong = 0
        self.errors: dict[str, int] = {}

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.wrong += other.wrong
        for key, value in other.errors.items():
            self.errors[key] = self.errors.get(key, 0) + value

    @property
    def failed(self) -> int:
        return self.wrong + sum(self.errors.values())

    def record(self, ok: bool | None, error: BaseException | None = None) -> bool:
        self.attempted += 1
        if error is not None:
            key = type(error).__name__
            self.errors[key] = self.errors.get(key, 0) + 1
            return False
        if not ok:
            self.wrong += 1
        return bool(ok)


def run_op(op):
    """(seconds, result, exception) of one call."""
    start = time.perf_counter()
    try:
        result = op.call()
    except Exception as exc:  # a failed operation; the loop goes on
        return time.perf_counter() - start, None, exc
    return time.perf_counter() - start, result, None


def judge(op, result, error, tally: Tally) -> bool:
    if error is not None:
        return tally.record(False, error)
    try:
        ok = op.check(result)
    except Exception:  # a result the checker cannot read is a wrong answer
        ok = False
    return tally.record(ok)


@contextlib.contextmanager
def frozen_heap():
    """Collect, then move every live object (the generated inputs) out of
    the collector's reach while timing, so that collections cost what the
    package's own allocations cost."""
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def timed_op(op):
    """(seconds at reference speed, measured seconds, result, exception)."""
    before = hostspeed.reference_s()
    took, result, error = run_op(op)
    after = hostspeed.reference_s()
    return hostspeed.at_reference_speed(took, before, after), took, result, error


class Samples:
    """Repeated executions of a fixed list of operations.

    Keeps the time of every execution, at reference speed and as
    measured, and whether every execution answered correctly.  An
    operation's time is the median over its executions.  Each answer is
    checked, outside the timing, as soon as it comes back, or after a
    traced pass so that the checks are not traced.
    """

    def __init__(self, ops):
        self.ops = ops
        self.times: list[list[float]] = [[] for _ in ops]
        self.measured: list[list[float]] = [[] for _ in ops]
        self.ok = [True] * len(ops)
        self.executions = 0
        self.tally = Tally()
        self._next = 0
        self._unchecked: list[tuple] = []

    def loop(self, seconds: float) -> None:
        """Run operations in list order, going on from where the previous
        stretch stopped, until ``seconds`` have passed."""
        with frozen_heap():
            deadline = time.perf_counter() + seconds
            while time.perf_counter() < deadline:
                self._execute(self._next)
                self._next = (self._next + 1) % len(self.ops)

    def run_all(self, repeats: dict[str, int] | None = None, defer_checks: bool = False) -> None:
        """Run every operation once, or ``repeats[tag]`` times in a row.
        Deferred answers are checked by `check_deferred`."""
        repeats = repeats or {}
        with frozen_heap():
            for i, op in enumerate(self.ops):
                for _ in range(repeats.get(op.tag, 1)):
                    self._execute(i, defer_checks)

    def check_deferred(self) -> None:
        for i, result, error in self._unchecked:
            self.ok[i] &= judge(self.ops[i], result, error, self.tally)
        self._unchecked.clear()

    def _execute(self, i: int, defer_check: bool = False) -> None:
        scaled, took, result, error = timed_op(self.ops[i])
        self.executions += 1
        self.times[i].append(scaled)
        self.measured[i].append(took)
        if defer_check:
            self._unchecked.append((i, result, error))
        else:
            self.ok[i] &= judge(self.ops[i], result, error, self.tally)

    def _per_op(self, table, tag):
        return [
            statistics.median(values)
            for op, values in zip(self.ops, table)
            if values and (tag is None or op.tag == tag)
        ]

    def op_ms(self, tag: str | None = None, measured: bool = False) -> list[float]:
        """Per-operation median times in ms, for the operations run."""
        return [t * 1e3 for t in self._per_op(self.measured if measured else self.times, tag)]

    def ops_per_s(self, measured: bool = False) -> float:
        """Correct operations per second of busy time."""
        ok = sum(ok for ok, values in zip(self.ok, self.times) if values)
        return ok / sum(self._per_op(self.measured if measured else self.times, None))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv):
    """Run a child process to completion; it is killed if it overruns."""
    return subprocess.run(
        argv,
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )


def measure_setup(workload: str, seed: int, tally: Tally) -> tuple[float, float]:
    """Import plus one warm-up operation in a fresh interpreter: seconds at
    reference speed, and as measured."""
    proc = run_child([sys.executable, str(HERE / "setup_child.py"), workload, str(seed)])
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    tally.record(probe["ok"])
    return probe["setup_s"], probe["measured_s"]


def measure_oneshot(argv, check, tally: Tally) -> tuple[float, float]:
    """One whole ``python -m cactus_groups.cli`` process, timed from
    outside: ms at reference speed, and as measured."""
    before = hostspeed.reference_best(3)
    start = time.perf_counter()
    proc = run_child([sys.executable, "-m", "cactus_groups.cli", *argv])
    took = time.perf_counter() - start
    after = hostspeed.reference_best(3)
    try:
        ok = check(proc.returncode, proc.stdout)
    except Exception:
        ok = False
    tally.record(ok)
    return hostspeed.at_reference_speed(took, before, after) * 1e3, took * 1e3


# --- the two kinds of run ----------------------------------------------------------------


def require_untraced() -> None:
    """Untraced timing must call the package's own functions."""
    import tracer

    left = tracer.bound_wrappers()
    if left:
        raise RuntimeError(f"tracing wrappers installed before untraced timing: {left}")


def warm_up(ops, tally: Tally) -> None:
    """Run the first operations once, checked but not timed."""
    for op in ops[:3]:
        judge(op, *run_op(op)[1:], tally)


def end_to_end(args, tally: Tally):
    """Measure in `WINDOWS` stretches of the run: each has its share of the
    timed loop, one-shot processes, set-up probes and, where the workload
    does not sweep lengths itself, a pass of the length sweep."""
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    main = Samples(workload.build(args.seed, workload.fixed_ops))
    sweep = None if args.workload == "wordproblem-long" else Samples(
        workloads.length_sweep_ops(args.seed)
    )
    oneshots = workloads.oneshot_argvs(args.seed, ONESHOT_ARGVS)
    oneshot, setup = [], []
    warm_up(main.ops, tally)
    require_untraced()
    for _ in range(WINDOWS):
        main.loop(args.seconds / WINDOWS)
        if sweep is not None:
            sweep.run_all(SWEEP_REPEATS)
        oneshot += [measure_oneshot(argv, check, tally) for argv, check in oneshots]
        setup += [measure_setup(args.workload, args.seed, tally) for _ in range(SETUP_PER_WINDOW)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    q = tail_percentile(workload.fixed_ops)
    lengths = main if sweep is None else sweep

    def figures(measured: bool) -> dict:
        latencies = main.op_ms(measured=measured)
        pick = 1 if measured else 0
        return {
            "ops_per_s": main.ops_per_s(measured),
            "latency_p50_ms": statistics.median(latencies),
            "latency_tail_ms": percentile(latencies, q),
            "setup_s": statistics.median(t[pick] for t in setup),
            "peak_rss_mb": peak_rss_mb,
            **{
                f"latency_p50_ms.L{n}": statistics.median(lengths.op_ms(f"L{n}", measured))
                for n in workloads.LENGTHS
            },
            "cli_oneshot_ms": statistics.median(t[pick] for t in oneshot),
        }

    metrics = figures(measured=False)
    latencies = main.op_ms()
    tail = metrics["latency_tail_ms"]
    failed = main.tally.failed
    notes = {
        "timing": f"times at reference speed (see hostspeed.py); an operation's time is "
        f"the median of its {main.executions / len(latencies):.1f} executions on average, "
        f"over {WINDOWS} stretches of the run",
        "as_measured": figures(measured=True),
        "latency_tail_ms": f"p{q:g} over {len(latencies)} operations "
        f"({sum(v > tail for v in latencies)} beyond); percentile fixed for "
        f"{workload.fixed_ops} operations",
        "latency_p50_ms.L40": "from the timed loop" if sweep is None
        else f"from the length sweep ({len(sweep.ops)} cactus equality operations)",
        "fail_share": f"{failed}/{main.tally.attempted} = {failed / main.tally.attempted:.6f}",
        "errors": dict(main.tally.errors) or "none",
        "wrong_answers": main.tally.wrong,
        "per_tag_p50_ms": {
            tag: statistics.median(main.op_ms(tag))
            for tag in sorted({op.tag for op in main.ops})
            if main.op_ms(tag)
        },
        "setup_s": f"median of {len(setup)} fresh interpreters",
        "cli_oneshot_ms": f"median of {len(oneshot)} whole processes, "
        f"{len(oneshots)} requests in each stretch",
    }
    tally.merge(main.tally)
    if sweep is not None:
        tally.merge(sweep.tally)
    units = END_TO_END_UNITS
    return {name: (metrics[name], units[name]) for name in units}, notes


def per_layer(args, tally: Tally):
    """Alternate untraced and traced passes over a fixed list of
    operations; the traced passes give the per-layer metrics."""
    import tracer
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    ops = workload.build(args.seed, workload.trace_ops)
    warm_up(ops, tally)
    plain, traced = Samples(ops), Samples(ops)
    trace = tracer.Tracer()
    for _ in range(TRACE_ROUNDS):
        require_untraced()
        plain.run_all()
        with trace:
            traced.run_all(defer_checks=True)
        traced.check_deferred()
    tally.merge(plain.tally)
    tally.merge(traced.tally)
    overhead = 1.0 - traced.ops_per_s() / plain.ops_per_s()
    return layer_metrics(trace.stats, overhead), {
        "passes": f"{TRACE_ROUNDS} untraced and {TRACE_ROUNDS} traced over {len(ops)} operations",
        "spans_kept": len(trace.spans),
    }


def layer_metrics(stats, overhead_share: float) -> dict:
    """The per-layer metrics named in BENCHMARK.json, from span aggregates."""

    def calls(*names):
        return sum(stats[n].calls for n in names if n in stats)

    def self_ms(*names):
        return sum(stats[n].self_s for n in names if n in stats) * 1e3

    def count(name, key):
        return stats[name].count.get(key, 0) if name in stats else 0

    def share(part, whole):
        return part / whole if whole else 0.0

    out = {}
    for name, counters in (
        ("kernels.lean_reduce", ("letters_in", "letters_cancelled")),
        ("kernels.lex_least", ("letters_in",)),
        ("kernels.canonical_if_lean", ()),
        ("kernels.is_lean", ()),
        ("algebra_f2.f2_image", ("monomials_out",)),
        ("algebra_f2.nilpotent_separation", ("degrees_tried",)),
        ("algebra_z.z_image", ("terms_out",)),
        ("algebra_z.tfn_separation", ("degrees_tried",)),
        ("certificates.verify_certificate", ("kernel_calls",)),
    ):
        out[f"{name}.calls"] = (calls(name), "count")
        out[f"{name}.self_ms"] = (self_ms(name), "ms")
        for key in counters:
            out[f"{name}.{key}"] = (count(name, key), "count")
    out["kernels.canonical_if_lean.zero_share"] = (
        share(count("kernels.canonical_if_lean", "zero"), calls("kernels.canonical_if_lean")),
        "share",
    )
    for name in (
        "cactus_core.diagram_of",
        "cactus_core.word_permutation",
        "cactus_core.equal_in_Jn",
        "diagram_group.lex_normal_form",
        "diagram_group.equal_diagrams",
        "diagram_group.delta",
    ):
        out[f"{name}.self_ms"] = (self_ms(name), "ms")
    out["algebra_z.z_multiply.calls"] = (calls("algebra_z.z_multiply"), "count")
    separations = ("algebra_f2.nilpotent_separation", "algebra_z.tfn_separation")
    out["separation.useful_image_share"] = (
        share(
            sum(count(n, "separated") for n in separations),
            sum(count(n, "degrees_tried") for n in separations),
        ),
        "share",
    )
    out["certificates.json.self_ms"] = (
        self_ms("certificates.to_json", "certificates.from_json"),
        "ms",
    )
    parses = ("words.parse_cactus_word", "words.parse_diagram_word")
    out["words.parse.calls"] = (calls(*parses), "count")
    out["words.parse.self_ms"] = (self_ms(*parses), "ms")
    out["words.parse.letters"] = (sum(count(n, "letters") for n in parses), "count")
    out["cli.run.calls"] = (calls("cli.run"), "count")
    out["cli.run.self_ms"] = (self_ms("cli.run"), "ms")
    out["trace.overhead_share"] = (overhead_share, "share")
    return out


# --- entry point --------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cactus_groups" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    tally = Tally()
    info = stamp(args)
    # One CPU for the benchmark and its child processes, so that the
    # reference timings see the CPU the measured work runs on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    metrics, notes = (per_layer if args.trace else end_to_end)(args, tally)

    print(" ".join(f"{k}={v}" for k, v in info.items()))
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:14.6g} {unit}")
    for name, note in notes.items():
        print(f"  # {name}: {note}")
    print(f"  # checked {tally.attempted}, failed {tally.failed} "
          f"(wrong {tally.wrong}, raised {dict(tally.errors)})")
    report = {
        "stamp": info,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "notes": notes,
    }
    print("REPORT " + json.dumps(report, sort_keys=True))
    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": report["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
