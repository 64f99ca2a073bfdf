"""Set-up probe, run in a fresh interpreter by `run.py`.

Times the import of ``cactus_groups`` and ``cactus_groups.cli`` plus one
warm-up operation of the workload, as measured and at the reference
speed of `hostspeed`, and prints one JSON line.  Building the warm-up
input is not timed.

Usage: python3 perfbench/setup_child.py <workload> <seed>   (with src on PYTHONPATH)
"""

import json
import sys
import time

import hostspeed


def main() -> None:
    before = hostspeed.reference_best(5)
    start = time.perf_counter()
    import cactus_groups  # noqa: F401
    import cactus_groups.cli  # noqa: F401

    imported = time.perf_counter() - start

    import workloads

    op = workloads.WORKLOADS[sys.argv[1]].build(int(sys.argv[2]), 1)[0]
    start = time.perf_counter()
    result = op.call()
    measured = imported + time.perf_counter() - start
    after = hostspeed.reference_best(5)
    print(json.dumps({
        "setup_s": hostspeed.at_reference_speed(measured, before, after),
        "measured_s": measured,
        "ok": bool(op.check(result)),
    }))


if __name__ == "__main__":
    main()
