"""Host-speed reference for timings on a shared machine.

On a machine shared with other tenants, the speed of the CPU this process
sees swings by up to about 1.5x, for seconds to minutes at a time, and
the slowdown applies to all interpreted code alike.  So every timing is
bracketed by `reference_s`, a fixed pure-Python workload of dict, tuple
and bit operations like the package's own kernels, and reported at the
reference speed:

    time at reference speed = measured time * NOMINAL_S / reference time

`NOMINAL_S` is a constant, close to the reference's time on an unloaded
2-core x86 development machine, so reported figures are about what that
machine measures when nothing else runs.  The reference is benchmark code
and never calls the package, so any change in the package's cost shows
in full.
"""

import time

NOMINAL_S = 250e-6

_LETTERS = tuple((i * 37) % 63 + 1 for i in range(48))


def reference_s() -> float:
    """Seconds taken by the fixed reference workload."""
    start = time.perf_counter()
    for _ in range(2):
        seen: dict = {}
        letters = list(_LETTERS)
        for i, a in enumerate(letters):
            for b in letters[i + 1 : i + 9]:
                c = a & b
                if c == 0 or c == a or c == b:
                    seen[(a, b)] = seen.get((a, b), 0) + 1
        tuple(sorted(seen))
    return time.perf_counter() - start


def reference_best(runs: int) -> float:
    """Least of several reference timings, for a fresh interpreter (whose
    first runs are slower) or for bracketing a whole process."""
    return min(reference_s() for _ in range(runs))


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    """Scale a time measured between two reference timings.

    The faster reference is used: an interrupt can only slow one down.
    """
    return seconds * NOMINAL_S / min(before, after)
