"""Compare two saved outputs of `run.py`, metric by metric.

Usage: python3 perfbench/compare.py BASE.txt NEW.txt

Reads the ``REPORT`` line of each file and prints base, new and new/base
for every metric.  Results from different kernel backends are flagged:
the comparison is printed, and the exit code is 3.  Results from
different workloads or trace modes are not compared (exit code 2).
"""

from __future__ import annotations

import json
import sys


def load_report(path: str) -> dict:
    with open(path) as fh:
        for line in fh:
            if line.startswith("REPORT "):
                return json.loads(line[len("REPORT ") :])
    raise ValueError(f"{path}: no REPORT line")


def compare(base: dict, new: dict) -> tuple[list[str], int]:
    """Lines to print and the exit code."""
    sb, sn = base["stamp"], new["stamp"]
    for key in ("workload", "trace"):
        if sb[key] != sn[key]:
            return [f"not comparable: {key} {sb[key]!r} vs {sn[key]!r}"], 2
    lines = [
        f"workload {sb['workload']}: base seed {sb['seed']} commit {sb['commit'][:12]}, "
        f"new seed {sn['seed']} commit {sn['commit'][:12]}"
    ]
    code = 0
    if sb["kernel_backend"] != sn["kernel_backend"]:
        lines.append(
            f"FLAG: kernel backends differ ({sb['kernel_backend']} vs "
            f"{sn['kernel_backend']}); the figures compare two implementations"
        )
        code = 3
    for name, m in base["metrics"].items():
        if name not in new["metrics"]:
            lines.append(f"  {name:42s} missing from new")
            continue
        b, n = m["value"], new["metrics"][name]["value"]
        ratio = f"{n / b:8.3f}" if b else "       -"
        lines.append(f"  {name:42s} {b:14.6g} {n:14.6g} {ratio}  {m['unit']}")
    return lines, code


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    lines, code = compare(load_report(argv[0]), load_report(argv[1]))
    print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
