"""Compare two sets of benchmark runs against the bounds in BENCHMARK.json.

Usage, from the repository root::

    python3 benchmarks/e2e/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the records ``run.py --out FILE`` appends, one per
untraced workload run; traced records are ignored.  Run both sides with
the same ``--seconds`` and seeds, alternating which side runs first.
For every (workload, end-to-end metric) the verdict is:

* ``unresolved``: the parent's own spread (interquartile range over
  median) is wider than the metric's bound, and not every change run
  beats every parent run;
* ``regressed``: the change's median is worse than the parent's by more
  than the bound;
* ``improved``: at least ten pairs were run (run *i* of each side), the
  change wins at least 9/10 of them (ties count for neither) and the
  medians differ by more than the parent's interquartile range;
* ``unchanged``: otherwise.

Exits 1 when any pairing regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
#: Fewer pairs than this can show a regression but never a gain.
MIN_PAIRS = 10


def load_runs(path: Path) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> values, in the order the runs were recorded."""
    runs: dict[str, dict[str, list[float]]] = {}
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        if record["trace"]:
            continue
        metrics = runs.setdefault(record["workload"], {})
        for name, metric in record["metrics"].items():
            metrics.setdefault(name, []).append(metric["value"])
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], bound: float, higher_is_better: bool) -> tuple[str, int, int]:
    """(verdict, pairs the change won, pairs compared) for one metric."""
    sign = 1.0 if higher_is_better else -1.0
    p1, p_med, p3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    spread = (p3 - p1) / abs(p_med) if p_med else float("inf")
    every_run_better = all(sign * (c - p) > 0 for p in parent for c in change)
    worse_by = sign * (p_med - c_med) / abs(p_med) if p_med else 0.0
    if spread > bound and not every_run_better:
        return "unresolved", wins, len(pairs)
    if worse_by > bound:
        return "regressed", wins, len(pairs)
    if len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs) and abs(c_med - p_med) > p3 - p1:
        return "improved", wins, len(pairs)
    return "unchanged", wins, len(pairs)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    parent, change = load_runs(Path(argv[0])), load_runs(Path(argv[1]))
    regressed = False
    print(f"{'workload':<20} {'metric':<18} {'parent median [q1, q3]':>34} {'change median [q1, q3]':>34} {'delta':>8} {'wins':>6}  verdict")
    for workload in sorted(set(parent) & set(change)):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            before, after = parent[workload].get(name), change[workload].get(name)
            if not before or not after:
                continue
            result, wins, pairs = verdict(before, after, metric["bound"], metric["better"] == "higher")
            regressed |= result == "regressed"
            b1, b_med, b3 = quartiles(before)
            a1, a_med, a3 = quartiles(after)
            delta = (a_med - b_med) / abs(b_med) if b_med else 0.0
            print(
                f"{workload:<20} {name:<18} {b_med:>12.5g} [{b1:>9.5g}, {b3:>9.5g}] "
                f"{a_med:>12.5g} [{a1:>9.5g}, {a3:>9.5g}] {delta:>+8.2%} {wins:>3}/{pairs:<2}  {result}"
            )
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
