"""End-to-end benchmark: serving, fleet and APOTS training, untraced or traced.

Usage, from the repository root::

    python3 benchmarks/e2e/run.py --workload corridor_forward --seed 2018 --seconds 20 --trace 0
    python3 benchmarks/e2e/run.py --seed 2018 [--trace] [--out FILE]

With ``--workload`` one workload runs in this process; without it every
workload runs in turn, each in a fresh Python process, so ``setup_s``
and ``peak_rss_mb`` never carry over from another workload.

Every metric is printed by name with its unit and sample count.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics when
untraced, the per-layer metrics when traced.  ``--out FILE`` appends
one JSON record per workload run to FILE (what ``compare.py`` reads).
The exit code is 0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

# One BLAS thread per process, set before numpy loads and inherited by
# fleet replicas.  The fleet's parallelism is its processes: with the
# library default of a BLAS thread per vCPU, the parent and two replicas
# spin on two vCPUs and city_fleet measures that spinning instead of
# its IPC.  A lone BLAS thread also waits less on whichever vCPU other
# tenants of a shared host are holding.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
#: One run's measured time unless ``--seconds`` says otherwise.
DEFAULT_SECONDS = 20.0


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="one workload to run in this process (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=2018, help="workload seed: streams, query draws, model init")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS, help="measured time per workload run")
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
        help="1 (or bare --trace): also measure with spans and report per-layer metrics",
    )
    parser.add_argument("--out", type=Path, help="append one JSON record per workload run to this file")
    return parser.parse_args(argv)


def metric_lines(workload: str, metrics: dict) -> list[str]:
    return [
        f"{workload:<20} {name:<40} {m['value']:>14.6g} {m['unit']:<6} (n={m['samples']})"
        for name, m in metrics.items()
    ]


def run_one(args: argparse.Namespace) -> dict:
    """Run ``args.workload`` here; returns the JSON record of the run."""
    import workloads

    result = workloads.run_workload(args.workload, args.seed, args.seconds, bool(args.trace), OUT_DIR)
    metrics = result.per_layer if args.trace else result.end_to_end
    return {
        "workload": result.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "checks": result.checks,
        "info": result.info,
        "metrics": {
            name: {"value": m.value, "unit": m.unit, "samples": m.samples} for name, m in metrics.items()
        },
    }


def run_all(args: argparse.Namespace) -> list[dict]:
    """Run every workload, each in a fresh interpreter; returns their records."""
    from workloads import WORKLOADS

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    records = []
    for workload in WORKLOADS:
        record_file = OUT_DIR / f"{workload}.record.json"
        record_file.unlink(missing_ok=True)
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--out", str(record_file),
        ]
        completed = subprocess.run(command, stdout=subprocess.DEVNULL, check=False)
        if not record_file.exists():
            raise SystemExit(f"{workload} failed with exit code {completed.returncode}")
        records.append(json.loads(record_file.read_text()))
        record_file.unlink()
    return records


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    source = HERE.parents[1] / "src"
    if not (source / "repro").is_dir():
        print(f"no package source at {source}: run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    records = [run_one(args)] if args.workload is not None else run_all(args)
    for record in records:
        for line in metric_lines(record["workload"], record["metrics"]):
            print(line)
        for check, ok in record["checks"].items():
            print(f"{record['workload']:<20} check {check:<34} {'ok' if ok else 'FAILED'}")
        for key, value in record["info"].items():
            print(f"{record['workload']:<20} {key:<40} {value}")
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        with args.out.open("a", encoding="utf-8") as stream:
            for record in records:
                stream.write(json.dumps(record) + "\n")
    correct = all(record["correct"] for record in records)
    summary = {
        "correct": correct,
        "attempted": sum(record["attempted"] for record in records),
        "failed": sum(record["failed"] for record in records),
        "metrics": {
            (name if args.workload else f"{record['workload']}.{name}"): {"value": m["value"], "unit": m["unit"]}
            for record in records
            for name, m in record["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
