#!/usr/bin/env bash
# Tier-1 CI entrypoint: layering check, then the fast test suite.
# The pytest benchmarks (benchmarks/test_bench_*.py) are tier-2 and run
# separately; the end-to-end benchmark's self-test runs here, so a src/
# change that breaks a workload or one of its correctness checks fails CI.
set -euo pipefail
cd "$(dirname "$0")/.."

python tools/check_imports.py
PYTHONPATH=src python tools/obs_smoke.py
PYTHONPATH=src python tools/attack_smoke.py
PYTHONPATH=src python tools/adv_train_smoke.py
PYTHONPATH=src python tools/parallel_smoke.py
PYTHONPATH=src python tools/fleet_smoke.py
PYTHONPATH=src python tools/mlops_smoke.py
PYTHONPATH=src python tools/network_smoke.py
PYTHONPATH=src python tools/network_train_smoke.py
PYTHONPATH=src python -m pytest benchmarks/e2e -q
PYTHONPATH=src python -m pytest -x -q "$@"
