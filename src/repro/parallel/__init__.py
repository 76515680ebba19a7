"""``repro.parallel`` — multi-process execution substrate.

Three layers, all stdlib ``multiprocessing`` + numpy (no third-party
dependency, no import of any repro layer above :mod:`repro.obs`):

* :mod:`pool` — :class:`WorkerPool`: fault-tolerant task execution
  with deterministic per-task seeds, heartbeats, per-task timeouts,
  capped retries on worker death, and ``pool_task_*`` obs events.
* :mod:`api` — :func:`parallel_map`, the form adopted by
  ``core.tuning.grid_search``, ``attacks.harness.evaluate_robustness``
  and the experiment suite runner; ``workers=1`` is always a
  no-process, bitwise-identical serial path.
* :mod:`group` — :class:`WorkerGroup`: persistent stateful replica
  workers over pipes, the substrate under
  :class:`repro.core.DataParallelTrainer`.

Layering (enforced by ``tools/check_imports.py``): ``repro.parallel``
may import only ``repro.obs``; ``core`` / ``attacks`` / ``experiments``
may import ``repro.parallel``.
"""

from .api import parallel_map
from .group import WorkerGroup, WorkerGroupError
from .pool import PoolError, TaskFailure, WorkerPool
from .seeding import (
    current_task_attempt,
    current_task_index,
    current_task_seed,
    derive_task_seed,
    task_context,
)

__all__ = [
    "WorkerPool",
    "TaskFailure",
    "PoolError",
    "parallel_map",
    "WorkerGroup",
    "WorkerGroupError",
    "derive_task_seed",
    "task_context",
    "current_task_seed",
    "current_task_index",
    "current_task_attempt",
]
