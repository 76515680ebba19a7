"""``repro.fleet`` — sharded, load-shedding forecast serving.

Scales :class:`repro.serving.ForecastService` from one process to a
fleet of persistent shard replicas on the
:class:`repro.parallel.WorkerGroup` substrate:

* :mod:`router` — :class:`ShardMap`: deterministic contiguous
  segment → shard partition;
* :mod:`replica` — :class:`ShardReplica` / :class:`ReplicaSpec`: the
  full per-shard service living inside each worker process;
* :mod:`admission` — :class:`AdmissionController`: bounded per-shard
  queues for the open-loop path; overflow sheds to naive persistence,
  never drops silently;
* :mod:`fleet` — :class:`ForecastFleet`: halo ingest routing from the
  model's ``window_rows`` table,
  cross-shard ``predict_many`` scatter/gather (bitwise-invariant to
  shard count; ``shards=1`` stays process-free), shard-loss degradation
  and ``fleet_*`` obs events;
* :mod:`loadgen` — :class:`ArrivalSchedule` / :func:`run_open_loop`:
  deterministic open-loop replay of simulator traffic at a rate
  multiplier, for finding the saturation knee.

Layering (enforced by ``tools/check_imports.py``): ``repro.fleet`` may
import ``repro.serving`` / ``repro.parallel`` / ``repro.obs`` (plus the
``repro.attacks.defense`` gate and ``repro.core.zoo`` checkpoint loader
carve-outs); nothing imports ``repro.fleet`` except experiments and
tools.
"""

from .admission import AdmissionController
from .errors import FleetClosedError, FleetError
from .fleet import FleetRequest, ForecastFleet
from .loadgen import ArrivalSchedule, LoadEvent, LoadReport, run_open_loop
from .replica import ReplicaSpec, ShardReplica
from .router import ShardMap

__all__ = [
    "AdmissionController",
    "ArrivalSchedule",
    "FleetClosedError",
    "FleetError",
    "FleetRequest",
    "ForecastFleet",
    "LoadEvent",
    "LoadReport",
    "ReplicaSpec",
    "ShardMap",
    "ShardReplica",
    "run_open_loop",
]
