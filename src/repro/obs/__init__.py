"""``repro.obs`` — shared observability for training and serving.

One subsystem instruments both halves of the stack:

* :mod:`telemetry` — counters and bounded-reservoir histograms (the
  serving layer re-exports them from here).
* :mod:`recorder` — :class:`RunRecorder` streams structured JSONL
  events next to a run manifest (spec, seed, git describe, wall-clock
  section timings), plus the ambient-recorder context used by the
  experiment harness.
* :mod:`monitors` — GAN-health watchdogs over D(real)/D(fake)
  probabilities, the adversarial-loss share, and gradient norms; they
  raise structured warnings on D-saturation, mode collapse and
  NaN/Inf losses or gradients.
* :mod:`schema` — the event/manifest schema and the validator
  ``tools/ci.sh`` runs against emitted run logs.

Layering: ``repro.obs`` depends on nothing above ``repro.nn`` (it only
uses numpy and the stdlib; enforced by ``tools/check_imports.py``), so
every other layer may instrument itself with it.
"""

from .monitors import (
    GanHealthMonitor,
    GanHealthWarning,
    MonitorConfig,
    TrainingMonitor,
)
from .recorder import RunRecorder, current_recorder, use_recorder
from .schema import EVENT_SCHEMA, validate_event, validate_run_dir
from .telemetry import Counter, Histogram, Telemetry

__all__ = [
    "Counter",
    "Histogram",
    "Telemetry",
    "RunRecorder",
    "current_recorder",
    "use_recorder",
    "GanHealthMonitor",
    "GanHealthWarning",
    "MonitorConfig",
    "TrainingMonitor",
    "EVENT_SCHEMA",
    "validate_event",
    "validate_run_dir",
]
