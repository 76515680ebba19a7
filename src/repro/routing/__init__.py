"""``repro.routing`` — the ITS application layer the paper motivates.

Travel-time integration over the corridor or any explicit segment path,
graph shortest paths (:mod:`repro.routing.paths`), and stay/divert
route advisories scored against ground truth.
"""

from .advisory import AdvisoryOutcome, Detour, evaluate_advisories
from .fields import predicted_speed_field
from .paths import dijkstra
from .travel_time import (
    segment_times_minutes,
    traverse_path_minutes,
    traverse_time_minutes,
)

__all__ = [
    "AdvisoryOutcome",
    "Detour",
    "evaluate_advisories",
    "predicted_speed_field",
    "dijkstra",
    "segment_times_minutes",
    "traverse_path_minutes",
    "traverse_time_minutes",
]
