"""Corridor travel-time estimation from speed fields and forecasts.

The paper's introduction motivates speed prediction with route guidance:
"predicting future traffic speeds to optimize a driver's route".  This
module provides the application layer: given per-segment speeds (real or
predicted), integrate travel time along the corridor, advancing through
the speed field as the virtual vehicle moves (a time-expanded traversal,
not a frozen snapshot).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..traffic.types import Corridor

__all__ = [
    "traverse_path_minutes",
    "traverse_time_minutes",
    "segment_times_minutes",
]

_MIN_SPEED = 1.0  # km/h floor to keep times finite


def segment_times_minutes(lengths_km: np.ndarray, speeds_kmh: np.ndarray) -> np.ndarray:
    """Per-segment traversal times (minutes) at fixed speeds."""
    lengths_km = np.asarray(lengths_km, dtype=np.float64)
    speeds_kmh = np.maximum(np.asarray(speeds_kmh, dtype=np.float64), _MIN_SPEED)
    if lengths_km.shape != speeds_kmh.shape:
        raise ValueError("lengths and speeds must be aligned")
    return lengths_km / speeds_kmh * 60.0


def traverse_path_minutes(
    lengths_km: np.ndarray,
    speed_field: np.ndarray,
    path: Sequence[int],
    start_step: int,
    interval_minutes: int = 5,
) -> float:
    """Time-expanded traversal of an explicit segment-id path.

    This is the general form :func:`traverse_time_minutes` reduces to:
    ``path`` is any sequence of row indices into ``speed_field`` (a
    corridor prefix, or a route through a
    :class:`~repro.network.graph.RoadGraph`), visited in order.  The
    vehicle enters ``path[0]`` at the wall-clock time of ``start_step``
    and sees each segment's speed *at the step it arrives there*; steps
    beyond the end of the field reuse the final column.

    Parameters
    ----------
    lengths_km:
        (num_segments,) per-segment lengths, indexed like the field rows.
    speed_field:
        (num_segments, T) km/h speeds — real, or a model's forecast.
    path:
        Segment ids in traversal order (must be non-empty).
    start_step:
        Column index of departure.
    interval_minutes:
        Field cadence.

    Returns
    -------
    Total travel time in minutes.
    """
    lengths_km = np.asarray(lengths_km, dtype=np.float64)
    speed_field = np.asarray(speed_field, dtype=np.float64)
    if speed_field.ndim != 2 or speed_field.shape[0] != lengths_km.shape[0]:
        raise ValueError("speed_field must be (num_segments, T) aligned with lengths")
    if not 0 <= start_step < speed_field.shape[1]:
        raise ValueError("start_step out of range")
    if len(path) == 0:
        raise ValueError("path must contain at least one segment")
    num_segments = speed_field.shape[0]
    total_steps = speed_field.shape[1]
    elapsed_minutes = 0.0
    for index in path:
        index = int(index)
        if not 0 <= index < num_segments:
            raise ValueError(f"path segment {index} outside field 0..{num_segments - 1}")
        step = min(start_step + int(elapsed_minutes // interval_minutes), total_steps - 1)
        speed = max(float(speed_field[index, step]), _MIN_SPEED)
        elapsed_minutes += lengths_km[index] / speed * 60.0
    return elapsed_minutes


def traverse_time_minutes(
    corridor: Corridor,
    speed_field: np.ndarray,
    start_step: int,
    interval_minutes: int = 5,
    start_segment: int = 0,
    end_segment: int | None = None,
) -> float:
    """Time-expanded traversal of the corridor starting at ``start_step``.

    The corridor special case of :func:`traverse_path_minutes`: the path
    is the contiguous index range [start_segment, end_segment] (the full
    corridor by default).

    Parameters
    ----------
    corridor:
        Segment geometry (lengths).
    speed_field:
        (num_segments, T) km/h speeds — real, or a model's forecast.
    start_step:
        Column index of departure.
    interval_minutes:
        Field cadence.
    start_segment, end_segment:
        Traversed range [start_segment, end_segment]; full corridor by
        default.

    Returns
    -------
    Total travel time in minutes.
    """
    speed_field = np.asarray(speed_field, dtype=np.float64)
    if speed_field.ndim != 2 or speed_field.shape[0] != len(corridor):
        raise ValueError("speed_field must be (num_segments, T)")
    end_segment = len(corridor) - 1 if end_segment is None else end_segment
    if not 0 <= start_segment <= end_segment < len(corridor):
        raise ValueError("invalid segment range")
    lengths = np.array([s.length_km for s in corridor.segments])
    return traverse_path_minutes(
        lengths,
        speed_field,
        range(start_segment, end_segment + 1),
        start_step,
        interval_minutes=interval_minutes,
    )

