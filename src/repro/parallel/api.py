"""High-level entry point over :class:`repro.parallel.WorkerPool`.

:func:`parallel_map` is the one-call form the compute layers use
(``core.tuning``, ``attacks.harness``, the experiment suite runner).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from .pool import WorkerPool

__all__ = ["parallel_map"]


def parallel_map(
    fn: Callable[[Any], Any],
    items: Iterable[Any],
    *,
    workers: int = 1,
    root_seed: int = 0,
    task_timeout: float | None = None,
    max_retries: int = 2,
    context: str | Any | None = None,
    initializer: Callable[..., None] | None = None,
    initargs: tuple = (),
    recorder=None,
    return_failures: bool = False,
) -> list:
    """``[fn(item) for item in items]`` over a transient worker pool.

    With ``workers <= 1`` no process is created and the results are
    bitwise-identical to the plain list comprehension.  See
    :class:`repro.parallel.WorkerPool` for the fault model and the
    meaning of every keyword.
    """
    pool = WorkerPool(
        workers,
        root_seed=root_seed,
        task_timeout=task_timeout,
        max_retries=max_retries,
        context=context,
        initializer=initializer,
        initargs=initargs,
        recorder=recorder,
    )
    return pool.map(fn, items, return_failures=return_failures)
