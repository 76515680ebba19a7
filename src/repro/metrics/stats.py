"""Statistical helpers used by the evaluation (Section V-B).

* ``gain`` — the paper's Eq 9 improvement measure;
* ``paired_t_test`` — the t(7) tests the paper reports when comparing
  model variants across the eight predictor configurations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["gain", "TTestResult", "paired_t_test"]


def gain(error_after: float, error_before: float) -> float:
    """The paper's Eq 9: (E_a - E_b) / E_b * 100.

    The paper reports improvements as positive percentages, so this
    returns the *reduction* of error as a positive number when
    ``error_after`` is smaller.
    """
    if error_before == 0:
        raise ValueError("error_before must be non-zero")
    return (error_before - error_after) / error_before * 100.0


@dataclass(frozen=True)
class TTestResult:
    """Paired t-test output."""

    statistic: float
    p_value: float
    degrees_of_freedom: int

    @property
    def significant(self) -> bool:
        """Significance at the paper's p < 0.05 level."""
        return self.p_value < 0.05

    def __str__(self) -> str:
        return f"t({self.degrees_of_freedom})={self.statistic:.2f}, p={self.p_value:.4f}"


def paired_t_test(errors_a: np.ndarray, errors_b: np.ndarray) -> TTestResult:
    """Two-sided paired t-test over matched error measurements.

    The paper compares, e.g., the eight (predictor x data) MAPEs with
    and without adversarial training: t(7)=3.04, p<0.05.
    """
    errors_a = np.asarray(errors_a, dtype=np.float64)
    errors_b = np.asarray(errors_b, dtype=np.float64)
    if errors_a.shape != errors_b.shape:
        raise ValueError("paired t-test requires equally shaped inputs")
    if errors_a.size < 2:
        raise ValueError("paired t-test requires at least two pairs")
    # Imported here: scipy.stats costs ~1 s and ~65 MB to load, and
    # every serving process reaches this module through ``import repro``.
    from scipy import stats as scipy_stats

    result = scipy_stats.ttest_rel(errors_a, errors_b)
    return TTestResult(
        statistic=float(result.statistic),
        p_value=float(result.pvalue),
        degrees_of_freedom=errors_a.size - 1,
    )
