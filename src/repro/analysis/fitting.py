"""Regression helper for the scaling experiments (T1, T7).

Theorem 4.26 predicts ``T = Θ((C + L) · polylog)``.  On a sweep of
instances we fit ``T = a + b·(C + L)`` by least squares and report the
coefficient of determination: near-linear behavior (R² close to 1) with a
moderate slope is the empirical signature of the theorem's shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import ParameterError


@dataclass(frozen=True)
class AffineFit:
    """``y ≈ intercept + slope·x``."""

    slope: float
    intercept: float
    r_squared: float
    n: int

    def predict(self, x: float) -> float:
        """Fitted value at ``x``."""
        return self.intercept + self.slope * x


def fit_affine(x: Sequence[float], y: Sequence[float]) -> AffineFit:
    """Ordinary least squares ``y = a + b·x``."""
    xs = np.asarray(x, dtype=float)
    ys = np.asarray(y, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1 or len(xs) < 2:
        raise ParameterError("need at least two (x, y) points")
    design = np.column_stack([np.ones_like(xs), xs])
    coef, *_ = np.linalg.lstsq(design, ys, rcond=None)
    intercept, slope = float(coef[0]), float(coef[1])
    predicted = design @ coef
    ss_res = float(np.sum((ys - predicted) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return AffineFit(slope=slope, intercept=intercept, r_squared=r2, n=len(xs))
