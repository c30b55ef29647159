"""Summary statistics shared by the campaign and service reports."""

from __future__ import annotations

from typing import Sequence

import numpy as np


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=float), q))
