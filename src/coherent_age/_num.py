"""Small numeric helpers shared across modules."""

from __future__ import annotations

import numpy as np


def match_input(x, values: np.ndarray):
    """Return a Python float for scalar input, the array otherwise."""
    if np.ndim(x) == 0:
        return float(values)
    return values


def as_float_array(x) -> np.ndarray:
    return np.asarray(x, dtype=float)
