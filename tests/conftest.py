"""Helpers shared by the test modules (import them with ``from conftest import ...``)."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np


def trapezoid_log_weights(grid) -> np.ndarray:
    """Tensor trapezoid coefficients in log domain as one full-size array,
    written out per node as ((0 + w_0) + w_1) + w_2."""
    total = 0.0
    for k in range(grid.dim):
        h = grid.spacings[k]
        w = np.full(grid.points[k], math.log(h))
        w[0] = w[-1] = math.log(h / 2)
        total = total + w.reshape([-1 if j == k else 1 for j in range(grid.dim)])
    return np.broadcast_to(total, grid.points)


def boundary_mask(shape: tuple[int, ...]) -> np.ndarray:
    """True on the boundary shell of an array of ``shape``: every node at
    the first or last index of some axis."""
    mask = np.zeros(shape, dtype=bool)
    for k in range(len(shape)):
        sl = [slice(None)] * len(shape)
        sl[k] = 0
        mask[tuple(sl)] = True
        sl[k] = -1
        mask[tuple(sl)] = True
    return mask


def peak_in_outputs(fn, *args, nbytes: int | None = None, **kwargs) -> float:
    """tracemalloc peak of ``fn(*args, **kwargs)``, in units of its output array.

    The call runs once untraced first, so numpy's first-call caches and any
    per-grid cache are not counted. The unit is ``nbytes`` when given, else
    the output's ``nbytes`` (``.phi`` of a density).
    """
    fn(*args, **kwargs)
    tracemalloc.start()
    try:
        out = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if nbytes is None:
        nbytes = getattr(out, "phi", out).nbytes
    return peak / nbytes
