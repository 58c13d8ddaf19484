"""Named density families used by the experiments and the acceptance battery."""

from __future__ import annotations

import math

import numpy as np

from .core import GridSpec, LogDensity, gaussian_to_logdensity, isotropic_gaussian, require_positive


def gaussian(grid: GridSpec, beta: float = 1.0, mass: float = 1.0) -> LogDensity:
    return gaussian_to_logdensity(isotropic_gaussian(beta, grid.dim, mass), grid)


def box(grid: GridSpec, half: float = 1.0, height: float = 1.0) -> LogDensity:
    """Indicator density height * 1_{[-half, half]^n}, exact via the inf sentinel."""
    require_positive(half=half, height=height)
    inside = np.ones(grid.points, dtype=bool)
    for a in grid.open_axes():
        inside &= np.abs(a) <= half + 1e-12
    phi = np.where(inside, -math.log(height), np.inf)
    return LogDensity(grid=grid, phi=phi)


def exp_power(grid: GridSpec, alpha: float, scale: float = 1.0) -> LogDensity:
    """f = scale * e^{-|x|^alpha} with the Euclidean norm (1D: e^{-|x|^alpha})."""
    require_positive(alpha=alpha, scale=scale)
    phi = grid.sq_norm()
    np.sqrt(phi, out=phi)
    phi **= alpha
    phi -= math.log(scale)
    return LogDensity(grid=grid, phi=phi)


def two_bump(grid: GridSpec, center: float = 1.0, var: float = 0.5) -> LogDensity:
    """Even mixture of two log-concave Gaussian bumps at +-center (1D)."""
    if grid.dim != 1:
        raise ValueError("two_bump is a 1D family")
    require_positive(var=var, center=center)
    x = grid.axis(0)
    la = -((x - center) ** 2) / (2 * var)
    lb = -((x + center) ** 2) / (2 * var)
    log_f = np.logaddexp(la, lb) - math.log(2.0) - 0.5 * math.log(2 * math.pi * var)
    return LogDensity(grid=grid, phi=-log_f)


def cross2d(grid: GridSpec, long: float = 2.0, short: float = 0.5) -> LogDensity:
    """Indicator of a plus-shaped cross, the non-convex 2D battery member."""
    if grid.dim != 2:
        raise ValueError("cross2d is a 2D family")
    require_positive(long=long, short=short)
    x, y = grid.open_axes()
    arm1 = (np.abs(x) <= long) & (np.abs(y) <= short)
    arm2 = (np.abs(x) <= short) & (np.abs(y) <= long)
    phi = np.where(arm1 | arm2, 0.0, np.inf)
    return LogDensity(grid=grid, phi=phi)


FAMILIES = {
    "gaussian": gaussian,
    "box": box,
    "exp_power": exp_power,
    "two_bump": two_bump,
    "cross2d": cross2d,
}


def from_family(name: str, grid: GridSpec, **params) -> LogDensity:
    if name not in FAMILIES:
        raise ValueError(f"unknown density family {name!r}; known: {sorted(FAMILIES)}")
    return FAMILIES[name](grid, **params)


def battery_1d(grid: GridSpec) -> dict[str, LogDensity]:
    """The 1D acceptance battery: box, e^{-|x|^alpha}, even two-bump mixture."""
    out = {"box": box(grid)}
    for alpha in (1.0, 1.5, 3.0, 4.0):
        out[f"exp_power_{alpha}"] = exp_power(grid, alpha)
    out["two_bump"] = two_bump(grid)
    return out
