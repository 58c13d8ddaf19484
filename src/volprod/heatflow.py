"""Ornstein-Uhlenbeck semigroup P_s and its Fokker-Planck dual via exact kernels.

Each requested time gets its own Gaussian kernel (no time stepping), so
trajectories carry no accumulation error. Kernels factorize over axes; each
per-axis Mehler kernel is built here once, as a ``contract.Gauss`` kernel (its
axes and the x >= 0 rows of its row-shifted exponential ``exp(W - r)``, no log
array), cached, and contracted in log domain by ``volprod.contract``, whose
``"lse"`` steps then exponentiate no kernel.
"""

from __future__ import annotations

import math

import numpy as np

from .contract import Gauss, Outer, contract, edge_dominated
from .core import GridSpec, LogDensity
from .quadrature import add_trapezoid_log_weights

# cache of per-axis Gauss kernels keyed by (kind, t, n, half_width), never
# cleared; each holds one (n - n // 2, n) array, the x >= 0 rows of its
# read-only exp(W - r) (the grid's axes are odd), which every later call shares
_KERNEL_CACHE: dict[tuple, Gauss] = {}


class KernelUnderResolvedError(ValueError):
    """The Gaussian kernel is narrower than the grid can resolve (std < h)."""


def _check_resolution(grid: GridSpec, t: float):
    std = math.sqrt(-math.expm1(-2 * t))
    for k in range(grid.dim):
        if std < grid.spacings[k]:
            raise KernelUnderResolvedError(
                f"kernel std {std:.3g} below spacing {grid.spacings[k]:.3g} on axis {k}"
            )


def _axis_kernel(axis: np.ndarray, t: float, kind: str) -> Gauss:
    """The 1D log-kernel W[i, j] as a Gauss kernel, built once per key.

    kind 'fp':  exponent -(x_i - e^{-t} y_j)^2 / (2 (1 - e^{-2t})), u = x, v = e^{-t} x
    kind 'ou':  exponent -(e^{-t} x_i - y_j)^2 / (2 (1 - e^{-2t})), u = e^{-t} x, v = x
    """
    key = (kind, float(t), len(axis), float(axis[-1]))
    cached = _KERNEL_CACHE.get(key)
    if cached is not None:
        return cached
    var = -math.expm1(-2 * t)
    scaled = math.exp(-t) * axis
    w = Gauss.of(axis, scaled, var) if kind == "fp" else Gauss.of(scaled, axis, var)
    _KERNEL_CACHE[key] = w
    return w


def _apply_kernel(f: LogDensity, t: float, kind: str) -> LogDensity:
    """Contract f with the per-axis kernels of ``kind`` at time t; even f stay
    exactly even. The weighted log-values are contracted into their own
    buffer, which is then negated in place: one full-size array."""
    _check_resolution(f.grid, t)
    kernels = [_axis_kernel(f.grid.axis(k), t, kind) for k in range(f.grid.dim)]
    buf = add_trapezoid_log_weights(f.log_values(), f.grid)
    np.negative(contract(buf, kernels, out=buf), out=buf)
    return LogDensity(grid=f.grid, phi=buf)


def fp_evolve(f0: LogDensity, t: float) -> LogDensity:
    """Solve the Fokker-Planck flow d/dt f = Lap f + div(x f) at time t exactly."""
    if not t >= 0:  # NaN fails too, before a kernel is built or cached
        raise ValueError("t must be nonnegative")
    if t == 0:
        return f0
    return _apply_kernel(f0, t, "fp")


def ou_apply(g: LogDensity, s: float) -> LogDensity:
    """P_s g on the same grid; g = e^{-phi} may be any positive grid function."""
    if not s > 0:  # NaN fails too, before a kernel is built or cached
        raise ValueError("s must be positive")
    return _apply_kernel(g, s, "ou")


def ou_edge_flags(g: LogDensity, s: float) -> np.ndarray:
    """Nodes x where the z-integrand of P_s g peaks on the grid edge.

    There the grid cuts the OU integral short, so ``ou_apply`` falls below the
    continuum P_s g, and is finite where P_s g = +inf. The OU exponent
    -(e^{-s} x - z)^2 / (2 var) is e^{-s} x z / var - z^2 / (2 var) plus a
    term in x alone, which moves no argmax over z, so the max-plus step runs
    on the rank-one kernel (e^{-s} / var) x_k z_k.
    """
    if not s > 0:
        raise ValueError("s must be positive")
    var = -math.expm1(-2 * s)
    log_g = g.grid.sq_norm()
    log_g /= 2 * var
    np.subtract(g.log_values(), log_g, out=log_g)
    return edge_dominated(log_g, [Outer(math.exp(-s) / var * a, a) for a in g.grid.axes()])


def flow_trajectory(f0: LogDensity, times) -> list[LogDensity]:
    """f_t for each requested time, each computed independently from f0."""
    times = list(times)
    # NaN fails both checks, before any kernel is built or cached
    if any(not t > 0 for t in times):
        raise ValueError("times must be positive (t = 0 is f0 itself)")
    if any(not b > a for a, b in zip(times, times[1:])):
        raise ValueError("times must be strictly increasing")
    return [fp_evolve(f0, t) for t in times]
