"""Log-domain tensor-grid integration: trapezoid rule reduced by log-sum-exp.

Everything is computed as log-sum-exp of (-phi + log weight); a single global
max shift keeps the reduction stable even when -q*phi spans hundreds of nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .contract import contract
from .core import GridSpec, LogDensity, LogQuad, NEG_INF

LOG_2PI = math.log(2 * math.pi)


@dataclass(frozen=True)
class Measure:
    """Integration measure: Lebesgue dx or the standard Gaussian gamma."""

    kind: str = "lebesgue"

    def __post_init__(self):
        if self.kind not in ("lebesgue", "standard_gaussian"):
            raise ValueError(f"unknown measure {self.kind!r}")

    def log_weight(self, grid: GridSpec) -> np.ndarray | float:
        if self.kind == "lebesgue":
            return 0.0
        mesh = grid.meshgrid()
        sq = sum(m * m for m in mesh)
        return -0.5 * sq - 0.5 * grid.dim * LOG_2PI


LEBESGUE = Measure("lebesgue")
GAUSSIAN = Measure("standard_gaussian")


def logsumexp_all(terms: np.ndarray) -> float:
    """log sum exp over the full array; -inf entries drop out."""
    m = float(np.max(terms))
    if m == NEG_INF:
        return NEG_INF
    if math.isinf(m):
        return math.inf
    return m + math.log(float(np.sum(np.exp(terms - m))))


def trapezoid_log_weights(grid: GridSpec) -> np.ndarray:
    """Tensor trapezoid coefficients in log domain, shape = grid.points."""
    total = 0.0
    for k in range(grid.dim):
        h = grid.spacings[k]
        w = np.full(grid.points[k], math.log(h))
        w[0] = w[-1] = math.log(h / 2)
        shape = [1] * grid.dim
        shape[k] = grid.points[k]
        total = total + w.reshape(shape)
    return np.broadcast_to(total, grid.points)


def boundary_mask(shape: tuple[int, ...]) -> np.ndarray:
    mask = np.zeros(shape, dtype=bool)
    for k in range(len(shape)):
        sl = [slice(None)] * len(shape)
        sl[k] = 0
        mask[tuple(sl)] = True
        sl[k] = -1
        mask[tuple(sl)] = True
    return mask


def edge_dominated(log_f: np.ndarray, axis_kernels) -> np.ndarray:
    """Where ``contract(log_f, axis_kernels, "max")`` peaks on the grid boundary.

    True where the largest kernel-weighted term over boundary nodes of
    ``log_f`` is at least the largest over interior nodes: the integral behind
    that output node is cut by the grid edge, not decayed inside it.
    """
    bmask = boundary_mask(log_f.shape)
    boundary_max = contract(np.where(bmask, log_f, NEG_INF), axis_kernels, "max")
    interior_max = contract(np.where(bmask, NEG_INF, log_f), axis_kernels, "max")
    return boundary_max >= interior_max


def _tail_ratio(log_integrand: np.ndarray) -> float:
    """max boundary integrand / max interior integrand, in linear scale."""
    mask = boundary_mask(log_integrand.shape)
    mb = float(np.max(log_integrand[mask]))
    mi = float(np.max(log_integrand[~mask]))
    if mb == NEG_INF:
        return 0.0
    if mi == NEG_INF:
        return math.inf
    return math.exp(min(mb - mi, 700.0))


def log_integral(f: LogDensity, measure: Measure = LEBESGUE) -> LogQuad:
    """log of the tensor-trapezoid approximation of int f dmu: the L^1 norm."""
    return log_lq_norm(f, 1.0, measure)


def log_lq_norm(f: LogDensity, q: float, measure: Measure = LEBESGUE) -> LogQuad:
    """(1/q) log int f^q dmu; q < 0 measures positivity, inf-phi nodes drop out."""
    if q == 0:
        raise ValueError("q must be nonzero")
    phi = f.phi
    if q < 0:
        # f = 0 nodes give f^q = +inf; exclude them, they carry zero measure
        # on a full-measure finite subgrid and are reported via tail_ratio.
        log_fq = np.where(np.isinf(phi), NEG_INF, -q * np.where(np.isinf(phi), 0.0, phi))
    else:
        log_fq = -q * phi
    log_integrand = log_fq + measure.log_weight(f.grid)
    terms = log_integrand + trapezoid_log_weights(f.grid)
    la = logsumexp_all(terms)
    if la == NEG_INF:
        return LogQuad(log_abs=NEG_INF, sign=0)
    return LogQuad(log_abs=la / q, sign=1, tail_ratio=_tail_ratio(log_integrand))
