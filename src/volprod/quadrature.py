"""Log-domain tensor-grid integration: trapezoid rule reduced by log-sum-exp.

Everything is computed as log-sum-exp of (-phi + log weight); a single global
max shift keeps the reduction stable even when -q*phi spans hundreds of nats.
Every step works in a buffer the caller owns: the trapezoid weights are
added in place from two slabs (``add_trapezoid_log_weights``), the Gaussian
log-weight in row bands of one buffer (``Measure.add_log_weight``), and
``logsumexp_in_place`` shifts and exponentiates the integrand where it lies,
so an integral under either measure holds one full-size array, its
integrand. This module integrates and nothing else: the boundary shell that
the tail ratio reads is ``contract.faces``, and the edge flags are
``contract.edge_dominated``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .contract import banded, faces
from .core import GridSpec, LogDensity, LogQuad, NEG_INF

LOG_2PI = math.log(2 * math.pi)


@dataclass(frozen=True)
class Measure:
    """Integration measure: Lebesgue dx or the standard Gaussian gamma."""

    kind: str = "lebesgue"

    def __post_init__(self):
        if self.kind not in ("lebesgue", "standard_gaussian"):
            raise ValueError(f"unknown measure {self.kind!r}")

    def add_log_weight(self, a: np.ndarray, grid: GridSpec) -> np.ndarray:
        """Add the log-weight to ``a`` in place and return ``a``. The Gaussian
        one, -|x|^2 / 2 - n log(2 pi) / 2, is formed in the row bands of
        ``contract.banded``, |x|^2 summed axis by axis as ``GridSpec.sq_norm``
        sums it."""
        if self.kind == "lebesgue":
            return a
        axes = grid.open_axes()
        for band, w in banded(grid.points):
            # x_0^2 is 0 + x_0^2 exactly, as GridSpec.sq_norm's first sum
            w[...] = axes[0][band] * axes[0][band]
            for x in axes[1:]:
                w += x * x
            w *= -0.5
            w -= 0.5 * grid.dim * LOG_2PI
            a[band] += w
        return a


LEBESGUE = Measure("lebesgue")
GAUSSIAN = Measure("standard_gaussian")


def logsumexp_in_place(buf: np.ndarray) -> float:
    """log sum exp over the whole float array ``buf``, which it shifts and
    exponentiates in place; -inf entries drop out."""
    m = float(buf.max())
    if m == NEG_INF:
        return NEG_INF
    if math.isinf(m):
        return math.inf
    buf -= m
    np.exp(buf, out=buf)
    return m + math.log(float(buf.sum()))


def add_trapezoid_log_weights(a: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Add the tensor trapezoid coefficients, in log domain, to ``a`` in place; return ``a``.

    The weight at node (i_0, ..., i_{n-1}) is (w_0 + w_1) + w_2 with w_k =
    log h_k, or log(h_k / 2) at either end of axis k. Axis 0 takes only two
    values, so the weights are two (n-1)-dimensional slabs, one for its end
    rows and one for its interior rows, each folded in that order; no
    full-size weights array is formed.
    """
    h0 = grid.spacings[0]
    ends, inner = math.log(h0 / 2), math.log(h0)
    for k in range(1, grid.dim):
        h = grid.spacings[k]
        w = np.full(grid.points[k], math.log(h))
        w[0] = w[-1] = math.log(h / 2)
        w = w.reshape([-1 if j == k else 1 for j in range(1, grid.dim)])
        ends = ends + w
        inner = inner + w
    a[0] += ends
    a[-1] += ends
    a[1:-1] += inner
    return a


def _tail_ratio(log_integrand: np.ndarray) -> float:
    """max boundary integrand / max interior integrand, in linear scale, read
    off the 2n faces and the interior view."""
    a = log_integrand
    mb = max(float(a[face].max()) for face in faces(a.ndim))
    mi = float(a[(slice(1, -1),) * a.ndim].max())
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
    if not abs(q) < math.inf:  # NaN fails too
        raise ValueError(f"q must be finite, got {q}")
    phi = f.phi
    log_integrand = -q * phi
    if q < 0:
        # f = 0 nodes give f^q = +inf; exclude them, they carry zero measure
        # on a full-measure finite subgrid and are reported via tail_ratio.
        log_integrand[np.isinf(phi)] = NEG_INF
    measure.add_log_weight(log_integrand, f.grid)
    tail_ratio = _tail_ratio(log_integrand)
    add_trapezoid_log_weights(log_integrand, f.grid)
    la = logsumexp_in_place(log_integrand)
    if la == NEG_INF:
        return LogQuad(log_abs=NEG_INF, sign=0)
    return LogQuad(log_abs=la / q, sign=1, tail_ratio=tail_ratio)
