"""Shared domain types: grids, log-domain densities, Gaussians, exponent schedules.

Densities are stored as phi = -log f with an explicit +inf sentinel for f = 0,
so indicator densities are exact and Gaussian tails never underflow.

Grid quantities are built from the per-axis node arrays (``GridSpec.open_axes``),
broadcast into one full-size output buffer in the order a sum over the
meshgrid takes, so their bytes are the meshgrid form's. ``GridSpec.meshgrid``
remains for point-set callers (the oracles).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

NEG_INF = -np.inf


# The input rules, each written once; every refusal names the parameter and its value.
def require_positive(**params) -> None:
    """Refuse the first parameter that is not a positive finite number (NaN too)."""
    for name, value in params.items():
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value!r}")


def require_count(**params) -> None:
    """Refuse the first parameter that is not an integer of at least 1."""
    for name, value in params.items():
        if not (isinstance(value, numbers.Integral) and value >= 1):
            raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


def require_finite(**params) -> None:
    """Refuse the first parameter with an entry that is not finite."""
    for name, value in params.items():
        if not np.isfinite(value).all():
            raise ValueError(f"{name} must be finite, got {value!r}")


def spd_matrix(name: str, matrix, dim: int | None = None) -> np.ndarray:
    """``matrix`` as a read-only float copy, refused unless it is dim x dim (by
    default its row count), finite, symmetric and positive definite."""
    a = np.array(np.atleast_2d(matrix), dtype=float)
    dim = a.shape[0] if dim is None else dim
    if a.shape != (dim, dim):
        raise ValueError(f"{name} must be {dim} x {dim}, got shape {a.shape}")
    require_finite(**{name: a.tolist()})
    if not np.allclose(a, a.T, rtol=0, atol=1e-12):
        raise ValueError(f"{name} must be symmetric, got {a.tolist()}")
    if np.linalg.eigvalsh(a).min() <= 0:
        raise ValueError(f"{name} must be positive definite, got {a.tolist()}")
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class GridSpec:
    """Symmetric uniform tensor grid on prod_k [-R_k, R_k].

    Node counts must be odd so the origin is a node and the node set is
    exactly symmetric under x -> -x.
    """

    dim: int
    half_widths: tuple[float, ...]
    points: tuple[int, ...]

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {self.dim}")
        if len(self.half_widths) != self.dim or len(self.points) != self.dim:
            raise ValueError("half_widths/points length must equal dim")
        require_positive(**{f"half_widths[{k}]": r for k, r in enumerate(self.half_widths)})
        for n in self.points:
            if n < 3 or n % 2 == 0:
                raise ValueError(f"points must be odd and >= 3, got {n}")

    @property
    def spacings(self) -> tuple[float, ...]:
        return tuple(2 * r / (n - 1) for r, n in zip(self.half_widths, self.points))

    @cached_property
    def _axes(self) -> tuple[np.ndarray, ...]:
        """Nodes along each axis, exactly symmetric: x_i = (i - m) * h with m
        the center index; built once per grid and read-only."""
        out = []
        for r, n in zip(self.half_widths, self.points):
            m = (n - 1) // 2
            a = (np.arange(n) - m) * (r / m)
            a.flags.writeable = False
            out.append(a)
        return tuple(out)

    def axis(self, k: int) -> np.ndarray:
        """Nodes along axis k: the grid's own read-only array, not a copy."""
        return self._axes[k]

    def axes(self) -> list[np.ndarray]:
        return list(self._axes)

    def open_axes(self) -> list[np.ndarray]:
        """Axis k as a view of shape (1, ..., n_k, ..., 1): an open mesh that
        broadcasts to grid.points."""
        return [a.reshape([-1 if j == k else 1 for j in range(self.dim)]) for k, a in enumerate(self._axes)]

    def sq_norm(self) -> np.ndarray:
        """|x|^2 at every node, adding x_k^2 axis by axis into one buffer."""
        out = np.zeros(self.points)
        for a in self.open_axes():
            out += a * a
        return out

    def meshgrid(self) -> list[np.ndarray]:
        return list(np.meshgrid(*self.axes(), indexing="ij"))

    def nodes(self) -> np.ndarray:
        """All nodes as an (N_total, dim) array in C order."""
        mesh = self.meshgrid()
        return np.stack([m.ravel() for m in mesh], axis=-1)


def make_grid(dim: int, half_width, points) -> GridSpec:
    """Build a validated GridSpec; scalars broadcast across axes, and a point count must be integral."""
    hw = tuple(float(h) for h in (half_width if np.iterable(half_width) else [half_width] * dim))
    counts = points if np.iterable(points) else [points] * dim
    if not all(isinstance(n, numbers.Real) and float(n).is_integer() for n in counts):
        raise ValueError(f"points must be integers, got {points!r}")
    pts = tuple(int(n) for n in counts)
    return GridSpec(dim=dim, half_widths=hw, points=pts)


@dataclass(frozen=True)
class LogDensity:
    """Density f = e^{-phi} sampled on a grid, phi in [-inf excluded, +inf allowed]."""

    grid: GridSpec
    phi: np.ndarray

    def __post_init__(self):
        phi = np.asarray(self.phi, dtype=float)
        if phi.shape != self.grid.points:
            raise ValueError(f"phi shape {phi.shape} does not match grid {self.grid.points}")
        # one reduction: min is NaN if any entry is, else -inf if any entry is
        low = phi.min()
        if np.isnan(low):
            raise ValueError("phi contains NaN")
        if low == NEG_INF:
            raise ValueError("phi contains -inf (density unbounded)")
        if low == np.inf:
            raise ValueError("density vanishes everywhere (all-inf phi)")
        object.__setattr__(self, "phi", phi)

    def log_values(self) -> np.ndarray:
        """log f = -phi; -inf where the density vanishes."""
        return -self.phi


@dataclass(frozen=True)
class GaussianSpec:
    """Scaled centered Gaussian c * gamma_A with SPD covariance A."""

    mass: float
    covariance: np.ndarray

    def __post_init__(self):
        require_positive(mass=self.mass)
        object.__setattr__(self, "covariance", spd_matrix("covariance", self.covariance))

    @property
    def dim(self) -> int:
        return self.covariance.shape[0]


def isotropic_gaussian(beta: float, dim: int = 1, mass: float = 1.0) -> GaussianSpec:
    return GaussianSpec(mass=mass, covariance=beta * np.eye(dim))


@dataclass(frozen=True)
class ExponentSchedule:
    """Endpoint exponents p = 1 - e^{-2s}, q = 1 - e^{2s}; q is the Holder conjugate of p."""

    s: float
    p: float = field(init=False)
    q: float = field(init=False)

    def __post_init__(self):
        require_positive(s=self.s)
        object.__setattr__(self, "p", -math.expm1(-2 * self.s))
        object.__setattr__(self, "q", -math.expm1(2 * self.s))


@dataclass(frozen=True)
class BodySpec:
    """Symmetric convex body given by its Minkowski gauge."""

    kind: str
    dim: int
    exponent: float | None = None  # lp_ball only
    radius: float = 1.0
    matrix: np.ndarray | None = None  # ellipsoid only

    def __post_init__(self):
        require_count(dim=self.dim)
        require_positive(radius=self.radius)
        if self.kind == "lp_ball":
            if self.exponent is None or not self.exponent >= 1:  # NaN fails too
                raise ValueError("lp_ball needs exponent r >= 1 (inf allowed)")
        elif self.kind == "ellipsoid":
            object.__setattr__(self, "matrix", spd_matrix("ellipsoid matrix", self.matrix, self.dim))
        else:
            raise ValueError(f"unknown body kind {self.kind!r}")

    def gauge(self, x: np.ndarray) -> np.ndarray:
        """Minkowski functional ||x||_K at points x of shape (..., dim)."""
        x = np.asarray(x, dtype=float)
        if self.kind == "lp_ball":
            if math.isinf(self.exponent):
                g = np.abs(x).max(axis=-1)
            else:
                g = (np.abs(x) ** self.exponent).sum(axis=-1) ** (1.0 / self.exponent)
            return g / self.radius
        inv = np.linalg.inv(self.matrix)
        return np.sqrt(np.einsum("...i,ij,...j->...", x, inv, x))


def lp_ball(exponent: float, dim: int, radius: float = 1.0) -> BodySpec:
    return BodySpec(kind="lp_ball", dim=dim, exponent=float(exponent), radius=radius)


def ellipsoid(matrix: np.ndarray) -> BodySpec:
    a = np.atleast_2d(matrix)
    return BodySpec(kind="ellipsoid", dim=a.shape[0], matrix=a)


# tail_ratio above this is recorded as a truncation warning, never an error
TAIL_WARN = 1e-8


@dataclass(frozen=True)
class LogQuad:
    """A nonnegative integral, norm or volume product as log_abs = its log;
    zero is log_abs = -inf and +inf is log_abs = +inf.

    tail_ratio compares the largest boundary-node integrand to the largest
    interior one; values near or above 1 mean the truncation box is suspect.
    """

    log_abs: float
    tail_ratio: float = field(default=0.0, kw_only=True)

    def __post_init__(self):
        if math.isnan(self.log_abs):
            raise ValueError("log_abs must not be NaN")
        if not self.tail_ratio >= 0:  # NaN fails too
            raise ValueError("tail_ratio must be nonnegative")

    def value(self) -> float:
        try:
            return math.exp(self.log_abs)
        except OverflowError:  # above the double range: inf, as IEEE rounding gives
            return math.inf

    @property
    def flagged(self) -> bool:
        return self.tail_ratio > TAIL_WARN


def _quadratic_form(inv: np.ndarray, grid: GridSpec) -> np.ndarray:
    """<x, inv x> at every node: (x_i inv[i, j]) x_j added over the nonzero
    entries of inv in (i, j) order into one buffer, each term spanning only
    axes i and j; the bytes of ``np.einsum("...i,ij,...j->...", x, inv, x)``."""
    x = grid.open_axes()
    out = np.zeros(grid.points)
    for i, j in zip(*np.nonzero(inv)):
        out += (x[i] * inv[i, j]) * x[j]
    return out


def gaussian_to_logdensity(g: GaussianSpec, grid: GridSpec) -> LogDensity:
    """phi(x) = 0.5 <x, A^{-1} x> + 0.5 log det(2 pi A) - log c at every node."""
    if g.dim != grid.dim:
        raise ValueError("dimension mismatch between Gaussian and grid")
    _, logdet = np.linalg.slogdet(2 * math.pi * g.covariance)
    phi = _quadratic_form(np.linalg.inv(g.covariance), grid)
    phi *= 0.5
    phi += 0.5 * logdet
    phi -= math.log(g.mass)
    return LogDensity(grid=grid, phi=phi)


def body_to_logdensity(body: BodySpec, grid: GridSpec) -> LogDensity:
    """phi(x) = 0.5 ||x||_K^2, the log-concave avatar of the body K.

    The gauge is built per axis into one buffer with the IEEE operations of
    ``BodySpec.gauge`` on the meshgrid points: sum_k |x_k|^r added in axis
    order, max_k |x_k| for r = inf, the ellipsoid's quadratic form as the
    Gaussian's."""
    if body.dim != grid.dim:
        raise ValueError("dimension mismatch between body and grid")
    if body.kind == "ellipsoid":
        phi = _quadratic_form(np.linalg.inv(body.matrix), grid)
        np.sqrt(phi, out=phi)
    else:
        phi = np.zeros(grid.points)
        for a in grid.open_axes():
            if math.isinf(body.exponent):
                np.maximum(phi, np.abs(a), out=phi)
            else:
                phi += np.abs(a) ** body.exponent
        if not math.isinf(body.exponent):
            phi **= 1.0 / body.exponent
        phi /= body.radius
    phi **= 2
    phi *= 0.5
    return LogDensity(grid=grid, phi=phi)


def reflect(arr: np.ndarray) -> np.ndarray:
    """Value array under x -> -x (full reflection of all axes)."""
    return arr[tuple(slice(None, None, -1) for _ in range(arr.ndim))]


def check_even(f: LogDensity) -> bool:
    """True iff phi(x) = phi(-x) exactly at every node (inf = inf allowed).

    This is evenness through the origin, the hypothesis of the theorem.
    ``contract`` halves every axis along which its input equals its own flip
    (the orthant path) and falls back to this test (the central half path)
    only when no axis qualifies."""
    return np.array_equal(f.phi, reflect(f.phi))
