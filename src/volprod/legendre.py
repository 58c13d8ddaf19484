"""Discrete Legendre-Fenchel transform, convex envelope and polar densities.

The conjugate phi*(x) = max_y [<x, y> - phi(y)] over the grid nodes is one
max-plus contraction of -phi with the per-axis kernel x_k y_k
(``volprod.contract``), so it takes the max over every finite node, axis by
axis. The kernel goes to the engine as its two axes, ``Outer(x_k, y_k)``: the
engine reads its symmetry and Monge structure off the axes, no conjugate keeps
an ``(M, N)`` array between calls, and a 1D conjugate forms its products a row
block or a window at a time. On sorted axes x_k y_k is Monge, so the engine
searches each row only between the argmaxes of its neighbouring sampled rows,
in one flat reduction on large 1D steps. ``oracles.hull_legendre`` checks it
with a lower-convex-hull sweep.

``default_dual_grid`` runs no conjugate: it reads each half-width off the
shadow profile of phi in closed form.
"""

from __future__ import annotations

import functools
import warnings

import numpy as np

from .contract import Outer, banded, contract, faces, shell_split
from .core import GridSpec, LogDensity, check_even, make_grid

# polars of Gaussian-decay inputs should fall by this many nats inside the box
DUAL_DECAY_NATS = 40.0


def legendre_1d(y: np.ndarray, phi: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Exact discrete conjugate of the sampled phi, evaluated at dual nodes x.

    Nodes y and x must be finite and nondecreasing, as every grid axis is
    (``oracles.hull_legendre`` assumes it too), else ``ValueError``. All-inf
    input is rejected; +inf samples simply do not participate in the sup.
    An exactly even phi on odd y and x gets the engine's orthant path.
    """
    phi = np.asarray(phi, dtype=float)
    if not np.isfinite(phi).any():
        raise ValueError("conjugate of an everywhere-infinite function")
    kernel = Outer(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    return contract(-phi, [kernel], "max")


@functools.lru_cache(maxsize=16)
def _ladder(h: float) -> np.ndarray:
    """The 256 candidate half-widths from spacing h to the 4096 cap, read-only:
    every call on a grid of spacing h shares them."""
    rungs = np.geomspace(h, 4096.0, 256)
    rungs.flags.writeable = False
    return rungs


def default_dual_grid(f: LogDensity) -> GridSpec:
    """Dual grid sized so the polar decays by DUAL_DECAY_NATS inside the box.

    Along each dual axis e_k the conjugate is the 1D conjugate of the shadow
    profile min over the other coordinates of phi, so the half-width is the
    smallest rung r of a geometric ladder with conj(r) >= T = conj(0) +
    DUAL_DECAY_NATS. Where no rung reaches T the half-width falls back to the
    4096 cap with a RuntimeWarning naming the axis (downstream tail_ratio flags
    the truncation).

    conj is a max of terms x y_j - phi_j, and conj(0) = max_j -phi_j. For x >=
    0 a term with y_j <= 0 stays at or below conj(0); one with y_j > 0 reaches
    T from x = (T + phi_j) / y_j on. So the answer is the first rung at or
    above the least such x, up to rounding, which can move it a rung either
    way: from there the search steps down while the rung below reaches T and
    up while the rung does not, with the engine's own terms fl(fl(r y_j) -
    phi_j), which never fall as r grows. No conjugate runs.
    """
    grid = f.grid
    hws = []
    for k in range(grid.dim):
        shadow = np.min(f.phi, axis=tuple(j for j in range(grid.dim) if j != k))
        y, rungs = grid.axis(k), _ladder(grid.spacings[k])
        target = np.max(-shadow) + DUAL_DECAY_NATS
        pos = y > 0
        i = int(np.searchsorted(rungs, np.min((target + shadow[pos]) / y[pos], initial=np.inf)))
        while i > 0 and np.max(rungs[i - 1] * y - shadow) >= target:
            i -= 1
        while i < rungs.size and np.max(rungs[i] * y - shadow) < target:
            i += 1
        if i == rungs.size:
            warnings.warn(f"dual grid axis {k}: the conjugate rises less than {DUAL_DECAY_NATS:g} nats "
                          f"within the cap; half-width capped at 1.05 * 4096", RuntimeWarning, stacklevel=2)
        hws.append(1.05 * (rungs[i] if i < rungs.size else 4096.0))
    return make_grid(grid.dim, tuple(hws), grid.points)


def _dual_of(f: LogDensity, dual: GridSpec | None) -> GridSpec:
    """``dual``, or f's default dual grid, refused unless of f's dimension."""
    dual = dual if dual is not None else default_dual_grid(f)
    if dual.dim != f.grid.dim:
        raise ValueError("dual grid dimension mismatch")
    return dual


def legendre_transform(f: LogDensity, dual: GridSpec | None = None) -> LogDensity:
    """Exact discrete conjugate over all grid nodes: one max-plus contraction
    with the per-axis kernel x_k y_k (on a 1D grid, exactly ``legendre_1d``).
    On a dual grid of the primal's shape the conjugate is written into the
    buffer that holds -phi, so it holds one full-size array."""
    dual = _dual_of(f, dual)
    if f.grid.dim == 1:
        acc = legendre_1d(f.grid.axis(0), f.phi, dual.axis(0))
    else:
        # -phi in one buffer, and the conjugate into the same buffer when it fits
        neg = np.negative(f.phi)
        kernels = [Outer(dual.axis(k), f.grid.axis(k)) for k in range(f.grid.dim)]
        acc = contract(neg, kernels, "max", out=neg if dual.points == f.grid.points else None)
    return LogDensity(grid=dual, phi=acc)


def polar_density(f: LogDensity, dual: GridSpec | None = None) -> LogDensity:
    """f0(x) = e^{-phi*(x)}: the polar density of f = e^{-phi}.

    Dual nodes whose sup is attained on the primal boundary shell are
    truncation artifacts (the sup over all of R^n is +inf there, as for
    f = e^{-|y|} beyond |x| = 1); those nodes are reported as phi* = +inf.
    ``contract.shell_split`` gives the conjugate over the shell and over the
    nodes inside it, masking the faces of -phi in place (no masked copy); the
    conjugate over all nodes is the larger of the two. Where it exceeds the
    inner conjugate by more than 1e-12 (1 + |phi*|), the boundary was the
    maximizer. The shell's conjugate comes in row bands, and each band's
    conjugate and flags are written into the inner conjugate's buffer: a 3D
    65^3 polar holds 1.52 full-size arrays, its output included. A dual grid
    of another dimension is refused first.
    """
    dual = _dual_of(f, dual)
    if not check_even(f):
        warnings.warn("polar of a non-even density: Blaschke-Santalo hypotheses unmet")
    shell = faces(f.grid.dim)
    # a shell that is +inf already (a box) cannot win; an all-shell input has
    # no inner conjugate (a min is finite where any entry is)
    if min(f.phi[face].min() for face in shell) == np.inf or f.phi[(slice(1, -1),) * f.grid.dim].min() == np.inf:
        return legendre_transform(f, dual)
    kernels = [Outer(dual.axis(k), f.grid.axis(k)) for k in range(f.grid.dim)]
    shell, phi = shell_split(np.negative(f.phi), kernels)
    # band by band (the shell's bands are banded's, as the margin's) into the
    # inner conjugate: the conjugate over all nodes, the larger of the two,
    # set to +inf where it exceeds the inner one by more than the margin
    # 1e-12 (1 + |phi*|), |phi*| taken as 0 where infinite
    for (band, conj), (_, margin) in zip(shell, banded(phi.shape)):
        inner = phi[band]
        np.maximum(inner, conj, out=conj)
        np.abs(conj, out=margin)
        margin[np.isinf(margin)] = 0.0
        margin += 1.0
        margin *= 1e-12
        inner += margin
        conj[conj > inner] = np.inf
        inner[...] = conj
    return LogDensity(grid=dual, phi=phi)


def convex_envelope(f: LogDensity, dual: GridSpec | None = None) -> LogDensity:
    """Largest convex minorant of the sampled phi via double conjugation."""
    first = legendre_transform(f, dual)
    return legendre_transform(first, f.grid)
