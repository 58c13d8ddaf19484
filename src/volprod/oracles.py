"""Independent ground truth: a lower-hull conjugate, hand-derived Gaussian
closed forms, the exact tropical bridge of e^{-|x|}, moment ODEs, finite
differences, the Brascamp-Lieb / Cramer-Rao matrix checks, and a
scan-and-golden-section search for the Gaussian inverse Brascamp-Lieb optimum
(the reference for the closed form in ``functionals.gaussian_bl_constant``).

Nothing here shares integration or conjugation code with the main modules, so
agreement between the two routes is evidence rather than tautology.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import GridSpec, LogDensity, LogQuad, NEG_INF
from .functionals import BLData, BLOptimum


@dataclass(frozen=True)
class QuadraticForm:
    """Integrand data for int e^{-1/2 <x, M x> + <b, x> - c0} dx."""

    matrix: np.ndarray
    linear: np.ndarray | None = None
    constant: float = 0.0

    def __post_init__(self):
        m = np.atleast_2d(np.asarray(self.matrix, dtype=float))
        if m.shape[0] != m.shape[1]:
            raise ValueError("matrix must be square")
        if not np.allclose(m, m.T, rtol=0, atol=1e-12):
            raise ValueError("matrix must be symmetric")
        object.__setattr__(self, "matrix", m)
        if self.linear is not None:
            b = np.atleast_1d(np.asarray(self.linear, dtype=float))
            if b.shape != (m.shape[0],):
                raise ValueError("linear term has wrong length")
            object.__setattr__(self, "linear", b)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def gaussian_form_integral(qf: QuadraticForm) -> LogQuad:
    """Exact (2 pi)^{d/2} det(M)^{-1/2} e^{<b, M^{-1} b>/2 - c0}, or a divergent
    sentinel (log_abs = +inf) when M has a nonpositive eigenvalue."""
    eig = np.linalg.eigvalsh(qf.matrix)
    if eig.min() <= 0:
        return LogQuad(log_abs=math.inf, sign=1)
    d = qf.dim
    _, logdet = np.linalg.slogdet(qf.matrix)
    shift = 0.0
    if qf.linear is not None:
        shift = 0.5 * float(qf.linear @ np.linalg.solve(qf.matrix, qf.linear))
    log_val = 0.5 * d * math.log(2 * math.pi) - 0.5 * logdet + shift - qf.constant
    return LogQuad(log_abs=log_val, sign=1)


def _lower_hull(y: np.ndarray, phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices-free lower convex hull of the finite points (y_i, phi_i).

    Pops a middle point only when it lies on or above the chord of its
    neighbours, so every potential maximizer of the conjugate survives.
    """
    hy: list[float] = []
    hp: list[float] = []
    for yi, pi in zip(y, phi):
        while len(hy) >= 2:
            y1, p1 = hy[-2], hp[-2]
            y2, p2 = hy[-1], hp[-1]
            # slope(1,2) >= slope(2,new) <=> point 2 not strictly below the chord
            if (p2 - p1) * (yi - y2) >= (pi - p2) * (y2 - y1):
                hy.pop()
                hp.pop()
            else:
                break
        hy.append(yi)
        hp.append(pi)
    return np.asarray(hy), np.asarray(hp)


def _hull_axis(phi: np.ndarray, y: np.ndarray, x: np.ndarray, axis: int) -> np.ndarray:
    """max_i [x_j y_i - phi_i] along one axis by a lower-hull sweep per column.

    The dual nodes x ascend, so the maximizing hull vertex only moves right
    and each column costs O(len(y) + len(x)). Everywhere-+inf columns give -inf.
    The chord test and the sweep round, so where candidates nearly tie the
    result can sit a few ulp below the all-pairs max of x_j y_i - phi_i.
    """
    moved = np.moveaxis(phi, axis, 0)
    flat = moved.reshape(moved.shape[0], -1)
    out = np.full((len(x), flat.shape[1]), NEG_INF)
    for c in range(flat.shape[1]):
        col = flat[:, c]
        finite = np.isfinite(col)
        if not finite.any():
            continue
        hy, hp = _lower_hull(y[finite], col[finite])
        k = 0
        for j, xj in enumerate(x):
            while k + 1 < len(hy) and xj * hy[k + 1] - hp[k + 1] >= xj * hy[k] - hp[k]:
                k += 1
            out[j, c] = xj * hy[k] - hp[k]
    out = out.reshape((len(x),) + moved.shape[1:])
    return np.moveaxis(out, 0, axis)


def hull_legendre(f: LogDensity, dual: GridSpec) -> LogDensity:
    """Reference discrete conjugate: a lower-hull sweep per column, axis by axis
    (cf. Lucet's linear-time Legendre transform)."""
    if dual.dim != f.grid.dim:
        raise ValueError("dual grid dimension mismatch")
    if not np.isfinite(f.phi).any():
        raise ValueError("conjugate of an everywhere-infinite function")
    acc = f.phi
    for k in range(f.grid.dim):
        if k > 0:
            acc = -acc
        acc = _hull_axis(acc, f.grid.axis(k), dual.axis(k), axis=k)
    return LogDensity(grid=dual, phi=acc, even=False)


def _interior(shape) -> tuple[slice, ...]:
    return tuple(slice(1, -1) for _ in shape)


def _trapz_weights(grid: GridSpec) -> np.ndarray:
    total = np.ones(grid.points)
    for k in range(grid.dim):
        w = np.full(grid.points[k], grid.spacings[k])
        w[0] = w[-1] = grid.spacings[k] / 2
        shape = [1] * grid.dim
        shape[k] = grid.points[k]
        total = total * w.reshape(shape)
    return total


def _gradient(values: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Central-difference gradient at interior nodes, shape interior + (dim,)."""
    comps = []
    inner = _interior(values.shape)
    for k in range(grid.dim):
        h = grid.spacings[k]
        up = [slice(1, -1)] * grid.dim
        dn = [slice(1, -1)] * grid.dim
        up[k] = slice(2, None)
        dn[k] = slice(None, -2)
        comps.append((values[tuple(up)] - values[tuple(dn)]) / (2 * h))
    return np.stack(comps, axis=-1)


def _hessian(phi: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Centered second-difference Hessian of phi at interior nodes."""
    n = grid.dim
    inner = _interior(phi.shape)
    shape = phi[inner].shape
    hess = np.empty(shape + (n, n))
    for i in range(n):
        hi = grid.spacings[i]
        up = [slice(1, -1)] * n
        md = [slice(1, -1)] * n
        dn = [slice(1, -1)] * n
        up[i] = slice(2, None)
        dn[i] = slice(None, -2)
        hess[..., i, i] = (phi[tuple(up)] - 2 * phi[tuple(md)] + phi[tuple(dn)]) / hi**2
        for j in range(i + 1, n):
            hj = grid.spacings[j]
            pp = [slice(1, -1)] * n
            pm = [slice(1, -1)] * n
            mp = [slice(1, -1)] * n
            mm = [slice(1, -1)] * n
            pp[i] = mp[i] = slice(2, None)
            pm[i] = mm[i] = slice(None, -2)
            # careful: first index shifts axis i, second shifts axis j
            pp[j] = pm[j] = slice(2, None)
            mp[j] = mm[j] = slice(None, -2)
            mixed = (phi[tuple(pp)] - phi[tuple(mp)] - phi[tuple(pm)] + phi[tuple(mm)]) / (
                4 * hi * hj
            )
            hess[..., i, j] = mixed
            hess[..., j, i] = mixed
    return hess


def _require_pd(hess: np.ndarray):
    eig = np.linalg.eigvalsh(hess)
    bad = eig[..., 0] <= 0
    if bad.any():
        loc = tuple(int(i) for i in np.argwhere(bad)[0])
        raise ValueError(f"-log h not strictly convex at interior node {loc}")


def pbl_check(h: LogDensity, g: np.ndarray, hessian: np.ndarray | None = None):
    """(Var_h(g), int <grad g, (hess -log h)^{-1} grad g> h / m(h)).

    Gradients and Hessians by central differences; boundary nodes excluded
    from the Dirichlet side, where h is assumed negligible.
    """
    g = np.asarray(g, dtype=float)
    if g.shape != h.grid.points:
        raise ValueError("test function shape mismatch")
    if not np.isfinite(h.phi).all():
        raise ValueError("pbl_check needs a strictly positive density")
    w = _trapz_weights(h.grid)
    hv = np.exp(-h.phi)
    mass = float(np.sum(w * hv))
    mean = float(np.sum(w * hv * g)) / mass
    var = float(np.sum(w * hv * (g - mean) ** 2)) / mass
    hess = _hessian(h.phi, h.grid) if hessian is None else hessian
    _require_pd(hess)
    grad = _gradient(g, h.grid)
    inv = np.linalg.inv(hess)
    quad = np.einsum("...i,...ij,...j->...", grad, inv, grad)
    inner = _interior(h.grid.points)
    dirichlet = float(np.sum((w * hv)[inner] * quad)) / mass
    return var, dirichlet


def cramer_rao_check(h: LogDensity, tilt: tuple[float, np.ndarray] | None = None):
    """(cov(h)^{-1}, int hess(-log h) h / m(h)) as matrices; the difference
    should be positive semidefinite for strictly log-concave h.

    tilt = (p, x) replaces h by the tilted density e^{<x, z>/p} h(z)^{1/p},
    the family arising in the Laplace-transform differentiation step.
    """
    phi = h.phi
    grid = h.grid
    if tilt is not None:
        p, x = tilt
        x = np.atleast_1d(np.asarray(x, dtype=float))
        mesh = grid.meshgrid()
        dot = sum(xk * mk for xk, mk in zip(x, mesh))
        phi = phi / p - dot / p
    finite = np.isfinite(phi)
    if not finite.all():
        raise ValueError("cramer_rao_check needs a strictly positive density")
    w = _trapz_weights(grid)
    hv = np.exp(phi.min() - phi)  # shift for stability; cancels in the ratios
    wh = (w * hv).ravel()
    mass = float(wh.sum())
    x = np.stack(grid.meshgrid(), axis=-1).reshape(-1, grid.dim)
    mean = wh @ x / mass
    centered = x - mean
    cov = (centered.T * wh) @ centered / mass
    hess = _hessian(phi, grid)
    _require_pd(hess)
    inner = _interior(grid.points)
    whi = (w * hv)[inner].ravel()
    int_hess = np.tensordot(whi, hess.reshape(-1, grid.dim, grid.dim), axes=1) / mass
    return np.linalg.inv(cov), int_hess


def fd_derivative(samples, at: float) -> float:
    """Central difference from three equally spaced samples bracketing `at`."""
    ts = np.array([t for t, _ in samples], dtype=float)
    vs = np.array([v for _, v in samples], dtype=float)
    order = np.argsort(ts)
    ts, vs = ts[order], vs[order]
    idx = int(np.argmin(np.abs(ts - at)))
    if abs(ts[idx] - at) > 1e-12:
        raise ValueError(f"no sample at t = {at}")
    if idx == 0 or idx == len(ts) - 1:
        raise ValueError("need samples on both sides of the target time")
    dt_lo = ts[idx] - ts[idx - 1]
    dt_hi = ts[idx + 1] - ts[idx]
    if abs(dt_hi - dt_lo) > 1e-12 * max(dt_lo, dt_hi):
        raise ValueError("samples must be equally spaced around the target")
    return float((vs[idx + 1] - vs[idx - 1]) / (2 * dt_lo))


def gaussian_closed_forms(name: str, **params) -> LogQuad:
    """Hand-derived closed forms used as quantitative oracles.

    v_gamma(n):             v(gamma) = (2 pi)^n.
    fp_variance_law(beta, t): variance of the flowed Gaussian,
                            1 - e^{-2t} + e^{-2t} beta.
    laplace_gamma_ratio(p, n=1): ||L gamma||_{p'} / ||gamma||_p for 0 < p < 1,
                            each factor a single completed square per axis.
    """
    if name == "v_gamma":
        n = int(params["n"])
        return LogQuad(log_abs=n * math.log(2 * math.pi), sign=1)
    if name == "fp_variance_law":
        beta = float(params["beta"])
        t = float(params["t"])
        val = -math.expm1(-2 * t) + math.exp(-2 * t) * beta
        return LogQuad(log_abs=math.log(val), sign=1)
    if name == "laplace_gamma_ratio":
        p = float(params["p"])
        n = int(params.get("n", 1))
        if not (0 < p < 1):
            raise ValueError("p must lie in (0, 1)")
        q = p / (p - 1.0)
        # L gamma (x) = e^{x^2/2} per axis, ||e^{x^2/2}||_q = (2 pi / -q)^{1/(2q)}
        log_num = math.log(2 * math.pi / -q) / (2 * q)
        # int gamma^p = (2 pi)^{(1-p)/2} p^{-1/2}
        log_den = (0.5 * (1 - p) * math.log(2 * math.pi) - 0.5 * math.log(p)) / p
        return LogQuad(log_abs=n * (log_num - log_den), sign=1)
    raise ValueError(f"unknown closed form {name!r}")


def exp_abs_bridge(s: float) -> LogQuad:
    """Exact tropical bridge B(s) of f = e^{-|x|} in 1D, by hand.

    B(s) = 2 pi (int f)^{-q/p} ||P_s g||_{L^q(gamma)}^q with p = 1 - e^{-2s},
    q = 1 - e^{2s} and g = (f/gamma)^{1/p}. In the OU integral over z the
    quadratic terms cancel, leaving int e^{(e^{-s} x z - |z|)/p} dz, so

        P_s g(x) = K_s e^{-e^{-2s} x^2 / (2p)} / (1 - e^{-2s} x^2),  |x| < e^s,
        K_s = 2 sqrt(p) (2 pi)^{1/(2p) - 1/2},

    and P_s g = +inf for |x| >= e^s, where (P_s g)^q = 0. As -q/p = e^{2s},
    the Gaussian factors cancel in the q-integral, which is a Beta integral:

        B(s) = 2 pi 2^{e^{2s}} K_s^q (2 pi)^{-1/2} e^s sqrt(pi)
               Gamma(e^{2s}) / Gamma(e^{2s} + 1/2).

    B(s) -> v(f) = 4 as s -> 0, like O(s log 1/s).
    """
    if s <= 0:
        raise ValueError("s must be positive")
    p = -math.expm1(-2 * s)
    q = -math.expm1(2 * s)
    a = math.exp(2 * s)
    log_2pi = math.log(2 * math.pi)
    log_k = math.log(2.0) + 0.5 * math.log(p) + (0.5 / p - 0.5) * log_2pi
    log_beta = 0.5 * math.log(math.pi) + math.lgamma(a) - math.lgamma(a + 0.5)
    log_b = 0.5 * log_2pi + a * math.log(2.0) + q * log_k + s + log_beta
    return LogQuad(log_abs=log_b, sign=1)


def ou_second_moment(beta: float, t: float) -> float:
    """Second moment of the flowed Gaussian by integrating m2' = 2 (1 - m2).

    An independent ODE route for the variance law (closed form: the
    fp_variance_law entry above). scipy is imported here, its only use in the
    library, so ``import volprod`` does not load it.
    """
    from scipy.integrate import solve_ivp

    if t == 0:
        return beta
    sol = solve_ivp(
        lambda _, m: 2.0 * (1.0 - m),
        (0.0, t),
        [beta],
        rtol=1e-10,
        atol=1e-12,
        dense_output=False,
    )
    return float(sol.y[0, -1])


def _gaussian_bl_objective(data: BLData, a: float, b: float) -> float:
    """Per-coordinate closed form of the kernel integral against gamma_a^c1 gamma_b^c2."""
    q2 = data.qform
    m = 2 * math.pi * q2 + np.diag([data.c1 / a, data.c2 / b])
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    if det <= 0 or m[0, 0] <= 0:
        return math.inf
    return (
        math.log(2 * math.pi)
        - 0.5 * math.log(det)
        - 0.5 * data.c1 * math.log(2 * math.pi * a)
        - 0.5 * data.c2 * math.log(2 * math.pi * b)
    )


def _golden_min(fun, lo: float, hi: float, tol: float) -> float:
    invphi = (math.sqrt(5) - 1) / 2
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fun(c), fun(d)
    while abs(b - a) > tol * max(1.0, abs(a) + abs(b)):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fun(d)
    return (a + b) / 2


def bl_search(data: BLData, n: int = 1, log_bound: float = 12.0) -> BLOptimum:
    """Infimum of the kernel integral over centered Gaussians with diagonal covariance.

    Coordinates decouple for identity-block data, so one 2D problem is solved by
    a coarse global scan followed by alternating golden-section descent in
    (log a, log b), raised to the n-th power.  A minimizer escaping to the
    search-box boundary signals a degenerate (zero) infimum; the coarse scan is
    what detects objectives that are unbounded below along a diagonal valley.
    A descent that has not converged after 200 rounds raises a RuntimeWarning
    and returns its last iterate.  At the endpoint exponents the objective is
    flat along ab = 1, so there the descent can stop anywhere near that curve
    (it hits the round limit at s = 0.1, 0.2 and 2).
    """

    def obj(la_, lb_):
        return _gaussian_bl_objective(data, math.exp(la_), math.exp(lb_))

    # coarse scan: detects objectives unbounded below along diagonal valleys
    # (degenerate infimum 0) and picks a sensible basin for the descent
    ladder = np.linspace(-log_bound, log_bound, 33)
    coarse = np.array([[obj(u, v) for v in ladder] for u in ladder])
    ring = np.zeros(coarse.shape, dtype=bool)
    ring[0, :] = ring[-1, :] = ring[:, 0] = ring[:, -1] = True
    interior_min = float(np.min(coarse[~ring]))
    if float(np.min(coarse[ring])) < interior_min - 1e-6:
        corner = np.argwhere(coarse == np.min(coarse))[0]
        return BLOptimum(
            value=LogQuad(NEG_INF, 0, tail_ratio=math.inf),
            a_diag=np.full(n, math.exp(ladder[corner[0]])),
            b_diag=np.full(n, math.exp(ladder[corner[1]])),
            degenerate=True,
        )
    # among near-minimal interior points, start closest to a = b = 1
    near = np.argwhere((coarse <= interior_min + 1e-6) & ~ring)
    iu, iv = min(near, key=lambda ij: abs(ladder[ij[0]]) + abs(ladder[ij[1]]))
    la, lb = float(ladder[iu]), float(ladder[iv])
    for _ in range(200):
        la_new = _golden_min(lambda u: obj(u, lb), -log_bound, log_bound, 1e-12)
        lb_new = _golden_min(lambda u: obj(la_new, u), -log_bound, log_bound, 1e-12)
        if abs(la_new - la) < 1e-10 and abs(lb_new - lb) < 1e-10:
            la, lb = la_new, lb_new
            break
        la, lb = la_new, lb_new
    else:
        warnings.warn(f"Brascamp-Lieb search at s = {data.s:g} did not converge in 200 rounds; "
                      "the result is the last iterate", RuntimeWarning, stacklevel=2)
    val = obj(la, lb)
    degenerate = (
        not math.isfinite(val)
        or abs(la) > log_bound - 0.5
        or abs(lb) > log_bound - 0.5
    )
    a = math.exp(la)
    b = math.exp(lb)
    if degenerate:
        return BLOptimum(
            value=LogQuad(NEG_INF, 0, tail_ratio=math.inf),
            a_diag=np.full(n, a),
            b_diag=np.full(n, b),
            degenerate=True,
        )
    return BLOptimum(
        value=LogQuad(log_abs=n * val, sign=1),
        a_diag=np.full(n, a),
        b_diag=np.full(n, b),
        degenerate=False,
    )
