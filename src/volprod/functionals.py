"""Scalar functionals: volume products, reverse-hypercontractivity norms,
Laplace-transform functionals, Q_s(t), inverse Brascamp-Lieb integrals with
their optimum over centered Gaussians in closed form, and the L^r-volume
product.

Endpoint exponents are always p = 1 - e^{-2s}, q = 1 - e^{2s}; note the exact
identity -q/p = e^{2s} used when assembling the tropical bridge.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    BodySpec,
    ExponentSchedule,
    GridSpec,
    LogDensity,
    LogQuad,
    NEG_INF,
    make_grid,
)
from .contract import Outer, contract, edge_dominated
from .heatflow import KernelUnderResolvedError, fp_evolve, ou_apply, ou_edge_flags
from .legendre import polar_density
from .quadrature import (
    GAUSSIAN,
    LEBESGUE,
    LOG_2PI,
    add_trapezoid_log_weights,
    log_integral,
    log_lq_norm,
    logsumexp_in_place,
)

# Laplace-transform grids are widened until q log F has dropped this many nats
LAPLACE_DECAY_NATS = 40.0
# a truncation flag counts only at nodes whose q-integrand is within this many
# nats of the largest unflagged one; farther nodes cannot move the integral
FLAG_WINDOW_NATS = 30.0


def _require_finite(**args) -> None:
    for name, value in args.items():
        if not np.isfinite(value).all():
            raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class BLData:
    """Two-function inverse Brascamp-Lieb data (exponents and kernel form)."""

    s: float
    p: float
    q: float
    qform: np.ndarray

    @property
    def c1(self) -> float:
        return 1.0 / self.p

    @property
    def c2(self) -> float:
        return (self.q - 1.0) / self.q  # 1/q'


@dataclass(frozen=True)
class RevHCReport:
    """Both sides of the reverse-hypercontractivity inequality, in logs."""

    log_lhs: LogQuad
    log_rhs: LogQuad
    slack: float


@dataclass(frozen=True)
class BLOptimum:
    value: LogQuad
    a_diag: np.ndarray
    b_diag: np.ndarray
    degenerate: bool


def volume_product(f: LogDensity, dual: GridSpec | None = None) -> LogQuad:
    """log v(f) = log int f + log int f(polar); tail_ratio from the polar integral."""
    li = log_integral(f, LEBESGUE)
    pol = polar_density(f, dual)
    lp = log_integral(pol, LEBESGUE)
    if li.sign == 0 or lp.sign == 0:
        return LogQuad(NEG_INF, 0)
    return LogQuad(log_abs=li.log_abs + lp.log_abs, sign=1, tail_ratio=lp.tail_ratio)


def nelson_q(s: float, p: float) -> float:
    """Borell's sharp threshold q(s, p) = 1 + e^{2s} (p - 1)."""
    if not s > 0:  # NaN fails too
        raise ValueError("s must be positive")
    if not p < 1:
        raise ValueError("p must be below 1")
    return 1.0 + math.exp(2 * s) * (p - 1.0)


def _ou_lift(f0: LogDensity, s: float, p: float) -> tuple[LogDensity, LogDensity]:
    """g = (f0/gamma)^{1/p} and P_s g."""
    g_phi = GAUSSIAN.add_log_weight(f0.phi.copy(), f0.grid)
    g_phi /= p  # -log[(f0/gamma)^{1/p}]
    g = LogDensity(grid=f0.grid, phi=g_phi)
    return g, ou_apply(g, s)


def _in_window(flags: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Flagged nodes whose log q-integrand w is within FLAG_WINDOW_NATS of the unflagged maximum."""
    unflagged = ~flags
    # a masked max, not a max over the gathered w[unflagged], a full-size copy
    ref = float(np.max(w, where=unflagged, initial=-np.inf)) if unflagged.any() else float(np.max(w))
    return flags & (w > ref - FLAG_WINDOW_NATS)


def _laplace_lq_norm(bigf: LogDensity, flags: np.ndarray, q: float) -> LogQuad:
    """``log_lq_norm(bigf, q)`` of a Laplace transform whose z-integral peaked
    on the grid edge at ``flags``. Its tail ratio is at least the share of
    flagged x-nodes within the window: only they can move the q-norm, and
    far-field nodes are 40 nats down by construction."""
    lq = log_lq_norm(bigf, q, LEBESGUE)
    share = float(np.mean(_in_window(flags, -q * bigf.phi)))
    return replace(lq, tail_ratio=max(lq.tail_ratio, share))


def rev_hc_value(f0: LogDensity, s: float, p: float | None = None, q: float | None = None) -> RevHCReport:
    """Both sides of ||P_s[(f0/gamma)^{1/p}]||_{L^q(gamma)} >= (int f0)^{1/p}."""
    sched = ExponentSchedule(s)
    p = sched.p if p is None else p
    q = sched.q if q is None else q
    if not (0 < p) or not (q < 0):
        raise ValueError("need 0 < p and q < 0")
    _require_finite(p=p, q=q)
    _, psg = _ou_lift(f0, s, p)
    lhs = log_lq_norm(psg, q, GAUSSIAN)
    mass = log_integral(f0, LEBESGUE)
    rhs = LogQuad(log_abs=mass.log_abs / p, sign=1, tail_ratio=mass.tail_ratio)
    return RevHCReport(log_lhs=lhs, log_rhs=rhs, slack=lhs.log_abs - rhs.log_abs)


def gaussian_rev_hc(beta: float, a, s: float, p: float, q: float) -> LogQuad:
    """Closed form of ||P_s[(gamma_beta(.+a)/gamma)^{1/p}]||_{L^q(gamma)}.

    Everything reduces to per-axis Gaussian quadratic-linear integrals.  Any
    q != 0 is allowed.  When the inner (semigroup) form degenerates P_s g is
    everywhere infinite and the norm is +inf for either sign of q.  When the
    outer form degenerates the q-integral diverges: the norm is +inf for
    q > 0 and collapses to zero for q < 0 (sign-0 sentinel, infinite
    tail_ratio marker).
    """
    # each check is written so that NaN fails it
    if not beta > 0:
        raise ValueError("beta must be positive")
    if not (s > 0 and p > 0 and (q < 0 or q > 0)):
        raise ValueError("need s > 0, p > 0, q != 0")
    shifts = np.atleast_1d(np.asarray(a, dtype=float))
    _require_finite(beta=beta, s=s, p=p, q=q, shifts=shifts)
    sig2 = -math.expm1(-2 * s)
    es = math.exp(-s)
    total = 0.0
    for ak in shifts:
        A = (0.5 - 0.5 / beta) / p
        B = -ak / (p * beta)
        D = (-ak * ak / (2 * beta) - 0.5 * math.log(beta)) / p
        ay = A - 1.0 / (2 * sig2)
        if ay >= 0:
            return LogQuad(log_abs=math.inf, sign=1)
        E = -es * es / (2 * sig2) - (es / sig2) ** 2 / (4 * ay)
        G = -B * es / (2 * sig2 * ay)
        H0 = 0.5 * math.log(math.pi / -ay) + D - 0.5 * math.log(2 * math.pi * sig2) - B * B / (4 * ay)
        ax = q * E - 0.5
        if ax >= 0:
            if q > 0:
                return LogQuad(log_abs=math.inf, sign=1)
            return LogQuad(log_abs=NEG_INF, sign=0, tail_ratio=math.inf)
        log_int = 0.5 * math.log(math.pi / -ax) - (q * G) ** 2 / (4 * ax) + q * H0 - 0.5 * LOG_2PI
        total += log_int / q
    return LogQuad(log_abs=total, sign=1)


def laplace_grid(f: LogDensity, q: float, scale: float) -> GridSpec:
    """x-grid wide enough that q log F has decayed LAPLACE_DECAY_NATS nats,
    with F = ``log_laplace``'s transform at ``scale``.

    Along each axis the half-width is the first rung of the ladder 4 * 1.5^j
    where q (log F(r e_k) - log F(0)) <= -LAPLACE_DECAY_NATS, or the first rung
    at or above 512, with a RuntimeWarning naming the axis, when none is.  For
    even f, log F is even and convex so its q-weighted maximum sits at 0.
    """
    n = f.grid.dim
    ladder = [4.0]
    while ladder[-1] < 512.0:
        ladder.append(ladder[-1] * 1.5)
    xs = np.array([0.0] + ladder[:-1])
    log_f = add_trapezoid_log_weights(-scale * f.phi, f.grid)
    hws = []
    for k in range(n):
        # log F at x = r e_k for every rung r at once (and at x = 0)
        kernels = [Outer(np.zeros(1), a) for a in f.grid.axes()]
        kernels[k] = Outer(scale * xs, f.grid.axis(k))
        log_lap = contract(log_f, kernels).ravel()
        hit = np.flatnonzero(q * (log_lap[1:] - log_lap[0]) <= -LAPLACE_DECAY_NATS)
        if not hit.size:
            warnings.warn(f"Laplace grid axis {k}: q log F falls less than {LAPLACE_DECAY_NATS:g} nats "
                          f"within the cap; half-width capped at {ladder[-1]:g}", RuntimeWarning, stacklevel=2)
        hws.append(ladder[hit[0]] if hit.size else ladder[-1])
    return make_grid(n, tuple(hws), f.grid.points)


def log_laplace(f: LogDensity, x_grid: GridSpec, scale: float = 1.0):
    """log of int e^{scale <x, z>} f(z)^scale dz on the whole x grid.

    Returns (log values, boundary-dominated flags); a flagged node means the
    z-integrand peaked on the z-boundary and the value is unreliable.
    """
    grid = f.grid
    base = -scale * f.phi
    kernels = [Outer(scale * x_grid.axis(k), grid.axis(k)) for k in range(grid.dim)]
    out = contract(add_trapezoid_log_weights(base.copy(), grid), kernels)
    return out, edge_dominated(base, kernels)


def laplace_f_t(f_t: LogDensity, s: float):
    """F_t(x) = Laplace[f_t^{1/p}](x/p) at endpoint p, as (LogDensity of F, flags)."""
    sched = ExponentSchedule(s)
    inv_p = 1.0 / sched.p
    x_grid = laplace_grid(f_t, sched.q, inv_p)
    log_f, flags = log_laplace(f_t, x_grid, inv_p)
    return LogDensity(grid=x_grid, phi=-log_f), flags


def q_functional(f0: LogDensity, s: float, times) -> list[tuple[float, float]]:
    """Q_s(t) = log int F_t^q dx along the flow; t = 0 uses f0 directly."""
    sched = ExponentSchedule(s)
    times = list(times)
    # NaN fails both checks, before any kernel is built or cached
    if any(not b > a for a, b in zip(times, times[1:])):
        raise ValueError("times must be ascending")
    if any(not t >= 0 for t in times):
        raise ValueError("times must be nonnegative")
    out = []
    for t in times:
        f_t = f0 if t == 0 else fp_evolve(f0, t)
        bigf, _ = laplace_f_t(f_t, s)
        lq = log_lq_norm(bigf, sched.q, LEBESGUE)
        out.append((t, sched.q * lq.log_abs))
    return out


def log_c_s(s: float, n: int) -> float:
    """log C_s = n log[(2 pi)^{(1/p + 1/q') / 2 - 1} / sqrt(1 - e^{-2s})]."""
    sched = ExponentSchedule(s)
    expo = 0.5 * (1.0 / sched.p + (sched.q - 1.0) / sched.q) - 1.0
    return n * (expo * LOG_2PI - 0.5 * math.log(sched.p))


def equiv_form_check(f_t: LogDensity, s: float) -> tuple[LogQuad, LogQuad]:
    """||P_s[(f_t/gamma)^{1/p}]||^q via the OU route versus C_s^q e^{ns} int F_t^q."""
    sched = ExponentSchedule(s)
    n = f_t.grid.dim
    report = rev_hc_value(f_t, s)
    lhs = LogQuad(log_abs=sched.q * report.log_lhs.log_abs, sign=1,
                  tail_ratio=report.log_lhs.tail_ratio)
    bigf, flags = laplace_f_t(f_t, s)
    lq = _laplace_lq_norm(bigf, flags, sched.q)
    rhs_log = sched.q * log_c_s(s, n) + n * s + sched.q * lq.log_abs
    rhs = LogQuad(log_abs=rhs_log, sign=1, tail_ratio=lq.tail_ratio)
    return lhs, rhs


def laplace_norm_ratio(f: LogDensity, p: float) -> LogQuad:
    """log ||Lf||_{L^q(dx)} - log ||f||_{L^p(dx)} with q = p' = p/(p-1) < 0."""
    if not (0 < p < 1):
        raise ValueError("p must lie in (0, 1)")
    q = p / (p - 1.0)
    x_grid = laplace_grid(f, q, 1.0)
    log_lf, flags = log_laplace(f, x_grid)
    num = _laplace_lq_norm(LogDensity(grid=x_grid, phi=-log_lf), flags, q)
    den = log_lq_norm(f, p, LEBESGUE)
    return LogQuad(log_abs=num.log_abs - den.log_abs, sign=1, tail_ratio=num.tail_ratio)


def bl_data(s: float, p: float | None = None, q: float | None = None) -> BLData:
    """Two-function inverse Brascamp-Lieb data: exponents and the 2n x 2n kernel form.

    The form is built with identity blocks; n = 1 unless a caller rescales.
    """
    sched = ExponentSchedule(s)
    p = sched.p if p is None else p
    q = sched.q if q is None else q
    if not (p < 0 or p > 0) or not (q < 0 or q > 0):  # NaN fails too
        raise ValueError(f"bl_data needs nonzero exponents, got p = {p!r}, q = {q!r}")
    _require_finite(p=p, q=q)
    e2s = math.exp(-2 * s)
    es = math.exp(-s)
    denom = 2 * math.pi * (1 - e2s)
    # expm1 makes both diagonal entries exactly 0 at the schedule's exponents
    a = (p + math.expm1(-2 * s)) / p
    b = e2s * (q + math.expm1(2 * s)) / q
    qf = np.array([[a, -es], [-es, b]]) / denom
    return BLData(s=s, p=p, q=q, qform=qf)


def bl_integral(f1: LogDensity, f2: LogDensity, data: BLData) -> LogQuad:
    """log of int e^{-pi <x, Q_s x>} f1(x1)^{c1} f2(x2)^{c2} dx over the grid pair."""
    if f1.grid.dim != f2.grid.dim:
        raise ValueError("dimension mismatch")
    n = f1.grid.dim
    q2 = data.qform

    def base(f, qkk, c):
        # (-pi Q_kk) |x|^2 - c phi plus the trapezoid weights, in one buffer
        b = f.grid.sq_norm()
        b *= -math.pi * qkk
        b -= c * f.phi
        return add_trapezoid_log_weights(b, f.grid)

    base1 = base(f1, q2[0, 0], data.c1)
    base2 = base(f2, q2[1, 1], data.c2)
    # the cross term couples each coordinate of x1 with the same coordinate of
    # x2, so x2 is integrated out axis by axis
    cross = -2 * math.pi * q2[0, 1]
    kernels = [Outer(cross * f1.grid.axis(k), f2.grid.axis(k)) for k in range(n)]
    base1 += contract(base2, kernels)
    total = logsumexp_in_place(base1)
    if total == NEG_INF:
        return LogQuad(NEG_INF, 0)
    return LogQuad(log_abs=float(total), sign=1)


def gaussian_bl_constant(data: BLData, n: int = 1) -> BLOptimum:
    """Infimum of the kernel integral over centered Gaussians with diagonal covariance.

    Coordinates decouple for identity-block data, so one problem in the
    variances (a, b) is solved in closed form and raised to the n-th power.
    With K = 2 pi Q = [[A, k], [k, B]], u = c1/a and v = c2/b, the
    per-coordinate objective is

        log 2 pi - 1/2 log((A + u)(B + v) - k^2) - c1/2 log 2 pi a - c2/2 log 2 pi b.

    - At the endpoint exponents A = B = 0 and c1 = c2, so the objective depends
      on ab alone and is least on the curve ab = 1; a = b = 1 is returned.
    - The infimum is 0 exactly when the objective falls without bound at
      infinity: A > 0, B > 0, A = 0 with c1 > c2, or B = 0 with c2 > c1.
      No minimiser exists, so a and b are NaN.
    - Otherwise the stationarity equations diag(M^{-1}) = (a, b), with
      M = K + diag(u, v), reduce to one quadratic in X = A + u, with
      Y = B + v = c1 k^2 / (A - (1 - c1) X).  Of its admissible roots
      (u, v > 0 and XY > k^2) the one with the least objective is returned.
      This needs k != 0, which ``bl_data`` always gives; a ValueError is
      raised when no root is admissible.

    The value is the objective at the returned (a, b).  ``oracles.bl_search``
    is the scan-and-golden-section reference (cf. Lieb, Invent. Math. 102,
    1990: Gaussian kernels have Gaussian extremisers).
    """
    if not (0 < data.p < 1 and data.q < 0):
        raise ValueError("need 0 < p < 1 and q < 0")
    if not (isinstance(n, numbers.Integral) and n >= 1):
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    c1, c2 = data.c1, data.c2
    (big_a, k), (_, big_b) = (2 * math.pi * data.qform).tolist()
    kk = k * k

    def objective(a: float, b: float) -> float:
        det = (big_a + c1 / a) * (big_b + c2 / b) - kk
        return LOG_2PI - 0.5 * (math.log(det) + c1 * math.log(2 * math.pi * a) + c2 * math.log(2 * math.pi * b))

    if big_a == 0 and big_b == 0:
        a = b = 1.0
    elif big_a > 0 or big_b > 0 or (big_a == 0 and c1 > c2) or (big_b == 0 and c2 > c1):
        return BLOptimum(value=LogQuad(NEG_INF, 0, tail_ratio=math.inf), a_diag=np.full(n, math.nan),
                         b_diag=np.full(n, math.nan), degenerate=True)
    else:
        # B(1 - c1) X^2 + [(1 - c2) c1 k^2 - AB - (1 - c1) c2 k^2] X + c2 k^2 A = 0
        coeffs = [big_b * (1 - c1), (1 - c2) * c1 * kk - big_a * big_b - (1 - c1) * c2 * kk, c2 * kk * big_a]
        found = []
        for x in (float(r.real) for r in np.roots(coeffs) if r.imag == 0):
            den = big_a - (1 - c1) * x
            if x > big_a and den:
                y = c1 * kk / den
                if y > big_b and x * y > kk:
                    found.append((c1 / (x - big_a), c2 / (y - big_b)))
        if not found:
            raise ValueError(f"no admissible Brascamp-Lieb stationary point at s = {data.s:g}, "
                             f"p = {data.p:g}, q = {data.q:g}")
        a, b = min(found, key=lambda ab: objective(*ab))
    return BLOptimum(value=LogQuad(log_abs=n * objective(a, b), sign=1), a_diag=np.full(n, a),
                     b_diag=np.full(n, b), degenerate=False)


def lr_volume_product(
    body: BodySpec,
    r: float,
    outer_grid: GridSpec | None = None,
    inner_cells: int = 64,
) -> LogQuad:
    """M_r(K) = |K| int ( int_K e^{r<x,y>} dy / |K| )^{-1/r} dx on tensor grids.

    |K| uses midpoint cell counting (a cell counts when its center's gauge is
    at most 1); the outer integral is truncated where its integrand has decayed.
    """
    if not 0 < r < math.inf:  # NaN fails too
        raise ValueError(f"r must be positive and finite, got {r}")
    if not (isinstance(inner_cells, numbers.Integral) and inner_cells >= 1):
        raise ValueError(f"inner_cells must be a positive integer, got {inner_cells!r}")
    n = body.dim
    if n > 2:
        raise ValueError("L^r-volume product supported for n <= 2")
    # bounding half-width of K
    if body.kind == "lp_ball":
        bound = body.radius
    else:
        bound = math.sqrt(np.linalg.eigvalsh(body.matrix).max())
    hc = 2 * bound / inner_cells
    centers_1d = -bound + (np.arange(inner_cells) + 0.5) * hc
    cmesh = np.meshgrid(*([centers_1d] * n), indexing="ij")
    inside = body.gauge(np.stack(cmesh, axis=-1)) <= 1.0
    log_cell = n * math.log(hc)
    log_vol = math.log(inside.sum()) + log_cell
    if outer_grid is None:
        # inradius of our symmetric bodies bounds the integrand decay rate
        probe = np.eye(n)
        inradius = float(min(1.0 / body.gauge(probe[k]) for k in range(n)))
        hw = LAPLACE_DECAY_NATS / inradius + 2.0
        outer_grid = make_grid(n, hw, 129)
    # K enters as a 0 / -inf mask on the cell centers; the kernel r <x, y> splits by axis
    kernels = [Outer(r * outer_grid.axis(k), centers_1d) for k in range(n)]
    inner_logmean = contract(np.where(inside, 0.0, NEG_INF), kernels) + log_cell - log_vol
    integrand = -inner_logmean / r
    outer = log_integral(LogDensity(outer_grid, -integrand))
    return LogQuad(log_abs=log_vol + outer.log_abs, sign=1, tail_ratio=outer.tail_ratio)


def tropical_limit_curve(f: LogDensity, s_list) -> tuple[list[tuple[float, float]], bool]:
    """The bridge c_s (int f)^{-q/p} ||P_s[(f/gamma)^{1/p}]||^q per s, OU route.

    c_s = (2 pi)^n: assembled from C_s and the dual-route identity so that
    centered Gaussians sit exactly at v(gamma) = (2 pi)^n for every s.  The
    curve approaches v(f) as s decreases.  ``truncated`` is set in two cases:

    - a kernel too narrow for the grid (``KernelUnderResolvedError``) ends the
      list at the last resolved s;
    - the OU integral over z peaks on the grid edge (``ou_edge_flags``) at an
      x-node whose q-integrand (P_s g)^q gamma is within FLAG_WINDOW_NATS of
      the largest unflagged one.  The cut integral lies below P_s g, so with
      q < 0 the bridge comes out too high; every point is kept.
    """
    s_list = list(s_list)
    if any(not b < a for a, b in zip(s_list, s_list[1:])):  # NaN fails too
        raise ValueError("s_list must be strictly descending")
    n = f.grid.dim
    mass = log_integral(f, LEBESGUE)
    out = []
    truncated = False
    for s in s_list:
        sched = ExponentSchedule(s)
        try:
            g, psg = _ou_lift(f, s, sched.p)
        except KernelUnderResolvedError:
            truncated = True
            break
        log_bridge = (
            n * LOG_2PI
            + math.exp(2 * s) * mass.log_abs
            + sched.q * log_lq_norm(psg, sched.q, GAUSSIAN).log_abs
        )
        out.append((s, math.exp(log_bridge)))
        flags = ou_edge_flags(g, s)  # before w, so that w is not live through them
        w = GAUSSIAN.add_log_weight(-sched.q * psg.phi, f.grid)
        truncated |= bool(_in_window(flags, w).any())
    return out, truncated

