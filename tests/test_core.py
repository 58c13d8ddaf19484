import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volprod.core import (
    NEG_INF,
    BodySpec,
    ExponentSchedule,
    GaussianSpec,
    GridSpec,
    LogDensity,
    LogQuad,
    body_to_logdensity,
    check_even,
    ellipsoid,
    gaussian_to_logdensity,
    isotropic_gaussian,
    lp_ball,
    make_grid,
    reflect,
)
from volprod.densities import box, cross2d, exp_power, two_bump
from volprod.quadrature import GAUSSIAN, LOG_2PI

# the acceptance grids: 1D 513, 2D 129^2, 3D 33^3 and 65^3
ACCEPTANCE = {
    "1d-513": make_grid(1, 8.0, 513),
    "2d-129": make_grid(2, 6.0, 129),
    "3d-33": make_grid(3, 6.0, 33),
    "3d-65": make_grid(3, 6.0, 65),
}
# the acceptance grids have dyadic spacings, where sums of squares round alike
# in any order; these two do not
GRIDS = {
    **ACCEPTANCE,
    "2d-33x21": make_grid(2, (5.0, 3.0), (33, 21)),
    "3d-17x19x21": make_grid(3, (4.0, 5.0, 3.5), (17, 19, 21)),
}
COVARIANCES = {
    "iso-0.5": lambda n: 0.5 * np.eye(n),
    "iso-1": lambda n: np.eye(n),
    "iso-2": lambda n: 2.0 * np.eye(n),
    "diag": lambda n: np.diag([0.5, 1.5, 2.5][:n]),
    "off": lambda n: np.array([[1.0, 0.3, -0.2], [0.3, 0.8, 0.1], [-0.2, 0.1, 1.5]])[:n, :n],
}


class TestGridSpec:
    def test_axis_exactly_symmetric(self):
        g = make_grid(1, 8.0, 513)
        x = g.axis(0)
        assert x[0] == -8.0 and x[-1] == 8.0
        assert x[256] == 0.0
        # bitwise symmetry, not just approximate
        assert np.all(x + x[::-1] == 0.0)

    def test_spacings(self):
        g = make_grid(2, (6.0, 3.0), (129, 65))
        assert g.spacings == (12.0 / 128, 6.0 / 64)

    @pytest.mark.parametrize("g", [make_grid(1, 8.0, 513), make_grid(3, (4.0, 5.0, 3.5), (17, 19, 21))],
                             ids=["1d", "3d"])
    def test_axes_built_once_and_read_only(self, g):
        for k, (r, n) in enumerate(zip(g.half_widths, g.points)):
            m = (n - 1) // 2
            assert g.axis(k).tobytes() == ((np.arange(n) - m) * (r / m)).tobytes()
            assert g.axis(k) is g.axis(k) is g.axes()[k]
            with pytest.raises(ValueError):
                g.axis(k)[0] = 1.0
        assert g == make_grid(g.dim, g.half_widths, g.points)

    def test_nodes_shape(self):
        g = make_grid(2, 1.0, 5)
        assert g.nodes().shape == (25, 2)

    @pytest.mark.parametrize("points", [2, 4, 512])
    def test_even_points_rejected(self, points):
        with pytest.raises(ValueError):
            make_grid(1, 1.0, points)

    def test_bad_dim_rejected(self):
        with pytest.raises(ValueError):
            make_grid(4, 1.0, 5)

    def test_nonpositive_half_width_rejected(self):
        with pytest.raises(ValueError):
            make_grid(1, 0.0, 5)


class TestLogDensity:
    def test_shape_mismatch(self):
        g = make_grid(1, 1.0, 5)
        with pytest.raises(ValueError):
            LogDensity(g, np.zeros(7))

    def test_nan_rejected(self):
        g = make_grid(1, 1.0, 5)
        phi = np.zeros(5)
        phi[2] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            LogDensity(g, phi)

    def test_neg_inf_rejected(self):
        g = make_grid(1, 1.0, 5)
        phi = np.zeros(5)
        phi[0] = -np.inf
        with pytest.raises(ValueError, match="-inf"):
            LogDensity(g, phi)

    def test_all_inf_rejected(self):
        g = make_grid(1, 1.0, 5)
        with pytest.raises(ValueError, match="all-inf"):
            LogDensity(g, np.full(5, np.inf))

    @pytest.mark.parametrize(
        "entries, message",
        [
            ({0: NEG_INF, 2: np.nan}, "NaN"),
            ({0: np.nan, 1: np.inf, 2: NEG_INF}, "NaN"),
            ({0: np.inf, 1: NEG_INF}, "-inf"),
        ],
        ids=["nan-and-neg-inf", "nan-inf-and-neg-inf", "inf-and-neg-inf"],
    )
    def test_mixed_invalid_entries(self, entries, message):
        # NaN is named first, then -inf, then an all +inf phi
        phi = np.zeros(5)
        for k, v in entries.items():
            phi[k] = v
        with pytest.raises(ValueError, match=re.escape(message)):
            LogDensity(make_grid(1, 1.0, 5), phi)

    def test_inf_sentinel_allowed(self):
        g = make_grid(1, 1.0, 5)
        phi = np.array([np.inf, 0.0, 0.0, 0.0, np.inf])
        f = LogDensity(g, phi)
        assert f.log_values()[0] == -np.inf


class TestExponentSchedule:
    def test_endpoint_values(self):
        s = 0.5 * math.log(2)
        sched = ExponentSchedule(s)
        assert sched.p == pytest.approx(0.5)
        assert sched.q == pytest.approx(-1.0)

    @given(st.floats(min_value=1e-3, max_value=5.0))
    @settings(max_examples=30)
    def test_holder_conjugacy(self, s):
        sched = ExponentSchedule(s)
        # 1/p + 1/q = 1 exactly for the endpoint pair
        assert 1.0 / sched.p + 1.0 / sched.q == pytest.approx(1.0, abs=1e-12)
        # -q/p = e^{2s} is exact in this parametrization
        assert -sched.q / sched.p == pytest.approx(math.exp(2 * s), rel=1e-13)

    def test_nonpositive_s_rejected(self):
        with pytest.raises(ValueError):
            ExponentSchedule(0.0)

    def test_nan_s_rejected(self):
        with pytest.raises(ValueError, match="s must be positive"):
            ExponentSchedule(math.nan)


class TestGaussian:
    def test_unit_mass_density_value_at_origin(self):
        g = make_grid(1, 8.0, 513)
        f = gaussian_to_logdensity(isotropic_gaussian(1.0), g)
        assert f.phi[256] == pytest.approx(0.5 * math.log(2 * math.pi))

    def test_mass_scaling(self):
        g = make_grid(1, 8.0, 65)
        f1 = gaussian_to_logdensity(isotropic_gaussian(1.0, mass=2.0), g)
        f2 = gaussian_to_logdensity(isotropic_gaussian(1.0, mass=1.0), g)
        assert np.allclose(f2.phi - f1.phi, math.log(2.0))

    def test_non_spd_covariance_rejected(self):
        with pytest.raises(ValueError):
            GaussianSpec(1.0, np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_asymmetric_covariance_rejected(self):
        with pytest.raises(ValueError):
            GaussianSpec(1.0, np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_nan_mass_rejected(self):
        with pytest.raises(ValueError, match="mass must be positive"):
            isotropic_gaussian(1.0, 1, mass=math.nan)

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_covariance_rejected(self, bad):
        with pytest.raises(ValueError, match="covariance must be finite"):
            GaussianSpec(1.0, np.array([[1.0, 0.0], [0.0, bad]]))


class TestBodySpec:
    def test_linf_gauge(self):
        cube = lp_ball(math.inf, 2)
        assert cube.gauge(np.array([0.5, -0.9])) == pytest.approx(0.9)

    def test_l1_gauge(self):
        diamond = lp_ball(1.0, 2)
        assert diamond.gauge(np.array([0.5, 0.25])) == pytest.approx(0.75)

    def test_radius(self):
        disk = lp_ball(2.0, 2, radius=2.0)
        assert disk.gauge(np.array([2.0, 0.0])) == pytest.approx(1.0)

    def test_ellipsoid_gauge(self):
        e = ellipsoid(np.diag([4.0, 1.0]))
        assert e.gauge(np.array([2.0, 0.0])) == pytest.approx(1.0)

    def test_body_density_even(self):
        g = make_grid(2, 2.0, 17)
        f = body_to_logdensity(lp_ball(2.0, 2), g)
        assert check_even(f)

    def test_exponent_below_one_rejected(self):
        with pytest.raises(ValueError):
            lp_ball(0.5, 2)

    def test_nan_exponent_rejected(self):
        with pytest.raises(ValueError, match="exponent r >= 1"):
            lp_ball(math.nan, 2)

    def test_nan_radius_rejected(self):
        with pytest.raises(ValueError, match="radius must be positive"):
            lp_ball(2.0, 2, radius=math.nan)

    @pytest.mark.parametrize("radius", [math.inf, 0.0, -1.0])
    def test_radius_not_positive_and_finite_rejected(self, radius):
        """An infinite radius gave an all-zero body density and a math domain
        error inside the L^r cell count; it is refused by name."""
        with pytest.raises(ValueError, match="radius must be positive and finite"):
            lp_ball(2.0, 2, radius=radius)

    @pytest.mark.parametrize("dim", [0, -1, 1.5, 2.0], ids=["0", "-1", "1.5", "2.0"])
    def test_dim_not_an_integer_of_at_least_one_rejected(self, dim):
        with pytest.raises(ValueError, match="dim must be an integer >= 1"):
            lp_ball(2.0, dim)

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_ellipsoid_rejected(self, bad):
        with pytest.raises(ValueError, match="ellipsoid matrix must be finite"):
            ellipsoid([[bad]])


class TestLogQuad:
    def test_value_roundtrip(self):
        lq = LogQuad(log_abs=math.log(3.0), sign=1)
        assert lq.value() == pytest.approx(3.0)

    def test_zero_sentinel(self):
        lq = LogQuad(log_abs=-np.inf, sign=0)
        assert lq.value() == 0.0

    def test_sign_zero_requires_inf(self):
        with pytest.raises(ValueError):
            LogQuad(log_abs=1.0, sign=0)

    @pytest.mark.parametrize("log_abs", [math.inf, math.nan])
    def test_sign_zero_rejects_other_than_minus_inf(self, log_abs):
        """A sign-0 quad is the zero sentinel, -inf alone: +inf would build a
        quad whose value() reads 0.0."""
        with pytest.raises(ValueError, match="sign 0 requires -inf log_abs"):
            LogQuad(log_abs=log_abs, sign=0)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_nan_log_abs_rejected(self, sign):
        with pytest.raises(ValueError, match="log_abs must not be NaN"):
            LogQuad(log_abs=math.nan, sign=sign)

    def test_nan_tail_ratio_rejected(self):
        """A NaN truncation marker would read as unflagged."""
        with pytest.raises(ValueError, match="tail_ratio must be nonnegative"):
            LogQuad(0.0, 1, tail_ratio=math.nan)

    def test_flagged_property(self):
        assert LogQuad(0.0, 1, tail_ratio=1e-6).flagged
        assert not LogQuad(0.0, 1, tail_ratio=1e-12).flagged


class TestEvenness:
    def test_reflect_involution(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(5, 7))
        assert np.array_equal(reflect(reflect(a)), a)

    def test_check_even_with_inf(self):
        g = make_grid(1, 1.0, 5)
        phi = np.array([np.inf, 1.0, 0.0, 1.0, np.inf])
        assert check_even(LogDensity(g, phi))
        phi2 = np.array([np.inf, 1.0, 0.0, 1.0, 0.0])
        assert not check_even(LogDensity(g, phi2))


def _mesh_gaussian(cov, mass, grid):
    """The Gaussian's phi as a sum over the meshgrid of every (i, j) term."""
    inv = np.linalg.inv(cov)
    logdet = np.linalg.slogdet(2 * math.pi * cov)[1]
    mesh = grid.meshgrid()
    quad = sum((mesh[i] * inv[i, j]) * mesh[j] for i in range(grid.dim) for j in range(grid.dim))
    return 0.5 * quad + 0.5 * logdet - math.log(mass)


class TestDensityParameters:
    """Each family refuses a parameter that is not positive and finite by
    name, before any grid work; at such values it used to give a constant
    density (alpha = 0), a divide-by-zero warning (alpha < 0) or a bare math
    domain error (height = 0, var = 0)."""

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf], ids=["0", "-1", "nan", "inf"])
    @pytest.mark.parametrize(
        "family, grid, name",
        [(exp_power, GRIDS["1d-513"], "alpha"), (exp_power, GRIDS["1d-513"], "scale"),
         (box, GRIDS["1d-513"], "half"), (box, GRIDS["1d-513"], "height"),
         (two_bump, GRIDS["1d-513"], "var"), (two_bump, GRIDS["1d-513"], "center"),
         (cross2d, GRIDS["2d-129"], "long"), (cross2d, GRIDS["2d-129"], "short")],
        ids=["exp_power-alpha", "exp_power-scale", "box-half", "box-height", "two_bump-var", "two_bump-center",
             "cross2d-long", "cross2d-short"],
    )
    def test_bad_parameter_rejected_by_name(self, monkeypatch, family, grid, name, bad):
        for method in ("axis", "open_axes", "sq_norm"):
            monkeypatch.setattr(GridSpec, method, lambda *args: pytest.fail("grid work before the check"))
        params = {"alpha": 1.5} if family is exp_power else {}
        params[name] = bad
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
            family(grid, **params)


class TestPerAxisBuilders:
    """Every per-axis builder gives the bytes of its meshgrid form."""

    @pytest.mark.parametrize(
        "grid, cov",
        [pytest.param(g, c, id=f"{gid}-{c}") for gid, g in GRIDS.items() for c in COVARIANCES
         if g.dim > 1 or c != "off"],
    )
    def test_gaussian(self, grid, cov):
        a = COVARIANCES[cov](grid.dim)
        for mass in (1.0, 0.5):
            got = gaussian_to_logdensity(GaussianSpec(mass, a), grid).phi
            assert got.tobytes() == _mesh_gaussian(a, mass, grid).tobytes()

    @pytest.mark.parametrize("grid", list(GRIDS.values()), ids=list(GRIDS))
    def test_exp_power(self, grid):
        r = np.sqrt(sum(m * m for m in grid.meshgrid()))
        for alpha in (1.0, 1.5, 2.0, 3, 4.0):
            for scale in (1.0, 2.5):
                want = r**alpha - math.log(scale)
                assert exp_power(grid, alpha, scale).phi.tobytes() == want.tobytes()

    @pytest.mark.parametrize("grid", list(GRIDS.values()), ids=list(GRIDS))
    def test_box(self, grid):
        mesh = grid.meshgrid()
        for half, height in ((1.0, 1.0), (2.0, 0.3)):
            inside = np.logical_and.reduce([np.abs(m) <= half + 1e-12 for m in mesh])
            want = np.where(inside, -math.log(height), np.inf)
            assert box(grid, half, height).phi.tobytes() == want.tobytes()

    @pytest.mark.parametrize("grid", [GRIDS["2d-129"], GRIDS["2d-33x21"]], ids=["2d-129", "2d-33x21"])
    def test_cross2d(self, grid):
        x, y = grid.meshgrid()
        for long, short in ((2.0, 0.5), (3.0, 1.0)):
            arms = ((np.abs(x) <= long) & (np.abs(y) <= short)) | ((np.abs(x) <= short) & (np.abs(y) <= long))
            want = np.where(arms, 0.0, np.inf)
            assert cross2d(grid, long, short).phi.tobytes() == want.tobytes()

    @pytest.mark.parametrize("grid", list(GRIDS.values()), ids=list(GRIDS))
    def test_body(self, grid):
        points = np.stack(grid.meshgrid(), axis=-1)
        bodies = [lp_ball(r, grid.dim, radius) for r in (1.0, 2.0, 3.5, math.inf) for radius in (1.0, 0.7)]
        bodies.append(ellipsoid(COVARIANCES["diag"](grid.dim)))
        if grid.dim > 1:
            bodies.append(ellipsoid(COVARIANCES["off"](grid.dim)))
        for body in bodies:
            want = 0.5 * body.gauge(points) ** 2
            assert body_to_logdensity(body, grid).phi.tobytes() == want.tobytes(), (body.kind, body.exponent)

    @pytest.mark.parametrize("grid", list(GRIDS.values()), ids=list(GRIDS))
    def test_squared_norm_and_gaussian_weight(self, grid):
        sq = sum(m * m for m in grid.meshgrid())
        assert grid.sq_norm().tobytes() == sq.tobytes()
        want = -0.5 * sq - 0.5 * grid.dim * LOG_2PI
        assert GAUSSIAN.add_log_weight(np.zeros(grid.points), grid).tobytes() == want.tobytes()
