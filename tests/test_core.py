import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volprod.core import (
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
        with pytest.raises(ValueError):
            LogDensity(g, phi)

    def test_neg_inf_rejected(self):
        g = make_grid(1, 1.0, 5)
        phi = np.zeros(5)
        phi[0] = -np.inf
        with pytest.raises(ValueError):
            LogDensity(g, phi)

    def test_all_inf_rejected(self):
        g = make_grid(1, 1.0, 5)
        with pytest.raises(ValueError):
            LogDensity(g, np.full(5, np.inf))

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
