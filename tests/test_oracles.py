import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad

import volprod

from volprod.core import LogDensity, gaussian_to_logdensity, isotropic_gaussian, make_grid
from volprod.densities import box, exp_power, gaussian
from volprod.functionals import bl_data
from volprod.heatflow import fp_evolve
from volprod.legendre import default_dual_grid, legendre_transform
from volprod.oracles import (
    QuadraticForm,
    bl_search,
    cramer_rao_check,
    exp_abs_bridge,
    fd_derivative,
    gaussian_closed_forms,
    gaussian_form_integral,
    hull_legendre,
    ou_second_moment,
    pbl_check,
)
from volprod.quadrature import log_integral


class TestGaussianFormIntegral:
    def test_standard_2d(self):
        v = gaussian_form_integral(QuadraticForm(np.eye(2)))
        assert v.value() == pytest.approx(2 * math.pi, rel=1e-14)

    def test_indefinite_divergent(self):
        v = gaussian_form_integral(QuadraticForm(np.diag([1.0, -1.0])))
        assert math.isinf(v.log_abs) and v.log_abs > 0

    def test_complete_the_square(self):
        # int e^{-x^2 + x} dx = sqrt(pi) e^{1/4}
        v = gaussian_form_integral(QuadraticForm([[2.0]], linear=[1.0]))
        assert v.value() == pytest.approx(math.sqrt(math.pi) * math.exp(0.25), rel=1e-14)

    def test_orthogonal_invariance(self):
        rng = np.random.default_rng(11)
        m = np.diag([0.5, 3.0, 1.2])
        a = rng.normal(size=(3, 3))
        u, _ = np.linalg.qr(a)
        v1 = gaussian_form_integral(QuadraticForm(m, linear=[0.1, -0.2, 0.3]))
        v2 = gaussian_form_integral(QuadraticForm(u @ m @ u.T, linear=u @ np.array([0.1, -0.2, 0.3])))
        assert v1.log_abs == pytest.approx(v2.log_abs, abs=1e-10)

    def test_constant_shift(self):
        v0 = gaussian_form_integral(QuadraticForm([[1.0]]))
        v1 = gaussian_form_integral(QuadraticForm([[1.0]], constant=2.0))
        assert v0.log_abs - v1.log_abs == pytest.approx(2.0, abs=1e-14)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            QuadraticForm([[1.0, 0.5], [0.0, 1.0]])


class TestHullLegendre:
    def test_513_gaussian_matches_engine(self):
        g = make_grid(1, 8.0, 513)
        dual = make_grid(1, 8.0, 513)
        f = gaussian(g)
        assert np.array_equal(hull_legendre(f, dual).phi, legendre_transform(f, dual).phi)

    def test_single_point_affine(self):
        g = make_grid(1, 2.0, 5)
        phi = np.full(5, np.inf)
        phi[3] = 0.7
        f = LogDensity(g, phi)
        dual = make_grid(1, 3.0, 7)
        out = hull_legendre(f, dual)
        assert np.array_equal(out.phi, dual.axis(0) * 1.0 - 0.7)

    def test_matches_fast_path(self):
        g = make_grid(1, 4.0, 65)
        f = exp_power(g, 3.0)
        dual = default_dual_grid(f, 65)
        assert np.array_equal(hull_legendre(f, dual).phi, legendre_transform(f, dual).phi)


class TestPbl:
    def test_gamma_linear_saturates(self):
        # Var_gamma(x) = 1 = int |grad x|^2 (hess phi)^{-1} dgamma
        g = make_grid(1, 8.0, 513)
        f = gaussian(g)
        var, dirichlet = pbl_check(f, g.axis(0))
        assert var == pytest.approx(1.0, rel=1e-6)
        assert dirichlet == pytest.approx(1.0, rel=1e-6)
        assert var <= dirichlet * (1 + 1e-9)

    def test_strict_inequality_quartic(self):
        g = make_grid(1, 6.0, 513)
        f = LogDensity(g, g.axis(0) ** 4 + g.axis(0) ** 2, even=True)
        var, dirichlet = pbl_check(f, np.sin(g.axis(0)))
        assert var <= dirichlet + 1e-10

    def test_gamma_quadratic_test_function(self):
        # Var_gamma(x^2) = 2, Dirichlet side = int 4 x^2 dgamma = 4
        g = make_grid(1, 8.0, 513)
        var, dirichlet = pbl_check(gaussian(g), g.axis(0) ** 2)
        assert var == pytest.approx(2.0, rel=1e-5)
        assert dirichlet == pytest.approx(4.0, rel=1e-5)

    def test_shape_mismatch_rejected(self):
        g = make_grid(1, 8.0, 65)
        with pytest.raises(ValueError):
            pbl_check(gaussian(g), np.zeros(7))

    def test_non_logconcave_rejected(self):
        g = make_grid(1, 4.0, 129)
        f = LogDensity(g, -0.5 * g.axis(0) ** 2, even=True)
        with pytest.raises(ValueError):
            pbl_check(f, g.axis(0))


class TestCramerRao:
    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    def test_gamma_equality(self, beta):
        g = make_grid(1, 8.0, 513)
        inv_cov, int_hess = cramer_rao_check(gaussian(g, beta=beta))
        assert inv_cov[0, 0] == pytest.approx(1.0 / beta, rel=1e-6)
        assert int_hess[0, 0] == pytest.approx(1.0 / beta, rel=1e-6)

    def test_quartic_psd(self):
        g = make_grid(1, 6.0, 513)
        f = LogDensity(g, g.axis(0) ** 4 + 0.5 * g.axis(0) ** 2, even=True)
        inv_cov, int_hess = cramer_rao_check(f)
        assert np.linalg.eigvalsh(int_hess - inv_cov).min() >= -1e-8

    def test_tilted_evolved_box(self):
        g = make_grid(1, 8.0, 513)
        ft = fp_evolve(box(g), 0.4)
        inv_cov, int_hess = cramer_rao_check(ft, tilt=(0.6, np.array([0.8])))
        assert np.linalg.eigvalsh(int_hess - inv_cov).min() >= -1e-6

    def test_2d_gamma(self):
        g = make_grid(2, 6.0, 129)
        inv_cov, int_hess = cramer_rao_check(gaussian(g))
        assert np.max(np.abs(inv_cov - np.eye(2))) <= 1e-4
        assert np.linalg.eigvalsh(int_hess - inv_cov).min() >= -1e-6

    def test_randomized_logconcave(self):
        rng = np.random.default_rng(7)
        g = make_grid(1, 8.0, 513)
        x = g.axis(0)
        for _ in range(20):
            a = rng.uniform(0.3, 2.0)
            b = rng.uniform(0.0, 0.5)
            c = rng.uniform(0.0, 0.3)
            phi = 0.5 * a * x**2 + b * x**4 + c * np.log(np.cosh(x))
            inv_cov, int_hess = cramer_rao_check(LogDensity(g, phi, even=True))
            assert np.linalg.eigvalsh(int_hess - inv_cov).min() >= -1e-6


class TestFdDerivative:
    def test_quadratic_exact(self):
        samples = [(t, t**2) for t in (0.4, 0.5, 0.6)]
        assert fd_derivative(samples, 0.5) == pytest.approx(1.0, abs=1e-12)

    def test_constant_zero(self):
        samples = [(t, 3.0) for t in (0.1, 0.2, 0.3)]
        assert fd_derivative(samples, 0.2) == 0.0

    def test_exponential(self):
        h = 1e-4
        samples = [(t, math.exp(t)) for t in (1 - h, 1.0, 1 + h)]
        assert fd_derivative(samples, 1.0) == pytest.approx(math.e, rel=1e-7)

    def test_unequal_spacing_rejected(self):
        with pytest.raises(ValueError):
            fd_derivative([(0.0, 0.0), (0.1, 0.1), (0.3, 0.3)], 0.1)

    def test_missing_sample_rejected(self):
        with pytest.raises(ValueError):
            fd_derivative([(0.0, 0.0), (0.1, 0.1), (0.2, 0.2)], 0.15)

    def test_endpoint_rejected(self):
        with pytest.raises(ValueError):
            fd_derivative([(0.0, 0.0), (0.1, 0.1), (0.2, 0.2)], 0.0)


class TestClosedForms:
    def test_v_gamma(self):
        assert gaussian_closed_forms("v_gamma", n=2).value() == pytest.approx(
            (2 * math.pi) ** 2
        )

    def test_variance_law_limits(self):
        assert gaussian_closed_forms("fp_variance_law", beta=1.0, t=0.7).value() == pytest.approx(
            1.0
        )
        v = gaussian_closed_forms("fp_variance_law", beta=5.0, t=10.0).value()
        assert v == pytest.approx(1.0, abs=1e-8)

    def test_laplace_gamma_ratio_vs_quadrature(self):
        # cross-validate the closed form against direct grid quadrature
        from volprod.functionals import laplace_norm_ratio

        target = gaussian_closed_forms("laplace_gamma_ratio", p=0.5).value()
        g = make_grid(1, 8.0, 513)
        assert laplace_norm_ratio(gaussian(g), 0.5).value() == pytest.approx(target, rel=5e-3)

    def test_laplace_gamma_ratio_domain(self):
        with pytest.raises(ValueError):
            gaussian_closed_forms("laplace_gamma_ratio", p=1.5)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            gaussian_closed_forms("zeta_regularized_volume")


def _bridge_by_quadrature(s: float) -> float:
    """2 pi (int f)^{-q/p} int (P_s g)^q dgamma for f = e^{-|x|}, by nested quad.

    P_s g(x) = int g(z) N(e^{-s} x, p)(dz) with g = (f/gamma)^{1/p}, integrated
    as written. For |x| >= e^s that z-integrand grows, so P_s g = +inf and
    (P_s g)^q = 0 there: the x-integral runs over (-e^s, e^s).
    """
    p = -math.expm1(-2 * s)
    q = -math.expm1(2 * s)
    log_2pi = math.log(2 * math.pi)

    def psg(x):
        def integrand(z):
            log_g = (0.5 * z * z - abs(z) + 0.5 * log_2pi) / p
            log_k = -((z - math.exp(-s) * x) ** 2) / (2 * p) - 0.5 * math.log(2 * math.pi * p)
            return math.exp(log_g + log_k)

        opts = dict(epsabs=0.0, epsrel=1e-10, limit=200)
        return quad(integrand, -math.inf, 0.0, **opts)[0] + quad(integrand, 0.0, math.inf, **opts)[0]

    with warnings.catch_warnings():
        # near |x| = e^s the z-integrand decays arbitrarily slowly and quad
        # reports round-off at its requested tolerance; the result is checked
        # against the closed form below, not trusted on quad's word
        warnings.simplefilter("ignore", IntegrationWarning)
        half = quad(lambda x: psg(x) ** q * math.exp(-0.5 * x * x - 0.5 * log_2pi),
                    0.0, math.exp(s), epsabs=0.0, epsrel=1e-10, limit=200)[0]
    return 2 * math.pi * 2.0 ** (-q / p) * 2 * half


class TestExpAbsBridge:
    @pytest.mark.parametrize("s", [0.4, 0.1])
    def test_matches_quadrature_of_definition(self, s):
        assert exp_abs_bridge(s).value() == pytest.approx(_bridge_by_quadrature(s), rel=1e-9)

    def test_tends_to_volume_product(self):
        # v(e^{-|x|}) = int e^{-|x|} * int e^{-|x|}(polar) = 2 * 2
        assert exp_abs_bridge(1e-3).value() == pytest.approx(4.0241, abs=1e-4)
        assert exp_abs_bridge(1e-9).value() == pytest.approx(4.0, rel=1e-7)

    def test_s_must_be_positive(self):
        with pytest.raises(ValueError):
            exp_abs_bridge(0.0)


class TestOuSecondMoment:
    @pytest.mark.parametrize("beta,t", [(0.5, 0.3), (2.0, 1.0), (1.0, 0.0)])
    def test_matches_closed_form(self, beta, t):
        law = gaussian_closed_forms("fp_variance_law", beta=beta, t=t).value()
        assert ou_second_moment(beta, t) == pytest.approx(law, abs=1e-9)

    def test_matches_grid_flow(self):
        g = make_grid(1, 8.0, 513)
        ft = fp_evolve(gaussian(g, beta=0.7), 0.5)
        w = np.exp(-ft.phi)
        x = g.axis(0)
        var = float((w * x * x).sum() / w.sum())
        assert var == pytest.approx(ou_second_moment(0.7, 0.5), abs=1e-5)


class TestBLSearch:
    def test_search_cap_warns(self):
        # the endpoint objective is flat along ab = 1, so the descent wanders
        with pytest.warns(RuntimeWarning, match="s = 0.1 did not converge"):
            opt = bl_search(bl_data(0.1))
        assert not opt.degenerate
        assert float(opt.a_diag[0] * opt.b_diag[0]) == pytest.approx(1.0, abs=1e-6)

    def test_converged_search_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            opt = bl_search(bl_data(0.5 * math.log(2)))
        assert not opt.degenerate


def test_import_does_not_load_scipy():
    # scipy is imported inside the one oracle that needs it, not at start-up
    src = os.path.dirname(os.path.dirname(os.path.abspath(volprod.__file__)))
    code = "import sys, volprod; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert done.stdout.strip() == "[]"
