import math
import warnings

import numpy as np
import pytest

from volprod.core import (
    ExponentSchedule,
    LogDensity,
    gaussian_to_logdensity,
    isotropic_gaussian,
    lp_ball,
    make_grid,
)
from volprod.densities import battery_1d, box, exp_power, gaussian
from volprod.functionals import (
    BLData,
    bl_data,
    bl_integral,
    equiv_form_check,
    gaussian_bl_constant,
    gaussian_rev_hc,
    laplace_f_t,
    laplace_grid,
    laplace_norm_ratio,
    log_c_s,
    lr_volume_product,
    nelson_q,
    q_functional,
    rev_hc_value,
    tropical_limit_curve,
    volume_product,
)
from volprod.heatflow import fp_evolve
from volprod.legendre import polar_density
from volprod.oracles import _gaussian_bl_objective, bl_search, fd_derivative, gaussian_closed_forms
from volprod.quadrature import log_integral

S_HALF_LN2 = 0.5 * math.log(2)
GRID = make_grid(1, 8.0, 513)


class TestVolumeProduct:
    def test_gaussian(self):
        v = volume_product(gaussian(GRID))
        assert v.value() == pytest.approx(2 * math.pi, rel=5e-3)

    def test_exp_abs(self):
        v = volume_product(exp_power(GRID, 1.0))
        assert v.value() == pytest.approx(4.0, rel=1e-2)

    def test_scaled_gaussian_affine_invariance(self):
        f = gaussian_to_logdensity(isotropic_gaussian(0.7, mass=3.0), GRID)
        v = volume_product(f)
        assert v.value() == pytest.approx(2 * math.pi, rel=5e-3)

    def test_diagonal_scaling_invariance_2d(self):
        g2 = make_grid(2, 6.0, 129)
        v_iso = volume_product(gaussian(g2))
        f = gaussian_to_logdensity(
            isotropic_gaussian(1.0, dim=2).__class__(1.0, np.diag([0.5, 2.0])), g2
        )
        v_aniso = volume_product(f)
        assert v_aniso.value() == pytest.approx(v_iso.value(), rel=1e-3)


class TestRevHC:
    def test_gamma_equality(self):
        for s in (0.2, S_HALF_LN2, 1.0):
            rep = rev_hc_value(gaussian(GRID), s)
            assert abs(rep.slack) <= 1e-4

    def test_quartic_inequality(self):
        f = exp_power(GRID, 4.0)
        mass = log_integral(f).value()
        fn = LogDensity(GRID, f.phi + math.log(mass), even=True)
        rep = rev_hc_value(fn, S_HALF_LN2)
        assert rep.slack >= -1e-4

    def test_nelson_admissible_nonendpoint(self):
        q = nelson_q(1.0, 0.5)  # = 1 - e^2 / 2
        rep = rev_hc_value(gaussian(GRID, beta=2.0), 1.0, p=0.5, q=q)
        assert rep.slack >= -1e-4

    def test_holder_consistency(self):
        # slack at a non-endpoint admissible pair dominates the endpoint slack
        f = exp_power(GRID, 3.0)
        s = S_HALF_LN2
        end = rev_hc_value(f, s).slack
        sched = ExponentSchedule(s)
        mid = rev_hc_value(f, s, p=sched.p * 0.9, q=sched.q * 0.5).slack
        assert mid >= end - 1e-6

    def test_bad_exponents_rejected(self):
        with pytest.raises(ValueError):
            rev_hc_value(gaussian(GRID), 0.5, p=0.5, q=0.5)


class TestNelsonQ:
    def test_values(self):
        assert nelson_q(S_HALF_LN2, 0.5) == pytest.approx(0.0, abs=1e-14)
        assert nelson_q(1.0, 0.9) == pytest.approx(1 - 0.1 * math.exp(2.0))

    def test_endpoint_p_gives_zero(self):
        for s in (0.2, 1.0):
            p = -math.expm1(-2 * s)
            assert nelson_q(s, p) == pytest.approx(0.0, abs=1e-14)

    def test_domain(self):
        with pytest.raises(ValueError):
            nelson_q(-1.0, 0.5)
        with pytest.raises(ValueError):
            nelson_q(1.0, 1.5)


class TestGaussianRevHC:
    def test_gamma_equality_exact(self):
        sched = ExponentSchedule(0.3)
        r = gaussian_rev_hc(1.0, [0.0], 0.3, sched.p, sched.q)
        assert r.value() == pytest.approx(1.0, abs=1e-12)

    def test_matches_grid_route(self):
        s = S_HALF_LN2
        sched = ExponentSchedule(s)
        for beta, a in [(2.0, 0.0), (0.5, 0.0)]:
            closed = gaussian_rev_hc(beta, [a], s, sched.p, sched.q)
            rep = rev_hc_value(gaussian(GRID, beta=beta), s)
            # rhs of the report is (int f)^{1/p} = 1, so lhs is the norm itself
            assert closed.log_abs == pytest.approx(rep.log_lhs.log_abs, abs=1e-6)

    def test_below_range_q_decays(self):
        s = 0.1
        sched = ExponentSchedule(s)
        vals = [gaussian_rev_hc(b, [0.0], s, sched.p, sched.q - 0.1).value() for b in (1, 4, 16, 64)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[0] / vals[-1] >= 10

    def test_above_range_p_decays(self):
        s = 0.1
        sched = ExponentSchedule(s)
        vals = [gaussian_rev_hc(b, [0.0], s, sched.p + 0.1, sched.q).value() for b in (1, 4, 16, 64)]
        assert vals[0] / vals[-1] >= 10

    def test_divergent_sentinels(self):
        # p below the endpoint makes the inner integral blow up for wide data
        for q in (-0.5, 0.5):
            r = gaussian_rev_hc(100.0, [0.0], 1.0, 0.1, q)
            assert math.isinf(r.log_abs) or r.sign == 0


class TestLaplaceFt:
    def test_gaussian_mgf(self):
        s = S_HALF_LN2
        sched = ExponentSchedule(s)
        F, flags = laplace_f_t(gaussian(GRID), s)
        x = F.grid.axis(0)
        p = sched.p
        target = 0.5 * math.log(2 * math.pi * p) - math.log(2 * math.pi) / (2 * p) + x**2 / (2 * p)
        safe = np.abs(x) <= 5.0  # away from the z-truncation shadow
        assert np.max(np.abs(-F.phi[safe] - target[safe])) <= 2e-5
        assert np.max(np.abs(-F.phi[np.abs(x) <= 3.0] - target[np.abs(x) <= 3.0])) <= 1e-6

    def test_even(self):
        F, _ = laplace_f_t(box(GRID), 0.2)
        assert np.allclose(F.phi, F.phi[::-1])

    def test_value_at_zero(self):
        s = 0.2
        sched = ExponentSchedule(s)
        f = box(GRID)
        F, _ = laplace_f_t(f, s)
        n0 = (F.grid.points[0] - 1) // 2
        target = log_integral(LogDensity(GRID, f.phi / sched.p, even=True)).log_abs
        assert -F.phi[n0] == pytest.approx(target, abs=1e-12)


class TestLaplaceGrid:
    def test_cap_warns(self):
        # with q = -1e-6, q log F falls far less than 40 nats before the cap
        with pytest.warns(RuntimeWarning, match="axis 0"):
            x_grid = laplace_grid(gaussian(GRID), -1e-6, power=1.0, arg_scale=1.0)
        assert x_grid.axis(0)[-1] == pytest.approx(4 * 1.5**12)


class TestQFunctional:
    def test_gamma_constant(self):
        pts = q_functional(gaussian(GRID), S_HALF_LN2, [0.2, 0.5, 1.0])
        vals = [q for _, q in pts]
        assert max(vals) - min(vals) <= 2e-4

    def test_box_nondecreasing(self):
        pts = q_functional(box(GRID, height=0.5), S_HALF_LN2, [0.05, 0.1, 0.2, 0.5, 1, 2])
        vals = [q for _, q in pts]
        assert all(b - a >= -1e-4 for a, b in zip(vals, vals[1:]))

    def test_fd_derivative_nonnegative(self):
        for s in (S_HALF_LN2, 0.2):
            pts = q_functional(exp_power(GRID, 1.5), s, [0.45, 0.5, 0.55])
            assert fd_derivative(pts, 0.5) >= -1e-4

    def test_polar_mass_limit(self):
        # e^{Q_s(t)}, corrected by the explicit bridge factors, approaches
        # the polar mass of f_t as s decreases
        f0 = box(GRID, height=0.5)
        ft = fp_evolve(f0, 0.5)
        pol = log_integral(polar_density(ft)).value()
        mass = log_integral(f0).value()
        for s in (0.4, 0.2, 0.1, 0.05):
            sched = ExponentSchedule(s)
            _, q = q_functional(f0, s, [0.5])[0]
            rho = sched.p ** (sched.q / 2) * math.exp(-s)
            corrected = math.exp(q) / rho * mass ** (math.exp(2 * s) - 1)
            assert corrected == pytest.approx(pol, rel=5e-3)

    def test_times_validation(self):
        with pytest.raises(ValueError):
            q_functional(gaussian(GRID), 0.2, [0.5, 0.2])


class TestEquivForm:
    @pytest.mark.parametrize("s", [0.2, S_HALF_LN2])
    def test_gaussians(self, s):
        for beta in (1.0, 2.0):
            lhs, rhs = equiv_form_check(gaussian(GRID, beta=beta), s)
            assert abs(math.expm1(lhs.log_abs - rhs.log_abs)) <= 1e-3

    def test_evolved_box(self):
        ft = fp_evolve(box(GRID), 0.5)
        lhs, rhs = equiv_form_check(ft, S_HALF_LN2)
        assert abs(math.expm1(lhs.log_abs - rhs.log_abs)) <= 5e-3


class TestLaplaceNormRatio:
    def test_gamma_sharp(self):
        r = laplace_norm_ratio(gaussian(GRID), 0.5)
        assert r.value() == pytest.approx(1 / (4 * math.pi), rel=5e-3)

    def test_gamma_beta_extremal(self):
        for beta in (0.5, 2.0):
            r = laplace_norm_ratio(gaussian(GRID, beta=beta), 0.5)
            assert r.value() == pytest.approx(1 / (4 * math.pi), rel=5e-3)

    def test_quartic_inequality(self):
        r = laplace_norm_ratio(exp_power(GRID, 4.0), 0.5)
        assert r.value() >= (1 / (4 * math.pi)) * (1 - 1e-3)

    def test_closed_form_oracle_agrees(self):
        target = gaussian_closed_forms("laplace_gamma_ratio", p=0.5).value()
        assert target == pytest.approx(1 / (4 * math.pi), rel=1e-14)

    def test_p_domain(self):
        with pytest.raises(ValueError):
            laplace_norm_ratio(gaussian(GRID), 1.5)


ENDPOINT_S = [0.1, 0.2, S_HALF_LN2, 1.0, 2.0]


def _bl_sample():
    """(s, p, q) points for the closed form against the search: seeded random
    exponents, a point with two stationary points, and one exponent off the
    schedule's while the other is exact."""
    rng = np.random.default_rng(5)
    pts = [(s, rng.uniform(0.05, 0.95), -rng.uniform(0.1, 10.0)) for s in rng.uniform(0.1, 2.0, 12)]
    pts.append((0.5, 0.4, -3.0))
    for s in (0.3, 0.8):
        sched = ExponentSchedule(s)
        pts += [(s, sched.p, sched.q * 0.8), (s, sched.p, sched.q * 1.2),
                (s, sched.p * 0.9, sched.q), (s, sched.p * 1.1, sched.q)]
    return pts


class TestBrascampLieb:
    def test_qform_block_structure(self):
        s = 0.37
        data = bl_data(s)
        p, q = data.p, data.q
        e2s = math.exp(-2 * s)
        a = (1 - (1 - e2s) / p) / (2 * math.pi * (1 - e2s))
        off = -math.exp(-s) / (2 * math.pi * (1 - e2s))
        b = e2s * (1 - (1 - math.exp(2 * s)) / q) / (2 * math.pi * (1 - e2s))
        target = np.array([[a, off], [off, b]])
        assert np.max(np.abs(data.qform - target)) <= 1e-12

    @pytest.mark.parametrize("s", ENDPOINT_S)
    def test_endpoint_diagonal_is_zero(self, s):
        assert np.all(np.diag(bl_data(s).qform) == 0.0)

    def test_exponents(self):
        data = bl_data(S_HALF_LN2)
        assert data.c1 == pytest.approx(2.0)
        assert data.c2 == pytest.approx(2.0)

    @pytest.mark.parametrize("s", [0.2, S_HALF_LN2, 1.0])
    def test_h_equals_one(self, s):
        opt = gaussian_bl_constant(bl_data(s))
        assert not opt.degenerate
        h = math.exp(log_c_s(s, 1) + opt.value.log_abs)
        assert h == pytest.approx(1.0, abs=1e-6)
        assert np.max(np.abs(opt.a_diag - 1.0)) <= 1e-4
        assert np.max(np.abs(opt.b_diag - 1.0)) <= 1e-4

    @pytest.mark.parametrize("s", ENDPOINT_S)
    def test_endpoint_optimum_is_exact_and_silent(self, s):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            opt = gaussian_bl_constant(bl_data(s), n=2)
        assert not opt.degenerate
        assert np.all(opt.a_diag == 1.0) and np.all(opt.b_diag == 1.0)

    @pytest.mark.parametrize("s", ENDPOINT_S)
    def test_endpoint_valley_is_flat(self, s):
        # at the endpoint the objective depends on ab only: every (lam, 1/lam) is optimal
        data = bl_data(s)
        value = gaussian_bl_constant(data).value.log_abs
        for lam in (0.01, 1.0, 100.0):
            assert _gaussian_bl_objective(data, lam, 1 / lam) == pytest.approx(value, rel=0, abs=1e-12)

    def test_matches_search_oracle(self):
        verdicts = set()
        for s, p, q in _bl_sample():
            data = bl_data(s, p, q)
            opt = gaussian_bl_constant(data)
            with warnings.catch_warnings():
                # the search may stop at its round limit in a flat valley
                warnings.simplefilter("ignore", RuntimeWarning)
                ref = bl_search(data)
            assert opt.degenerate == ref.degenerate, (s, p, q)
            verdicts.add(opt.degenerate)
            if opt.degenerate:
                assert opt.value.sign == 0 and np.isnan(opt.a_diag).all() and np.isnan(opt.b_diag).all()
                continue
            assert opt.value.log_abs == pytest.approx(ref.value.log_abs, rel=0, abs=1e-9), (s, p, q)
            assert float(opt.a_diag[0]) == pytest.approx(float(ref.a_diag[0]), rel=0, abs=1e-6), (s, p, q)
            assert float(opt.b_diag[0]) == pytest.approx(float(ref.b_diag[0]), rel=0, abs=1e-6), (s, p, q)
        assert verdicts == {True, False}

    def test_uncoupled_kernel_has_no_admissible_root(self):
        data = BLData(s=0.3, p=0.5, q=-1.0, qform=np.diag([-0.1, -0.1]))
        with pytest.raises(ValueError, match="no admissible"):
            gaussian_bl_constant(data)

    @pytest.mark.parametrize("p, q", [(1.0, -1.0), (-0.2, -1.0), (0.5, 0.5)])
    def test_exponent_range(self, p, q):
        with pytest.raises(ValueError, match="0 < p < 1 and q < 0"):
            gaussian_bl_constant(bl_data(0.3, p, q))

    def test_grid_integral_matches_closed_form(self):
        data = bl_data(S_HALF_LN2)
        opt = gaussian_bl_constant(data)
        f1 = gaussian_to_logdensity(isotropic_gaussian(float(opt.a_diag[0])), GRID)
        f2 = gaussian_to_logdensity(isotropic_gaussian(float(opt.b_diag[0])), GRID)
        gi = bl_integral(f1, f2, data)
        assert abs(math.expm1(gi.log_abs - opt.value.log_abs)) <= 1e-2

    def test_perturbed_q_degenerates(self):
        sched = ExponentSchedule(S_HALF_LN2)
        opt = gaussian_bl_constant(bl_data(S_HALF_LN2, q=sched.q - 0.1))
        assert opt.degenerate
        assert opt.value.sign == 0
        assert np.isnan(opt.a_diag).all() and np.isnan(opt.b_diag).all()

    def test_obs2_tropical_limit(self):
        # (bl_integral of (f-polar, f))^{p_s} approaches 1 as s drops
        f = LogDensity(GRID, 0.7 * GRID.axis(0) ** 2, even=True)
        fpol = polar_density(f)
        vals = []
        for s in (0.4, 0.2, 0.1):
            sched = ExponentSchedule(s)
            v = bl_integral(fpol, f, bl_data(s))
            vals.append(math.exp(sched.p * v.log_abs))
        errs = [abs(v - 1.0) for v in vals]
        assert all(b < a for a, b in zip(errs, errs[1:]))
        assert errs[-1] <= 0.25


class TestLrVolumeProduct:
    def test_disk_golden_value(self):
        # frozen from a 2x/4x resolution self-oracle run
        m = lr_volume_product(lp_ball(2.0, 2), 1.0)
        assert m.value() == pytest.approx(104.666, rel=1e-3)

    def test_disk_dominates(self):
        for r in (1.0, 5.0):
            md = lr_volume_product(lp_ball(2.0, 2), r).value()
            ms = lr_volume_product(lp_ball(math.inf, 2), r).value()
            assert ms <= md * (1 + 1e-3)

    def test_scale_invariance(self):
        # substitution shows M_r(cK) = M_r(K) exactly
        m1 = lr_volume_product(lp_ball(2.0, 2, radius=2.0), 1.0).value()
        m2 = lr_volume_product(lp_ball(2.0, 2), 1.0).value()
        assert m1 == pytest.approx(m2, rel=1e-2)

    def test_bad_r_rejected(self):
        with pytest.raises(ValueError):
            lr_volume_product(lp_ball(2.0, 2), 0.0)


class TestTropicalLimit:
    def test_gamma_near_constant(self):
        curve, trunc = tropical_limit_curve(gaussian(GRID), [0.4, 0.2, 0.1])
        assert not trunc
        for _, b in curve:
            assert b == pytest.approx(2 * math.pi, rel=1e-2)

    def test_quartic_error_decreasing(self):
        f = exp_power(GRID, 4.0)
        vref = volume_product(f).value()
        curve, trunc = tropical_limit_curve(f, [0.4, 0.2, 0.1])
        assert not trunc
        errs = [abs(b - vref) / vref for _, b in curve]
        assert all(b < a for a, b in zip(errs, errs[1:]))
        assert errs[-1] <= 0.05

    def test_edge_cut_ou_integral_flagged(self):
        # for e^{-|x|}, P_s g = +inf at |x| >= e^s; the grid cuts that OU
        # integral at its edge, which is flagged while every point is kept
        curve, trunc = tropical_limit_curve(exp_power(GRID, 1.0), [0.4, 0.2, 0.1])
        assert trunc
        assert [s for s, _ in curve] == [0.4, 0.2, 0.1]

    def test_under_resolved_truncates(self):
        g = make_grid(1, 8.0, 33)  # h = 0.5
        curve, trunc = tropical_limit_curve(gaussian(g), [0.4, 0.01])
        assert trunc
        assert len(curve) == 1

    def test_s_order_enforced(self):
        with pytest.raises(ValueError):
            tropical_limit_curve(gaussian(GRID), [0.1, 0.2])


class TestBatteryProperties:
    def test_blaschke_santalo_bound(self):
        bound = 2 * math.pi * (1 + 5e-3)
        for f in battery_1d(GRID).values():
            assert volume_product(f).value() <= bound

    def test_flow_monotone_sample(self):
        f = exp_power(GRID, 1.0)
        v0 = volume_product(f).log_abs
        v1 = volume_product(fp_evolve(f, 0.2)).log_abs
        v2 = volume_product(fp_evolve(f, 1.0)).log_abs
        assert v1 >= v0 - 1e-4 and v2 >= v1 - 1e-4
