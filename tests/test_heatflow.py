import math
import warnings

import numpy as np
import pytest
from scipy.special import logsumexp

from volprod import contract as contract_mod
from volprod import heatflow
from volprod.contract import contract
from volprod.core import GaussianSpec, LogDensity, check_even, gaussian_to_logdensity, isotropic_gaussian, make_grid
from volprod.densities import battery_1d, box, exp_power, gaussian, two_bump
from volprod.functionals import volume_product
from volprod.heatflow import (
    KernelUnderResolvedError,
    flow_trajectory,
    fp_evolve,
    ou_apply,
    ou_edge_flags,
)
from volprod.oracles import gaussian_closed_forms, ou_second_moment
from volprod.quadrature import GAUSSIAN, log_integral

from conftest import boundary_mask, trapezoid_log_weights


def _variance(f):
    w = np.exp(-f.phi)
    x = f.grid.axis(0)
    h = f.grid.spacings[0]
    tw = np.full_like(x, h)
    tw[0] = tw[-1] = h / 2
    m = (tw * w).sum()
    return float((tw * w * x * x).sum() / m), float(m)


class TestFokkerPlanck:
    def test_standard_gaussian_stationary(self):
        g = make_grid(1, 8.0, 513)
        f0 = gaussian(g)
        ft = fp_evolve(f0, 0.7)
        # the last nats near the truncation boundary are lost to the kernel tail
        center = np.abs(g.axis(0)) <= 6.0
        assert np.max(np.abs(ft.phi[center] - f0.phi[center])) <= 1e-8

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("t", [0.3, 1.0])
    def test_variance_law(self, beta, t):
        g = make_grid(1, 8.0, 513)
        ft = fp_evolve(gaussian(g, beta=beta), t)
        var, _ = _variance(ft)
        law = gaussian_closed_forms("fp_variance_law", beta=beta, t=t).value()
        assert var == pytest.approx(law, abs=1e-5)

    def test_variance_law_matches_ode_oracle(self):
        law = gaussian_closed_forms("fp_variance_law", beta=3.0, t=0.8).value()
        assert ou_second_moment(3.0, 0.8) == pytest.approx(law, abs=1e-9)

    def test_mass_conservation(self):
        g = make_grid(1, 8.0, 513)
        for f0 in (box(g), two_bump(g)):
            m0 = log_integral(f0).log_abs
            for t in (0.1, 0.5, 2.0):
                mt = log_integral(fp_evolve(f0, t)).log_abs
                assert abs(mt - m0) <= 1e-8

    def test_box_converges_to_scaled_gaussian(self):
        # initial data of discrete mass m flows to m * gamma as t -> infinity
        g = make_grid(1, 8.0, 513)
        f0 = box(g)
        mass = log_integral(f0).value()
        ft = fp_evolve(f0, 6.0)
        target = gaussian_to_logdensity(isotropic_gaussian(1.0, mass=mass), g)
        center = np.abs(g.axis(0)) <= 4.0
        assert np.max(np.abs(ft.phi[center] - target.phi[center])) <= 1e-4

    def test_semigroup_composition(self):
        g = make_grid(1, 8.0, 513)
        f0 = two_bump(g)
        a = fp_evolve(fp_evolve(f0, 0.3), 0.4)
        b = fp_evolve(f0, 0.7)
        assert np.max(np.abs(np.exp(-a.phi) - np.exp(-b.phi))) <= 1e-6

    def test_t_zero_identity(self):
        g = make_grid(1, 8.0, 65)
        f0 = gaussian(g)
        assert fp_evolve(f0, 0.0) is f0

    def test_negative_t_rejected(self):
        g = make_grid(1, 8.0, 65)
        with pytest.raises(ValueError):
            fp_evolve(gaussian(g), -0.1)

    def test_under_resolved_kernel_rejected(self):
        g = make_grid(1, 8.0, 33)  # h = 0.5, std(t=0.01) ~ 0.14
        with pytest.raises(KernelUnderResolvedError):
            fp_evolve(gaussian(g), 0.01)

    def test_2d_variance_law(self):
        g = make_grid(2, 6.0, 129)
        ft = fp_evolve(gaussian(g, beta=0.5), 0.5)
        x1, _ = g.meshgrid()
        w = np.exp(-ft.phi)
        m = w.sum()
        var = float((w * x1 * x1).sum() / m)
        law = gaussian_closed_forms("fp_variance_law", beta=0.5, t=0.5).value()
        assert var == pytest.approx(law, abs=1e-4)


# the "off" covariance of tests/test_core.py: even through the origin, along
# no axis, so the flow takes the engine's central half path
OFF_DIAGONAL = np.array([[1.0, 0.3, -0.2], [0.3, 0.8, 0.1], [-0.2, 0.1, 1.5]])


class TestOffDiagonalGaussian:
    """An off-diagonal Gaussian is even only through the origin. The engine's
    central half path contracts half of axis 0 and fills the rest by
    reflection, so its flows are exactly even. Without that path the "lse"
    output is even only to rounding: ``check_even`` turns False, and the
    polar warns of a non-even density."""

    @pytest.mark.parametrize("t", [0.1, 0.5, 2.0])
    @pytest.mark.parametrize("grid", [make_grid(2, 6.0, 129), make_grid(3, 6.0, 33)], ids=["2d-129", "3d-33"])
    def test_flows_are_exactly_even(self, grid, t):
        f = gaussian_to_logdensity(GaussianSpec(1.0, OFF_DIAGONAL[:grid.dim, :grid.dim]), grid)
        ft = fp_evolve(f, t)
        assert check_even(ft) and check_even(ou_apply(f, t))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            volume_product(ft)

    @pytest.mark.parametrize("t", [0.1, 0.5, 2.0])
    def test_flow_matches_the_evolved_covariance(self, t):
        """f_t is the Gaussian of covariance e^{-2t} A + (1 - e^{-2t}) I. Where
        phi is within 10 nats of its minimum, 2D 129^2 reads 1.6e-6, 1.9e-5
        and 3.0e-8 at t = 0.1, 0.5 and 2; 1e-4 leaves a margin of 5x."""
        grid = make_grid(2, 6.0, 129)
        a = OFF_DIAGONAL[:2, :2]
        got = fp_evolve(gaussian_to_logdensity(GaussianSpec(1.0, a), grid), t).phi
        e = math.exp(-2 * t)
        want = gaussian_to_logdensity(GaussianSpec(1.0, e * a + (1 - e) * np.eye(2)), grid).phi
        near = got <= got.min() + 10
        assert np.max(np.abs(got - want)[near]) <= 1e-4


class TestOrnsteinUhlenbeck:
    def test_constants_fixed(self):
        g = make_grid(1, 8.0, 513)
        ones = LogDensity(g, np.full(513, -math.log(3.0)))
        out = ou_apply(ones, 0.9)
        center = np.abs(g.axis(0)) <= 4.0
        assert np.max(np.abs(out.phi[center] + math.log(3.0))) <= 1e-10

    def test_mehler_exponential_eigenfunction(self):
        # P_s e^{cx} = e^{c^2(1-e^{-2s})/2} e^{c e^{-s} x}
        g = make_grid(1, 8.0, 513)
        c, s = 0.7, 0.5
        f = LogDensity(g, -c * g.axis(0))
        out = ou_apply(f, s)
        p = -math.expm1(-2 * s)
        target = -(c**2 * p / 2) - c * math.exp(-s) * g.axis(0)
        center = np.abs(g.axis(0)) <= 3.0
        assert np.max(np.abs(out.phi[center] - target[center])) <= 1e-8

    def test_gaussian_invariance_of_mean(self):
        # int P_s g dgamma = int g dgamma
        g = make_grid(1, 8.0, 513)
        f = LogDensity(g, 0.05 * g.axis(0) ** 4)
        before = log_integral(f, GAUSSIAN).log_abs
        after = log_integral(ou_apply(f, 0.6), GAUSSIAN).log_abs
        assert after == pytest.approx(before, abs=1e-8)

    def test_nonpositive_s_rejected(self):
        g = make_grid(1, 8.0, 65)
        with pytest.raises(ValueError):
            ou_apply(gaussian(g), 0.0)

    @pytest.mark.parametrize("s", [0.2, 0.5])
    @pytest.mark.parametrize("dim, points", [(1, 33), (2, (17, 21)), (3, (17, 19, 21))])
    def test_edge_flags_match_brute_force(self, dim, points, s):
        # g grows like e^{0.6 |z|^2}: the z-integrand of P_s g peaks on the
        # grid edge for outer x and inside it near the origin
        grid = make_grid(dim, 4.0, points)
        r = np.sqrt(sum(m * m for m in grid.meshgrid()))
        g = LogDensity(grid, -0.6 * r**2 + 0.1 * r)
        var, decay = -math.expm1(-2 * s), math.exp(-s)
        nodes = grid.nodes()
        edge = boundary_mask(grid.points).ravel()
        edge_max, inner_max = np.empty(len(nodes)), np.empty(len(nodes))
        for lo in range(0, len(nodes), 256):  # all pairs, 256 x nodes at a time
            sq = sum((decay * nodes[lo:lo + 256, k, None] - nodes[None, :, k]) ** 2 for k in range(dim))
            terms = -sq / (2 * var) + g.log_values().ravel()[None, :]
            edge_max[lo:lo + 256], inner_max[lo:lo + 256] = terms[:, edge].max(axis=1), terms[:, ~edge].max(axis=1)
        want = (edge_max >= inner_max).reshape(grid.points)
        assert np.min(np.abs(edge_max - inner_max)) > 1e-9  # no near-ties to round either way
        assert 0 < want.mean() < 1
        assert np.array_equal(ou_edge_flags(g, s), want)


def _log_kernel(x, t, kind):
    """The Mehler log-kernel as a writable array, formed with the flow's own
    IEEE operations; ``contract`` reads it for symmetry on every call."""
    var, decay = -math.expm1(-2 * t), math.exp(-t)
    d = x[:, None] - decay * x[None, :] if kind == "fp" else decay * x[:, None] - x[None, :]
    return -d * d / (2 * var) - 0.5 * math.log(2 * math.pi * var)


@pytest.fixture
def exact_entries(monkeypatch):
    """Count the entries that ``contract``'s "lse" fallback recomputes."""
    entries = []
    inner = contract_mod._lse_exact

    def spy(summed):
        entries.append(len(summed))
        return inner(summed)

    monkeypatch.setattr(contract_mod, "_lse_exact", spy)
    return entries


@pytest.mark.parametrize(
    "call, time",
    [(fp_evolve, math.nan), (ou_apply, math.nan), (ou_edge_flags, math.nan), (ou_edge_flags, 0.0),
     (ou_edge_flags, -0.1)],
    ids=["fp_evolve-nan", "ou_apply-nan", "ou_edge_flags-nan", "ou_edge_flags-0", "ou_edge_flags-negative"],
)
def test_bad_times_are_rejected_where_they_enter(call, time):
    """NaN fails each entry check as an out-of-range time does, before a
    kernel is built or cached: the edge flags used to return all False at
    NaN, raise ZeroDivisionError at 0 and flag every node below it."""
    cached = len(heatflow._KERNEL_CACHE)
    with pytest.raises(ValueError, match="must be"):
        call(gaussian(make_grid(1, 8.0, 129)), time)
    assert len(heatflow._KERNEL_CACHE) == cached


class TestKernelCache:
    def test_cached_kernels_are_read_only(self):
        x = make_grid(1, 8.0, 65).axis(0)
        for kind in ("fp", "ou"):
            kernel = heatflow._axis_kernel(x, 0.5, kind)
            with pytest.raises(ValueError, match="read-only"):
                kernel.shifted *= 2.0
            with pytest.raises(ValueError, match="read-only"):
                kernel.shifted[0, 0] = 0.0
            assert heatflow._axis_kernel(x, 0.5, kind) is kernel
            w = _log_kernel(x, 0.5, kind)
            row_max = np.max(w, axis=1, keepdims=True)
            assert contract_mod._rows(kernel, slice(None)).tobytes() == w.tobytes()
            assert kernel.row_max.tobytes() == row_max.tobytes()
            # odd axes: only the x >= 0 rows, 65 // 2 on, are stored
            assert kernel.shifted.shape == (65 - 65 // 2, 65)
            assert kernel.shifted.tobytes() == np.exp(w - row_max)[65 // 2:].tobytes()

    @pytest.mark.parametrize("t", [0.05, 0.5, 2.0])
    @pytest.mark.parametrize("kind, apply", [("fp", fp_evolve), ("ou", ou_apply)])
    def test_flow_matches_a_writable_kernel_bitwise(self, kind, apply, t):
        grid = make_grid(1, 8.0, 513)
        w = _log_kernel(grid.axis(0), t, kind)
        for f in battery_1d(grid).values():
            want = -contract(f.log_values() + trapezoid_log_weights(grid), [w])
            for _ in range(2):  # the second call reuses the cached kernel
                assert apply(f, t).phi.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind, apply", [("fp", fp_evolve), ("ou", ou_apply)])
    def test_underflow_fallback_matches_a_writable_kernel_bitwise(self, exact_entries, kind, apply):
        # mass only below x = -7.5: far rows' shifted sums fall under e^FLOOR,
        # so the fallback re-forms those log rows from the kernel's axes
        grid = make_grid(1, 8.0, 513)
        x = grid.axis(0)
        f = LogDensity(grid, np.where(x < -7.5, x * x / 2, np.inf))
        got = apply(f, 0.05).phi
        assert 100 <= sum(exact_entries) <= 200
        want = -contract(f.log_values() + trapezoid_log_weights(grid), [_log_kernel(x, 0.05, kind)])
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "f", [gaussian(make_grid(2, 6.0, 129)), exp_power(make_grid(3, 4.0, 33), 1.5), box(make_grid(3, 4.0, 65))],
        ids=["2d129", "3d33", "3d65"],
    )
    @pytest.mark.parametrize("kind, apply", [("fp", fp_evolve), ("ou", ou_apply)])
    def test_nd_flow_matches_writable_kernels_bitwise(self, f, kind, apply):
        # f itself, then f one node off even: the half and the full path
        off = f.phi.copy()
        off[(f.grid.points[0] // 2 + 1,) + tuple(n // 2 for n in f.grid.points[1:])] += 0.5
        kernels = [_log_kernel(a, 0.3, kind) for a in f.grid.axes()]
        for g in (f, LogDensity(f.grid, off)):
            want = -contract(g.log_values() + trapezoid_log_weights(g.grid), kernels)
            assert apply(g, 0.3).phi.tobytes() == want.tobytes()
        assert check_even(f) and not check_even(LogDensity(f.grid, off))

    def test_cache_holds_one_square_array_per_time(self, monkeypatch):
        # a log array kept beside the exponential would double the cache, and
        # the x < 0 rows, the mirrors of the stored ones, would add half of it
        monkeypatch.setattr(heatflow, "_KERNEL_CACHE", {})
        grid = make_grid(1, 8.0, 513)
        flow_trajectory(gaussian(grid), [0.1, 0.5, 2.0])
        assert len(heatflow._KERNEL_CACHE) == 3
        for (kind, t, _, _), kernel in heatflow._KERNEL_CACHE.items():
            big = [a for a in kernel if isinstance(a, np.ndarray) and a.size > 513]
            assert len(big) == 1 and big[0] is kernel.shifted and big[0].dtype == np.float64
            assert kernel.shifted.shape == (513 - 513 // 2, 513)
            assert sum(a.size for a in kernel if isinstance(a, np.ndarray)) == 257 * 513 + 3 * 513
            w = _log_kernel(grid.axis(0), t, kind)
            assert kernel.shifted.tobytes() == np.exp(w - np.max(w, axis=1, keepdims=True))[513 // 2:].tobytes()

    @pytest.mark.parametrize("t", [0.05, 0.5, 2.0])
    @pytest.mark.parametrize("kind, apply", [("fp", fp_evolve), ("ou", ou_apply)])
    def test_non_even_flow_matches_a_writable_kernel_bitwise(self, kind, apply, t):
        # a shifted Gaussian and the battery with one node moved: the flow
        # forms the kernel's x < 0 rows from their mirrors
        grid = make_grid(1, 8.0, 513)
        x = grid.axis(0)
        inputs = [LogDensity(grid, (x - 0.7) ** 2 / 2)]
        for f in battery_1d(grid).values():
            phi = f.phi.copy()
            phi[513 // 2 + 1] += 0.5
            inputs.append(LogDensity(grid, phi))
        w = _log_kernel(x, t, kind)
        for f in inputs:
            assert not check_even(f)
            want = -contract(f.log_values() + trapezoid_log_weights(grid), [w])
            for _ in range(2):  # the second call reuses the cached kernel
                assert apply(f, t).phi.tobytes() == want.tobytes()


class TestTrajectory:
    def test_trajectory_order_enforced(self):
        g = make_grid(1, 8.0, 65)
        with pytest.raises(ValueError):
            flow_trajectory(gaussian(g), [0.5, 0.2])
        with pytest.raises(ValueError):
            flow_trajectory(gaussian(g), [0.0, 0.2])

    def test_trajectory_matches_single_calls(self):
        g = make_grid(1, 8.0, 257)
        f0 = two_bump(g)
        traj = flow_trajectory(f0, [0.2, 0.5])
        assert np.array_equal(traj[0].phi, fp_evolve(f0, 0.2).phi)
        assert np.array_equal(traj[1].phi, fp_evolve(f0, 0.5).phi)


class TestSteepDensity:
    """phi = x^4 on [-8, 8] spans 4096 nats, far beyond the 745 of float64 exp."""

    @staticmethod
    def _all_pairs(f, t, kind):
        x, h = f.grid.axis(0), f.grid.spacings[0]
        var, decay = -math.expm1(-2 * t), math.exp(-t)
        d = x[:, None] - decay * x[None, :] if kind == "fp" else decay * x[:, None] - x[None, :]
        log_w = np.full(len(x), math.log(h))
        log_w[0] = log_w[-1] = math.log(h / 2)
        terms = -d * d / (2 * var) - 0.5 * math.log(2 * math.pi * var) + log_w - f.phi
        return -logsumexp(terms, axis=1)

    @pytest.mark.parametrize("t", [0.002, 0.01, 0.2])
    @pytest.mark.parametrize("kind, apply", [("fp", fp_evolve), ("ou", ou_apply)])
    def test_matches_all_pairs_reference(self, kind, apply, t):
        f = exp_power(make_grid(1, 8.0, 513), 4.0)
        want = self._all_pairs(f, t, kind)
        got = apply(f, t).phi
        assert np.isfinite(want).all() and np.isfinite(got).all()
        assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) <= 1e-12
