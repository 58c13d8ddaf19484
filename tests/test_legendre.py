import math
import warnings

import numpy as np
import pytest

from volprod import legendre as legendre_mod
from volprod.core import LogDensity, body_to_logdensity, check_even, lp_ball, make_grid, reflect
from volprod.densities import battery_1d, box, cross2d, exp_power, gaussian
from volprod.heatflow import fp_evolve
from volprod.legendre import (
    convex_envelope,
    default_dual_grid,
    legendre_1d,
    legendre_transform,
    polar_density,
)
from volprod.oracles import hull_legendre
from volprod.quadrature import log_integral

from conftest import boundary_mask, peak_in_outputs


def _random_density(rng, grid, with_inf=False):
    phi = np.cumsum(rng.normal(size=grid.points[0]))
    phi = phi - phi.min()
    if with_inf:
        phi[rng.random(grid.points[0]) < 0.2] = np.inf
        if not np.isfinite(phi).any():
            phi[0] = 0.0
    return LogDensity(grid, phi)


class TestLegendre1d:
    def test_quadratic_self_dual(self):
        g = make_grid(1, 8.0, 513)
        y = g.axis(0)
        out = legendre_1d(y, 0.5 * y**2, y)
        h = g.spacings[0]
        assert np.max(np.abs(out - 0.5 * y**2)) <= h**2 / 2 + 1e-12

    def test_absolute_value_conjugate(self):
        g = make_grid(1, 8.0, 513)
        y = g.axis(0)
        x = np.linspace(-1.0, 1.0, 9)
        out = legendre_1d(y, np.abs(y), x)
        # |x| <= 1 nodes of the dual: conjugate is exactly 0
        assert np.max(np.abs(out)) == 0.0

    def test_single_point_sup_is_affine(self):
        g = make_grid(1, 2.0, 5)
        phi = np.full(5, np.inf)
        phi[3] = 0.7  # y0 = 1.0
        x = np.array([-2.0, 0.0, 3.0])
        out = legendre_1d(g.axis(0), phi, x)
        assert np.array_equal(out, x * 1.0 - 0.7)

    def test_all_inf_rejected(self):
        with pytest.raises(ValueError):
            legendre_1d(np.array([0.0, 1.0]), np.array([np.inf, np.inf]), np.array([0.0]))

    @pytest.mark.parametrize("node", ["y_unsorted", "x_unsorted", "y_nan", "x_inf"])
    def test_nodes_off_a_finite_nondecreasing_axis_are_rejected(self, node):
        y, x = np.linspace(-3.0, 3.0, 31), np.linspace(-2.0, 2.0, 21)
        if node == "y_unsorted":
            y[[4, 20]] = y[[20, 4]]
        elif node == "x_unsorted":
            x = x[::-1].copy()
        elif node == "y_nan":
            y[7] = np.nan
        else:
            x[-1] = np.inf
        with pytest.raises(ValueError, match="nondecreasing"):
            legendre_1d(y, 0.5 * np.nan_to_num(y) ** 2, x)

    def test_matches_brute_force_bitwise(self):
        rng = np.random.default_rng(42)
        g = make_grid(1, 4.0, 65)
        for i in range(50):
            f = _random_density(rng, g, with_inf=(i % 3 == 0))
            dual = default_dual_grid(f)
            fast = legendre_transform(f, dual)
            hull = hull_legendre(f, dual)
            assert np.array_equal(fast.phi, hull.phi), f"input {i} deviates"


class TestLegendreTransformNd:
    def test_2d_quadratic_pair(self):
        g = make_grid(2, 6.0, 129)
        x1, x2 = g.meshgrid()
        phi = 0.5 * (x1**2 / 1.0 + x2**2 / 4.0)  # A = diag(1, 4) inverse form
        f = LogDensity(g, phi)
        dual = make_grid(2, 1.5, 65)
        out = legendre_transform(f, dual)
        d1, d2 = dual.meshgrid()
        target = 0.5 * (d1**2 + 4.0 * d2**2)
        h = max(g.spacings)
        assert np.max(np.abs(out.phi - target)) <= 4 * h**2

    def test_cube_diamond_duality(self):
        # (1/2 ||.||_{linf}^2)* = 1/2 ||.||_{l1}^2
        g = make_grid(2, 4.0, 129)
        f = body_to_logdensity(lp_ball(math.inf, 2), g)
        dual = make_grid(2, 2.0, 65)
        out = legendre_transform(f, dual)
        d = np.stack(dual.meshgrid(), axis=-1)
        target = 0.5 * lp_ball(1.0, 2).gauge(d) ** 2
        assert np.max(np.abs(out.phi - target)) <= 0.1  # O(h)

    def test_2d_matches_brute(self):
        rng = np.random.default_rng(3)
        g = make_grid(2, 3.0, 33)
        phi = rng.normal(size=(33, 33))
        f = LogDensity(g, phi)
        dual = make_grid(2, 2.0, 17)
        fast = legendre_transform(f, dual)
        assert np.array_equal(fast.phi, hull_legendre(f, dual).phi)

    def test_3d_with_inf_matches_hull(self):
        rng = np.random.default_rng(4)
        g = make_grid(3, 2.0, 9)
        phi = rng.normal(size=(9, 9, 9))
        phi[rng.random(phi.shape) < 0.3] = np.inf
        f = LogDensity(g, phi)
        dual = make_grid(3, 1.5, 7)
        out = legendre_transform(f, dual)
        assert np.isfinite(out.phi).all()
        assert np.array_equal(out.phi, hull_legendre(f, dual).phi)

    def test_order_reversal(self):
        rng = np.random.default_rng(5)
        g = make_grid(1, 4.0, 65)
        f1 = _random_density(rng, g)
        f2 = LogDensity(g, f1.phi + rng.random(65))  # f2 >= f1 pointwise in phi
        dual = default_dual_grid(f1)
        c1 = legendre_transform(f1, dual)
        c2 = legendre_transform(f2, dual)
        assert np.all(c1.phi >= c2.phi)

    def test_young_inequality(self):
        rng = np.random.default_rng(6)
        g = make_grid(1, 4.0, 65)
        f = _random_density(rng, g)
        dual = default_dual_grid(f)
        conj = legendre_transform(f, dual)
        y = g.axis(0)[:, None]
        x = dual.axis(0)[None, :]
        lhs = f.phi[:, None] + conj.phi[None, :]
        assert np.all(lhs >= x * y - 1e-12)

    def test_evenness_preserved(self):
        g = make_grid(1, 8.0, 513)
        out = legendre_transform(exp_power(g, 4.0))
        assert check_even(out)


    @pytest.mark.parametrize(
        "dim, points, holes, even",
        [(2, 65, False, False), (2, 65, True, False), (2, 65, False, True), (2, 65, True, True),
         (3, 33, True, False), (3, 33, True, True)],
    )
    def test_nd_matches_hull_sweep(self, dim, points, holes, even):
        """Conjugate and envelope of a random non-convex phi against the
        lower-hull sweep, an independent route; the sweep's chord test can
        land up to 4 ulp low, so that is the tolerance."""
        rng = np.random.default_rng(dim + 2 * holes + 4 * even)
        g = make_grid(dim, 3.0, points)
        phi = 0.25 * sum(m**2 for m in g.meshgrid()) + rng.normal(size=g.points)
        if holes:
            phi[rng.random(g.points) < 0.2] = np.inf
        if even:
            phi = np.maximum(phi, reflect(phi))
        f = LogDensity(g, phi)
        dual = make_grid(dim, 2.0, points)
        hull = hull_legendre(f, dual).phi
        for got, want in ((legendre_transform(f, dual).phi, hull),
                          (convex_envelope(f, dual).phi, hull_legendre(LogDensity(dual, hull), g).phi)):
            assert np.array_equal(np.isinf(got), np.isinf(want))
            fin = np.isfinite(want)
            assert np.all(np.abs(got[fin] - want[fin]) <= 4 * np.spacing(np.abs(want[fin])))


def _full_ladder(f):
    """default_dual_grid's half-widths and first hits (None where capped) from
    the whole ladder: conj(0) and all 256 rungs, each a dense max over every node."""
    hws, hits = [], []
    for k in range(f.grid.dim):
        shadow = np.min(np.moveaxis(f.phi, k, 0).reshape(f.grid.points[k], -1), axis=1)
        candidates = np.geomspace(f.grid.spacings[k], 4096.0, 256)
        conj = np.max(np.multiply.outer(np.r_[0.0, candidates], f.grid.axis(k)) - shadow, axis=1)
        hit = np.flatnonzero(conj[1:] >= conj[0] + legendre_mod.DUAL_DECAY_NATS)
        hws.append(1.05 * (candidates[hit[0]] if hit.size else 4096.0))
        hits.append(int(hit[0]) if hit.size else None)
    return tuple(hws), hits


def _legendre_check_inputs(seed, count=50, points=65):
    """The ``legendre-check`` scenario's random functions: not even, with +inf holes."""
    rng = np.random.default_rng(seed)
    grid = make_grid(1, 4.0, points)
    for i in range(count):
        phi = np.cumsum(rng.normal(size=points))
        phi = phi - phi.min()
        if i % 3 == 0:
            phi[rng.random(points) < 0.2] = np.inf
        yield LogDensity(grid, phi)


def _ladder_inputs():
    g1 = make_grid(1, 8.0, 513)
    battery = dict(battery_1d(g1), gaussian=gaussian(g1))
    for name, f in battery.items():
        yield f"1d-{name}", f
        for t in (0.05, 0.1, 0.2, 0.5, 1.0, 2.0):  # the flow scenario's default times
            yield f"1d-{name}-t{t}", fp_evolve(f, t)
    for family, f in (("cross2d", cross2d(make_grid(2, 6.0, 129))),
                      ("exp_power", exp_power(make_grid(2, 6.0, 129), 2.7)),
                      ("exp_power", exp_power(make_grid(3, 6.0, 33), 2.7))):
        for t in (0.0, 0.1, 0.5, 2.0):
            yield f"{f.grid.dim}d-{family}-{f.grid.points[0]}-t{t}", f if t == 0 else fp_evolve(f, t)
    for seed in (0, 11):
        for i, f in enumerate(_legendre_check_inputs(seed)):
            yield f"check-{seed}-{i}", f
    # boxes: conj(x) = x max(y in the box), so the first hit sweeps the ladder up to the cap
    for hw in np.geomspace(0.005, 8.0, 64):
        yield f"box-{hw:.4g}", box(make_grid(1, hw, 65), half=hw / 2)


def _rounding_inputs():
    """1D 513 inputs whose first hit sits at a rung r to within rounding:
    phi = 1000 but 0 at the centre and r y_j - 40, nudged by up to 2 ulp, at
    one node j, so the term x y_j - phi_j reaches the target near x = r."""
    g = make_grid(1, 8.0, 513)
    y = g.axis(0)
    for r in legendre_mod._ladder(g.spacings[0])[60:200:7]:
        for j in range(300, 513, 32):
            for ulps in (-2, -1, 0, 1, 2):
                phi = np.full(513, 1000.0)
                phi[256] = 0.0
                phi[j] = r * y[j] - 40.0
                for _ in range(abs(ulps)):
                    phi[j] = np.nextafter(phi[j], math.copysign(np.inf, ulps))
                yield f"r={r:.6g} j={j} ulps={ulps}", LogDensity(g, phi)


class TestDefaultDualGrid:
    def test_cap_warns(self):
        # the conjugate of a box of half-width 0.005 is 0.005 |x|: 20 nats at the cap
        f = box(make_grid(1, 0.01, 5), half=0.005)
        with pytest.warns(RuntimeWarning, match="axis 0"):
            dual = default_dual_grid(f)
        assert dual.axis(0)[-1] == pytest.approx(1.05 * 4096)

    def test_matches_the_full_ladder(self):
        rounding = list(_rounding_inputs())
        inputs = [*_ladder_inputs(), *rounding]
        assert len({name for name, _ in inputs}) == len(inputs)
        hits = []
        for name, f in inputs:
            want, first = _full_ladder(f)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                got = default_dual_grid(f)
            assert got.half_widths == want, name
            capped = [f"dual grid axis {k}" for k, hit in enumerate(first) if hit is None]
            assert [str(w.message).split(":")[0] for w in caught] == capped, name
            hits += first
        assert len(hits) == 49 + 4 * (2 + 2 + 3) + 100 + 64 + len(rounding)
        assert None in hits
        # rounding puts first hits one rung below and one above the rung at (T + phi_j) / y_j
        y, rungs = rounding[0][1].grid.axis(0), legendre_mod._ladder(rounding[0][1].grid.spacings[0])
        offsets = set()
        for (_, f), hit in zip(rounding, hits[-len(rounding):]):
            target = np.max(-f.phi) + legendre_mod.DUAL_DECAY_NATS
            offsets.add(hit - int(np.searchsorted(rungs, np.min((target + f.phi[y > 0]) / y[y > 0]))))
        assert offsets == {-1, 0, 1}


class TestConvexEnvelope:
    def test_involution_on_convex(self):
        g = make_grid(1, 8.0, 513)
        phi = 0.5 * g.axis(0) ** 2
        f = LogDensity(g, phi)
        env = convex_envelope(f, make_grid(1, 10.0, 1025))
        assert np.max(np.abs(env.phi - phi)) <= 1e-12

    def test_double_well_envelope(self):
        g = make_grid(1, 2.0, 257)
        y = g.axis(0)
        f = LogDensity(g, (y**2 - 1.0) ** 2)
        env = convex_envelope(f)
        inside = np.abs(y) <= 1.0
        assert np.max(np.abs(env.phi[inside])) <= 1e-10
        assert np.all(env.phi <= (y**2 - 1.0) ** 2 + 1e-12)


def _polar_two_conjugates(f, dual):
    """The polar rebuilt from two independent conjugates, over all nodes and
    with the boundary shell removed: +inf where the first exceeds the second."""
    full = legendre_transform(f, dual).phi
    trimmed = np.where(boundary_mask(f.phi.shape), np.inf, f.phi)
    inner = legendre_transform(LogDensity(f.grid, trimmed), dual).phi
    scale = 1.0 + np.where(np.isfinite(full), np.abs(full), 0.0)
    return np.where(full > inner + 1e-12 * scale, np.inf, full)


class TestPolarDensity:
    @pytest.mark.parametrize("dims", [(2, 1), (1, 2), (2, 3)], ids=["2d-on-1d", "1d-on-2d", "2d-on-3d"])
    def test_dual_of_another_dimension_rejected_up_front(self, monkeypatch, dims):
        """Refused with the conjugate's message before any shell is split or
        conjugate taken, so no ``LogDensity`` of the wrong shape is built."""
        calls = []
        for name in ("shell_split", "legendre_transform"):
            monkeypatch.setattr(legendre_mod, name, lambda *args, name=name: calls.append(name))
        f = gaussian(make_grid(dims[0], 6.0, 17))
        with pytest.raises(ValueError, match="dual grid dimension mismatch"):
            polar_density(f, make_grid(dims[1], 6.0, 17))
        assert calls == []

    def test_gaussian_polar_mass(self):
        g = make_grid(1, 8.0, 513)
        pol = polar_density(gaussian(g))
        assert log_integral(pol).value() == pytest.approx(2 * math.pi, rel=5e-3)

    def test_exp_abs_polar_is_indicator(self):
        g = make_grid(1, 8.0, 513)
        pol = polar_density(exp_power(g, 1.0))
        assert log_integral(pol).value() == pytest.approx(2.0, rel=1e-2)

    def test_scaled_gaussian_volume_product_invariance(self):
        # v(c gamma_A) = (2 pi)^n independent of c and A
        g = make_grid(1, 8.0, 513)
        from volprod.core import gaussian_to_logdensity, isotropic_gaussian

        for c in (0.5, 2.0):
            f = gaussian_to_logdensity(isotropic_gaussian(0.5, mass=c), g)
            v = log_integral(f).log_abs + log_integral(polar_density(f)).log_abs
            assert math.exp(v) == pytest.approx(2 * math.pi, rel=5e-3)

    @pytest.mark.parametrize(
        "f, splits",
        [(box(make_grid(1, 3.0, 129)), 0), (cross2d(make_grid(2, 6.0, 65)), 0), (gaussian(make_grid(2, 6.0, 33)), 1)],
        ids=["box-1d", "cross2d", "gaussian-2d"],
    )
    def test_plus_inf_shell_conjugates_once(self, monkeypatch, f, splits):
        # with the boundary shell already +inf, trimming it changes nothing
        # and one conjugate runs; a finite shell is split from -phi instead
        dual = default_dual_grid(f)
        want = legendre_transform(f, dual).phi
        calls = {"legendre_transform": [], "shell_split": []}

        def spy(name):
            inner = getattr(legendre_mod, name)

            def call(*args):
                calls[name].append(np.array_equal(args[0], -f.phi) if name == "shell_split" else args)
                return inner(*args)

            return call

        for name in calls:
            monkeypatch.setattr(legendre_mod, name, spy(name))
        got = polar_density(f, dual)
        assert len(calls["legendre_transform"]) == 1 - splits and calls["shell_split"] == [True] * splits
        assert got.phi.tobytes() == (_polar_two_conjugates(f, dual) if splits else want).tobytes()

    @pytest.mark.parametrize(
        "f",
        [gaussian(make_grid(1, 8.0, 513)), fp_evolve(cross2d(make_grid(2, 6.0, 65)), 0.5)],
        ids=["gaussian-1d", "cross2d-t0.5"],
    )
    def test_polar_builds_no_kernel(self, f):
        dual = default_dual_grid(f)
        # a 1D 513 kernel x (x) y takes 2.1 MB, its even half 1.05 MB
        assert peak_in_outputs(polar_density, f, dual) * f.phi.nbytes < 1e6
        got = polar_density(f, dual)

        want = _polar_two_conjugates(f, dual)
        assert np.isinf(want).any() and np.isfinite(want).any()
        assert got.phi.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "f",
        [exp_power(make_grid(1, 8.0, 513), 1.0), exp_power(make_grid(2, 6.0, 65), 1.0),
         fp_evolve(exp_power(make_grid(2, 6.0, 65), 1.5), 0.1), gaussian(make_grid(3, 4.0, 17)),
         exp_power(make_grid(3, 4.0, 17), 1.0), fp_evolve(box(make_grid(3, 4.0, 17)), 0.3)],
        ids=["exp_power1-1d", "exp_power1-2d", "exp_power1.5-2d-t0.1", "gaussian-3d", "exp_power1-3d",
             "box-3d-t0.3"],
    )
    def test_equals_the_two_conjugate_form(self, f):
        dual = default_dual_grid(f)
        want = _polar_two_conjugates(f, dual)
        assert np.isfinite(want).any()
        assert polar_density(f, dual).phi.tobytes() == want.tobytes()

    def test_non_even_warns(self):
        g = make_grid(1, 4.0, 65)
        f = LogDensity(g, 0.5 * (g.axis(0) - 0.5) ** 2)
        with pytest.warns(UserWarning):
            polar_density(f)

    def test_one_ulp_off_even_warns(self):
        g = make_grid(1, 4.0, 65)
        phi = 0.5 * g.axis(0) ** 2
        phi[40] = np.nextafter(phi[40], np.inf)
        with pytest.warns(UserWarning, match="non-even"):
            polar_density(LogDensity(g, phi))

    @pytest.mark.parametrize("dim, points", [(1, 65), (2, 33), (3, 17)])
    def test_even_density_built_from_its_values_does_not_warn(self, dim, points):
        g = make_grid(dim, 4.0, points)
        f = LogDensity(g, sum(0.5 * m**2 + np.abs(m) for m in g.meshgrid()))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            polar_density(f)
