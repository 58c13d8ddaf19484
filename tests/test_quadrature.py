import math

import numpy as np
import pytest
from scipy.special import erf

from volprod.core import LogDensity, gaussian_to_logdensity, isotropic_gaussian, make_grid
from volprod.densities import box, gaussian
from volprod.quadrature import (
    GAUSSIAN,
    LEBESGUE,
    Measure,
    add_trapezoid_log_weights,
    log_integral,
    log_lq_norm,
    logsumexp_in_place,
)

from conftest import boundary_mask, trapezoid_log_weights


def test_gaussian_mass():
    g = make_grid(1, 8.0, 513)
    v = log_integral(gaussian(g))
    assert v.value() == pytest.approx(1.0, rel=1e-10)
    assert not v.flagged


def test_gaussian_mass_2d():
    g = make_grid(2, 6.0, 129)
    v = log_integral(gaussian(g))
    assert v.value() == pytest.approx(1.0, rel=1e-7)


def test_truncated_gaussian_erf_oracle():
    # gamma_4 truncated at R=8 has mass erf(8 / sqrt(8)); trapezoid must see it
    g = make_grid(1, 8.0, 2049)
    f = gaussian_to_logdensity(isotropic_gaussian(4.0), g)
    v = log_integral(f)
    assert v.value() == pytest.approx(erf(8.0 / math.sqrt(8.0)), rel=1e-8)
    assert v.flagged  # boundary integrand is not negligible here


def test_box_integral_exact():
    g = make_grid(1, 8.0, 513)
    # half = 1 aligns with grid nodes; the jump nodes get full weight h,
    # so the discrete value is exactly 2 + h
    v = log_integral(box(g))
    assert v.value() == pytest.approx(2.0 + g.spacings[0], rel=1e-14)


def test_measure_gaussian_weight():
    g = make_grid(1, 8.0, 513)
    ones = LogDensity(g, np.zeros(513))
    v = log_integral(ones, GAUSSIAN)
    assert v.value() == pytest.approx(1.0, rel=1e-10)


def test_unknown_measure_rejected():
    with pytest.raises(ValueError):
        Measure("counting")


def test_logsumexp_all_inf_safe():
    assert logsumexp_in_place(np.array([-np.inf, -np.inf])) == -np.inf
    assert logsumexp_in_place(np.array([-np.inf, 0.0])) == pytest.approx(0.0)


def test_trapezoid_weights_sum():
    g = make_grid(2, 3.0, 33)
    w = np.exp(add_trapezoid_log_weights(np.zeros(g.points), g))
    assert w.sum() == pytest.approx(36.0, rel=1e-12)  # (2R)^2


@pytest.mark.parametrize(
    "grid",
    [make_grid(1, 2.5, 9), make_grid(1, 8.0, 513), make_grid(2, (5.0, 3.0), (33, 21)),
     make_grid(3, (3.0, 6.0, 4.5), (15, 17, 13)), make_grid(3, (4.0, 5.0, 3.5), (17, 19, 21))],
    ids=["1d-9", "1d-513", "2d-33x21", "3d-15x17x13", "3d-17x19x21"],
)
def test_trapezoid_weights_added_in_place(grid):
    a = np.random.default_rng(3).normal(size=grid.points)
    got = a.copy()
    assert add_trapezoid_log_weights(got, grid) is got
    assert got.tobytes() == (a + trapezoid_log_weights(grid)).tobytes()


@pytest.mark.parametrize("row_elems", [2**15, 7])
@pytest.mark.parametrize(
    "grid",
    [make_grid(1, 8.0, 513), make_grid(2, (5.0, 3.0), (33, 21)), make_grid(3, (4.0, 5.0, 3.5), (17, 19, 21)),
     make_grid(3, 6.0, 65)],
    ids=["1d-513", "2d-33x21", "3d-17x19x21", "3d-65"],
)
def test_gaussian_log_weight_added_in_row_bands(monkeypatch, grid, row_elems):
    """Band by band (one row per band at 7 elements), the Gaussian log-weight
    adds the bytes of -|x|^2 / 2 - n log(2 pi) / 2 formed whole, |x|^2 summed
    axis by axis from 0; added to zeros it gives those bytes alone, and the
    Lebesgue weight adds nothing."""
    monkeypatch.setattr("volprod.contract.ROW_ELEMS", row_elems)
    want = grid.sq_norm()
    want *= -0.5
    want -= 0.5 * grid.dim * math.log(2 * math.pi)
    a = np.random.default_rng(5).normal(size=grid.points)
    got = a.copy()
    assert GAUSSIAN.add_log_weight(got, grid) is got
    assert got.tobytes() == (a + want).tobytes()
    assert GAUSSIAN.add_log_weight(np.zeros(grid.points), grid).tobytes() == want.tobytes()
    assert LEBESGUE.add_log_weight(got, grid) is got and got.tobytes() == (a + want).tobytes()


def test_boundary_mask_counts():
    m = boundary_mask((5, 7))
    assert m.sum() == 2 * 7 + 2 * 5 - 4


def test_scaling_covariance():
    # int c f = c int f, exactly in log domain
    g = make_grid(1, 8.0, 257)
    f = gaussian(g)
    fc = LogDensity(g, f.phi - math.log(3.0))
    assert log_integral(fc).log_abs - log_integral(f).log_abs == pytest.approx(
        math.log(3.0), abs=1e-13
    )


def test_lq_norm_gaussian_closed_form():
    # ||gamma||_{L^p(dx)}^p = int gamma^p = (2 pi)^{(1-p)/2} p^{-1/2}
    g = make_grid(1, 8.0, 513)
    f = gaussian(g)
    for p in (0.5, 2.0, -1.0):
        target = (0.5 * (1 - p) * math.log(2 * math.pi) - 0.5 * math.log(abs(p))) / p
        if p == -1.0:
            # int gamma^{-1} dx diverges on R but is finite on the box;
            # compare against the truncated closed form instead
            target = math.log(2 * math.sqrt(2 * math.pi) * (math.exp(32.0) - 1) / 8.0) / p
        assert log_lq_norm(f, p).log_abs == pytest.approx(target, rel=1e-3)


def test_lq_norm_q_zero_rejected():
    g = make_grid(1, 8.0, 65)
    with pytest.raises(ValueError, match="q must be nonzero"):
        log_lq_norm(gaussian(g), 0.0)


@pytest.mark.parametrize("q", [math.inf, -math.inf, math.nan], ids=["inf", "minus_inf", "nan"])
def test_lq_norm_non_finite_q_rejected(q):
    """q = inf gave a zero norm, and -inf and NaN a NaN log from ``LogQuad``."""
    g = make_grid(1, 8.0, 65)
    with pytest.raises(ValueError, match="q must be finite"):
        log_lq_norm(gaussian(g), q)


def test_negative_q_ignores_zero_nodes():
    g = make_grid(1, 8.0, 513)
    v = log_lq_norm(box(g), -1.0)
    # int 1^{-1} over the support is 2 + h discretely; zero nodes carry no mass
    assert v.log_abs == pytest.approx(-math.log(2.0 + g.spacings[0]), rel=1e-12)


def test_jensen_monotonicity_of_lq_norms():
    # q -> ||f||_{L^q(gamma)} is nondecreasing for a probability measure
    g = make_grid(1, 8.0, 513)
    f = LogDensity(g, 0.1 * g.axis(0) ** 2 + 0.3)
    norms = [log_lq_norm(f, q, GAUSSIAN).log_abs for q in (-2.0, -1.0, 0.5, 1.0, 2.0)]
    assert all(b >= a - 1e-12 for a, b in zip(norms, norms[1:]))


def test_grid_refinement_reduces_error():
    # the Gaussian is superconvergent under trapezoid, so probe with a kink
    from volprod.densities import exp_power

    target = 2.0 * (1.0 - math.exp(-8.0))
    errs = []
    for n in (65, 257):
        g = make_grid(1, 8.0, n)
        errs.append(abs(log_integral(exp_power(g, 1.0)).value() - target))
    assert errs[1] < errs[0] / 4


def test_tail_ratio_of_a_density_on_the_boundary_shell_alone():
    """No interior node carries mass, so the boundary-to-interior ratio is inf;
    the integral is the shell's trapezoid weights: 15 h^2 on 9 x 9 nodes."""
    g = make_grid(2, 3.0, 9)
    phi = np.where(boundary_mask(g.points), 0.0, np.inf)
    lq = log_integral(LogDensity(g, phi))
    assert lq.tail_ratio == math.inf
    assert lq.log_abs == pytest.approx(math.log(15 * 0.75**2), rel=1e-14)


def test_tail_ratio_flags_wide_density():
    g = make_grid(1, 2.0, 65)  # box far too small for gamma_4
    f = gaussian_to_logdensity(isotropic_gaussian(4.0), g)
    assert log_integral(f).flagged
