"""Full-size-array budgets per route on 3D 65^3.

Each peak is tracemalloc's, in units of one 65^3 float array (2.2 MB), the
output included. A builder or an integral holds its output and slab- or
band-sized temporaries only. A contraction route holds the buffers it
contracts into (``contract(..., out=)``) plus orthant-sized engine
temporaries: the flow one full-size array, the conjugate its negated input,
and the polar and the edge flags the array ``shell_split`` owns (the polar's
negated input, the flags' own; its shell masked in place and the interior's
maximum contracted into it), beside which the shell's maximum is formed band
by band: the polar writes its output into that array, the flags compare
into their boolean one. The Laplace transform holds its output beside the edge
flags' buffers, the Brascamp-Lieb integral its two integrands and their
contraction, and one step of the tropical bridge its lift and the OU flow
beside the edge flags' buffers, then the window weight once they are gone.
"""

import pytest

from volprod.core import ExponentSchedule, body_to_logdensity, ellipsoid, lp_ball, make_grid
from volprod.densities import box, exp_power, gaussian
from volprod.functionals import bl_data, bl_integral, laplace_grid, log_laplace, tropical_limit_curve, volume_product
from volprod.heatflow import fp_evolve, ou_apply, ou_edge_flags
from volprod.legendre import default_dual_grid, legendre_transform, polar_density
from volprod.quadrature import GAUSSIAN, log_integral, log_lq_norm

from conftest import peak_in_outputs

GRID = make_grid(3, 6.0, 65)
F = gaussian(GRID)
ELLIPSOID = [[1.0, 0.3, 0.0], [0.3, 0.8, 0.1], [0.0, 0.1, 1.5]]
S = 0.4
SCALE = 1.0 / ExponentSchedule(S).p
X_GRID = laplace_grid(F, ExponentSchedule(S).q, SCALE)

BUDGETS = {
    "gaussian": (lambda: gaussian(GRID), 1.3),
    "exp_power": (lambda: exp_power(GRID, 2.7), 1.3),
    "box": (lambda: box(GRID), 1.3),
    "body-lp2": (lambda: body_to_logdensity(lp_ball(2.0, 3), GRID), 1.3),
    "body-lp3.5": (lambda: body_to_logdensity(lp_ball(3.5, 3), GRID), 1.3),
    "body-lpinf": (lambda: body_to_logdensity(lp_ball(float("inf"), 3), GRID), 1.3),
    "body-ellipsoid": (lambda: body_to_logdensity(ellipsoid(ELLIPSOID), GRID), 1.3),
    "log_integral": (lambda: log_integral(F), 1.1),
    "log_lq_norm-gaussian": (lambda: log_lq_norm(F, -1.0, GAUSSIAN), 1.15),
    "default_dual_grid": (lambda: default_dual_grid(F), 0.1),
    "fp_evolve": (lambda: fp_evolve(F, 0.5), 1.7),
    "ou_apply": (lambda: ou_apply(F, 0.5), 1.7),
    "ou_edge_flags": (lambda: ou_edge_flags(F, S), 2.05),
    "log_laplace": (lambda: log_laplace(F, X_GRID, SCALE), 3.15),
    "bl_integral": (lambda: bl_integral(F, F, bl_data(S)), 3.15),
    "tropical_limit_curve": (lambda: tropical_limit_curve(F, [S]), 4.05),
    "legendre_transform": (lambda: legendre_transform(F), 1.45),
    "polar_density": (lambda: polar_density(F), 1.55),
    "volume_product": (lambda: volume_product(F), 2.1),
}


@pytest.mark.parametrize("route", list(BUDGETS))
def test_route_within_budget(route):
    call, budget = BUDGETS[route]
    assert peak_in_outputs(call, nbytes=F.phi.nbytes) <= budget
