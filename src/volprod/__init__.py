"""Numerical laboratory for functional volume products under heat flow."""

from .core import (
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
from .densities import FAMILIES, battery_1d, from_family
from .functionals import (
    BLData,
    BLOptimum,
    RevHCReport,
    bl_data,
    bl_integral,
    equiv_form_check,
    gaussian_bl_constant,
    gaussian_rev_hc,
    laplace_f_t,
    laplace_norm_ratio,
    lr_volume_product,
    nelson_q,
    q_functional,
    rev_hc_value,
    tropical_limit_curve,
    volume_product,
)
from .heatflow import KernelUnderResolvedError, flow_trajectory, fp_evolve, ou_apply
from .legendre import convex_envelope, legendre_transform, polar_density
from .oracles import (
    QuadraticForm,
    cramer_rao_check,
    fd_derivative,
    gaussian_closed_forms,
    gaussian_form_integral,
    hull_legendre,
    ou_second_moment,
    pbl_check,
)
from .quadrature import GAUSSIAN, LEBESGUE, Measure, log_integral, log_lq_norm

__version__ = "0.1.0"
