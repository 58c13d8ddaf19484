"""The benchmark's workloads: inputs, timed calls into volprod and their checks.

Each workload is a fixed list of cases. A case's ``run`` calls volprod's public
functions and is the only timed code; its ``check`` compares the result with
closed forms written out here (independent of ``volprod.oracles``) and runs
outside every timed region. Grids and density families are fixed, so the work
per pass does not depend on the seed; the seed only draws the ``exp_power``
exponent and ``legendre-check``'s random functions.

Why these three workloads, and which layer should move which number:

* ``cli1d`` drives ``volprod.cli.run`` in-process on 1D 513-node configs, the
  way users run the lab: many small, Python-loop-bound calls. The Legendre hull
  sweep, the per-node Laplace loop and the FP/OU contractions share its time.
  A change that helps large grids but costs small ones (the dense max-plus
  conjugate is slower in 1D) shows here.
* ``volprod-nd`` runs ``volume_product`` along the flow on 2D 129^2 and 3D
  33^3, plus ``v(gamma)`` and one ``fp_evolve`` on 3D 65^3. The per-column
  Legendre hull dominates its time; the 65^3 contraction sets its peak RSS. No
  Laplace, Brascamp-Lieb or L^r code runs, so changes there must not move it.
* ``transforms`` runs the Laplace, reverse-hypercontractivity, Brascamp-Lieb
  and L^r layers. ``lr_volume_product`` and ``log_laplace`` dominate it, and
  no Legendre code runs, so conjugate changes must not move it.

``legendre.*.self_s`` should move ``pass_s`` on ``volprod-nd`` (most) and
``cli1d`` only; ``heatflow.fp_evolve.{self_s,peak_alloc_mb}`` moves ``pass_s``
and ``peak_rss_mb`` on ``volprod-nd`` and ``pass_s`` on ``cli1d``;
``functionals.{lr_volume_product,log_laplace,bl_integral}.self_s`` move
``pass_s`` on ``transforms`` (``log_laplace`` also on ``cli1d``); ``quadrature``
and ``cli`` I/O move ``cli1d`` only slightly and are kept so a regression shows.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from volprod import cli, core, densities, functionals, heatflow, quadrature

S_HALF_LN2 = 0.5 * math.log(2)
SHARP_LAPLACE = 1.0 / (4 * math.pi)  # ||L gamma||_{-1} / ||gamma||_{1/2} in 1D
ALPHA_RANGE = (1.0, 4.0)  # the seeded exp_power exponent; covers the battery's 1, 1.5, 3 and 4
FLOW_TIMES = (0.0, 0.1, 0.5, 2.0)
Q_TIMES = (0.0, 0.05, 0.1, 0.2, 0.3, 0.5, 0.75, 1.0, 2.0)
NONNEG_TOL = -1e-4  # flow increments of log v and rev-HC slacks must reach this

# (half_width, points) per grid; ``tiny`` keeps every kernel resolved and only
# exists so the smoke test runs in seconds. ``lr`` is (inner_cells, outer
# points); the outer half-width is the one the library picks for these
# unit-inradius bodies, so ``full`` matches lr_volume_product's defaults.
SIZES = {
    "full": {
        "g1": (8.0, 513), "g2": (6.0, 129), "g3": (6.0, 33), "g3big": (6.0, 65),
        "gbl": (6.0, 65), "lr": (64, 129), "legendre_count": 50,
    },
    "tiny": {
        "g1": (8.0, 129), "g2": (6.0, 33), "g3": (2.5, 13), "g3big": (2.5, 13),
        "gbl": (6.0, 17), "lr": (16, 17), "legendre_count": 5,
    },
}


@dataclass
class Verdict:
    """What a check found: a result checksum, oracle deviations and failed gates."""

    checksum: str
    errs: dict[str, float] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)

    def gate(self, ok: bool, what: str):
        if not ok:
            self.failures.append(what)


@dataclass
class Case:
    name: str
    run: Callable[[], object]
    check: Callable[[object], Verdict]


@dataclass
class Workload:
    name: str
    cases: list[Case]
    record: dict  # grids, drawn inputs: written to the run record


def _g17(values) -> str:
    return " ".join(format(float(v), ".17g") for v in values)


def _finite_gate(v: Verdict, values):
    v.gate(all(math.isfinite(float(x)) for x in values), "non-finite result")


def _rel(value: float, target: float) -> float:
    return abs(value / target - 1.0)


def _battery(grid):
    out = dict(densities.battery_1d(grid))
    out["gaussian"] = densities.gaussian(grid)
    return out


def draw_alpha(seed: int) -> float:
    return float(np.random.default_rng(seed).uniform(*ALPHA_RANGE))


# ---------------------------------------------------------------- cli1d

def _ini(sections: dict) -> str:
    return "".join(
        f"[{sec}]\n" + "".join(f"{k} = {v}\n" for k, v in body.items()) for sec, body in sections.items()
    )


def _csv_rows(path: Path) -> list[dict]:
    lines = path.read_text().splitlines()
    return list(csv.DictReader(lines[1:]))  # line 0 is the resolved-config comment


def _cli_case(scenario: str, sections: dict, out_dir: Path, extra_check=None) -> Case:
    """One ``volprod <scenario>`` run; fails on a non-zero status or a bad CSV."""
    ini = out_dir / f"{scenario}.ini"
    ini.write_text(_ini(sections))
    cfg = cli.parse_config(ini, scenario)
    cfg.out_dir = out_dir
    csv_path = out_dir / cfg.get("output", "csv", f"{scenario}.csv")

    def run():
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            status = cli.run(cfg)
        return status, stdout.getvalue()

    def check(out):
        status, stdout = out
        data = csv_path.read_bytes()
        v = Verdict(checksum="sha256:" + hashlib.sha256(data).hexdigest())
        v.gate(status == 0, f"exit status {status} (expected 0)")
        rows = _csv_rows(csv_path)
        v.gate(len(rows) > 0, "empty CSV")
        for row in rows:
            for key, val in row.items():
                try:
                    x = float(val)
                except ValueError:
                    continue
                v.gate(math.isfinite(x), f"non-finite {key} in CSV")
        if extra_check is not None:
            extra_check(v, rows, stdout)
        return v

    return Case(f"cli-{scenario}", run, check)


def _check_flow(v: Verdict, rows, _):
    lv = [float(r["log_v"]) for r in rows if r["family"] == "gaussian" and float(r["t"]) == 0.0]
    v.errs["v_gamma_1d"] = _rel(math.exp(lv[0]), 2 * math.pi)
    v.gate(v.errs["v_gamma_1d"] <= 5e-3, "v(gamma_1) off (2 pi)")


def _check_revhc(v: Verdict, rows, _):
    dev = max(abs(float(r["slack"])) for r in rows if r["family"] == "gaussian")
    v.errs["revhc_gamma_slack"] = dev
    v.gate(dev <= 1e-4, "gaussian rev-HC slack not 0")


def _check_laplace(v: Verdict, rows, _):
    ratio = [float(r["ratio"]) for r in rows if r["family"] == "gaussian"][0]
    v.errs["laplace_gamma_ratio"] = _rel(ratio, SHARP_LAPLACE)
    v.gate(v.errs["laplace_gamma_ratio"] <= 5e-3, "gaussian Laplace ratio off 1/(4 pi)")


def _check_tropical(v: Verdict, rows, _):
    # criterion 9 is known-red: record the error curve, never gate on it
    v.checksum += " rel_err=" + _g17(float(r["rel_err"]) for r in rows)


def _check_blconst(v: Verdict, rows, _):
    v.errs["cs_times_bl_1d"] = max(abs(float(r["cs_times_bl"]) - 1.0) for r in rows)
    v.errs["bl_grid_vs_closed_1d"] = max(abs(float(r["grid_rel_dev"])) for r in rows)


def _check_validate(v: Verdict, rows, stdout):
    # the CSV writes a Python bool as 1 and a numpy bool as True
    v.gate(all(r["passed"] in ("1", "True") for r in rows), "validate: a check failed")
    v.gate("FAIL" not in stdout and stdout.count("PASS") == len(rows), "validate: output not all PASS")


def build_cli1d(seed: int, size: dict, out_dir: Path) -> Workload:
    hw, pts = size["g1"]
    grid = {"points": pts, "half_width": hw}
    alpha = draw_alpha(seed)
    specs = [
        ("flow", {"grid": grid, "density": {"family": "battery"},
                  "params": {"times": "0.05, 0.1, 0.2, 0.5, 1, 2", "assert_monotone": "true"},
                  "output": {"csv": "flow.csv", "svg": "flow.svg"}}, _check_flow),
        ("revhc", {"grid": grid, "density": {"family": "battery"}}, _check_revhc),
        ("laplace", {"grid": grid, "density": {"family": "battery"}, "params": {"p": 0.5}}, _check_laplace),
        ("tropical", {"grid": grid, "density": {"family": "exp_power", "alpha": repr(alpha)}}, _check_tropical),
        ("legendre-check", {"params": {"count": size["legendre_count"], "points": 65, "seed": seed}}, None),
        ("nelson", {"params": {"s": 0.3, "p": 0.5, "q": 0.08893, "assert_threshold_min": 0.9}}, None),
        ("blconst", {"grid": grid}, _check_blconst),
        ("validate", {"params": {}}, _check_validate),
    ]
    cases = [_cli_case(scenario, sections, out_dir, chk) for scenario, sections, chk in specs]
    return Workload("cli1d", cases, {"grid_1d": [hw, pts], "exp_power_alpha": alpha,
                                     "scenarios": [s for s, _, _ in specs]})


# ---------------------------------------------------------------- volprod-nd

def _flow_case(name: str, f: core.LogDensity, known_red: bool = False) -> Case:
    """log v(f_t) along the FP flow; fails unless it is non-decreasing.

    A ``known_red`` case records its worst decrement in the checksum and is
    not gated: on exp_power with alpha >= 2, log v falls by up to 4e-4 on
    129^2 and 1.4e-2 on 33^3, so the flow's monotonicity is lost to the grid.
    """

    def run():
        return [functionals.volume_product(f if t == 0 else heatflow.fp_evolve(f, t)).log_abs
                for t in FLOW_TIMES]

    def check(logs):
        v = Verdict(checksum=_g17(logs))
        _finite_gate(v, logs)
        worst = min(b - a for a, b in zip(logs, logs[1:]))
        if known_red:
            v.checksum += f" worst_dlogv={worst:.17g}"
            return v
        v.errs["flow_monotonicity"] = max(0.0, -worst)
        v.gate(worst >= NONNEG_TOL, f"log v decreased by {-worst:.3g} along the flow")
        return v

    return Case(name, run, check)


def _vgamma_case(name: str, f: core.LogDensity) -> Case:
    n = f.grid.dim

    def run():
        return functionals.volume_product(f).log_abs

    def check(lv):
        v = Verdict(checksum=_g17([lv]))
        _finite_gate(v, [lv])
        v.errs[f"v_gamma_{n}d"] = _rel(math.exp(lv), (2 * math.pi) ** n)
        v.gate(v.errs[f"v_gamma_{n}d"] <= 5e-3, f"v(gamma_{n}) off (2 pi)^{n}")
        return v

    return Case(name, run, check)


def _fpmass_case(name: str, f0: core.LogDensity, t: float) -> Case:
    def run():
        ft = heatflow.fp_evolve(f0, t)
        return quadrature.log_integral(f0).log_abs, quadrature.log_integral(ft).log_abs

    def check(masses):
        v = Verdict(checksum=_g17(masses))
        _finite_gate(v, masses)
        v.errs["fp_mass"] = abs(masses[1] - masses[0])
        v.gate(v.errs["fp_mass"] <= 1e-8, "FP flow lost mass")
        return v

    return Case(name, run, check)


def build_volprod_nd(seed: int, size: dict, out_dir: Path) -> Workload:
    alpha = draw_alpha(seed)
    g2 = core.make_grid(2, *size["g2"])
    g3 = core.make_grid(3, *size["g3"])
    g3big = core.make_grid(3, *size["g3big"])
    cases = [
        _flow_case(f"flow-cross2d-{g2.points[0]}", densities.cross2d(g2)),
        _flow_case(f"flow-exp_power-{g2.points[0]}", densities.exp_power(g2, alpha), known_red=True),
        _flow_case(f"flow-exp_power-{g3.points[0]}", densities.exp_power(g3, alpha), known_red=True),
        _vgamma_case(f"vgamma-{g3big.points[0]}", densities.gaussian(g3big)),
        _fpmass_case(f"fpmass-box-{g3big.points[0]}", densities.box(g3big), 0.5),
    ]
    return Workload("volprod-nd", cases, {"grid_2d": list(size["g2"]), "grid_3d": list(size["g3"]),
                                          "grid_3d_big": list(size["g3big"]), "exp_power_alpha": alpha,
                                          "times": list(FLOW_TIMES)})


# ---------------------------------------------------------------- transforms

def _revhc_case(name: str, f: core.LogDensity, is_gaussian: bool) -> Case:
    s_list = (0.2, S_HALF_LN2, 1.0)

    def run():
        return [functionals.rev_hc_value(f, s).slack for s in s_list]

    def check(slacks):
        v = Verdict(checksum=_g17(slacks))
        _finite_gate(v, slacks)
        v.gate(min(slacks) >= NONNEG_TOL, "reverse hypercontractivity violated")
        if is_gaussian:
            v.errs["revhc_gamma_slack"] = max(abs(x) for x in slacks)
            v.gate(v.errs["revhc_gamma_slack"] <= 1e-4, "gaussian rev-HC slack not 0")
        return v

    return Case(name, run, check)


def _laplace_case(name: str, f: core.LogDensity, is_gaussian: bool) -> Case:
    def run():
        return functionals.laplace_norm_ratio(f, 0.5).log_abs

    def check(lr):
        v = Verdict(checksum=_g17([lr]))
        _finite_gate(v, [lr])
        ratio = math.exp(lr)
        v.gate(ratio >= SHARP_LAPLACE * (1 - 1e-3), "sharp Laplace inequality violated")
        if is_gaussian:
            v.errs["laplace_gamma_ratio"] = _rel(ratio, SHARP_LAPLACE)
            v.gate(v.errs["laplace_gamma_ratio"] <= 5e-3, "gaussian Laplace ratio off 1/(4 pi)")
        return v

    return Case(name, run, check)


def _qfunc_case(name: str, f: core.LogDensity) -> Case:
    def run():
        return [q for _, q in functionals.q_functional(f, S_HALF_LN2, Q_TIMES)]

    def check(qs):
        v = Verdict(checksum=_g17(qs))
        _finite_gate(v, qs)
        return v

    return Case(name, run, check)


def _dualroute_case(name: str, f: core.LogDensity) -> Case:
    def run():
        lhs, rhs = functionals.equiv_form_check(f, S_HALF_LN2)
        return lhs.log_abs, rhs.log_abs

    def check(sides):
        v = Verdict(checksum=_g17(sides))
        _finite_gate(v, sides)
        v.errs["dual_route_2d"] = abs(math.expm1(sides[0] - sides[1]))
        v.gate(v.errs["dual_route_2d"] <= 1e-3, "OU and Laplace routes disagree")
        return v

    return Case(name, run, check)


def _blconst_case(name: str, grid: core.GridSpec) -> Case:
    n = grid.dim
    data = functionals.bl_data(S_HALF_LN2)

    def run():
        opt = functionals.gaussian_bl_constant(data, n=n)
        f1 = core.gaussian_to_logdensity(core.isotropic_gaussian(float(opt.a_diag[0]), n), grid)
        f2 = core.gaussian_to_logdensity(core.isotropic_gaussian(float(opt.b_diag[0]), n), grid)
        grid_log = functionals.bl_integral(f1, f2, data).log_abs
        return opt.degenerate, opt.value.log_abs, grid_log, functionals.log_c_s(S_HALF_LN2, n)

    def check(out):
        degenerate, closed, grid_log, log_cs = out
        v = Verdict(checksum=_g17([closed, grid_log]))
        _finite_gate(v, [closed, grid_log])
        v.gate(not degenerate, "BL optimum degenerate")
        v.errs["bl_grid_vs_closed_2d"] = abs(math.expm1(grid_log - closed))
        v.errs["cs_times_bl_2d"] = abs(math.expm1(log_cs + closed))
        v.gate(v.errs["bl_grid_vs_closed_2d"] <= 1e-2, "BL grid integral off its closed form")
        v.gate(v.errs["cs_times_bl_2d"] <= 1e-3, "C_s * BL != 1")
        return v

    return Case(name, run, check)


def _lrvol_case(name: str, lr_size) -> Case:
    bodies = {"square": core.lp_ball(math.inf, 2), "disk": core.lp_ball(2.0, 2),
              "diamond": core.lp_ball(1.0, 2)}
    inner, outer = lr_size
    outer_grid = core.make_grid(2, functionals.LAPLACE_DECAY_NATS + 2.0, outer)

    def run():
        return {b: functionals.lr_volume_product(body, 2.0, outer_grid, inner).log_abs for b, body in bodies.items()}

    def check(logs):
        v = Verdict(checksum=_g17(logs.values()))
        _finite_gate(v, logs.values())
        worst = max(math.expm1(logs[b] - logs["disk"]) for b in logs)
        v.errs["lr_disk_max"] = max(0.0, worst)
        v.gate(worst <= 1e-3, "the disk does not maximize M_r")
        return v

    return Case(name, run, check)


def build_transforms(seed: int, size: dict, out_dir: Path) -> Workload:
    alpha = draw_alpha(seed)
    g1 = core.make_grid(1, *size["g1"])
    g2 = core.make_grid(2, *size["g2"])
    members = _battery(g1)
    members["exp_power_seeded"] = densities.exp_power(g1, alpha)
    cases = [_revhc_case(f"revhc-{m}", f, m == "gaussian") for m, f in members.items()]
    cases += [_laplace_case(f"laplace-{m}", f, m == "gaussian") for m, f in members.items()]
    cases += [
        _qfunc_case("qfunc-exp_power_seeded", members["exp_power_seeded"]),
        _dualroute_case(f"dualroute-gamma-{g2.points[0]}", densities.gaussian(g2)),
        _blconst_case(f"blconst-2d-{size['gbl'][1]}", core.make_grid(2, *size["gbl"])),
        _lrvol_case("lrvol-r2", size["lr"]),
    ]
    return Workload("transforms", cases, {"grid_1d": list(size["g1"]), "grid_2d": list(size["g2"]),
                                          "grid_bl": list(size["gbl"]), "lr": size["lr"],
                                          "exp_power_alpha": alpha, "members": list(members)})


BUILDERS = {"cli1d": build_cli1d, "volprod-nd": build_volprod_nd, "transforms": build_transforms}


def build(name: str, seed: int, size: str, out_dir: Path) -> Workload:
    return BUILDERS[name](seed, SIZES[size], out_dir)
