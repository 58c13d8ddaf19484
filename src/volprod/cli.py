"""Config-driven experiment runner: CSV tables and simple SVG line plots.

Configs are flat ``key = value`` files with ``[section]`` headers (parsed by
configparser).  Every CSV starts with a comment row recording the resolved
config, so outputs are self-describing and byte-identical across reruns.
"""

from __future__ import annotations

import argparse
import configparser
import inspect
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import densities, functionals, heatflow, legendre, oracles, quadrature
from .core import GridSpec, LogDensity, gaussian_to_logdensity, isotropic_gaussian, lp_ball, make_grid
from .functionals import log_c_s

_BODIES = {
    "square": lambda: lp_ball(math.inf, 2),
    "disk": lambda: lp_ball(2.0, 2),
    "diamond": lambda: lp_ball(1.0, 2),
}


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    """Resolved experiment description: scenario plus raw config sections."""

    scenario: str
    sections: dict = field(default_factory=dict)
    out_dir: Path = Path(".")

    def __post_init__(self):
        if self.scenario not in _RUNNERS:
            raise ConfigError(f"unknown scenario {self.scenario!r}; known: {tuple(_RUNNERS)}")

    def get(self, section: str, key: str, default=None) -> str | None:
        return self.sections.get(section, {}).get(key, default)

    def get_float(self, section: str, key: str, default: float | None = None) -> float:
        raw = self.get(section, key)
        if raw is None:
            if default is None:
                raise ConfigError(f"missing required key [{section}] {key}")
            return default
        try:
            return float(raw)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key}: not a number: {raw!r}") from exc

    def get_int(self, section: str, key: str, default: int | None = None) -> int:
        value = self.get_float(section, key, default)
        if not float(value).is_integer():
            raise ConfigError(f"[{section}] {key}: not an integer: {self.get(section, key)!r}")
        return int(value)

    def get_floats(self, section: str, key: str, default: str | None = None) -> list[float]:
        raw = self.get(section, key, default)
        if raw is None:
            raise ConfigError(f"missing required key [{section}] {key}")
        try:
            values = [float(tok) for tok in raw.split(",") if tok.strip()]
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key}: bad number list: {raw!r}") from exc
        if not values:
            raise ConfigError(f"[{section}] {key}: no number in {raw!r}")
        return values

    def resolved(self) -> str:
        parts = [f"scenario={self.scenario}"]
        for sec in sorted(self.sections):
            for key in sorted(self.sections[sec]):
                parts.append(f"{sec}.{key}={self.sections[sec][key]}")
        return " ".join(parts)


def parse_config(path: Path | str, scenario: str) -> ExperimentConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        # configparser errors carry line numbers in their messages
        raise ConfigError(f"config parse error in {path}: {exc}") from exc
    sections = {sec: dict(parser.items(sec)) for sec in parser.sections()}
    return ExperimentConfig(scenario=scenario, sections=sections)


def _grid(cfg: ExperimentConfig) -> GridSpec:
    dim = cfg.get_int("grid", "dim", 1)
    hw = cfg.get_float("grid", "half_width", 8.0 if dim == 1 else 6.0)
    pts = cfg.get_int("grid", "points", 513 if dim == 1 else 129)
    return make_grid(dim, hw, pts)


def _density_set(cfg: ExperimentConfig, grid: GridSpec) -> dict[str, LogDensity]:
    """The family's densities; [density] holds the family's parameters only."""
    family = cfg.get("density", "family")
    if family is None:
        raise ConfigError("missing required key [density] family")
    if family != "battery" and family not in densities.FAMILIES:
        raise ConfigError(f"unknown density family {family!r}; known: {sorted(densities.FAMILIES) + ['battery']}")
    # the parameters after the grid (the battery takes none)
    takes = list(inspect.signature(densities.FAMILIES.get(family, densities.battery_1d)).parameters.values())[1:]
    extra = sorted(set(cfg.sections["density"]) - {"family"} - {p.name for p in takes})
    if extra:
        raise ConfigError(f"[density] {extra[0]}: family {family!r} takes only {[p.name for p in takes]}")
    if family == "battery":
        if grid.dim != 1:
            raise ConfigError("the battery is one-dimensional")
        out = densities.battery_1d(grid)
        out["gaussian"] = densities.gaussian(grid)
        return out
    # get_float reports a missing key that has no default
    params = {p.name: cfg.get_float("density", p.name) for p in takes
              if p.default is p.empty or cfg.get("density", p.name) is not None}
    return {family: densities.from_family(family, grid, **params)}


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def write_csv(path: Path, columns, rows, config_comment: str):
    lines = ["# " + config_comment, ",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------- plotting

_PALETTE = ("#1f6fb2", "#d1495b", "#2e8b57", "#8e5aa8", "#c77d2e", "#3b3b3b")


def emit_plot(series, path: Path | str, title: str = ""):
    """Write a self-contained SVG line plot.

    series: list of (label, xs, ys) triples, all nonempty.
    """
    if not series:
        raise ValueError("emit_plot needs at least one series")
    for label, xs, ys in series:
        if len(xs) == 0 or len(xs) != len(ys):
            raise ValueError(f"series {label!r} is empty or mismatched")
    width, height, ml, mr, mt, mb = 640, 480, 70, 20, 30, 45
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys]
    x0, x1 = min(xs_all), max(xs_all)
    y0, y1 = min(ys_all), max(ys_all)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0

    def px(x):
        return ml + (x - x0) / (x1 - x0) * (width - ml - mr)

    def py(y):
        return height - mb - (y - y0) / (y1 - y0) * (height - mt - mb)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{ml}" y1="{height - mb}" x2="{width - mr}" y2="{height - mb}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{height - mb}" stroke="black"/>',
    ]
    if title:
        out.append(f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" font-size="14">{title}</text>')
    for i in range(5):
        xt = x0 + i * (x1 - x0) / 4
        yt = y0 + i * (y1 - y0) / 4
        out.append(
            f'<text x="{px(xt):.1f}" y="{height - mb + 18}" text-anchor="middle" font-size="11">{xt:.4g}</text>'
        )
        out.append(
            f'<text x="{ml - 6}" y="{height - mb - i * (height - mt - mb) / 4 + 4:.1f}" '
            f'text-anchor="end" font-size="11">{yt:.4g}</text>'
        )
    for idx, (label, xs, ys) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = mt + 16 + 16 * idx
        out.append(f'<line x1="{width - mr - 150}" y1="{ly - 4}" x2="{width - mr - 125}" y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{width - mr - 120}" y="{ly}" font-size="12">{label}</text>')
    out.append("</svg>")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(out) + "\n")


# ---------------------------------------------------------------- scenarios


def _scenario_flow(cfg: ExperimentConfig):
    grid = _grid(cfg)
    times = cfg.get_floats("params", "times", "0.05,0.1,0.2,0.5,1,2")
    # t = 0 is always the first row, and the monotone gate reads the rows in order
    if not all(t > 0 for t in times) or not all(b > a for a, b in zip(times, times[1:])):
        raise ConfigError(f"[params] times: must be positive and strictly increasing, got {cfg.get('params', 'times')!r}")
    dens = _density_set(cfg, grid)
    columns = ["family", "t", "log_v", "flag"]
    rows = []
    ok = True
    series = []
    for name, f in sorted(dens.items()):
        logs = []
        for t in [0.0] + times:
            v = functionals.volume_product(f if t == 0 else heatflow.fp_evolve(f, t))
            rows.append((name, t, v.log_abs, v.flagged))
            logs.append(v.log_abs)
        ok &= all(b - a >= -1e-4 for a, b in zip(logs, logs[1:]))
        series.append((name, [0.0] + times, logs))
    return columns, rows, ok, series


def _scenario_revhc(cfg: ExperimentConfig):
    grid = _grid(cfg)
    s_list = cfg.get_floats("params", "s", "0.2,0.34657359027997264,1")
    dens = _density_set(cfg, grid)
    columns = ["family", "s", "slack", "flag"]
    rows, series, ok = [], [], True
    for name, f in sorted(dens.items()):
        slacks = []
        for s in s_list:
            rep = functionals.rev_hc_value(f, s)
            rows.append((name, s, rep.slack, rep.log_lhs.flagged))
            ok &= rep.slack >= -1e-4
            slacks.append(rep.slack)
        series.append((name, s_list, slacks))
    return columns, rows, ok, series


def _scenario_nelson(cfg: ExperimentConfig):
    s = cfg.get_float("params", "s", 0.3)
    p = cfg.get_float("params", "p", 0.5)
    q_list = cfg.get_floats("params", "q", None)
    betas = cfg.get_floats("params", "betas", "1,2,4,8,16,32,64")
    shifts = cfg.get_floats("params", "shifts", "0,1,2,3,4,5,6")
    columns = ["q", "beta", "shift", "value"]
    rows, ok = [], True
    infima = []
    for q in q_list:
        vals = []
        for beta in betas:
            for a in shifts:
                v = functionals.gaussian_rev_hc(beta, [a], s, p, q).value()
                rows.append((q, beta, a, v))
                vals.append(v)
        infima.append(min(vals))
    if cfg.get("params", "assert_threshold_min") is not None:
        ok &= infima[0] >= cfg.get_float("params", "assert_threshold_min")
    return columns, rows, ok, None


def _scenario_laplace(cfg: ExperimentConfig):
    grid = _grid(cfg)
    p = cfg.get_float("params", "p", 0.5)
    dens = _density_set(cfg, grid)
    target = oracles.gaussian_closed_forms("laplace_gamma_ratio", p=p, n=grid.dim).value()
    columns = ["family", "ratio", "ratio_over_sharp", "flag"]
    rows, ok = [], True
    for name, f in sorted(dens.items()):
        r = functionals.laplace_norm_ratio(f, p)
        rows.append((name, r.value(), r.value() / target, r.flagged))
        ok &= r.value() >= target * (1 - 1e-3)
    return columns, rows, ok, None


def _scenario_blconst(cfg: ExperimentConfig):
    grid = _grid(cfg)
    s_list = cfg.get_floats("params", "s", "0.34657359027997264")
    columns = ["s", "cs_times_bl", "a_opt", "b_opt", "grid_rel_dev"]
    rows, ok = [], True
    for s in s_list:
        data = functionals.bl_data(s)
        opt = functionals.gaussian_bl_constant(data)
        prod = math.exp(log_c_s(s, 1) + opt.value.log_abs) if not opt.degenerate else math.nan
        f1 = gaussian_to_logdensity(isotropic_gaussian(float(opt.a_diag[0])), grid)
        f2 = gaussian_to_logdensity(isotropic_gaussian(float(opt.b_diag[0])), grid)
        gi = functionals.bl_integral(f1, f2, data)
        rel = math.expm1(gi.log_abs - opt.value.log_abs)
        rows.append((s, prod, float(opt.a_diag[0]), float(opt.b_diag[0]), rel))
        ok &= (not opt.degenerate) and abs(prod - 1.0) <= 1e-3 and abs(rel) <= 1e-2
    return columns, rows, ok, None


def _scenario_lrvol(cfg: ExperimentConfig):
    body_names = [b.strip() for b in cfg.get("params", "bodies", "square,disk,diamond").split(",")]
    r_list = cfg.get_floats("params", "r", "1,2,5")
    columns = ["body", "r", "m_r", "flag"]
    rows, ok, series = [], True, []
    values = {}
    for name in body_names:
        if name not in _BODIES:
            raise ConfigError(f"unknown body {name!r}; known: {sorted(_BODIES)}")
        body = _BODIES[name]()
        for r in r_list:
            m = functionals.lr_volume_product(body, r)
            rows.append((name, r, m.value(), m.flagged))
            values[(name, r)] = m.value()
        series.append((name, r_list, [values[(name, r)] for r in r_list]))
    if "disk" in body_names:
        for name in body_names:
            if name == "disk":
                continue
            for r in r_list:
                ok &= values[(name, r)] <= values[("disk", r)] * (1 + 1e-3)
    return columns, rows, ok, series


def _scenario_tropical(cfg: ExperimentConfig):
    grid = _grid(cfg)
    s_list = cfg.get_floats("params", "s", "0.4,0.2,0.1")
    dens = _density_set(cfg, grid)
    columns = ["family", "s", "bridge", "rel_err", "truncated"]
    rows, series = [], []
    for name, f in sorted(dens.items()):
        vref = functionals.volume_product(f).value()
        curve, truncated = functionals.tropical_limit_curve(f, s_list)
        errs = [abs(b - vref) / vref for _, b in curve]
        for (s, b), e in zip(curve, errs):
            rows.append((name, s, b, e, truncated))
        series.append((name, [s for s, _ in curve], [b for _, b in curve]))
    # never gates: the e^{-|x|} bridge is 18.3% above v(f) at s = 0.1 (README, criterion 9)
    return columns, rows, True, series


def _scenario_legendre_check(cfg: ExperimentConfig):
    count = cfg.get_int("params", "count", 50)
    seed = cfg.get_int("params", "seed", 0)
    points = cfg.get_int("params", "points", 65)
    rng = np.random.default_rng(seed)
    grid = make_grid(1, 4.0, points)
    columns = ["index", "max_dev"]
    rows, ok = [], True
    for i in range(count):
        phi = np.cumsum(rng.normal(size=points))
        phi = phi - phi.min()
        if i % 3 == 0:  # sprinkle in vanishing regions
            phi[rng.random(points) < 0.2] = np.inf
        f = LogDensity(grid, phi)
        dual = legendre.default_dual_grid(f)
        fast = legendre.legendre_transform(f, dual)
        hull = oracles.hull_legendre(f, dual)
        dev = float(np.max(np.abs(fast.phi - hull.phi)))
        rows.append((i, dev))
        ok &= dev == 0.0
    return columns, rows, ok, None


def _scenario_validate(cfg: ExperimentConfig):
    """Oracle cross-check battery: every closed form against an independent route."""
    grid = make_grid(1, 8.0, 513)
    checks = []

    qf = oracles.QuadraticForm(np.eye(2))
    checks.append(("gaussian_form_id2", abs(oracles.gaussian_form_integral(qf).value() - 2 * math.pi) < 1e-12))
    rng = np.random.default_rng(7)
    m = rng.normal(size=(3, 3))
    m = m @ m.T + 3 * np.eye(3)
    u, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    v1 = oracles.gaussian_form_integral(oracles.QuadraticForm(m)).log_abs
    v2 = oracles.gaussian_form_integral(oracles.QuadraticForm(u.T @ m @ u)).log_abs
    checks.append(("gaussian_form_orthogonal_invariance", abs(v1 - v2) < 1e-10))

    v = functionals.volume_product(densities.gaussian(grid))
    target = oracles.gaussian_closed_forms("v_gamma", n=1).log_abs
    checks.append(("v_gamma_vs_quadrature", abs(v.log_abs - target) < 5e-3))

    law = oracles.gaussian_closed_forms("fp_variance_law", beta=3.0, t=1.0).value()
    ode = oracles.ou_second_moment(3.0, 1.0)
    checks.append(("variance_law_vs_ode", abs(law - ode) < 1e-8))

    ratio = functionals.laplace_norm_ratio(densities.gaussian(grid), 0.5).value()
    sharp = oracles.gaussian_closed_forms("laplace_gamma_ratio", p=0.5).value()
    checks.append(("laplace_ratio_gamma", abs(ratio / sharp - 1) < 5e-3))

    var, dir_ = oracles.pbl_check(densities.gaussian(grid), grid.axis(0))
    checks.append(("pbl_gamma_linear_equality", abs(var - 1) < 1e-3 and abs(dir_ - 1) < 1e-3))

    ic, ih = oracles.cramer_rao_check(densities.gaussian(grid, beta=2.0))
    checks.append(("cramer_rao_gamma_equality", abs(ic[0, 0] - 0.5) < 1e-5 and abs(ih[0, 0] - 0.5) < 1e-5))

    columns = ["check", "passed"]
    rows = [(name, passed) for name, passed in checks]
    for name, passed in checks:
        print(f"{'PASS' if passed else 'FAIL'}  {name}")
    return columns, rows, all(p for _, p in checks), None


_RUNNERS = {
    "flow": _scenario_flow,
    "revhc": _scenario_revhc,
    "nelson": _scenario_nelson,
    "laplace": _scenario_laplace,
    "blconst": _scenario_blconst,
    "lrvol": _scenario_lrvol,
    "tropical": _scenario_tropical,
    "legendre-check": _scenario_legendre_check,
    "validate": _scenario_validate,
}


def run(cfg: ExperimentConfig) -> int:
    """Execute a scenario; returns the process exit status (0 = all asserts pass)."""
    columns, rows, ok, series = _RUNNERS[cfg.scenario](cfg)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    csv_name = cfg.get("output", "csv", f"{cfg.scenario}.csv")
    write_csv(cfg.out_dir / csv_name, columns, rows, cfg.resolved())
    svg_name = cfg.get("output", "svg")
    if svg_name is not None:
        if not series:
            raise ConfigError(f"scenario {cfg.scenario} produces no plottable series")
        emit_plot(series, cfg.out_dir / svg_name, title=cfg.scenario)
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="volprod", description=__doc__)
    parser.add_argument("scenario", choices=tuple(_RUNNERS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default=".")
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(args.config, args.scenario)
        cfg.out_dir = Path(args.out)
        return run(cfg)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # a kernel too narrow for the grid, or an input that is not strictly
        # log-concave where a check needs it, is a numerical failure, not a bad config
        numerical = (heatflow.KernelUnderResolvedError, oracles.NotStrictlyConvexError)
        return 3 if isinstance(exc, numerical) else 2


if __name__ == "__main__":
    sys.exit(main())
