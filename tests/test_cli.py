import math

import numpy as np
import pytest

from volprod import cli, functionals, oracles
from volprod.core import LogQuad
from volprod.cli import (
    ConfigError,
    ExperimentConfig,
    emit_plot,
    main,
    parse_config,
    write_csv,
)


def _write(tmp_path, text, name="exp.ini"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


FLOW_CFG = """
[grid]
points = 129
half_width = 6

[density]
family = exp_power
alpha = 1.5

[params]
times = 0.2, 0.5
"""

GAUSSIAN_129_CFG = "[grid]\npoints = 129\n[density]\nfamily = gaussian\n"


def _run_rows(tmp_path, scenario, header):
    """Run a scenario twice on GAUSSIAN_129_CFG, which must write the same
    bytes; the CSV's data rows, split at commas."""
    cfg = _write(tmp_path, GAUSSIAN_129_CFG)
    csvs = []
    for out in ("r1", "r2"):
        assert main([scenario, "--config", cfg, "--out", str(tmp_path / out)]) == 0
        csvs.append((tmp_path / out / f"{scenario}.csv").read_bytes())
    assert csvs[0] == csvs[1]
    lines = csvs[0].decode().splitlines()
    assert lines[1] == header
    return [line.split(",") for line in lines[2:]]


class TestConfig:
    def test_parse_sections(self, tmp_path):
        cfg = parse_config(_write(tmp_path, FLOW_CFG), "flow")
        assert cfg.get("density", "family") == "exp_power"
        assert cfg.get_float("density", "alpha") == 1.5
        assert cfg.get_floats("params", "times") == [0.2, 0.5]
        assert cfg.get_int("grid", "points") == 129

    def test_inline_comments_stripped(self, tmp_path):
        cfg = parse_config(_write(tmp_path, "[params]\ns = 0.2  # endpoint\n"), "revhc")
        assert cfg.get_float("params", "s") == 0.2

    def test_defaults_and_missing(self, tmp_path):
        cfg = parse_config(_write(tmp_path, "[params]\n"), "flow")
        assert cfg.get_float("params", "s", 0.7) == 0.7
        with pytest.raises(ConfigError):
            cfg.get_float("params", "s")

    def test_bad_number_reported(self, tmp_path):
        cfg = parse_config(_write(tmp_path, "[params]\ns = fast\n"), "flow")
        with pytest.raises(ConfigError, match="not a number"):
            cfg.get_float("params", "s")

    def test_non_integral_int_reported(self, tmp_path):
        cfg = parse_config(_write(tmp_path, "[params]\ncount = 2.7\n[grid]\npoints = 129.0\n"), "flow")
        with pytest.raises(ConfigError, match=r"\[params\] count: not an integer"):
            cfg.get_int("params", "count")
        assert cfg.get_int("grid", "points") == 129

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigError, match="unknown scenario"):
            ExperimentConfig(scenario="teleport")

    def test_parse_error_has_location(self, tmp_path):
        path = _write(tmp_path, "[grid\npoints = 3\n")
        with pytest.raises(ConfigError, match="parse error"):
            parse_config(path, "flow")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config(tmp_path / "absent.ini", "flow")


class TestOutputs:
    def test_csv_format(self, tmp_path):
        p = tmp_path / "out.csv"
        write_csv(p, ["a", "b"], [(1, 0.5), (2, True), (np.True_, np.False_)], "scenario=flow")
        lines = p.read_text().splitlines()
        assert lines[0] == "# scenario=flow"
        assert lines[1] == "a,b"
        assert lines[2] == "1,0.5"
        assert lines[3] == "2,1"
        assert lines[4] == "1,0"

    def test_csv_float_roundtrip(self, tmp_path):
        p = tmp_path / "out.csv"
        v = math.pi * 1e-7
        write_csv(p, ["x"], [(v,)], "c")
        assert float(p.read_text().splitlines()[2]) == v

    def test_svg_structure(self, tmp_path):
        p = tmp_path / "plot.svg"
        emit_plot(
            [("one", [0, 1, 2], [1.0, 2.0, 3.0]), ("two", [0, 1, 2], [3.0, 2.0, 1.0])],
            p,
            title="demo",
        )
        text = p.read_text()
        assert text.startswith("<svg")
        assert text.count("<polyline") == 2
        assert ">one<" in text and ">two<" in text and ">demo<" in text

    def test_svg_empty_series_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_plot([], tmp_path / "p.svg")
        with pytest.raises(ValueError, match="empty or mismatched"):
            emit_plot([("x", [], [])], tmp_path / "p.svg")


class TestMain:
    def test_flow_smoke_and_determinism(self, tmp_path):
        cfg = _write(tmp_path, FLOW_CFG)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["flow", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["flow", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "flow.csv").read_bytes() == (out2 / "flow.csv").read_bytes()

    def test_flow_rerun_byte_identical(self, tmp_path):
        cfg = _write(tmp_path, FLOW_CFG)
        out = tmp_path / "r"
        main(["flow", "--config", cfg, "--out", str(out)])
        first = (out / "flow.csv").read_bytes()
        main(["flow", "--config", cfg, "--out", str(out)])
        assert (out / "flow.csv").read_bytes() == first

    def test_flow_svg_output(self, tmp_path):
        cfg = _write(tmp_path, FLOW_CFG + "\n[output]\nsvg = flow.svg\n")
        out = tmp_path / "r"
        assert main(["flow", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "flow.svg").read_text().startswith("<svg")

    def test_nelson_threshold_assert(self, tmp_path):
        cfg = _write(
            tmp_path,
            "[params]\ns = 0.3\np = 0.5\nq = 0.08893\n"
            "betas = 1,4,16\nshifts = 0,2,4\nassert_threshold_min = 0.9\n",
        )
        assert main(["nelson", "--config", cfg, "--out", str(tmp_path / "n")]) == 0

    def test_nelson_collapsed_outer_form(self, tmp_path):
        """Where the q-integral diverges the value cell is 0 (q < 0) or inf
        (q > 0); every cell is the closed form's value."""
        cfg = _write(tmp_path, "[params]\ns = 0.1\np = 0.1\nq = -3, 0.05\nbetas = 0.001, 1, 2\nshifts = 0, 1\n")
        assert main(["nelson", "--config", cfg, "--out", str(tmp_path / "n")]) == 0
        lines = (tmp_path / "n" / "nelson.csv").read_text().splitlines()
        assert lines[1] == "q,beta,shift,value"
        cells = {}
        for line in lines[2:]:
            q, beta, shift, value = line.split(",")
            cells[float(q), float(beta), float(shift)] = value
            assert float(value) == functionals.gaussian_rev_hc(float(beta), [float(shift)], 0.1, 0.1,
                                                               float(q)).value()
        assert len(cells) == 12
        for shift in (0.0, 1.0):
            assert cells[-3.0, 0.001, shift] == "0"
            assert cells[0.05, 2.0, shift] == "inf"

    def test_nelson_value_beyond_the_double_range(self, tmp_path):
        """gaussian_rev_hc is finite here (log_abs = 856.07) but above the
        double range: the cell is inf, where value() raised OverflowError."""
        cfg = _write(tmp_path, "[params]\ns = 0.1\np = 0.004\nq = 0.05\nbetas = 0.001\nshifts = 0\n")
        assert main(["nelson", "--config", cfg, "--out", str(tmp_path / "n")]) == 0
        lines = (tmp_path / "n" / "nelson.csv").read_text().splitlines()
        assert lines[1:] == ["q,beta,shift,value", "0.050000000000000003,0.001,0,inf"]

    def test_revhc_scenario(self, tmp_path):
        """Centred Gaussians are the extremisers: the slack is 0 at every default s."""
        rows = _run_rows(tmp_path, "revhc", "family,s,slack,flag")
        assert [r[:2] for r in rows] == [["gaussian", "0.20000000000000001"], ["gaussian", "0.34657359027997264"],
                                         ["gaussian", "1"]]
        for _, _, slack, flag in rows:
            assert abs(float(slack)) <= 1e-12 and flag == "0"

    def test_blconst_scenario(self, tmp_path):
        """At the endpoint exponents C_s BL = 1 at a = b = 1, and the grid
        integral at that optimum matches it."""
        rows = _run_rows(tmp_path, "blconst", "s,cs_times_bl,a_opt,b_opt,grid_rel_dev")
        assert len(rows) == 1
        s, prod, a, b, rel = rows[0]
        assert (s, prod, a, b) == ("0.34657359027997264", "1", "1", "1")
        assert abs(float(rel)) <= 1e-12

    def test_tropical_scenario(self, tmp_path):
        """The Gaussian bridge is exact: (2 pi)^n at every s, none truncated."""
        rows = _run_rows(tmp_path, "tropical", "family,s,bridge,rel_err,truncated")
        assert [float(r[1]) for r in rows] == [0.4, 0.2, 0.1]
        for _, _, bridge, _, truncated in rows:
            assert float(bridge) == pytest.approx(2 * math.pi, rel=1e-12) and truncated == "0"

    def test_validate_scenario(self, tmp_path, capsys):
        cfg = _write(tmp_path, "[params]\n")
        assert main(["validate", "--config", cfg, "--out", str(tmp_path / "v")]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
        lines = (tmp_path / "v" / "validate.csv").read_text().splitlines()
        assert lines[1] == "check,passed"
        assert len(lines) > 2 and all(line.endswith(",1") for line in lines[2:])

    def test_legendre_check_scenario(self, tmp_path):
        cfg = _write(tmp_path, "[params]\ncount = 5\nseed = 3\n")
        assert main(["legendre-check", "--config", cfg, "--out", str(tmp_path / "l")]) == 0
        lines = (tmp_path / "l" / "legendre-check.csv").read_text().splitlines()
        assert lines[1] == "index,max_dev"
        assert all(line.endswith(",0") for line in lines[2:])

    def test_missing_config_exits_2(self, tmp_path, capsys):
        assert main(["flow", "--config", str(tmp_path / "no.ini"), "--out", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_config_exits_2(self, tmp_path, capsys):
        cfg = _write(tmp_path, "[density]\nfamily = dodecahedron\n")
        assert main(["flow", "--config", cfg, "--out", str(tmp_path / "b")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_lrvol_scenario(self, tmp_path):
        cfg = _write(tmp_path, "[params]\n")
        # status 0: the disk-is-maximal assert holds for every r
        assert main(["lrvol", "--config", cfg, "--out", str(tmp_path / "m")]) == 0
        lines = (tmp_path / "m" / "lrvol.csv").read_text().splitlines()
        assert lines[1] == "body,r,m_r,flag"
        keys = [tuple(line.split(",")[:2]) for line in lines[2:]]
        assert keys == [(b, r) for b in ("square", "disk", "diamond") for r in ("1", "2", "5")]

    def test_threads_option_rejected(self, tmp_path):
        cfg = _write(tmp_path, FLOW_CFG)
        with pytest.raises(SystemExit) as exc:
            main(["flow", "--config", cfg, "--out", str(tmp_path), "--threads", "2"])
        assert exc.value.code == 2

    def test_tol_scale_option_rejected(self, tmp_path):
        cfg = _write(tmp_path, FLOW_CFG)
        with pytest.raises(SystemExit) as exc:
            main(["flow", "--config", cfg, "--out", str(tmp_path), "--tol-scale", "2"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "scenario, text, layer, value",
        [("flow", FLOW_CFG + "assert_monotone = false\n", "volume_product", None),
         ("laplace", FLOW_CFG + "assert_sharp = false\n", "laplace_norm_ratio", LogQuad(-10.0)),
         ("lrvol", "[params]\nbodies = square,disk\nr = 1\nassert_disk_max = false\n", "lr_volume_product", None)],
        ids=["flow", "laplace", "lrvol"],
    )
    def test_gates_ignore_the_removed_switches(self, tmp_path, monkeypatch, scenario, text, layer, value):
        """A config key that once turned a gate off is an unknown key now: the
        gate runs, and a failing value exits 1."""
        falling = iter(range(100, 0, -1))  # each call reads lower than the last

        def fake(*args):
            return value if value is not None else LogQuad(float(next(falling)))

        monkeypatch.setattr(cli.functionals, layer, fake)
        monkeypatch.setattr(cli.heatflow, "fp_evolve", lambda f, t: f)
        assert main([scenario, "--config", _write(tmp_path, text), "--out", str(tmp_path / "g")]) == 1

    def test_nelson_nan_beta_exits_2(self, tmp_path, capsys):
        """A NaN beta is refused by the closed form, and no row is written."""
        cfg = _write(tmp_path, "[params]\nq = 0.08893\nbetas = nan, 1\nshifts = 0\n")
        assert main(["nelson", "--config", cfg, "--out", str(tmp_path / "n")]) == 2
        assert "error: beta must be positive" in capsys.readouterr().err
        assert not (tmp_path / "n").exists()

    def test_nelson_infinite_p_exits_2(self, tmp_path, capsys):
        """An infinite p is refused by the closed form, and no row is written."""
        cfg = _write(tmp_path, "[params]\np = inf\nq = -1\nbetas = 1\nshifts = 0\n")
        assert main(["nelson", "--config", cfg, "--out", str(tmp_path / "n")]) == 2
        assert "error: p must be finite" in capsys.readouterr().err
        assert not (tmp_path / "n").exists()

    def test_bad_threshold_exits_2(self, tmp_path, capsys):
        cfg = _write(tmp_path, "[params]\nq = 0.08893\nbetas = 1\nshifts = 0\nassert_threshold_min = high\n")
        assert main(["nelson", "--config", cfg, "--out", str(tmp_path / "n")]) == 2
        assert "[params] assert_threshold_min: not a number" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "scenario, text, key",
        [("flow", "[density]\nfamily = gaussian\nalpha = 2\n", "[density] alpha"),
         ("flow", "[density]\nfamily = exp_power\n", "[density] alpha"),
         ("nelson", "[params]\nq = ,\nassert_threshold_min = 0\n", "[params] q")],
        ids=["key-the-family-does-not-take", "required-key-missing", "list-without-a-number"],
    )
    def test_config_error_exits_2(self, tmp_path, capsys, scenario, text, key):
        assert main([scenario, "--config", _write(tmp_path, text), "--out", str(tmp_path / "e")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and key in err[0]

    @pytest.mark.parametrize("times", ["0, 0.5, 0.2", "0.5, 0.2", "0.2, 0.2", "-0.1, 0.5", "0.1, nan"])
    def test_flow_times_not_positive_and_increasing_exit_2(self, tmp_path, capsys, times):
        """t = 0 is the flow's own first row, and its monotone gate compares
        the rows in order: a listed t <= 0 or an out-of-order time is a
        config error, reported before any flow runs."""
        cfg = _write(tmp_path, f"[grid]\npoints = 129\n[density]\nfamily = gaussian\n[params]\ntimes = {times}\n")
        assert main(["flow", "--config", cfg, "--out", str(tmp_path / "t")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: [params] times: must be positive and strictly increasing")
        assert not (tmp_path / "t").exists()

    @pytest.mark.parametrize(
        "density, message",
        [("family = exp_power\nalpha = 0", "alpha must be positive and finite, got 0.0"),
         ("family = exp_power\nalpha = -1", "alpha must be positive and finite, got -1.0"),
         ("family = box\nheight = 0", "height must be positive and finite, got 0.0"),
         ("family = two_bump\nvar = 0", "var must be positive and finite, got 0.0")],
        ids=["exp_power-alpha-0", "exp_power-alpha-minus-1", "box-height-0", "two_bump-var-0"],
    )
    def test_bad_density_parameter_exits_2(self, tmp_path, capsys, density, message):
        """A family parameter out of range is a config error named by the
        family's check: no flow runs and no CSV is written."""
        cfg = _write(tmp_path, f"[grid]\npoints = 65\n[density]\n{density}\n[params]\ntimes = 0.5\n")
        assert main(["flow", "--config", cfg, "--out", str(tmp_path / "d")]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not (tmp_path / "d").exists()

    def test_infinite_gaussian_mass_exits_2(self, tmp_path, capsys):
        """An infinite mass is refused by GaussianSpec, before any flow runs."""
        cfg = _write(tmp_path, "[grid]\npoints = 65\n[density]\nfamily = gaussian\nmass = inf\n[params]\ntimes = 0.5\n")
        assert main(["flow", "--config", cfg, "--out", str(tmp_path / "d")]) == 2
        assert capsys.readouterr().err.splitlines() == ["error: mass must be positive and finite, got inf"]
        assert not (tmp_path / "d").exists()

    def test_unknown_body_exits_2(self, tmp_path, capsys):
        cfg = _write(tmp_path, "[params]\nbodies = pentagon\nr = 1\n")
        assert main(["lrvol", "--config", cfg, "--out", str(tmp_path / "u")]) == 2
        assert "unknown body" in capsys.readouterr().err

    def test_under_resolved_kernel_exits_3(self, tmp_path, capsys):
        cfg = _write(
            tmp_path,
            "[grid]\npoints = 513\nhalf_width = 8\n[density]\nfamily = gaussian\n[params]\ntimes = 0.0001\n",
        )
        assert main(["flow", "--config", cfg, "--out", str(tmp_path / "k")]) == 3
        assert "error: kernel std" in capsys.readouterr().err

    def test_not_strictly_convex_exits_3(self, tmp_path, capsys, monkeypatch):
        def scenario(cfg):
            raise oracles.NotStrictlyConvexError("-log h not strictly convex at interior node (3,)")

        monkeypatch.setitem(cli._RUNNERS, "validate", scenario)
        cfg = _write(tmp_path, "[params]\n")
        assert main(["validate", "--config", cfg, "--out", str(tmp_path / "v")]) == 3
        assert "error: -log h not strictly convex" in capsys.readouterr().err

    def test_csv_comment_records_config(self, tmp_path):
        cfg = _write(tmp_path, FLOW_CFG)
        out = tmp_path / "c"
        main(["flow", "--config", cfg, "--out", str(out)])
        head = (out / "flow.csv").read_text().splitlines()[0]
        assert head.startswith("# scenario=flow")
        assert "density.family=exp_power" in head
