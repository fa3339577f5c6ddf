"""Command-line frontend: exit codes, file schemas, figure presets."""

import dataclasses
import inspect
import io
import json
import math
import os
import re
import struct
from pathlib import Path

import numpy as np
import pytest

from cograte import cli, gaussian
from cograte.cli import RunConfig, main
from cograte.model import ChannelParams
from cograte.gaussian import g_region
from cograte.geometry import ConvexRegion


def hl2(x):
    return 0.5 * math.log2(x)


SMALL = ["--points", "31", "--cov-points", "9", "--directions", "181"]


def read_csv(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    assert b"\r" not in raw  # LF endings only
    lines = raw.decode().strip().split("\n")
    assert lines[0] == "r1_bits,r2_bits"
    return np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])


def largest_admitted(admitted):
    """Largest float x >= 0 with admitted(x), and the float after it, for a
    predicate that holds up to some x and fails past it."""
    def as_float(bits):
        return struct.unpack("<d", struct.pack("<q", bits))[0]

    # bisect on the bit patterns, which order nonnegative floats
    lo, hi = 0, struct.unpack("<q", struct.pack("<d", math.inf))[0]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if admitted(as_float(mid)) else (lo, mid)
    return as_float(lo), as_float(hi)


def record_regions(monkeypatch):
    """Record every region cli.build_region returns, by selection."""
    built = {}
    build = cli.build_region

    def recorded(sel, ch, cfg):
        built[sel] = build(sel, ch, cfg)
        return built[sel]

    monkeypatch.setattr(cli, "build_region", recorded)
    return built


class TestRunConfig:
    def test_rejects_unknown_command(self):
        with pytest.raises(ValueError, match="unknown command"):
            RunConfig(command="plot", p1=6, p2=6, b=2)

    def test_rejects_unknown_format(self):
        with pytest.raises(ValueError, match="unknown format"):
            RunConfig(command="region", p1=6, p2=6, b=2,
                      selections=("g2",), fmt="png")

    def test_rejects_tiny_grids(self):
        with pytest.raises(ValueError, match="at least 2"):
            RunConfig(command="region", p1=6, p2=6, b=2,
                      selections=("g2",), n_points=1)

    def test_rejects_negative_power(self):
        with pytest.raises(ValueError, match="p1"):
            RunConfig(command="region", p1=-6, p2=6, b=2, selections=("g2",))

    def test_region_needs_selections(self):
        with pytest.raises(ValueError, match="select"):
            RunConfig(command="region", p1=6, p2=6, b=2, selections=())

    def test_compare_needs_two_selections(self):
        with pytest.raises(ValueError, match="at least 2 distinct"):
            RunConfig(command="compare", p1=6, p2=6, b=2, selections=("g2",))

    def test_g_library_default_is_the_cli_default(self):
        cfg = RunConfig(command="region", p1=6, p2=6, b=2, selections=("g",))
        params = inspect.signature(g_region).parameters
        defaults = [params[n].default for n in ("n_alpha", "n_beta", "n_theta")]
        assert defaults == [cli._points("g", cfg)] * 3 == [gaussian.DEFAULT_G_GRID] * 3


class TestExitCodes:
    def test_success(self, tmp_path):
        code = main(["region", "--p1", "6", "--p2", "6", "--b", "1.3628",
                     "--select", "g3p", "--output", str(tmp_path), *SMALL])
        assert code == 0

    def test_unknown_selection_is_usage_error(self, tmp_path):
        code = main(["region", "--p1", "6", "--p2", "6", "--b", "2",
                     "--select", "bogus", "--output", str(tmp_path)])
        assert code == 2

    def test_unknown_figure_is_usage_error(self, tmp_path, capsys):
        code = main(["figure", "fig9", "--output", str(tmp_path)])
        capsys.readouterr()
        assert code == 2

    def test_missing_command_is_usage_error(self, capsys):
        code = main([])
        capsys.readouterr()
        assert code == 2

    def test_compare_single_selection_is_usage_error(self, tmp_path):
        code = main(["compare", "--p1", "6", "--p2", "6", "--b", "2",
                     "--select", "g2", "--output", str(tmp_path)])
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["figure", "fig5", "--b", "-1"],
        ["figure", "fig5", "--b", "nan"],
        ["compare", "--select", "g2,g3p", "--tol", "-1"],
        ["region", "--select", "g2", "--points", "100000000"],
        ["region", "--p1", "1e-300", "--p2", "1e300", "--b", "1e200", "--select", "g2"],
        ["figure", "fig5", "--b", "1e160"],
        ["region", "--p1", "1e300", "--p2", "1e10", "--b", "0", "--select", "g3p"],
        ["region", "--p1", "1e300", "--p2", "1e10", "--b", "0", "--select", "co1"],
        ["region", "--p1", "1e300", "--p2", "1e10", "--b", "0", "--select", "bcdms"],
        ["region", "--p1", "1e200", "--p2", "0", "--b", "0", "--select", "g3p"],
        ["region", "--select", "g2,co1", "--directions", "721000"],
        ["region", "--select", "co2", "--points", "1000000", "--directions", "4097"],
    ], ids=["negative-gain", "nan-gain", "negative-tol", "oversized-grid",
            "overflowing-gain", "overflowing-figure-gain", "g3p-lambda-total",
            "co1-power-product", "bcdms-power-product", "g3p-own-relayed",
            "oversized-directions", "oversized-support-work"])
    def test_out_of_contract_input_is_usage_error(self, argv, tmp_path,
                                                  monkeypatch, capsys):
        def built(*args, **kwargs):
            raise AssertionError("a region was built")

        monkeypatch.setattr(cli, "build_region", built)
        code = main([*argv, "--output", str(tmp_path)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_grid_guard_admits_every_default_and_g_at_201(self):
        for cmd, sels in (("region", cli.SELECTIONS), ("capacity-check", ())):
            RunConfig(command=cmd, p1=6, p2=6, b=2, selections=sels)
        for fig in cli.FIGURES:
            cfg = RunConfig(command="figure", p1=6, p2=6, b=2, figure=fig)
            assert cfg.selections == cli.FIGURES[fig][0]
        RunConfig(command="region", p1=6, p2=6, b=2, selections=("g",),
                  n_points=201)
        with pytest.raises(ValueError, match="pentagons"):
            RunConfig(command="capacity-check", p1=6, p2=6, b=2,
                      n_points=cli.MAX_PENTAGONS + 1)
        with pytest.raises(ValueError, match="pentagons"):
            # fig3's g at 300 points: 27 million pentagons
            RunConfig(command="figure", p1=6, p2=6, b=2, figure="fig3", n_points=300)

    def test_support_budget_bounds_points_times_directions(self):
        nd = cli.MAX_DIRECTIONS
        k = cli.MAX_SUPPORT_CELLS // nd
        for sel in ("g2", "g3p", "capacity", "co1", "co2"):
            RunConfig(command="region", p1=6, p2=6, b=2, selections=(sel,),
                      n_points=k, n_directions=nd)
            with pytest.raises(ValueError, match="support cells"):
                RunConfig(command="region", p1=6, p2=6, b=2, selections=(sel,),
                          n_points=k + 1, n_directions=nd)
        # the prune keeps few pentagons of g, g1 and bcdms: only the
        # pentagon guard bounds them
        RunConfig(command="region", p1=6, p2=6, b=2, selections=("g", "g1", "bcdms"),
                  n_points=201, n_directions=nd)
        with pytest.raises(ValueError, match="pentagons"):
            # past both guards: the pentagon message comes first
            RunConfig(command="region", p1=6, p2=6, b=2, selections=("g2",),
                      n_points=cli.MAX_PENTAGONS + 1, n_directions=nd)

    @pytest.mark.parametrize("p1, p2, b", [
        (1e-300, 1e300, 1e200),  # b*b overflows
        (1e300, 6.0, 1e10),      # b*b is finite, b*b*p1 is not
        (1e307, 1.5e308, 1.0),   # b*b and b*b*p1 are finite, the total is not
        (1e200, 0.0, 0.0),       # the total is finite, g3p's own*relayed is not
        (0.25, 1.78e308, 0.0),   # the total is finite, 8*(1 + p1)*total is not
    ])
    def test_overflowing_received_power_is_refused(self, p1, p2, b):
        with pytest.raises(ValueError, match="received power overflows"):
            RunConfig(command="region", p1=p1, p2=p2, b=b, selections=("g2",))

    @pytest.mark.parametrize("vary, fixed", [
        ("p1", {"p2": 1e10, "b": 0.0}),    # g3p's own*relayed, about p1**2/4
        ("p2", {"p1": 0.25, "b": 0.0}),    # the guard's 8*(1 + p1)*total
        ("p1", {"p2": 1e153, "b": 0.0}),   # bcdms' (c_tot - c_priv)**2 <= 4*p1*p2
    ])
    def test_every_family_is_finite_at_the_largest_admitted_input(
            self, vary, fixed, tmp_path, capsys):
        def admitted(x):
            try:
                RunConfig(command="region", selections=("g2",), **fixed, **{vary: x})
            except ValueError:
                return False
            return True

        def run(x):
            edge = {**fixed, vary: x}
            return main(["region", "--select", ",".join(cli.SELECTIONS),
                         "--points", "5", "--cov-points", "5", "--directions", "31",
                         "--output", str(tmp_path),
                         *(f"--{k}={v!r}" for k, v in edge.items())])

        lo, hi = largest_admitted(admitted)
        assert run(lo) == 0, capsys.readouterr().err
        for path in capsys.readouterr().out.split():
            assert np.all(np.isfinite(read_csv(path)))
        # one float further the received total is still finite, so the
        # refusal comes from the products the families form
        refused = {**fixed, vary: hi}
        amplitude = refused["b"] * math.sqrt(refused["p1"]) + math.sqrt(refused["p2"])
        assert math.isfinite(amplitude ** 2 + refused["b"] ** 2 * refused["p1"] + 1.0)
        assert run(hi) == 2
        assert "received power overflows" in capsys.readouterr().err

    def test_non_finite_pentagon_bound_exits_3(self, tmp_path, monkeypatch, capsys):
        # a family whose bounds come out NaN; dropping those pentagons
        # would shrink the region, so the run fails
        def nan_bounds(ch, alpha):
            r1, r2, s = g3p_arrays(ch, alpha)
            return r1, np.where(alpha > 0.5, np.nan, r2), s

        g3p_arrays = gaussian._g3p_arrays
        monkeypatch.setattr(gaussian, "_g3p_arrays", nan_bounds)
        code = main(["region", "--p1", "6", "--p2", "6", "--b", "2",
                     "--select", "g3p", "--output", str(tmp_path), *SMALL])
        assert code == 3
        assert "15 are NaN or infinite" in capsys.readouterr().err

    def test_bcdms_at_extreme_gain_admits_only_psd_splits(self, tmp_path):
        # an absolute PSD slack of 1e-12 dwarfs p1*p2 = 1e-11 here and let
        # non-PSD private splits reach a negative log argument
        code = main(["region", "--p1", "1e-20", "--p2", "1e9", "--b", "1e6",
                     "--select", "bcdms", "--output", str(tmp_path), *SMALL])
        assert code == 0
        (path,) = tmp_path.glob("bcdms_*.csv")
        pts = read_csv(path)
        assert len(pts) >= 2
        assert np.all(np.isfinite(pts)) and np.all(pts >= 0.0)

    def test_bcdms_at_the_largest_admitted_equal_powers_is_finite(self, tmp_path, capsys):
        # at c_tot = -sqrt(p1*p2) and b = 1 the sum bound's b*b*p1 +
        # 2*b*c_tot + p2 is 0 up to roundoff of p1 + p2, which once dwarfed
        # the 1 of the log argument
        def admitted(p):
            try:
                RunConfig(command="region", p1=p, p2=p, b=1.0, selections=("bcdms",))
            except ValueError:
                return False
            return True

        p, _ = largest_admitted(admitted)
        code = main(["region", f"--p1={p!r}", f"--p2={p!r}", "--b", "1",
                     "--select", "bcdms", "--output", str(tmp_path)])
        assert code == 0, capsys.readouterr().err
        (path,) = tmp_path.glob("bcdms_*.csv")
        pts = read_csv(path)
        assert len(pts) >= 2
        assert np.all(np.isfinite(pts)) and np.all(pts >= 0.0)

    def test_g3p_at_extreme_gain_is_finite(self, tmp_path):
        code = main(["region", "--p1", "6", "--p2", "6", "--b", "1e100",
                     "--select", "g3p", "--output", str(tmp_path)])
        assert code == 0
        (path,) = tmp_path.glob("g3p_*.csv")
        pts = read_csv(path)
        assert len(pts) >= 2
        assert np.all(np.isfinite(pts)) and np.all(pts >= 0.0)

    def test_numerical_failure_exits_3(self, tmp_path, monkeypatch):
        def boom(*args, **kwargs):
            raise FloatingPointError("synthetic numerical blowup")

        monkeypatch.setattr(cli, "co1_region", boom)
        code = main(["region", "--p1", "6", "--p2", "6", "--b", "2",
                     "--select", "co1", "--output", str(tmp_path), *SMALL])
        assert code == 3


class TestRegionCommand:
    def test_g3p_boundary_reaches_the_r1_corner(self, tmp_path, capsys):
        code = main(["region", "--p1", "6", "--p2", "6", "--b", "1.3628",
                     "--select", "g3p", "--output", str(tmp_path), *SMALL])
        assert code == 0
        out = capsys.readouterr().out.strip().splitlines()
        pts = read_csv(out[0])
        # CSV fields carry 9 significant digits, so compare at 1e-8
        assert pts[:, 0].max() == pytest.approx(hl2(7), abs=1e-8)

    def test_degenerate_channel_emits_a_segment(self, tmp_path, capsys):
        code = main(["region", "--p1", "0", "--p2", "6", "--b", "2",
                     "--select", "g2", "--output", str(tmp_path), *SMALL])
        assert code == 0
        pts = read_csv(capsys.readouterr().out.strip().splitlines()[0])
        assert np.abs(pts[:, 0]).max() <= 1e-9
        assert pts[:, 1].max() == pytest.approx(hl2(7), abs=1e-8)

    def test_full_family_boundary_is_support_consistent(self, tmp_path, capsys):
        code = main(["region", "--p1", "6", "--p2", "6", "--b", "3.3628",
                     "--select", "g", "--points", "7", "--directions", "181",
                     "--output", str(tmp_path)])
        assert code == 0
        pts = read_csv(capsys.readouterr().out.strip().splitlines()[0])
        assert len(pts) >= 3
        ref = g_region(ChannelParams(6, 6, 3.3628), n_alpha=7, n_beta=7,
                       n_theta=7, n_directions=181)
        slack = pts @ ref.directions.T - ref.support[None, :]
        assert slack.max() <= 2e-8

    def test_csv_values_have_nine_significant_digits(self, tmp_path, capsys):
        main(["region", "--p1", "6", "--p2", "6", "--b", "1.3628",
              "--select", "co1", "--output", str(tmp_path), *SMALL])
        path = capsys.readouterr().out.strip().splitlines()[0]
        with open(path) as fh:
            next(fh)
            for line in fh:
                for field in line.strip().split(","):
                    assert re.fullmatch(r"-?\d+(\.\d+)?(e-?\d+)?", field)
                    assert len(field.replace("-", "").replace(".", "")
                               .split("e")[0].lstrip("0")) <= 9

    def test_json_document_schema(self, tmp_path, capsys):
        code = main(["region", "--p1", "6", "--p2", "6", "--b", "1.3628",
                     "--select", "g3p,co1", "--format", "json",
                     "--output", str(tmp_path), *SMALL])
        assert code == 0
        path = capsys.readouterr().out.strip().splitlines()[0]
        with open(path) as fh:
            doc = json.load(fh)
        assert doc["params"] == {"p1": 6.0, "p2": 6.0, "b": 1.3628}
        assert set(doc["grids"]) == {"points", "cov_points", "directions"}
        names = [r["name"] for r in doc["regions"]]
        assert names == ["g3p", "co1"]
        for r in doc["regions"]:
            arr = np.array(r["boundary_bits"])
            assert arr.ndim == 2 and np.isfinite(arr).all()

    def test_svg_output(self, tmp_path, capsys):
        code = main(["region", "--p1", "6", "--p2", "6", "--b", "1.3628",
                     "--select", "g3p,co1", "--format", "svg",
                     "--output", str(tmp_path), *SMALL])
        assert code == 0
        path = capsys.readouterr().out.strip().splitlines()[0]
        svg = Path(path).read_text()
        assert svg.startswith("<svg")
        assert svg.count("<polyline") >= 2
        assert 'width="800"' in svg and 'height="600"' in svg


def json_report_reference(cfg: RunConfig, regions: dict) -> str:
    """The region report as json.dump(indent=2) writes it."""
    doc = {
        "params": {"p1": cfg.p1, "p2": cfg.p2, "b": cfg.b},
        "grids": {"points": cfg.n_points, "cov_points": cfg.n_cov,
                  "directions": cfg.n_directions},
        "regions": [
            {
                "name": sel,
                "provenance": regions[sel].provenance,
                "boundary_bits": [
                    [float(f"{x:.9g}"), float(f"{y:.9g}")]
                    for x, y in regions[sel].boundary
                ],
            }
            for sel in cfg.selections
        ],
    }
    buf = io.StringIO()
    json.dump(doc, buf, indent=2)
    return buf.getvalue() + "\n"


def csv_reference(region: ConvexRegion) -> str:
    lines = ["r1_bits,r2_bits"]
    lines += [f"{x:.9g},{y:.9g}" for x, y in region.boundary]
    return "\n".join(lines) + "\n"


class TestReportWriter:
    def check_bytes(self, argv, built, capsys):
        """Compare every file a region run wrote with its reference."""
        cfg = cli._config_from_args(cli.build_parser().parse_args(argv))
        for path in capsys.readouterr().out.split():
            raw = Path(path).read_bytes()
            if cfg.fmt == "json":
                assert raw.decode() == json_report_reference(cfg, built)
                # the report is a fixed point of load and dump
                with open(path) as fh:
                    assert json.dumps(json.load(fh), indent=2) + "\n" == raw.decode()
            else:
                sel = Path(path).name.split("_")[0]
                assert raw.decode() == csv_reference(built[sel])

    @pytest.mark.parametrize("p1, p2", [(6.0, 6.0), (6.0, 0.0), (1e-3, 50.0)])
    @pytest.mark.parametrize("b", [0.0, 1.3628, 3.3628, 1e3])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_every_family_matches_the_reference_bytes(
            self, fmt, b, p1, p2, tmp_path, monkeypatch, capsys):
        built = record_regions(monkeypatch)
        argv = ["region", f"--p1={p1!r}", f"--p2={p2!r}", f"--b={b!r}",
                "--select", ",".join(cli.SELECTIONS), "--format", fmt,
                "--points", "9", "--cov-points", "5", "--directions", "61",
                "--output", str(tmp_path)]
        assert main(argv) == 0
        self.check_bytes(argv, built, capsys)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_extreme_values_and_a_one_vertex_boundary(
            self, fmt, tmp_path, monkeypatch, capsys):
        # exponent forms json writes as e-05, e+16 and e-300, an axis-end
        # 0.0, more than 9 significant digits, an all-zero region and one
        # without vertices
        s = math.sqrt(0.5)
        dirs = np.array([[1.0, 0.0], [s, s], [0.0, 1.0]])
        regions = {
            "g2": ConvexRegion(dirs, np.full(3, 4e16), np.array(
                [[1.23456789012e16, 0.0], [12345.678901234, 8.64026087123e-05],
                 [1e-300, 3.0000000004e-5], [0.0, 2.5e16]]), "wide"),
            "co1": ConvexRegion(dirs, np.zeros(3), np.zeros((1, 2)), "point"),
            "g3p": ConvexRegion(dirs, np.zeros(3), np.zeros((0, 2)), "empty"),
        }
        monkeypatch.setattr(cli, "build_region", lambda sel, ch, cfg: regions[sel])
        argv = ["region", "--select", "g2,co1,g3p", "--format", fmt,
                "--output", str(tmp_path)]
        assert main(argv) == 0
        self.check_bytes(argv, regions, capsys)

    def test_figure_checks_each_region_once(self, tmp_path, monkeypatch, capsys):
        checked = []
        check = cli._check_emitted_boundary

        def counted(region):
            checked.append(region)
            check(region)

        monkeypatch.setattr(cli, "_check_emitted_boundary", counted)
        code = main(["figure", "fig3", "--points", "11", "--directions", "91",
                     "--output", str(tmp_path)])
        assert code == 0
        capsys.readouterr()
        sels, gains, _ = cli.FIGURES["fig3"]
        assert len(checked) == len({id(r) for r in checked}) == len(sels) * len(gains)

    @pytest.mark.parametrize("fmt", cli.FORMATS)
    def test_escaped_vertex_exits_3_before_any_file(
            self, fmt, tmp_path, monkeypatch, capsys):
        build = cli.build_region

        def pushed(sel, ch, cfg):
            region = build(sel, ch, cfg)
            if sel != "co1":
                return region
            # a tight vertex moved by (1e-6, 1e-6) leaves every halfplane
            # it touches by at least 1e-6 bits
            boundary = region.boundary.copy()
            boundary[len(boundary) // 2] += 1e-6
            return dataclasses.replace(region, boundary=boundary)

        monkeypatch.setattr(cli, "build_region", pushed)
        out = tmp_path / "out"
        code = main(["region", "--p1", "6", "--p2", "6", "--b", "1.3628",
                     "--select", "g3p,co1", "--format", fmt, "--output", str(out), *SMALL])
        assert code == 3
        assert "escapes its region" in capsys.readouterr().err
        assert list(out.iterdir()) == []


class TestCompareCommand:
    def test_family_coincidence_and_strictness(self, tmp_path, capsys):
        code = main(["compare", "--p1", "6", "--p2", "6", "--b", "3.3628",
                     "--select", "g,g1,g2", "--points", "15",
                     "--directions", "181", "--output", str(tmp_path)])
        assert code == 0
        path = capsys.readouterr().out.strip().splitlines()[0]
        with open(path) as fh:
            doc = json.load(fh)
        by_pair = {(c["inner"], c["outer"]): c for c in doc["comparisons"]}
        # the one-parameter superposition family matches the full sweep
        assert by_pair[("g2", "g")]["gap_bits"] <= 5e-3
        assert by_pair[("g", "g2")]["is_subset"]
        # the relay-only family is strictly smaller
        assert by_pair[("g1", "g")]["gap_bits"] > 5e-3
        assert not by_pair[("g", "g1")]["is_subset"]

    def test_outer_bound_intersection_is_strict(self, tmp_path, capsys):
        code = main(["compare", "--p1", "6", "--p2", "0", "--b", "2",
                     "--select", "co1,co2", "--points", "51",
                     "--cov-points", "21", "--directions", "181",
                     "--output", str(tmp_path)])
        assert code == 0
        path = capsys.readouterr().out.strip().splitlines()[0]
        with open(path) as fh:
            doc = json.load(fh)
        by_pair = {(c["inner"], c["outer"]): c for c in doc["comparisons"]}
        assert by_pair[("co2", "co1")]["is_subset"]
        assert by_pair[("co2", "co1")]["gap_bits"] > 5e-2
        for c in doc["comparisons"]:
            assert set(c) == {"inner", "outer", "is_subset",
                              "worst_direction_deg", "gap_bits"}


class TestCapacityCheckCommand:
    def test_boundary_gain_meets_outer(self, capsys):
        code = main(["capacity-check", "--p1", "6", "--p2", "6",
                     "--b", "1.3628"])
        assert code == 0
        out = capsys.readouterr().out
        assert "b_star = 1.36277029" in out
        assert "in_regime = yes" in out
        assert "meets_outer = yes" in out

    def test_high_gain_misses_outer(self, capsys):
        code = main(["capacity-check", "--p1", "6", "--p2", "6",
                     "--b", "3.3628", "--points", "51", "--directions", "181"])
        assert code == 0
        out = capsys.readouterr().out
        assert "in_regime = no" in out
        assert "meets_outer = no" in out
        gap = float(re.search(r"gap_bits = ([0-9.e-]+)", out).group(1))
        assert gap > 1e-2

    def test_no_secondary_power_threshold(self, capsys):
        code = main(["capacity-check", "--p1", "6", "--p2", "0", "--b", "1",
                     "--points", "51", "--directions", "181"])
        assert code == 0
        out = capsys.readouterr().out
        assert "b_star = 1\n" in out
        assert "in_regime = yes" in out


class TestFigureCommand:
    def test_fig2_emits_six_curves(self, tmp_path, capsys):
        code = main(["figure", "fig2", "--output", str(tmp_path), *SMALL])
        assert code == 0
        capsys.readouterr()
        names = sorted(os.listdir(tmp_path))
        csvs = [n for n in names if n.endswith(".csv")]
        assert len(csvs) == 6
        for sel in ("g3p", "co1"):
            for btag in ("b1", "b1.3628", "b3.3628"):
                assert f"fig2_{sel}_{btag}.csv" in csvs
        svg = (tmp_path / "fig2.svg").read_text()
        assert svg.count("<polyline") >= 6

    def test_fig3_gain_override(self, tmp_path, capsys):
        code = main(["figure", "fig3", "--b", "1.3628", "--points", "9",
                     "--directions", "181", "--output", str(tmp_path)])
        assert code == 0
        capsys.readouterr()
        csvs = [n for n in os.listdir(tmp_path) if n.endswith(".csv")]
        assert sorted(csvs) == [
            "fig3_co1_b1.3628.csv",
            "fig3_g1_b1.3628.csv",
            "fig3_g2_b1.3628.csv",
            "fig3_g_b1.3628.csv",
        ]

    @pytest.mark.parametrize("gains, tag", [
        (["1.3627702", "1.3627703"], "b1.36277"),
        (["2", "2"], "b2"),
    ], ids=["same-tag", "exact-duplicate"])
    def test_gains_sharing_a_file_tag_are_refused(self, gains, tag, tmp_path,
                                                 monkeypatch, capsys):
        def built(*args, **kwargs):
            raise AssertionError("a region was built")

        monkeypatch.setattr(cli, "build_region", built)
        out = tmp_path / "out"
        argv = ["figure", "fig2", *(f"--b={g}" for g in gains), "--output", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert f"share the file tag '{tag}'" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_fig5_extreme_case_setting(self, tmp_path, capsys):
        code = main(["figure", "fig5", "--points", "51", "--cov-points", "15",
                     "--directions", "181", "--output", str(tmp_path)])
        assert code == 0
        capsys.readouterr()
        csvs = sorted(n for n in os.listdir(tmp_path) if n.endswith(".csv"))
        assert csvs == ["fig5_co1_b2.csv", "fig5_co2_b2.csv"]
        inner = read_csv(tmp_path / "fig5_co2_b2.csv")
        outer = read_csv(tmp_path / "fig5_co1_b2.csv")
        assert inner[:, 1].max() <= outer[:, 1].max() + 1e-9

    def test_runs_are_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["figure", "fig2", "--output", str(a), *SMALL]) == 0
        assert main(["figure", "fig2", "--output", str(b), *SMALL]) == 0
        capsys.readouterr()
        for name in sorted(os.listdir(a)):
            with open(a / name, "rb") as fa, open(b / name, "rb") as fb:
                assert fa.read() == fb.read(), name
