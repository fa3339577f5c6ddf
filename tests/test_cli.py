"""Command-line frontend: exit codes, file schemas, figure presets."""

import dataclasses
import inspect
import io
import json
import math
import os
import re
import struct
import time
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from cograte import bounds, cli, gaussian, geometry
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

    def recorded(sel, ch, cfg, parents=None):
        built[sel] = build(sel, ch, cfg, parents)
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
        ["compare", "--select", "g2,g3p", "--tol", "nan"],
        ["region", "--select", "g2", "--points", "100000000"],
        ["region", "--p1", "1e-300", "--p2", "1e300", "--b", "1e200", "--select", "g2"],
        ["figure", "fig5", "--b", "1e160"],
        ["region", "--p1", "1e300", "--p2", "1e10", "--b", "0", "--select", "g3p"],
        ["region", "--p1", "1e300", "--p2", "1e10", "--b", "0", "--select", "co1"],
        ["region", "--p1", "1e300", "--p2", "1e10", "--b", "0", "--select", "bcdms"],
        ["region", "--p1", "1e200", "--p2", "0", "--b", "0", "--select", "g3p"],
        ["region", "--select", "g2,co1", "--directions", "721000"],
    ], ids=["negative-gain", "nan-gain", "negative-tol", "nan-tol", "oversized-grid",
            "overflowing-gain", "overflowing-figure-gain", "g3p-lambda-total",
            "co1-power-product", "bcdms-power-product", "g3p-own-relayed",
            "oversized-directions"])
    def test_out_of_contract_input_is_usage_error(self, argv, tmp_path,
                                                  monkeypatch, capsys):
        def built(*args, **kwargs):
            raise AssertionError("a region was built")

        monkeypatch.setattr(cli, "build_region", built)
        code = main([*argv, "--output", str(tmp_path)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("refuse, argv, message", [
        (lambda ch: ChannelParams(1e160, 1.0, 1e80),
         ["region", "--p1", "1e160", "--p2", "1", "--b", "1e80", "--select", "g"],
         "received power overflows"),
        (lambda ch: gaussian.g2_region(ch, 10**9),
         ["region", "--select", "g2", "--points", str(10**9)], "pentagons, more than"),
        (lambda ch: bounds.co1_region(ch, 10**9),
         ["region", "--select", "co1", "--points", str(10**9)], "pentagons, more than"),
        (lambda ch: gaussian.g_region(ch, 204, 204, 204),
         ["region", "--select", "g", "--points", "204"], "pentagons, more than"),
        (lambda ch: bounds.bcdms_region(ch, 204),
         ["region", "--select", "bcdms", "--cov-points", "204"], "pentagons, more than"),
        # a numpy count whose cube or product wraps past 2**63
        (lambda ch: gaussian.g_region(ch, *[np.int64(2_200_000)] * 3),
         ["region", "--select", "g", "--points", "2200000"], "pentagons, more than"),
        (lambda ch: bounds.bcdms_region(ch, np.int64(3_000_000)),
         ["region", "--select", "bcdms", "--cov-points", "3000000"],
         "27000000000000000000 pentagons"),
        (lambda ch: geometry.quadrant_directions(4098),
         ["region", "--select", "g2", "--directions", "4098"], "at most 4097 directions"),
    ], ids=["overflowing-channel", "g2-points", "co1-points", "g-points", "bcdms-points",
            "numpy-g-points", "numpy-bcdms-points", "directions"])
    def test_the_library_refuses_each_input_the_cli_refuses(
            self, refuse, argv, message, tmp_path, monkeypatch, capsys):
        # at once, before anything is evaluated, and without a warning;
        # the CLI's refusal is the library's own
        ch = ChannelParams(6.0, 6.0, 1.0)
        fastest = math.inf
        for _ in range(3):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                start = time.perf_counter()
                with pytest.raises(ValueError, match=message):
                    refuse(ch)
                fastest = min(fastest, time.perf_counter() - start)
        assert fastest < 0.01

        def built(*args, **kwargs):
            raise AssertionError("a region was built")

        monkeypatch.setattr(cli, "build_region", built)
        assert main([*argv, "--output", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err

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
                      n_points=gaussian.MAX_PENTAGONS + 1)
        with pytest.raises(ValueError, match="pentagons"):
            # fig3's g at 300 points: 27 million pentagons
            RunConfig(command="figure", p1=6, p2=6, b=2, figure="fig3", n_points=300)

    @pytest.mark.parametrize("k", [2, 5, 13])
    def test_grid_guard_counts_every_pentagon_g_and_g1_evaluate(self, k, monkeypatch):
        # the seed sub-grid as well as the grid, every row evaluated whole
        cfg = RunConfig(command="region", p1=6, p2=6, b=2, selections=("g", "g1"),
                        n_points=k)
        evaluated = []
        hull = gaussian.hull_of_slabs

        def counted(seed, *args, rows, **kwargs):
            evaluated.append(seed[0].size + sum(r1.size for r1, _, _ in rows(None)))
            return hull(seed, *args, **kwargs)

        monkeypatch.setattr(gaussian, "_screened_ga", lambda *args: None)
        monkeypatch.setattr(gaussian, "hull_of_slabs", counted)
        for sel in cfg.selections:
            cli.build_region(sel, ChannelParams(6, 6, 2), cfg)
        assert evaluated == [cli._pentagon_count(sel, cfg) for sel in cfg.selections]

    @pytest.mark.parametrize("argv", [["region", "--select", "g2"],
                                      ["compare", "--select", "g2,g3p"],
                                      ["figure", "fig2"]],
                             ids=["region", "compare", "figure"])
    @pytest.mark.parametrize("under", [False, True], ids=["a-file", "under-a-file"])
    def test_output_that_is_not_a_directory_is_usage_error(self, argv, under, tmp_path,
                                                           monkeypatch, capsys):
        def built(*args, **kwargs):
            raise AssertionError("a region was built")

        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        monkeypatch.setattr(cli, "build_region", built)
        code = main([*argv, "--output", str(taken / "out" if under else taken), *SMALL])
        assert code == 2
        assert "is not a directory" in capsys.readouterr().err
        assert taken.read_text() == "kept\n"

    def test_capacity_check_writes_no_file_so_takes_any_output(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main(["capacity-check", "--output", str(taken / "out"), *SMALL]) == 0
        assert "gap_bits" in capsys.readouterr().out

    def test_one_parameter_families_are_bounded_by_pentagons_alone(self, tmp_path, capsys):
        # the support maximum is O(P log P + D), so points x directions
        # needs no guard of its own
        argv = ["region", "--select", "co1,co2", "--points", "65521",
                "--directions", str(geometry.MAX_DIRECTIONS), "--output", str(tmp_path)]
        assert main(argv) == 0, capsys.readouterr().err
        for sel in ("g2", "g3p", "capacity", "co1", "co2"):
            with pytest.raises(ValueError, match="pentagons"):
                RunConfig(command="region", p1=6, p2=6, b=2, selections=(sel,),
                          n_points=gaussian.MAX_PENTAGONS + 1,
                          n_directions=geometry.MAX_DIRECTIONS)

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

    @pytest.mark.parametrize("sel", ["bcdms", "co2"])
    def test_cov_grid_budget_counts_the_entries_the_run_search_reads(
            self, sel, tmp_path, capsys):
        # about n_cov**3 (plus co1's points for co2): 203**3 fits 2**23,
        # 204**3 does not
        argv = ["region", "--select", sel, "--directions", "181", "--output", str(tmp_path)]
        assert main([*argv, "--cov-points", "203"]) == 0, capsys.readouterr().err
        assert main([*argv, "--cov-points", "204"]) == 2
        assert "pentagons, more than" in capsys.readouterr().err

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
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_a_signed_zero_names_files_as_zero_does(self, fmt, tmp_path, capsys):
        # -0 wrote g2_p16_p26_b-0.csv, a second name for the same channel
        for gain in ("-0", "0"):
            out = tmp_path / gain
            code = main(["region", f"--b={gain}", "--select", "g2", "--format", fmt,
                         "--output", str(out), *SMALL])
            assert code == 0
        capsys.readouterr()
        name = "g2_p16_p26_b0.csv" if fmt == "csv" else "region_g2_p16_p26_b0.json"
        assert os.listdir(tmp_path / "-0") == [name]
        assert (tmp_path / "-0" / name).read_bytes() == (tmp_path / "0" / name).read_bytes()

    def test_g3p_boundary_reaches_the_r1_corner(self, tmp_path, capsys):
        code = main(["region", "--p1", "6", "--p2", "6", "--b", "1.3628",
                     "--select", "g3p", "--output", str(tmp_path), *SMALL])
        assert code == 0
        out = capsys.readouterr().out.strip().splitlines()
        pts = read_csv(out[0])
        # CSV fields carry 9 significant digits, so compare at 1e-8
        assert pts[:, 0].max() == pytest.approx(hl2(7), abs=1e-8)

    @pytest.mark.parametrize("select, points", [("g", "11"), ("g1", "46")])
    def test_chain_vertices_ulps_apart_keep_the_support_tight(self, select, points,
                                                             tmp_path, monkeypatch):
        # two vertices of the corner chain lie a few ulps apart, so its edge
        # normals are not monotone; the searched vertex alone was up to 0.21
        # bits short, and the emitted boundary check exited 3
        calls = []
        kernel = geometry.support_max_over_pentagons

        def recorded(r1, r2, s, dirs):
            calls.append((r1, r2, s, dirs, kernel(r1, r2, s, dirs)))
            return calls[-1][-1]

        monkeypatch.setattr(geometry, "support_max_over_pentagons", recorded)
        code = main(["region", "--p1", "1e6", "--p2", "1", "--b", "0.5", "--select", select,
                     "--points", points, "--directions", "181", "--output", str(tmp_path)])
        assert code == 0
        assert calls
        for r1, r2, s, dirs, got in calls:
            x, y = geometry._top_corners(np.ravel(r1), np.ravel(r2), np.ravel(s))
            want = (x[:, None] * dirs[:, 0] + y[:, None] * dirs[:, 1]).max(axis=0)
            assert (want - got).max() <= 4.0 * np.spacing(want.max())

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

    @pytest.mark.parametrize("fmt", ["json", "svg"])
    def test_reports_with_other_selections_keep_their_own_names(
            self, fmt, tmp_path, capsys):
        # the same channel twice into one directory: neither report replaces
        # the other
        written = {}
        for sels in ("g3p,co1", "g2,capacity"):
            assert main(["region", "--select", sels, "--format", fmt,
                         "--output", str(tmp_path), *SMALL]) == 0
            (path,) = capsys.readouterr().out.split()
            written[sels] = Path(path)
        assert written["g3p,co1"].name == f"region_g3p-co1_p16_p26_b1.{fmt}"
        assert sorted(tmp_path.iterdir()) == sorted(written.values())
        for sels, path in written.items():
            text = path.read_text()
            for sel in sels.split(","):
                assert f"{sel}(P1=6,P2=6,b=1)" in text

    def test_gains_apart_past_six_digits_write_apart(self, tmp_path, capsys):
        for b in ("1.00000001", "1.00000002", "1.5"):
            assert main(["region", "--b", b, "--select", "co1",
                         "--output", str(tmp_path), *SMALL]) == 0
        capsys.readouterr()
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "co1_p16_p26_b1.00000001.csv", "co1_p16_p26_b1.00000002.csv",
            "co1_p16_p26_b1.5.csv"]

    @pytest.mark.parametrize("sels", ["co1,co2", "co2,co1,bcdms", "bcdms,co2"])
    def test_co2_reuses_the_selected_parents(self, sels, tmp_path, monkeypatch, capsys):
        built = {"co1": [], "bcdms": []}
        for name in built:
            make = getattr(bounds, f"{name}_region")

            def counted(*args, _name=name, _make=make):
                built[_name].append(args)
                return _make(*args)

            monkeypatch.setattr(cli, f"{name}_region", counted)
            monkeypatch.setattr(bounds, f"{name}_region", counted)
        argv = ["region", "--p1", "6", "--p2", "0", "--b", "2", "--select", sels,
                "--format", "json", "--output", str(tmp_path), *SMALL]
        assert main(argv) == 0
        (path,) = capsys.readouterr().out.split()
        assert {name: len(calls) for name, calls in built.items()} == {"co1": 1, "bcdms": 1}
        monkeypatch.undo()
        co2 = bounds.co2_region(ChannelParams(6.0, 0.0, 2.0), 31, 9, 181)
        doc = json.loads(Path(path).read_text())
        (got,) = [r for r in doc["regions"] if r["name"] == "co2"]
        assert got["provenance"] == co2.provenance
        assert got["boundary_bits"] == [[float(f"{x:.9g}"), float(f"{y:.9g}")]
                                        for x, y in co2.boundary]

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
        dirs = geometry.quadrant_directions(3)
        regions = {
            "g2": ConvexRegion(dirs, np.full(3, 4e16), np.array(
                [[1.23456789012e16, 0.0], [12345.678901234, 8.64026087123e-05],
                 [1e-300, 3.0000000004e-5], [0.0, 2.5e16]]), "wide"),
            "co1": ConvexRegion(dirs, np.zeros(3), np.zeros((1, 2)), "point"),
            "g3p": ConvexRegion(dirs, np.zeros(3), np.zeros((0, 2)), "empty"),
        }
        monkeypatch.setattr(cli, "build_region", lambda sel, ch, cfg, built: regions[sel])
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

        def pushed(sel, ch, cfg, built):
            region = build(sel, ch, cfg, built)
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

    @staticmethod
    def adversarial_blocks():
        """Vertex blocks at every edge of the one-format writer."""
        tiny = np.nextafter(0.0, 1.0)
        edges = [1e-4, 1e8, 1e9, 1e16, 1e-5, 1e300, 5e-324, 2.2250738585072014e-308,
                 99999999.99, 99999999.9999999, 999999999.7, 9.9999999996e-5,
                 123456789.0, 1.0, 2.0, 3.5, 7e7, 12345678.9]
        values = edges + [np.nextafter(e, d) for e in edges for d in (0.0, np.inf)]
        blocks = [np.zeros((0, 2)), np.zeros((1, 2)), np.array([[1.5, 2.25]]),
                  np.array([[0.0, 1.25]]), np.array([[1.25, 0.0]]),
                  np.array([[2.5, 0.0], [1.5, 1.5], [0.0, 3.75]]),
                  np.array([[-0.0, 1.25]]), np.array([[1.25, -0.0]]),
                  np.array([[1.0, 0.5], [0.5, 2.0]]), np.array([[tiny, 1.5]])]
        blocks += [np.array([[v, 0.5], [0.25, v]]) for v in values]
        rng = np.random.default_rng(7)
        for i in range(300):
            n = int(rng.integers(1, 40))
            block = rng.uniform(1.0, 10.0, (n, 2)) * 10.0 ** rng.integers(-4, 8, (n, 2))
            block[rng.random((n, 2)) < 0.1] = 0.0
            if i % 3 == 0:
                block.flat[rng.integers(block.size)] = rng.choice(values)
            if i % 5 == 0:
                block.flat[rng.integers(block.size)] = rng.integers(1, 10**8)
            blocks.append(block)
        return blocks

    def test_vertex_writer_equals_the_json_encoder(self):
        for block in self.adversarial_blocks():
            got = cli._json_vertices(block)
            assert got == (cli._encoded_vertices(block.ravel()) if block.size else "[]")
            if block.size:
                ref = json.dumps([[float(f"{x:.9g}"), float(f"{y:.9g}")]
                                  for x, y in block.tolist()], indent=2)
                # the block sits three levels deep in the report
                assert got == ref.replace("\n", "\n      ")

    def test_vertex_writer_formats_hull_blocks_in_one_pass(self, monkeypatch):
        # the encoder is the fallback for exponent forms, -0.0 and integral
        # tokens; a hull's boundary at the benchmark channels needs none
        def refused(flat):
            raise AssertionError(f"fell back on {flat.tolist()[:4]}")

        blocks = [build(ChannelParams(6.0, 6.0, b)).boundary
                  for b in (1.0, 2.0303, 3.3628)
                  for build in (gaussian.g2_region, gaussian.g3p_region,
                                gaussian.capacity_region, bounds.co1_region)]
        texts = [cli._json_vertices(block) for block in blocks]
        monkeypatch.setattr(cli, "_encoded_vertices", refused)
        assert [cli._json_vertices(block) for block in blocks] == texts
        with pytest.raises(AssertionError, match="fell back"):
            cli._json_vertices(np.array([[1e-5, 0.0]]))

    @pytest.mark.parametrize("shift", [1e-6, 1e-3, 0.25])
    def test_escape_message_is_the_largest_slack_over_every_vertex(self, shift):
        region = bounds.co1_region(ChannelParams(6.0, 6.0, 2.0), 31, 181)
        boundary = region.boundary.copy()
        boundary[len(boundary) // 3] += shift
        boundary[-2] += (shift / 2, shift)
        pushed = dataclasses.replace(region, boundary=boundary)
        slack = boundary @ region.directions.T - region.support
        with pytest.raises(FloatingPointError) as err:
            cli._check_emitted_boundary(pushed)
        assert str(err.value) == (
            f"boundary point escapes its region by {float(slack.max()):g} bits")
        cli._check_emitted_boundary(region)


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


def _per_point_polylines(curves):
    """Each curve's polyline points as write_svg formatted them point by
    point: the fixed 800x600 layout, its axes rounded up to a quarter bit."""
    xmax = ymax = 0.0
    for _, region in curves:
        if region.boundary.size:
            xmax = max(xmax, float(np.max(region.boundary[:, 0])))
            ymax = max(ymax, float(np.max(region.boundary[:, 1])))
    xmax = max(0.25, float(np.ceil((xmax + 1e-12) / 0.25) * 0.25))
    ymax = max(0.25, float(np.ceil((ymax + 1e-12) / 0.25) * 0.25))
    return [" ".join(f"{70 + 705 * float(x) / xmax:.2f},{600 - 55 - 520 * float(y) / ymax:.2f}"
                     for x, y in region.boundary) for _, region in curves]


def _svg_polylines(path):
    return re.findall(r'<polyline points="([^"]*)"', Path(path).read_text())


class TestSvgWriter:
    @pytest.mark.parametrize("figure", sorted(cli.FIGURES))
    def test_preset_polylines_match_the_per_point_formatter(self, figure, tmp_path,
                                                            monkeypatch, capsys):
        curves = []
        write = cli.write_svg

        def recorded(path, drawn):
            curves.extend(drawn)
            return write(path, drawn)

        monkeypatch.setattr(cli, "write_svg", recorded)
        assert main(["figure", figure, "--output", str(tmp_path)]) == 0
        capsys.readouterr()
        assert _svg_polylines(tmp_path / f"{figure}.svg") == _per_point_polylines(curves)

    def test_random_polylines_match_the_per_point_formatter(self, tmp_path):
        # random scales, zeros, points on the hundredth grid and halfway
        # between, an empty boundary and one of a single vertex
        rng = np.random.default_rng(12)
        path = tmp_path / "random.svg"
        for i in range(60):
            # write_svg reads only each region's boundary
            curves = [("empty", SimpleNamespace(boundary=np.empty((0, 2))))] if i == 0 else []
            for k in range(int(rng.integers(1, 5))):
                m = int(rng.integers(1, 40))
                pts = rng.uniform(0.0, 10.0 ** rng.uniform(-3.0, 3.0), (m, 2))
                pts[rng.random((m, 2)) < 0.1] = 0.0
                if k == 1:
                    pts = np.round(pts * 8.0) / 8.0 + rng.integers(0, 2, (m, 2)) * 0.005
                curves.append((f"c{k}", SimpleNamespace(boundary=pts)))
            # points that the axes, 2.25 bits long each way, put within
            # roundoff of a halfway case of "%.2f"
            steps = rng.integers(0, [70_000, 51_500], (400, 2)) / 100.0
            near = (steps + 0.005) * 2.25 / [705.0, 520.0]
            curves.append(("halfway", SimpleNamespace(boundary=np.vstack([near, [2.0, 2.0]]))))
            cli.write_svg(str(path), curves)
            assert _svg_polylines(path) == _per_point_polylines(curves), i


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
        (["2", "2"], "b2"),
        (["1.3627702", "1.36277020"], "b1.3627702"),
        (["0", "-0"], "b0"),
    ], ids=["exact-duplicate", "duplicate-spelled-apart", "signed-zeros"])
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

    def test_gains_apart_past_six_digits_write_apart(self, tmp_path, capsys):
        # {:g} prints 6 significant digits, so these shared a file name and
        # the second curve replaced the first
        code = main(["figure", "fig2", "--b=1.3627702", "--b=1.3627703",
                     "--output", str(tmp_path), *SMALL])
        assert code == 0
        capsys.readouterr()
        csvs = sorted(n for n in os.listdir(tmp_path) if n.endswith(".csv"))
        assert csvs == [f"fig2_{sel}_b{g}.csv" for sel in ("co1", "g3p")
                        for g in ("1.3627702", "1.3627703")]

    def test_fig5_builds_co1_once_per_gain(self, tmp_path, monkeypatch, capsys):
        calls = []
        co1 = bounds.co1_region

        def counted(ch, *args):
            calls.append(ch.b)
            return co1(ch, *args)

        monkeypatch.setattr(cli, "co1_region", counted)
        monkeypatch.setattr(bounds, "co1_region", counted)
        code = main(["figure", "fig5", "--b", "2", "--b", "3", "--points", "21",
                     "--cov-points", "9", "--directions", "91", "--output", str(tmp_path)])
        assert code == 0
        capsys.readouterr()
        assert calls == [2.0, 3.0]
        ch = ChannelParams(6.0, 0.0, 3.0)
        co2 = bounds.co2_region(ch, 21, 9, 91)
        assert (tmp_path / "fig5_co2_b3.csv").read_text() == csv_reference(co2)

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
