"""Command-line frontend: exit codes, file schemas, figure presets."""

import json
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest

from cograte import cli
from cograte.cli import RunConfig, main
from cograte.model import ChannelParams
from cograte.gaussian import g_region


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
    ], ids=["negative-gain", "nan-gain", "negative-tol", "oversized-grid"])
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
        RunConfig(command="region", p1=6, p2=6, b=2, selections=("g",),
                  n_points=201)
        with pytest.raises(ValueError, match="pentagons"):
            RunConfig(command="capacity-check", p1=6, p2=6, b=2,
                      n_points=cli.MAX_PENTAGONS + 1)

    def test_non_finite_pentagon_bound_exits_3(self, tmp_path, capsys):
        # finite inputs whose sum bounds overflow to inf, and to NaN
        # (inf * 0) at alpha=0; dropping that pentagon would shrink the region
        with np.errstate(all="ignore"):
            code = main(["region", "--p1", "1e-300", "--p2", "1e300",
                         "--b", "1e200", "--select", "g2",
                         "--output", str(tmp_path), *SMALL])
        assert code == 3
        assert "NaN or infinite" in capsys.readouterr().err

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
