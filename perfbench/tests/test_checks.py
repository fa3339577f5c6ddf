import math

import numpy as np
import pytest

import checks

B_STAR = math.sqrt(13.0 / 7.0)


def capacity_stdout(b, b_star=f"{B_STAR:.9g}", in_regime=None, gap=7.3e-4, meets=None):
    in_regime = in_regime or ("yes" if b <= B_STAR else "no")
    meets = meets or ("yes" if gap <= 1e-3 else "no")
    return (f"p1 = 6, p2 = 6, b = {b:g}\nb_star = {b_star}\nin_regime = {in_regime}\n"
            f"gap_bits = {gap:.9g}\nmeets_outer = {meets} (tolerance 0.001)\n")


def test_capacity_check_accepts_correct_output():
    assert checks.check_capacity_stdout(capacity_stdout(1.2), 6.0, 6.0, 1.2) == []
    assert checks.check_capacity_stdout(capacity_stdout(3.0, gap=0.12), 6.0, 6.0, 3.0) == []
    assert checks.check_capacity_stdout(capacity_stdout(1.5, gap=7.2e-4), 6.0, 6.0, 1.5) == []


@pytest.mark.parametrize("bad", [
    capacity_stdout(1.2, b_star="1.36277028"),
    capacity_stdout(1.2, in_regime="no"),
    capacity_stdout(1.2, gap=2e-3),
    capacity_stdout(3.0, gap=0.12, in_regime="yes"),
    capacity_stdout(3.0, gap=0.12, meets="yes"),
    capacity_stdout(3.0, gap=4e-4),
    "b_star = 1.36277029\n",
])
def test_capacity_check_trips_on_corrupted_output(bad):
    b = float(bad.split("b = ")[1].split()[0]) if "p1 =" in bad else 1.2
    assert checks.check_capacity_stdout(bad, 6.0, 6.0, b)


def co1_vertices(p1, p2, b):
    """Boundary of the co1 bound, from its closed-form support."""
    h = checks.co1_support(p1, p2, b)
    d = checks.DIRS
    det = d[:-1, 0] * d[1:, 1] - d[:-1, 1] * d[1:, 0]
    x = (h[:-1] * d[1:, 1] - h[1:] * d[:-1, 1]) / det
    y = (d[:-1, 0] * h[1:] - d[1:, 0] * h[:-1]) / det
    pts = np.vstack([[h[0], 0.0], np.column_stack([x, y]), [0.0, h[-1]]])
    keep = np.all(pts @ d.T <= h + 1e-9, axis=1)
    return np.clip(pts[keep], 0.0, None)


def test_co2_vertex_pushed_outside_co1_trips():
    co1 = co1_vertices(6.0, 0.0, 2.0)
    co2 = np.minimum(co1, [co1[:, 0].max(), 0.7])
    assert checks.check_fig5(co1, co2) == []
    assert checks.check_co2_in_co1(co2, checks.co1_support(6.0, 0.0, 2.0)) == []
    pushed = co2.copy()
    pushed[0] *= 1.01  # the r1-axis corner lies on the co1 boundary
    assert checks.check_co2_in_co1(pushed, checks.co1_support(6.0, 0.0, 2.0))
    assert checks.check_fig5(co1, pushed)


def test_fig5_trips_when_co2_is_not_strictly_tighter():
    co1 = co1_vertices(6.0, 0.0, 2.0)
    assert checks.check_fig5(co1, co1 * (1.0 - 1e-4))


def test_fig3_verdicts_trip_on_swapped_curves():
    g = co1_vertices(6.0, 6.0, 3.0)
    g1 = g * 0.9
    good = {("g", 3.0): g, ("g1", 3.0): g1, ("g2", 3.0): g}
    assert checks.check_fig3(good, [3.0]) == []
    assert checks.check_fig3({**good, ("g1", 3.0): g}, [3.0])
    assert checks.check_fig3({**good, ("g2", 3.0): g1}, [3.0])


@pytest.mark.parametrize("text", [
    "r1,r2\n0,1\n",
    "r1_bits,r2_bits\n",
    "r1_bits,r2_bits\n0.5,nan\n",
    "r1_bits,r2_bits\n0.5,-0.1\n",
    "r1_bits,r2_bits\n0.5\n",
])
def test_csv_parse_trips(text):
    with pytest.raises(ValueError):
        checks.parse_csv(text)


def test_svg_and_json_parse_trip_on_bad_vertices():
    good_svg = '<svg xmlns="http://www.w3.org/2000/svg"><polyline points="70.00,545.00 80.5,20.25"/></svg>'
    assert checks.parse_svg(good_svg) == 1
    with pytest.raises(ValueError):
        checks.parse_svg(good_svg.replace("80.5", "-80.5"))
    with pytest.raises(Exception):
        checks.parse_svg(good_svg[:-6])
    doc = '{"regions": [{"name": "g2", "boundary_bits": [[1.0, 0.0], [0.0, 1.5]]}]}'
    assert set(checks.parse_region_json(doc)) == {"g2"}
    with pytest.raises(ValueError):
        checks.parse_region_json(doc.replace("1.5", "Infinity"))


def test_dmc_support_above_alphabet_cap_trips():
    cap = checks.DIRS @ np.array([1.0, np.log2(3.0)])
    record = {"support": list(cap * 0.5), "boundary": [[0.5, 0.0], [0.0, 0.7]]}
    assert checks.check_dmc_search(record, 2, 2, 2, 3) == []
    record["support"][0] = 1.01
    assert checks.check_dmc_search(record, 2, 2, 2, 3)


def test_dmc_high_interference_margin_must_be_finite():
    assert checks.check_dmc_hi({"holds": True, "worst_margin": 0.01}) == []
    assert checks.check_dmc_hi({"holds": True, "worst_margin": float("nan")})
    assert checks.check_dmc_hi({"holds": True})


def test_check_cli_op_reads_a_fig5_directory(tmp_path):
    co1 = co1_vertices(6.0, 0.0, 2.0)
    co2 = np.minimum(co1, [co1[:, 0].max(), 0.7])

    def write(name, pts):
        rows = "".join(f"{x:.9g},{y:.9g}\n" for x, y in pts)
        (tmp_path / name).write_text("r1_bits,r2_bits\n" + rows)

    write("fig5_co1_b2.csv", co1)
    write("fig5_co2_b2.csv", co2)
    (tmp_path / "fig5.svg").write_text(
        '<svg xmlns="http://www.w3.org/2000/svg"><polyline points="1,2 3,4"/></svg>')
    op = [["figure", "fig5", "--b", "2.0"]]
    assert checks.check_cli_op(op, str(tmp_path), [""]) == []
    co2[3] = co1[3] * 1.02
    write("fig5_co2_b2.csv", co2)
    assert checks.check_cli_op(op, str(tmp_path), [""])
    (tmp_path / "fig5.svg").unlink()
    assert any("fig5.svg" in p for p in checks.check_cli_op(op, str(tmp_path), [""]))


def brute_force_useful(r1, r2, s, dirs):
    corners = checks.pentagon_corners(r1, r2, s)
    h = np.maximum(np.nanmax(np.einsum("nkc,dc->nkd", corners, dirs), axis=1), 0.0)
    return np.unique(np.argmax(h, axis=0)).size, h.max(axis=0)


def test_useful_pentagons_matches_brute_force():
    rng = np.random.default_rng(11)
    r1, r2 = rng.uniform(0.0, 2.0, size=(2, 3000))
    s = rng.uniform(0.5, 1.0, size=3000) * (r1 + r2)
    dirs = checks.quadrant_directions(181)
    want, support = brute_force_useful(r1, r2, s, dirs)
    got, deviation = checks.useful_pentagons(r1, r2, s, dirs, support)
    assert got == want and deviation == 0.0
    _, deviation = checks.useful_pentagons(r1, r2, s, dirs, support + 1e-6)
    assert deviation == pytest.approx(1e-6)
