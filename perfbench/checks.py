"""Output checks for the benchmark, run outside every timed phase.

Each ``check_*`` function returns a list of problems (empty when the output
is correct).  The checks read only what the program emitted (CSV, JSON, SVG
files and captured standard output) and compare it against independent
references: the threshold gain and the co1 bound in closed form, and
support functions recomputed from the emitted vertices.

Tolerances: emitted vertices carry 9 significant digits, so containment
checks allow 1e-7 bits; the gap verdicts use the CLI's own claim
tolerances (1e-3 bits to meet a bound, 5e-3 to coincide, 5e-2 for the
fig5 strictness of test_07).
"""

from __future__ import annotations

import json
import math
import os
import xml.etree.ElementTree as ET

import numpy as np

from workloads import B_STAR, MEETS_NO_MIN, THRESHOLD_BAND

N_DIRECTIONS = 721
ROUNDING_TOL = 1e-7
TOL_MEET = 1e-3
TOL_CLAIM = 5e-3
FIG5_MIN_GAP = 5e-2


def quadrant_directions(n: int = N_DIRECTIONS) -> np.ndarray:
    angles = np.linspace(0.0, np.pi / 2.0, n)
    dirs = np.column_stack([np.cos(angles), np.sin(angles)])
    dirs[0] = (1.0, 0.0)
    dirs[-1] = (0.0, 1.0)
    return dirs


DIRS = quadrant_directions()


def _vertices(rows, where: str) -> np.ndarray:
    pts = np.asarray(rows, dtype=float).reshape(-1, 2)
    if pts.shape[0] == 0:
        raise ValueError(f"{where}: no vertices")
    if not np.all(np.isfinite(pts)):
        raise ValueError(f"{where}: non-finite vertex")
    if np.any(pts < 0.0):
        raise ValueError(f"{where}: negative vertex coordinate {float(pts.min()):g}")
    return pts


def parse_csv(text: str, where: str = "csv") -> np.ndarray:
    lines = text.splitlines()
    if not lines or lines[0] != "r1_bits,r2_bits":
        raise ValueError(f"{where}: missing r1_bits,r2_bits header")
    try:
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    except ValueError as err:
        raise ValueError(f"{where}: {err}") from None
    if any(len(r) != 2 for r in rows):
        raise ValueError(f"{where}: rows must have two columns")
    return _vertices(rows, where)


def parse_region_json(text: str, where: str = "json") -> dict:
    doc = json.loads(text)
    regions = {}
    for reg in doc["regions"]:
        regions[reg["name"]] = _vertices(reg["boundary_bits"], f"{where}:{reg['name']}")
    if not regions:
        raise ValueError(f"{where}: no regions")
    return regions


def parse_svg(text: str, where: str = "svg") -> int:
    """Number of polylines; every coordinate must be finite and >= 0."""
    root = ET.fromstring(text)
    lines = [el for el in root.iter() if el.tag.endswith("polyline")]
    if not lines:
        raise ValueError(f"{where}: no polyline")
    for el in lines:
        coords = [float(v) for pair in el.get("points", "").split() for v in pair.split(",")]
        _vertices(coords, where)
    return len(lines)


def support(vertices: np.ndarray, dirs: np.ndarray = DIRS) -> np.ndarray:
    """Support of the hull of the vertices and the origin, per direction."""
    return np.maximum(np.max(vertices @ dirs.T, axis=0), 0.0)


def gap(outer: np.ndarray, inner: np.ndarray) -> float:
    """Directed gap: largest outer-minus-inner support over the directions."""
    return float(np.max(support(outer) - support(inner)))


def co1_support(p1: float, p2: float, b: float, n_rho: int = 201,
                dirs: np.ndarray = DIRS) -> np.ndarray:
    """co1 bound in closed form: hull of (r1, s, s) pentagons over a rho grid."""
    rho = np.linspace(0.0, 1.0, n_rho)
    r1 = 0.5 * np.log2(1.0 + (1.0 - rho * rho) * p1)
    s = 0.5 * np.log2(1.0 + b * b * p1 + p2 + 2.0 * rho * b * np.sqrt(p1 * p2))
    corners = np.concatenate([
        np.column_stack([r1, np.zeros_like(r1)]),
        np.column_stack([np.zeros_like(s), s]),
        np.column_stack([r1, np.maximum(s - r1, 0.0)]),
    ])
    return support(corners, dirs)


def outside(points: np.ndarray, h: np.ndarray, dirs: np.ndarray = DIRS) -> float:
    """Largest amount by which a point leaves the halfplanes d.x <= h(d)."""
    return float(np.max(points @ dirs.T - h[None, :]))


def check_capacity_stdout(text: str, p1: float, p2: float, b: float) -> list:
    fields = {}
    for line in text.splitlines():
        for part in line.split(", "):
            key, sep, val = part.partition(" = ")
            if sep:
                fields[key.strip()] = val.strip()
    problems = []
    exact = math.sqrt((p1 + p2 + 1.0) / (p1 + 1.0))
    # 9 significant digits are printed, so compare the rounded strings.
    if fields.get("b_star") != f"{exact:.9g}":
        problems.append(f"b_star = {fields.get('b_star')!r}, expected {exact:.9g}")
    try:
        gap_bits = float(fields["gap_bits"])
        in_regime = fields["in_regime"]
        meets = fields["meets_outer"].split()[0]
    except (KeyError, ValueError, IndexError) as err:
        return problems + [f"capacity-check output unreadable: {err}"]
    if not math.isfinite(gap_bits):
        problems.append(f"gap_bits is {gap_bits}")
    if meets != ("yes" if gap_bits <= TOL_MEET else "no"):
        problems.append(f"meets_outer = {meets} disagrees with gap_bits = {gap_bits:g}")
    if b <= B_STAR:
        if in_regime != "yes" or meets != "yes":
            problems.append(f"b={b:g} below b_star: in_regime={in_regime}, meets_outer={meets}")
    elif b > B_STAR + THRESHOLD_BAND and in_regime != "no":
        problems.append(f"b={b:g} above b_star: in_regime={in_regime}")
    if b >= MEETS_NO_MIN and meets != "no":
        problems.append(f"b={b:g} >= {MEETS_NO_MIN}: meets_outer={meets}")
    return problems


def check_fig3(curves: dict, gains) -> list:
    """curves: (selection, gain) -> vertices.  The test_05 verdicts per gain."""
    problems = []
    for g in gains:
        full, g1, g2 = curves[("g", g)], curves[("g1", g)], curves[("g2", g)]
        if gap(full, g2) > TOL_CLAIM:
            problems.append(f"b={g:g}: gap(g, g2) = {gap(full, g2):g} > {TOL_CLAIM}")
        if not gap(full, g1) > TOL_CLAIM:
            problems.append(f"b={g:g}: gap(g, g1) = {gap(full, g1):g} <= {TOL_CLAIM}")
    return problems


def check_co2_in_co1(co2: np.ndarray, co1_h: np.ndarray) -> list:
    excess = outside(co2, co1_h)
    if excess > ROUNDING_TOL:
        return [f"a co2 vertex lies {excess:g} bits outside co1"]
    return []


def check_fig5(co1: np.ndarray, co2: np.ndarray) -> list:
    """test_07: co2 within co1, and strictly tighter by more than 5e-2 bits."""
    problems = check_co2_in_co1(co2, support(co1))
    if not gap(co1, co2) > FIG5_MIN_GAP:
        problems.append(f"gap(co1, co2) = {gap(co1, co2):g} <= {FIG5_MIN_GAP}")
    return problems


def check_dmc_search(record: dict, nx1: int, nx2: int, ny1: int, ny2: int) -> list:
    """Supports stay within I(X1;Y1) <= log2 min(nx1, ny1) and the Y2 cap."""
    try:
        h = np.asarray(record["support"], dtype=float)
        _vertices(record["boundary"], "dmc boundary")
    except (KeyError, ValueError) as err:
        return [str(err)]
    if h.shape != (N_DIRECTIONS,) or not np.all(np.isfinite(h)) or np.any(h < 0.0):
        return ["dmc support is not 721 finite nonnegative values"]
    cap = DIRS @ np.array([np.log2(min(nx1, ny1)), np.log2(min(nx1 * nx2, ny2))])
    excess = float(np.max(h - cap))
    if excess > 1e-9:
        return [f"dmc support exceeds its alphabet cap by {excess:g} bits"]
    return []


def check_dmc_hi(record: dict) -> list:
    margin = record.get("worst_margin")
    if isinstance(margin, float) and math.isfinite(margin):
        return []
    return [f"high-interference margin is {margin!r}"]


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _flag(argv: list, name: str, default: float) -> float:
    return float(argv[argv.index(name) + 1]) if name in argv else default


def check_cli_op(op: list, op_dir: str, stdouts: list) -> list:
    """Check every file one CLI op wrote, plus the verdicts for its command."""
    names = sorted(os.listdir(op_dir)) if os.path.isdir(op_dir) else []
    emitted = [n for n in names if n.rsplit(".", 1)[-1] in ("csv", "json", "svg")]
    parsed = {}
    problems = []
    for name in emitted:
        path = os.path.join(op_dir, name)
        try:
            if name.endswith(".csv"):
                parsed[name] = parse_csv(_read(path), name)
            elif name.endswith(".json"):
                parsed[name] = parse_region_json(_read(path), name)
            else:
                parse_svg(_read(path), name)
        except (ValueError, KeyError, TypeError, ET.ParseError) as err:
            problems.append(f"{name}: {err}")
    if problems:
        return problems
    for argv, out in zip(op, stdouts):
        cmd = argv[0]
        p1, p2, b = _flag(argv, "--p1", 6.0), _flag(argv, "--p2", 6.0), _flag(argv, "--b", 1.0)
        if cmd == "capacity-check":
            problems += check_capacity_stdout(out, p1, p2, b)
        elif cmd == "region" and "json" in argv:
            docs = [v for k, v in parsed.items() if k.endswith(".json")]
            if len(docs) != 1 or set(docs[0]) != set(argv[argv.index("--select") + 1].split(",")):
                problems.append(f"region JSON missing or incomplete: {sorted(parsed)}")
        elif cmd == "region":
            co2 = [v for k, v in parsed.items() if k.startswith("co2_")]
            if len(co2) != 1:
                problems.append(f"expected one co2 CSV, got {sorted(parsed)}")
            else:
                problems += check_co2_in_co1(co2[0], co1_support(p1, p2, b))
        elif cmd == "figure":
            fig = argv[1]
            gains = [float(argv[i + 1]) for i, a in enumerate(argv) if a == "--b"]
            sels = {"fig3": ("g", "g1", "g2", "co1"), "fig5": ("co1", "co2")}[fig]
            curves = {}
            for sel in sels:
                for g in gains:
                    key = f"{fig}_{sel}_b{g:g}.csv"
                    if key not in parsed:
                        problems.append(f"missing {key}")
                    else:
                        curves[(sel, g)] = parsed[key]
            if f"{fig}.svg" not in names:
                problems.append(f"missing {fig}.svg")
            if problems:
                continue
            if fig == "fig3":
                problems += check_fig3(curves, gains)
            else:
                for g in gains:
                    problems += check_fig5(curves[("co1", g)], curves[("co2", g)])
    return problems


def pentagon_corners(r1: np.ndarray, r2: np.ndarray, s: np.ndarray) -> np.ndarray:
    """(n, 4, 2) corners other than the origin, NaN where a corner is absent.

    Mirrors ``Pentagon.vertices``: the two axis points, then either the two
    sum-face corners or the box corner.
    """
    n = r1.size
    v = np.full((n, 4, 2), np.nan)
    v[:, 0, 0] = np.minimum(r1, s)
    v[:, 0, 1] = 0.0
    v[:, 1, 0] = 0.0
    v[:, 1, 1] = np.minimum(r2, s)
    cut = r1 + r2 > s
    a_face = cut & (s - r1 >= 0.0) & (s - r1 <= r2)
    b_face = cut & (s - r2 >= 0.0) & (s - r2 <= r1)
    v[a_face, 2] = np.column_stack([r1, s - r1])[a_face]
    v[b_face, 3] = np.column_stack([s - r2, r2])[b_face]
    v[~cut, 2] = np.column_stack([r1, r2])[~cut]
    return v


def useful_pentagons(r1, r2, s, dirs, kernel_support, eps: float = 1e-9):
    """Distinct pentagons that attain the support maximum, and a kernel check.

    Returns (count, deviation): count of distinct argmax pentagons over the
    directions (first in input order on ties) and the largest difference
    between ``kernel_support`` and the maximum recomputed from the corners.
    Only pentagons owning a corner that no other corner beats by ``eps`` in
    both coordinates can attain a maximum, so only those are evaluated.
    """
    r1, r2, s = (np.asarray(x, dtype=float).ravel() for x in (r1, r2, s))
    corners = pentagon_corners(r1, r2, s)
    owner = np.repeat(np.arange(r1.size), 4)
    pts = corners.reshape(-1, 2)
    ok = ~np.isnan(pts[:, 0])
    x, y, owner = pts[ok, 0], pts[ok, 1], owner[ok]
    order = np.argsort(-x, kind="stable")
    xs_neg, best_y = -x[order], np.maximum.accumulate(y[order])
    beaten_by = np.searchsorted(xs_neg, -(x + eps), side="left")
    dominated = (beaten_by > 0) & (best_y[np.maximum(beaten_by - 1, 0)] > y + eps)
    cand = np.unique(owner[~dominated])
    h = np.nanmax(np.einsum("nkc,dc->nkd", corners[cand], dirs), axis=1)
    h = np.maximum(h, 0.0)
    winners = cand[np.argmax(h, axis=0)]
    deviation = float(np.max(np.abs(h.max(axis=0) - np.asarray(kernel_support))))
    return int(np.unique(winners).size), deviation
