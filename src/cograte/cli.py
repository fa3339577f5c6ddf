"""Command-line frontend: compute rate regions and bounds, compare them,
check the capacity threshold, and emit figure-ready CSV/JSON/SVG files.

Commands:

* ``region``          boundary polylines for selected regions at one channel
* ``compare``         pairwise subset verdicts and directed gaps (JSON)
* ``capacity-check``  threshold b_star and the achievable-vs-outer gap
* ``figure``          canned multi-curve presets (fig2..fig5)

Defaults: 201 grid points per sweep parameter (101 for the three-parameter
family g, 41 per covariance dimension), 721 hull directions.  Tolerances:
1e-3 bits for capacity-meets-bound claims, 5e-3 bits for coincide or
strict-inclusion claims; both are grid-limited, not exact arithmetic.
Regions are built one after another.  An invocation whose largest region
would evaluate more than MAX_PENTAGONS pentagons, or whose one-parameter
family would take more than MAX_SUPPORT_CELLS support cells, is refused as
a usage error before anything is allocated.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .bounds import DEFAULT_COV_GRID, bcdms_region, co1_region, co2_region
from .gaussian import (
    DEFAULT_G_GRID,
    DEFAULT_GRID,
    b_star,
    capacity_region,
    g1_region,
    g2_region,
    g3p_region,
    g_region,
)
from .geometry import ConvexRegion, DEFAULT_DIRECTIONS, directed_gap, subset_within
from .model import ChannelParams

SELECTIONS = ("g", "g1", "g2", "g3p", "capacity", "co1", "bcdms", "co2")
FORMATS = ("csv", "json", "svg")
COMMANDS = ("region", "compare", "capacity-check", "figure")

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3

#: Meets-the-bound tolerance (bits) and coincide/strict-claim tolerance.
TOL_MEET = 1e-3
TOL_CLAIM = 5e-3

#: Gains this close to b_star still count as in-regime; the threshold is
#: conventionally quoted to 4 decimals, so the quoted value may sit a hair
#: above the exact root.
REGIME_TOL = 5e-5

#: Most pentagons one region may evaluate.  g is evaluated and pruned in
#: slabs, and bcdms keeps one maximal pentagon per (p1_priv, c_tot) of its
#: grid, so this bounds work, not memory.  g at --points 201 (8,120,802)
#: and every default fit.
MAX_PENTAGONS = 2**23

#: Most support cells (pentagons x directions) of one region's support
#: maximum.  The prune keeps every pentagon of a one-parameter family (g2,
#: g3p, capacity and co1, co2's co1 part too), but the support maximum walks
#: the corner chain instead of every cell: at this cap it takes 0.07 s for
#: co1 at 65,536 points x 4,096 directions and 0.47 s at 372,000 x 721
#: (0.3 and 1.8 ns per cell; a 2-vCPU host), and the whole region command
#: 0.45 and 0.9 s.
MAX_SUPPORT_CELLS = 2**28

#: Most support directions D.  An envelope has at most D + 2 vertices, and the
#: vertices x directions products of boundary checks peak near 16*D**2 bytes.
MAX_DIRECTIONS = 4097

#: Figure presets: selections, interference gains, (p1, p2).
FIGURES = {
    "fig2": (("g3p", "co1"), (1.0, 1.3628, 3.3628), (6.0, 6.0)),
    "fig3": (("g", "g1", "g2", "co1"), (1.3628, 3.3628), (6.0, 6.0)),
    "fig4": (("g1", "g2", "g3p", "co1"), (1.3628, 3.3628), (6.0, 6.0)),
    "fig5": (("co1", "co2"), (2.0,), (6.0, 0.0)),
}

_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
    "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f",
)


@dataclass(frozen=True)
class RunConfig:
    """One resolved CLI invocation."""

    command: str
    p1: float
    p2: float
    b: float
    selections: tuple = ()
    n_points: int | None = None
    n_cov: int = DEFAULT_COV_GRID
    n_directions: int = DEFAULT_DIRECTIONS
    fmt: str = "csv"
    output: str = "."
    tol: float = TOL_CLAIM
    figure: str = ""
    b_list: tuple = ()

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        if self.command == "capacity-check":
            # it always compares the achievable g3p with the outer co1
            object.__setattr__(self, "selections", ("g3p", "co1"))
        if self.command == "figure":
            if self.figure not in FIGURES:
                raise ValueError(f"unknown figure {self.figure!r}; choose from {tuple(FIGURES)}")
            object.__setattr__(self, "selections", FIGURES[self.figure][0])
        if self.fmt not in FORMATS:
            raise ValueError(f"unknown format {self.fmt!r}; choose from {FORMATS}")
        checked = [("p1", self.p1), ("p2", self.p2), ("b", self.b), ("tol", self.tol)]
        for name, v in checked + [("b", g) for g in self.b_list]:
            if not np.isfinite(v) or v < 0.0:
                raise ValueError(f"{name} must be a finite nonnegative real, got {v!r}")
        for gain in (self.b, *self.b_list):
            _check_received_power(self.p1, self.p2, gain)
        # figure files are named by the {b:g} tag, so two gains sharing it
        # would overwrite each other's curves
        tags = [f"b{g:g}" for g in self.b_list]
        for i, tag in enumerate(tags):
            if tag in tags[:i]:
                raise ValueError(
                    f"gains {self.b_list[tags.index(tag)]!r} and {self.b_list[i]!r} "
                    f"share the file tag {tag!r}; give gains that round apart at "
                    f"6 significant digits")
        if self.n_points is not None and self.n_points < 2:
            raise ValueError("grids need at least 2 points")
        if self.n_cov < 2:
            raise ValueError("covariance grids need at least 2 points")
        if not 3 <= self.n_directions <= MAX_DIRECTIONS:
            raise ValueError(
                f"need 3 to {MAX_DIRECTIONS} hull directions, got {self.n_directions}")
        for s in self.selections:
            if s not in SELECTIONS:
                raise ValueError(
                    f"unknown region selection {s!r}; choose from {', '.join(SELECTIONS)}"
                )
        if self.command in ("region", "compare") and not self.selections:
            raise ValueError("at least one --select is required")
        if self.command == "compare" and len(self.selections) < 2:
            raise ValueError("compare needs at least 2 distinct selections")
        for sel in self.selections:
            count = _pentagon_count(sel, self)
            if count > MAX_PENTAGONS:
                raise ValueError(
                    f"region {sel!r} would evaluate {count} pentagons, more than "
                    f"{MAX_PENTAGONS}; lower --points or --cov-points"
                )
        for sel in self.selections:
            cells = _support_cells(sel, self)
            if cells > MAX_SUPPORT_CELLS:
                raise ValueError(
                    f"region {sel!r} would take {cells} support cells "
                    f"(points x directions), more than {MAX_SUPPORT_CELLS}; "
                    f"lower --points or --directions"
                )


def _check_received_power(p1: float, p2: float, b: float) -> None:
    """Refuse gains and powers for which a region family would overflow a float.

    Past b*b, b*b*p1 and the received total, the largest products the
    families form are own*relayed <= p1**2/4 (g3p) and (c_tot - c_priv)**2
    <= 4*p1*p2 (bcdms; co1 takes sqrt(p1*p2)); g3p's r2 argument is a sum
    of squares no larger than 1 + p1/4 + total.  Since total >= p2 + 1,
    8*(1 + p1)*max(p1, total) bounds each of them with a factor of at least
    2 to spare for roundoff, so no family overflows when it is finite.
    """
    b2 = b * b
    amplitude = b * math.sqrt(p1) + math.sqrt(p2)
    total = amplitude * amplitude + b2 * p1 + 1.0
    largest = 8.0 * (1.0 + p1) * max(p1, total)
    if not all(math.isfinite(v) for v in (b2, b2 * p1, total, largest)):
        raise ValueError(
            f"received power overflows at p1={p1:g}, p2={p2:g}, b={b:g}: b*b, "
            f"b*b*p1, total = (b*sqrt(p1) + sqrt(p2))**2 + b*b*p1 + 1 and "
            f"8*(1 + p1)*max(p1, total) must be finite"
        )


def _points(sel: str, cfg: RunConfig) -> int:
    return cfg.n_points or (DEFAULT_G_GRID if sel == "g" else DEFAULT_GRID)


def _pentagon_count(sel: str, cfg: RunConfig) -> int:
    """Pentagons build_region evaluates for sel, empty or not (an upper
    bound for bcdms, whose grid is PSD-filtered)."""
    k = _points(sel, cfg)
    if sel == "g":
        return k**3 + k
    if sel == "g1":
        return k**2 + 1
    if sel == "bcdms":
        return cfg.n_cov**4
    if sel == "co2":
        return k + cfg.n_cov**4
    return k


def _support_cells(sel: str, cfg: RunConfig) -> int:
    """Pentagons x directions of sel's one-parameter family, whose prune
    keeps every pentagon (0 for g, g1 and bcdms, whose prune keeps few)."""
    if sel in ("g2", "g3p", "capacity", "co1", "co2"):
        return _points(sel, cfg) * cfg.n_directions
    return 0


def build_region(sel: str, ch: ChannelParams, cfg: RunConfig) -> ConvexRegion:
    """Build one named region at the configured grids."""
    k = _points(sel, cfg)
    nd = cfg.n_directions
    if sel == "g":
        return g_region(ch, k, k, k, nd)
    if sel == "g1":
        return g1_region(ch, k, k, nd)
    if sel == "g2":
        return g2_region(ch, k, nd)
    if sel == "g3p":
        return g3p_region(ch, k, nd)
    if sel == "capacity":
        return capacity_region(ch, k, nd)
    if sel == "co1":
        return co1_region(ch, k, nd)
    if sel == "bcdms":
        return bcdms_region(ch, cfg.n_cov, nd)
    if sel == "co2":
        return co2_region(ch, k, cfg.n_cov, nd)
    raise ValueError(f"unknown region selection {sel!r}")


def _check_emitted_boundary(region: ConvexRegion) -> None:
    # Every emitted vertex must lie inside its own sampled region.  The
    # commands check each region once, before they write any file.
    slack = region.boundary @ region.directions.T
    slack -= region.support
    if slack.size and float(slack.max()) > 1e-9:
        raise FloatingPointError(
            f"boundary point escapes its region by {float(slack.max()):g} bits"
        )


def write_csv(path: str, region: ConvexRegion) -> None:
    """One vertex per line, 9 significant digits, LF endings."""
    flat = region.boundary.ravel().tolist()
    rows = "%.9g,%.9g\n" * (len(flat) // 2) % tuple(flat)
    with open(path, "w", newline="") as fh:
        fh.write("r1_bits,r2_bits\n" + rows)


#: How json.dump(indent=2) lays out the vertex pairs of a report region:
#: the opening of the list, the break between two pairs, and the closing.
_PAIRS_OPEN = "[\n        [\n          "
_PAIRS_NEXT = "\n        ],\n        [\n          "
_PAIRS_CLOSE = "\n        ]\n      ]"


def _json_vertices(boundary: np.ndarray) -> str:
    """boundary_bits as json.dump(indent=2) writes it in the report, from
    json's C encoder: coordinates rounded to 9 significant digits."""
    flat = boundary.ravel().tolist()
    if not flat:
        return "[]"
    rounded = iter(map(float, ("%.9g " * len(flat) % tuple(flat)).split()))
    compact = json.dumps(list(zip(rounded, rounded)))
    # no float's repr holds "], [" or ", ", so the replaces only move the
    # compact separators onto indented lines
    inner = compact[2:-2].replace("], [", _PAIRS_NEXT).replace(", ", ",\n          ")
    return _PAIRS_OPEN + inner + _PAIRS_CLOSE


def _svg_coords(v: float) -> str:
    return f"{v:.2f}"


def write_svg(path: str, curves: list) -> None:
    """Fixed 800x600 overlay plot; curves is a list of (label, ConvexRegion)."""
    width, height = 800, 600
    ml, mr, mt, mb = 70, 25, 25, 55
    xmax = ymax = 0.0
    for _, region in curves:
        if region.boundary.size:
            xmax = max(xmax, float(np.max(region.boundary[:, 0])))
            ymax = max(ymax, float(np.max(region.boundary[:, 1])))
    xmax = max(0.25, float(np.ceil((xmax + 1e-12) / 0.25) * 0.25))
    ymax = max(0.25, float(np.ceil((ymax + 1e-12) / 0.25) * 0.25))

    def sx(x: float) -> float:
        return ml + (width - ml - mr) * x / xmax

    def sy(y: float) -> float:
        return height - mb - (height - mt - mb) * y / ymax

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    x0, y0 = sx(0.0), sy(0.0)
    out.append(
        f'<line x1="{_svg_coords(x0)}" y1="{_svg_coords(sy(ymax))}" '
        f'x2="{_svg_coords(x0)}" y2="{_svg_coords(y0)}" stroke="black"/>'
    )
    out.append(
        f'<line x1="{_svg_coords(x0)}" y1="{_svg_coords(y0)}" '
        f'x2="{_svg_coords(sx(xmax))}" y2="{_svg_coords(y0)}" stroke="black"/>'
    )
    for t in np.arange(0.0, xmax + 1e-9, 0.25):
        px = sx(float(t))
        out.append(
            f'<line x1="{_svg_coords(px)}" y1="{_svg_coords(y0)}" '
            f'x2="{_svg_coords(px)}" y2="{_svg_coords(y0 + 5)}" stroke="black"/>'
        )
        out.append(
            f'<text x="{_svg_coords(px)}" y="{_svg_coords(y0 + 20)}" font-size="11" '
            f'text-anchor="middle">{t:.2f}</text>'
        )
    for t in np.arange(0.0, ymax + 1e-9, 0.25):
        py = sy(float(t))
        out.append(
            f'<line x1="{_svg_coords(x0 - 5)}" y1="{_svg_coords(py)}" '
            f'x2="{_svg_coords(x0)}" y2="{_svg_coords(py)}" stroke="black"/>'
        )
        out.append(
            f'<text x="{_svg_coords(x0 - 8)}" y="{_svg_coords(py + 4)}" font-size="11" '
            f'text-anchor="end">{t:.2f}</text>'
        )
    out.append(
        f'<text x="{_svg_coords((ml + width - mr) / 2)}" y="{_svg_coords(height - 12)}" '
        f'font-size="13" text-anchor="middle">R1 (bits)</text>'
    )
    out.append(
        f'<text x="16" y="{_svg_coords((mt + height - mb) / 2)}" font-size="13" '
        f'text-anchor="middle" transform="rotate(-90 16 '
        f'{_svg_coords((mt + height - mb) / 2)})">R2 (bits)</text>'
    )
    for i, (label, region) in enumerate(curves):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(
            f"{_svg_coords(sx(float(x)))},{_svg_coords(sy(float(y)))}"
            for x, y in region.boundary
        )
        out.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        ly = mt + 16 + 18 * i
        lx = width - mr - 300
        out.append(
            f'<line x1="{lx}" y1="{ly}" x2="{lx + 24}" y2="{ly}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        out.append(
            f'<text x="{lx + 30}" y="{ly + 4}" font-size="11">{label}</text>'
        )
    out.append("</svg>")
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(out) + "\n")


def _channel_tag(p1: float, p2: float, b: float) -> str:
    return f"p1{p1:g}_p2{p2:g}_b{b:g}"


def _grids_dict(cfg: RunConfig) -> dict:
    return {
        "points": cfg.n_points,
        "cov_points": cfg.n_cov,
        "directions": cfg.n_directions,
    }


def cmd_region(cfg: RunConfig) -> int:
    """Write one boundary file per selected region (or one overlay/report)."""
    ch = ChannelParams(cfg.p1, cfg.p2, cfg.b)
    os.makedirs(cfg.output, exist_ok=True)
    regions = {sel: build_region(sel, ch, cfg) for sel in cfg.selections}
    for region in regions.values():
        _check_emitted_boundary(region)
    tag = _channel_tag(cfg.p1, cfg.p2, cfg.b)
    written = []
    if cfg.fmt == "csv":
        for sel in cfg.selections:
            path = os.path.join(cfg.output, f"{sel}_{tag}.csv")
            write_csv(path, regions[sel])
            written.append(path)
    elif cfg.fmt == "svg":
        path = os.path.join(cfg.output, f"region_{tag}.svg")
        write_svg(path, [(regions[s].provenance, regions[s]) for s in cfg.selections])
        written.append(path)
    else:
        # the report without its vertices is a few hundred bytes; each
        # empty boundary_bits slot takes its region's vertex block (json
        # escapes the quotes of string values, so none can hold a slot)
        doc = {
            "params": {"p1": cfg.p1, "p2": cfg.p2, "b": cfg.b},
            "grids": _grids_dict(cfg),
            "regions": [
                {"name": sel, "provenance": regions[sel].provenance, "boundary_bits": []}
                for sel in cfg.selections
            ],
        }
        slot = '"boundary_bits": '
        parts = json.dumps(doc, indent=2).split(slot + "[]")
        blocks = [slot + _json_vertices(regions[sel].boundary) for sel in cfg.selections]
        text = "".join(p + b for p, b in zip(parts, blocks)) + parts[-1]
        path = os.path.join(cfg.output, f"region_{tag}.json")
        with open(path, "w", newline="") as fh:
            fh.write(text + "\n")
        written.append(path)
    for path in written:
        print(path)
    return EXIT_OK


def cmd_compare(cfg: RunConfig) -> int:
    """Pairwise subset verdicts and directed gaps over the selections."""
    ch = ChannelParams(cfg.p1, cfg.p2, cfg.b)
    os.makedirs(cfg.output, exist_ok=True)
    regions = {sel: build_region(sel, ch, cfg) for sel in cfg.selections}
    comparisons = []
    for inner in cfg.selections:
        for outer in cfg.selections:
            if inner == outer:
                continue
            report = subset_within(regions[inner], regions[outer], cfg.tol)
            comparisons.append(
                {
                    "inner": inner,
                    "outer": outer,
                    "is_subset": report.is_subset,
                    "worst_direction_deg": report.worst_direction_deg,
                    "gap_bits": directed_gap(regions[outer], regions[inner]),
                }
            )
    doc = {
        "params": {"p1": cfg.p1, "p2": cfg.p2, "b": cfg.b},
        "grids": _grids_dict(cfg),
        "tolerance_bits": cfg.tol,
        "comparisons": comparisons,
    }
    path = os.path.join(cfg.output, f"compare_{_channel_tag(cfg.p1, cfg.p2, cfg.b)}.json")
    with open(path, "w", newline="") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    print(path)
    return EXIT_OK


def cmd_capacity_check(cfg: RunConfig) -> int:
    """Report b_star, regime membership, and the achievable-vs-outer gap."""
    ch = ChannelParams(cfg.p1, cfg.p2, cfg.b)
    threshold = b_star(ch)
    in_regime = 1.0 - 1e-12 <= cfg.b <= threshold + REGIME_TOL
    inner, outer = (build_region(sel, ch, cfg) for sel in cfg.selections)
    gap = directed_gap(outer, inner)
    print(f"p1 = {cfg.p1:g}, p2 = {cfg.p2:g}, b = {cfg.b:g}")
    print(f"b_star = {threshold:.9g}")
    print(f"in_regime = {'yes' if in_regime else 'no'}")
    print(f"gap_bits = {gap:.9g}")
    print(f"meets_outer = {'yes' if gap <= TOL_MEET else 'no'} (tolerance {TOL_MEET:g})")
    return EXIT_OK


def cmd_figure(cfg: RunConfig) -> int:
    """Emit the preset curves of one figure: CSV per curve plus an overlay."""
    _, preset_bs, (p1, p2) = FIGURES[cfg.figure]
    gains = cfg.b_list or preset_bs
    os.makedirs(cfg.output, exist_ok=True)
    regions = {
        (sel, gain): build_region(sel, ChannelParams(p1, p2, gain), cfg)
        for gain in gains
        for sel in cfg.selections
    }
    for region in regions.values():
        _check_emitted_boundary(region)
    written = []
    curves = []
    for gain in gains:
        for sel in cfg.selections:
            region = regions[(sel, gain)]
            path = os.path.join(cfg.output, f"{cfg.figure}_{sel}_b{gain:g}.csv")
            write_csv(path, region)
            written.append(path)
            curves.append((region.provenance, region))
    svg_path = os.path.join(cfg.output, f"{cfg.figure}.svg")
    write_svg(svg_path, curves)
    written.append(svg_path)
    for path in written:
        print(path)
    return EXIT_OK


_RUNNERS = {
    "region": cmd_region,
    "compare": cmd_compare,
    "capacity-check": cmd_capacity_check,
    "figure": cmd_figure,
}


def _parse_selections(raw: list) -> tuple:
    sels = []
    for chunk in raw or []:
        for tok in chunk.split(","):
            tok = tok.strip()
            if tok:
                sels.append(tok)
    return tuple(dict.fromkeys(sels))


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.

    parse_args fills a fresh Namespace on every call, so main can reuse it.
    """
    parser = argparse.ArgumentParser(
        prog="cograte",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_channel=True):
        if with_channel:
            p.add_argument("--p1", type=float, default=6.0, help="transmit power P1")
            p.add_argument("--p2", type=float, default=6.0, help="transmit power P2")
            p.add_argument("--b", type=float, default=1.0, help="interference gain")
        p.add_argument("--points", type=int, default=None,
                       help=f"grid points per sweep parameter (default {DEFAULT_GRID}; "
                            f"{DEFAULT_G_GRID} per parameter for g)")
        p.add_argument("--cov-points", type=int, default=DEFAULT_COV_GRID,
                       help="points per covariance-split dimension (default 41)")
        p.add_argument("--directions", type=int, default=DEFAULT_DIRECTIONS,
                       help="support directions over the quadrant (default 721)")
        p.add_argument("--output", default=".", help="output directory")

    p_region = sub.add_parser("region", help="emit boundary polylines")
    add_common(p_region)
    p_region.add_argument("--select", action="append", metavar="NAME",
                          help=f"region to compute, repeatable or comma-separated; "
                               f"one of {', '.join(SELECTIONS)}")
    p_region.add_argument("--format", dest="fmt", choices=FORMATS, default="csv")

    p_cmp = sub.add_parser("compare", help="pairwise subset verdicts and gaps")
    add_common(p_cmp)
    p_cmp.add_argument("--select", action="append", metavar="NAME",
                       help="regions to compare (need at least 2)")
    p_cmp.add_argument("--tol", type=float, default=TOL_CLAIM,
                       help=f"subset tolerance in bits (default {TOL_CLAIM:g})")

    p_cap = sub.add_parser("capacity-check", help="threshold and meets-bound gap")
    add_common(p_cap)

    p_fig = sub.add_parser("figure", help="reproduce a canned figure")
    p_fig.add_argument("figure", choices=sorted(FIGURES))
    p_fig.add_argument("--b", type=float, action="append", dest="b_list",
                       help="override the preset interference gains (repeatable)")
    add_common(p_fig, with_channel=False)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    if args.command == "figure":
        _, preset_bs, (p1, p2) = FIGURES[args.figure]
        return RunConfig(
            command="figure",
            p1=p1,
            p2=p2,
            b=preset_bs[0],
            n_points=args.points,
            n_cov=args.cov_points,
            n_directions=args.directions,
            output=args.output,
            figure=args.figure,
            b_list=tuple(args.b_list or ()),
        )
    return RunConfig(
        command=args.command,
        p1=args.p1,
        p2=args.p2,
        b=args.b,
        selections=_parse_selections(getattr(args, "select", None)),
        n_points=args.points,
        n_cov=args.cov_points,
        n_directions=args.directions,
        fmt=getattr(args, "fmt", "csv"),
        output=args.output,
        tol=getattr(args, "tol", TOL_CLAIM),
    )


def main(argv: list | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _config_from_args(args)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _RUNNERS[cfg.command](cfg)
    except Exception as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
