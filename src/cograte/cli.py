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
Regions are built one after another, each once per channel: co2
intersects the command's own co1 and bcdms when they are selected too.
A channel, tolerance, grid (gaussian.MAX_PENTAGONS) or direction count
(geometry.MAX_DIRECTIONS) the library refuses is refused by its own check
as a usage error, before anything is allocated.
File names print each number by {:g} when that reads back as the same
float, else by repr.  A JSON report's vertex blocks are formatted by one
"%.9g" pair template, with json's encoder as the fallback for values
that "%.9g" and repr print apart.
"""

from __future__ import annotations

import argparse
import functools
import json
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
    check_pentagon_budget,
    g1_region,
    g2_region,
    g3p_region,
    g_region,
    rate_split_pentagons,
)
from .geometry import (
    _BOUNDARY_TOL,
    ConvexRegion,
    DEFAULT_DIRECTIONS,
    directed_gap,
    quadrant_directions,
    subset_within,
)
from .model import ChannelParams, require_nonnegative

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
        channels = [ChannelParams(self.p1, self.p2, gain) for gain in (self.b, *self.b_list)]
        # the command runs on the values its channels hold (-0 is 0)
        for name in ("p1", "p2", "b"):
            object.__setattr__(self, name, getattr(channels[0], name))
        object.__setattr__(self, "b_list", tuple(ch.b for ch in channels[1:]))
        object.__setattr__(self, "tol", require_nonnegative("tol", self.tol))
        # figure files are named by their gain, so a gain given twice
        # would overwrite its own curves
        for i, gain in enumerate(self.b_list):
            if gain in self.b_list[:i]:
                raise ValueError(
                    f"gain {gain!r} is given twice and would share the file tag "
                    f"'b{_num_tag(gain)}'; give distinct gains")
        if self.n_points is not None and self.n_points < 2:
            raise ValueError("grids need at least 2 points")
        if self.n_cov < 2:
            raise ValueError("covariance grids need at least 2 points")
        quadrant_directions(self.n_directions)
        for s in self.selections:
            if s not in SELECTIONS:
                raise ValueError(
                    f"unknown region selection {s!r}; choose from {', '.join(SELECTIONS)}"
                )
        if self.command in ("region", "compare") and not self.selections:
            raise ValueError("at least one --select is required")
        if self.command == "compare" and len(self.selections) < 2:
            raise ValueError("compare needs at least 2 distinct selections")
        # a file, or a path under one, cannot take the output files;
        # capacity-check writes none
        head = os.path.abspath(self.output)
        while not os.path.exists(head):
            head = os.path.dirname(head)
        if self.command != "capacity-check" and not os.path.isdir(head):
            raise ValueError(f"--output {self.output!r} is not a directory: {head!r} is a file")
        for sel in self.selections:
            check_pentagon_budget(sel, _pentagon_count(sel, self))


def _points(sel: str, cfg: RunConfig) -> int:
    return cfg.n_points or (DEFAULT_G_GRID if sel == "g" else DEFAULT_GRID)


def _pentagon_count(sel: str, cfg: RunConfig) -> int:
    """Pentagons build_region evaluates for sel, empty or not (for g and
    g1 as many as their block screen evaluates when it keeps every block;
    for bcdms the n_cov**3 entries its run search reads, since it
    evaluates only the top of each feasible c_priv run)."""
    k = _points(sel, cfg)
    if sel == "g":
        return rate_split_pentagons(k, k, k)
    if sel == "g1":
        return rate_split_pentagons(k, 1, k)
    if sel == "bcdms":
        return cfg.n_cov**3
    if sel == "co2":
        return k + cfg.n_cov**3
    return k


def build_region(sel: str, ch: ChannelParams, cfg: RunConfig,
                 built: dict | None = None) -> ConvexRegion:
    """Build one named region at the configured grids.

    co2 intersects the co1 and bcdms of built, the regions already built
    for the command, and builds only the parents it does not find there.
    """
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
        built = built or {}
        return co2_region(ch, k, cfg.n_cov, nd, built.get("co1"), built.get("bcdms"))
    raise ValueError(f"unknown region selection {sel!r}")


def build_regions(ch: ChannelParams, cfg: RunConfig) -> dict:
    """The selected regions by name, in selection order, each built once:
    co2 comes last, so it intersects the command's own co1 and bcdms."""
    built = {}
    for sel in sorted(cfg.selections, key="co2".__eq__):
        built[sel] = build_region(sel, ch, cfg, built)
    return {sel: built[sel] for sel in cfg.selections}


def _check_emitted_boundary(region: ConvexRegion) -> None:
    # Every emitted vertex must lie inside its own sampled region.  The
    # commands check each region once, before they write any file.  x - h
    # rounds monotonically in x, so each direction's largest slack is its
    # largest d.x less its support.
    if not region.boundary.size:
        return
    slack = float(np.max((region.boundary @ region.directions.T).max(axis=0) - region.support))
    if slack > _BOUNDARY_TOL:
        raise FloatingPointError(f"boundary point escapes its region by {slack:g} bits")


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


#: One vertex pair of a report block as "%.9g" writes it, and where in a
#: block template a token's "9g" sits: _AT_FIRST past the start for token
#: 0, then _PAIR_STEP further per pair and _AT_SECOND further for a y.
_PAIR = "%.9g,\n          %.9g"
_AT_FIRST = len(_PAIRS_OPEN) + 2
_PAIR_STEP = len(_PAIR + _PAIRS_NEXT)
_AT_SECOND = len("%.9g,\n          ")


def _json_vertices(boundary: np.ndarray) -> str:
    """boundary_bits as json.dump(indent=2) writes it in the report:
    coordinates rounded to 9 significant digits.

    json writes each rounded float by repr, which for a value in [1e-4,
    1e8) prints the digits "%.9g" prints, positionally, adding ".0" to an
    integral one.  So a block of such values and zeros is formatted in one
    pass, by "%.9g" and, for each zero, "%.1f".  A block with any other
    value (one outside that range, a negative one, -0.0 included, or a
    non-finite one) or with a nonzero integral token goes through json's
    encoder instead.
    """
    flat = boundary.ravel()
    if not flat.size:
        return "[]"
    nonzero = flat[flat != 0.0]
    if np.signbit(flat).any() or nonzero.size and not (
            nonzero.min() >= 1e-4 and nonzero.max() < 1e8):
        return _encoded_vertices(flat)
    template = bytearray(
        _PAIRS_OPEN + _PAIRS_NEXT.join([_PAIR] * (flat.size // 2)) + _PAIRS_CLOSE, "ascii")
    zeros = np.flatnonzero(flat == 0.0)
    if zeros.size:
        at = _AT_FIRST + zeros // 2 * _PAIR_STEP + zeros % 2 * _AT_SECOND
        spec = np.frombuffer(template, dtype=np.uint8)
        spec[at], spec[at + 1] = ord("1"), ord("f")
    text = template.decode() % tuple(flat.tolist())
    # every token holds one "." unless it is integral
    return text if text.count(".") == flat.size else _encoded_vertices(flat)


def _encoded_vertices(flat: np.ndarray) -> str:
    """_json_vertices of any block, by json's C encoder."""
    values = flat.tolist()
    rounded = iter(map(float, ("%.9g " * len(values) % tuple(values)).split()))
    compact = json.dumps(list(zip(rounded, rounded)))
    # no float's repr holds "], [" or ", ", so the replaces only move the
    # compact separators onto indented lines
    inner = compact[2:-2].replace("], [", _PAIRS_NEXT).replace(", ", ",\n          ")
    return _PAIRS_OPEN + inner + _PAIRS_CLOSE


def _svg_coords(v: float) -> str:
    return f"{v:.2f}"


def _svg_points(boundary: np.ndarray, sx, sy) -> str:
    """The polyline points "x,y x,y ..." of a boundary, each coordinate
    "%.2f" of sx or sy, in one template pass as write_csv writes its rows.

    sx and sy are affine maps written in numpy's operations and order, so
    on the columns they give the floats they give on each point.
    """
    x, y = np.reshape(boundary, (-1, 2)).T
    xy = np.column_stack([sx(x), sy(y)]).ravel().tolist()
    return " ".join(["%.2f,%.2f"] * (len(xy) // 2)) % tuple(xy)


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

    # on a float or on an array of them, the same operations in one order
    def sx(x):
        return ml + (width - ml - mr) * x / xmax

    def sy(y):
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
        pts = _svg_points(region.boundary, sx, sy)
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


def _num_tag(x: float) -> str:
    """x for a file name: by {:g} when that reads back as x, else by repr,
    so distinct numbers never share a name."""
    short = f"{x:g}"
    return short if float(short) == x else repr(x)


def _channel_tag(p1: float, p2: float, b: float) -> str:
    return f"p1{_num_tag(p1)}_p2{_num_tag(p2)}_b{_num_tag(b)}"


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
    regions = build_regions(ch, cfg)
    for region in regions.values():
        _check_emitted_boundary(region)
    tag = _channel_tag(cfg.p1, cfg.p2, cfg.b)
    # a report is named by its selections too, so runs with other
    # selections into one directory keep their own reports
    sels = "-".join(cfg.selections)
    written = []
    if cfg.fmt == "csv":
        for sel in cfg.selections:
            path = os.path.join(cfg.output, f"{sel}_{tag}.csv")
            write_csv(path, regions[sel])
            written.append(path)
    elif cfg.fmt == "svg":
        path = os.path.join(cfg.output, f"region_{sels}_{tag}.svg")
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
        path = os.path.join(cfg.output, f"region_{sels}_{tag}.json")
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
    regions = build_regions(ch, cfg)
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
    inner, outer = build_regions(ch, cfg).values()
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
        (sel, gain): region
        for gain in gains
        for sel, region in build_regions(ChannelParams(p1, p2, gain), cfg).items()
    }
    for region in regions.values():
        _check_emitted_boundary(region)
    written = []
    curves = []
    for gain in gains:
        for sel in cfg.selections:
            region = regions[(sel, gain)]
            path = os.path.join(cfg.output, f"{cfg.figure}_{sel}_b{_num_tag(gain)}.csv")
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
                       help=f"points per covariance-split dimension (default {DEFAULT_COV_GRID})")
        p.add_argument("--directions", type=int, default=DEFAULT_DIRECTIONS,
                       help=f"support directions over the quadrant (default {DEFAULT_DIRECTIONS})")
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
