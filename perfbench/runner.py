"""Rounds of one workload inside the benchmark child, and the traced pass.

Imported by ``child.py`` once cograte is loaded.  ``main`` repeats rounds
of the workload while the next round is expected to end within the
requested seconds (at least one round, so a run's round count does not
flip with small changes in speed), or,
with ``--trace``, runs one untraced round and then one round with every
public cograte function wrapped in spans, and adds the per-layer metrics.

Each round writes each op's outputs under OUTDIR/round<k>/op<j>/.  Captured
standard output and DMC results are written after the round's clock stops.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import platform
import resource
import time
import traceback

import cograte
import cograte.cli
import cograte.dmc
import numpy as np

import checks
import spans

#: Spans whose arguments and results are kept for the counts computed
#: after the traced round.
KEEP = (
    "geometry.support_max_over_pentagons",
    "geometry.hull_of_pentagon_arrays",
    "geometry.hull_of_union",
    "geometry.ConvexRegion.from_support",
    "dmc.random_search_region",
)


def _modules() -> dict:
    return {layer: importlib.import_module(f"cograte.{layer}") for layer in spans.LAYERS}


def _cli_op(op: list, op_dir: str):
    outs = []
    for argv in op:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cograte.cli.main(list(argv) + ["--output", op_dir])
        outs.append(buf.getvalue())
        if rc != 0:
            return outs, f"{argv[0]} exited {rc}"
    return outs, None


def _dmc_op(op: dict, channels: list):
    ch = channels[op["channel"]]
    if op["call"] == "search":
        return cograte.dmc.random_search_region(
            ch, op["variant"], n_samples=op["n_samples"], seed=op["seed"])
    return cograte.dmc.check_high_interference(ch, op["n_samples"])


def _dmc_record(result) -> dict:
    if hasattr(result, "support"):
        return {"support": result.support.tolist(), "boundary": result.boundary.tolist()}
    return {"holds": bool(result.holds_on_samples), "worst_margin": float(result.worst_margin)}


def run_round(spec: dict, round_dir: str, channels: list, recorder=None) -> dict:
    ops = spec["ops"]
    results, records = [], []
    clock = time.perf_counter
    start = clock()
    for j, op in enumerate(ops):
        op_dir = os.path.join(round_dir, f"op{j:03d}")
        if recorder is not None:
            recorder.op = j
        t0 = clock()
        try:
            if spec["kind"] == "cli":
                out, err = _cli_op(op, op_dir)
            else:
                out, err = _dmc_op(op, channels), None
        except Exception as exc:  # an op that raises is a failed op, not a crash
            traceback.print_exc()
            out, err = None, f"{type(exc).__name__}: {exc}"
        t1 = clock()
        results.append(out)
        kind = op["call"] if spec["kind"] == "dmc" else "cli"
        records.append({"ms": (t1 - t0) * 1e3, "kind": kind, "error": err})
    end = clock()
    if recorder is not None:
        recorder.op = None
    files, size = 0, 0
    for dirpath, _dirs, names in os.walk(round_dir):
        files += len(names)
        size += sum(os.path.getsize(os.path.join(dirpath, n)) for n in names)
    for j, out in enumerate(results):
        if out is None:
            continue
        op_dir = os.path.join(round_dir, f"op{j:03d}")
        os.makedirs(op_dir, exist_ok=True)
        if spec["kind"] == "cli":
            for k, text in enumerate(out):
                with open(os.path.join(op_dir, f"stdout{k}.txt"), "w") as fh:
                    fh.write(text.replace(op_dir, "<out>"))
        else:
            with open(os.path.join(op_dir, "result.json"), "w") as fh:
                json.dump(_dmc_record(out), fh)
    return {"start": start, "end": end, "wall_s": end - start, "ops": records,
            "files_written": files, "bytes_written": size}


def _size(x) -> int:
    try:
        return len(x)
    except TypeError:
        return 0


def layer_metrics(rec: spans.SpanRecorder, traced: dict, untraced: dict) -> tuple:
    """Per-layer metrics of the traced round, and any problems found."""
    selfs = spans.self_times(rec.spans)
    by_id = {s[0]: s for s in rec.spans}
    count, self_s = {}, {}
    for sid, _parent, name, *_ in rec.spans:
        count[name] = count.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + selfs[sid]

    def c(*names):
        return sum(count.get(n, 0) for n in names)

    def s(*names):
        return sum((self_s.get(n, 0.0) for n in names), 0.0)

    def parent_name(sid):
        parent = by_id[sid][1]
        return by_id[parent][2] if parent in by_id else ""

    totals = spans.layer_totals(rec.spans, traced["start"], traced["end"])
    gauss_regions = [n for n in count if n.startswith("gaussian.") and n.endswith("_region")]
    bound_regions = [n for n in count if n.startswith("bounds.") and n.endswith("_region")]
    hulls = ("geometry.hull_of_union", "geometry.hull_of_pentagon_arrays")

    gaussian_pentagons = bcdms_pentagons = hull_total = into_kernel = 0
    kernel_pentagons = cells = useful = 0
    boundary_vertices = dmc_samples = dmc_hulled = 0
    worst_dev = 0.0
    for sid, (args, kwargs, result) in rec.kept.items():
        name = by_id[sid][2]
        if name in hulls:
            n = _size(args[0]) if args else 0
            hull_total += n
            caller = parent_name(sid)
            if spans.layer_of(caller) == "gaussian":
                gaussian_pentagons += n
            if caller == "bounds.bcdms_region":
                bcdms_pentagons += n
            if name == "geometry.hull_of_union" and caller == "dmc.random_search_region":
                dmc_hulled += n
        elif name == "geometry.support_max_over_pentagons":
            r1, r2, s_arr, dirs = args[:4]
            n = np.asarray(r1).size
            kernel_pentagons += n
            cells += n * len(dirs)
            if parent_name(sid) in hulls:
                into_kernel += n
            k, dev = checks.useful_pentagons(r1, r2, s_arr, dirs, result)
            useful += k
            worst_dev = max(worst_dev, dev)
        elif name == "geometry.ConvexRegion.from_support":
            boundary_vertices += len(result.boundary)
        elif name == "dmc.random_search_region":
            dmc_samples += kwargs["n_samples"]
    rec.kept.clear()

    cli_write = s("cli.write_csv", "cli.write_svg")
    m = {
        "cli.commands": c("cli.main"),
        "cli.self_s": totals["cli"] - cli_write,
        "cli.region_jobs": c("cli.build_region"),
        "cli.write_s": cli_write,
        "cli.files_written": traced["files_written"],
        "cli.bytes_written": traced["bytes_written"],
        "cli.wall_s_threads1": untraced["wall_s"],
        "gaussian.region_calls": c(*gauss_regions),
        "gaussian.eval_s": s(*gauss_regions),
        "gaussian.pentagons": gaussian_pentagons,
        "bounds.region_calls": c(*bound_regions),
        "bounds.bcdms_s": s("bounds.bcdms_region"),
        "bounds.bcdms_pentagons": bcdms_pentagons,
        "bounds.co1_s": s("bounds.co1_region"),
        "bounds.co2_self_s": s("bounds.co2_region"),
        "geometry.hull_calls": c(*hulls),
        "geometry.hull_self_s": s(*hulls),
        "geometry.hull_empty": hull_total - into_kernel,
        "geometry.support_max_s": s("geometry.support_max_over_pentagons"),
        "geometry.support_max_pentagons": kernel_pentagons,
        "geometry.support_max_cells": cells,
        "geometry.support_useful_ratio": useful / kernel_pentagons if kernel_pentagons else 0.0,
        "geometry.boundary_s": s("geometry.ConvexRegion.from_support"),
        "geometry.boundary_vertices": boundary_vertices,
        "geometry.ray_boundary_s": s("geometry.ray_boundary"),
        "geometry.membership_calls": c("geometry.ConvexRegion.contains"),
        "geometry.membership_s": s("geometry.ConvexRegion.contains"),
        "geometry.compare_s": s("geometry.subset_within", "geometry.directed_gap"),
        "dmc.search_calls": c("dmc.random_search_region"),
        "dmc.samples": dmc_samples,
        "dmc.nonempty_ratio": dmc_hulled / dmc_samples if dmc_samples else 0.0,
        "dmc.random_dist_s": s("dmc.random_dist"),
        "dmc.joint_s": s("dmc.FactoredDist.joint"),
        "dmc.mi_calls": c("dmc.mutual_information", "dmc.conditional_mi"),
        "dmc.mi_s": s("dmc.mutual_information", "dmc.conditional_mi"),
        "dmc.search_self_s": s("dmc.random_search_region"),
        "dmc.hi_check_s": s("dmc.check_high_interference"),
        "model.pentagons_constructed": rec.counts["pentagons_constructed"],
        "model.rate_pairs_constructed": rec.counts["rate_pairs_constructed"],
        "trace.wall_s": traced["wall_s"],
        "trace.other_s": totals["other"],
        "trace.overhead_s": traced["wall_s"] - untraced["wall_s"],
    }
    for layer in spans.LAYERS:
        m[f"{layer}.layer_self_s"] = totals[layer]
    problems = []
    if worst_dev > 1e-9:
        problems.append(f"support maximum deviates {worst_dev:g} bits from the corner reference")
    return m, problems


def _env() -> dict:
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):  # numpy before 1.25 has no dict mode
        pass
    threads = os.environ.get("COGRATE_THREADS", "").strip()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "cograte_file": os.path.relpath(cograte.__file__),
        "thread_cap": int(threads) if threads else (os.cpu_count() or 1),
    }


def main(argv: list) -> int:
    inputs, outdir, result_path = argv[:3]
    trace = "--trace" in argv
    seconds = float(argv[argv.index("--seconds") + 1]) if "--seconds" in argv else 0.0
    with open(inputs) as fh:
        spec = json.load(fh)
    channels = [
        cograte.dmc.DmcChannel.from_kernels(np.array(c["k1"]), np.array(c["k2"]))
        for c in spec.get("channels", [])
    ]
    result = {"env": _env(), "rounds": [], "problems": []}
    if trace:
        untraced = run_round(spec, os.path.join(outdir, "round0"), channels)
        rec = spans.SpanRecorder(keep=KEEP)
        spans.instrument(rec, _modules())
        traced = run_round(spec, os.path.join(outdir, "round1"), channels, rec)
        result["rounds"] = [untraced, traced]
        result["metrics"], result["problems"] = layer_metrics(rec, traced, untraced)
        result["spans"] = rec.spans
    else:
        t_end = time.perf_counter() + seconds
        rounds = result["rounds"]
        while not rounds or time.perf_counter() + rounds[-1]["wall_s"] <= t_end:
            rounds.append(run_round(spec, os.path.join(outdir, f"round{len(rounds)}"), channels))
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0

