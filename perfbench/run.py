"""cograte benchmark: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--workload all`` runs the four workloads one after another.

Workloads are listed in BENCHMARK.json and generated by ``workloads.py``.
The program is run from ``src/`` of the checkout this file sits in; there is
nothing to build.  Every operation runs in a fresh child Python process
(``child.py``); this process generates the inputs, times set-up, checks the
outputs and prints the result.

``--trace 0``: one child, with COGRATE_THREADS unset, repeats rounds of the
workload while the next one should end within S seconds; set-up is also sampled by children that only import
cograte, spawned before and after it.  Prints the end-to-end metrics.

``--trace 1``: one child with COGRATE_THREADS=1 runs one untraced round and
one traced round (S is not used).  Prints the per-layer metrics and writes
the spans to .bench_build/perfbench/spans-<workload>-seed<N>.json.gz.

The last line of standard output is the result object; the lines before it
describe the environment, sample counts, output digests and any problems.
Exit status is 0 whenever a result is printed, even an incorrect one, and
non-zero without a result when the run itself could not be made.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import selectors
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import checks
import spans
import stats
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Set-up probes before and after the workload child; with the child's own
#: sample that makes 7, spread over the run so that one slow phase of the
#: shared machine does not set the median.
SETUP_PROBES = 3
#: Everything, children included, must end within this many seconds.
BUDGET_S = 175.0
SUM_TOL_S = 1e-6


def _units(kind: str) -> dict:
    """Metric name -> unit for one metric list of BENCHMARK.json."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[kind]}


class RunError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _child_env(threads: str | None) -> dict:
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env.pop("COGRATE_THREADS", None)
    if threads is not None:
        env["COGRATE_THREADS"] = threads
    return env


def spawn(args: list, env: dict, log, deadline: float) -> float:
    """Run child.py to completion; returns seconds from spawn to ``ready``."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), *args],
                            stdout=subprocess.PIPE, stderr=log, env=env, cwd=ROOT)
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            if not sel.select(timeout=max(0.0, deadline - time.monotonic())):
                raise RunError("child did not start in time")
        line = proc.stdout.readline()
        setup = time.perf_counter() - start
        proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RunError("child ran out of time") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RunError(f"child {args[:1]} failed with exit status {proc.returncode}")
    return setup


def git_sha(root: Path):
    """Commit of the checkout when it is a git work tree, read without git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (root / ".git" / name).is_file():
        return (root / ".git" / name).read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def tree_sha(path: Path) -> str:
    """Git tree id of a directory (what ``git rev-parse HEAD:src`` prints for
    a clean tree), skipping byte-code caches; identifies the program source
    when the checkout is not a git repository."""
    def digest(p: Path) -> bytes:
        entries = []
        for e in os.scandir(p):
            if e.name == "__pycache__" or e.name.endswith((".pyc", ".egg-info")):
                continue
            if e.is_dir(follow_symlinks=False):
                entries.append((e.name + "/", b"40000", e.name, digest(Path(e.path))))
            else:
                data = Path(e.path).read_bytes()
                mode = b"100755" if os.stat(e.path).st_mode & 0o111 else b"100644"
                blob = hashlib.sha1(b"blob %d\0" % len(data) + data).digest()
                entries.append((e.name, mode, e.name, blob))
        body = b"".join(m + b" " + n.encode() + b"\0" + h for _k, m, n, h in sorted(entries))
        return hashlib.sha1(b"tree %d\0" % len(body) + body).digest()
    return digest(path).hex()


def round_digest(round_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in round_dir.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(round_dir)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def check_op(spec: dict, op, op_dir: Path) -> list:
    if spec["kind"] == "cli":
        stdouts = [(op_dir / f"stdout{k}.txt").read_text() for k in range(len(op))]
        return checks.check_cli_op(op, str(op_dir), stdouts)
    record = json.loads((op_dir / "result.json").read_text())
    if op["call"] == "hi_check":
        return checks.check_dmc_hi(record)
    k1, k2 = (spec["channels"][op["channel"]][k] for k in ("k1", "k2"))
    return checks.check_dmc_search(record, len(k1), len(k2[0]), len(k1[0]), len(k2[0][0]))


def verify(spec: dict, result: dict, out_dir: Path) -> tuple:
    """(attempted, failed, problems, digests) over every round of the child."""
    attempted = failed = 0
    problems = list(result.get("problems", []))
    digests = []
    for k, rnd in enumerate(result["rounds"]):
        round_dir = out_dir / f"round{k}"
        for j, (op, rec) in enumerate(zip(spec["ops"], rnd["ops"])):
            attempted += 1
            errs = [rec["error"]] if rec["error"] else check_op(spec, op, round_dir / f"op{j:03d}")
            if errs:
                failed += 1
                problems.append(f"round {k} op {j}: {'; '.join(errs)}")
        digests.append(round_digest(round_dir))
    if len(set(digests)) > 1:
        problems.append(f"rounds wrote different outputs: {sorted(set(digests))}")
    return attempted, failed, problems, digests


def end_to_end(result: dict, setups: list) -> tuple:
    rounds = result["rounds"]
    # One latency per op: its median over the rounds, so a burst of load on
    # the shared machine that slows part of a round, or parts of two rounds,
    # reaches neither the percentiles nor wall_s.
    op_ms = [stats.median([r["ops"][j]["ms"] for r in rounds])
             for j in range(len(rounds[0]["ops"]))]
    lat = [ms for ms, op in zip(op_ms, rounds[0]["ops"]) if op["kind"] != "hi_check"]
    values = {
        "wall_s": sum(op_ms) / 1e3,
        "op_ms_p50": stats.percentile(lat, 50.0),
        "op_ms_p90": stats.percentile(lat, 90.0),
        "peak_rss_mb": result["maxrss_kb"] / 1024.0,
        "setup_s": stats.median(setups),
    }
    samples = {
        "rounds": len(rounds), "round_wall_s": [r["wall_s"] for r in rounds],
        "ops_per_round": len(lat), "setup_s": len(setups),
        "op_ms_p90_samples_beyond": stats.samples_beyond(len(lat), 90.0),
        "highest_reportable_percentile": stats.highest_reportable(len(lat)),
    }
    units = _units("end_to_end")
    return {k: {"value": values[k], "unit": u} for k, u in units.items()}, samples


def per_layer(result: dict) -> tuple:
    units = _units("per_layer")
    values = result["metrics"]
    problems = []
    missing = sorted(set(units) - set(values))
    if missing:
        problems.append(f"per-layer metrics not produced: {missing}")
    totals = [values[f"{layer}.layer_self_s"] for layer in spans.LAYERS] + [values["trace.other_s"]]
    gap = sum(totals) - values["trace.wall_s"]
    if abs(gap) > SUM_TOL_S:
        problems.append(f"layer self times + other miss the traced wall time by {gap:g} s")
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units if k in values}
    return metrics, problems


def run(args) -> int:
    deadline = time.monotonic() + BUDGET_S
    if not (ROOT / "src" / "cograte" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'cograte'}", file=sys.stderr)
        return 2
    spec = workloads.make_inputs(args.workload, args.seed)
    build = ROOT / ".bench_build" / "perfbench"
    work = build / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "out").mkdir(parents=True)
    try:
        (work / "inputs.json").write_text(json.dumps(spec))
        with open(work / "child.log", "wb") as log:
            setups = []
            if args.trace:
                env = _child_env("1")
                child_args = ["--trace"]
            else:
                env = _child_env(None)
                child_args = ["--seconds", str(args.seconds)]
                spawn(["--probe"], env, log, deadline)  # fills byte-code caches
                setups = [spawn(["--probe"], env, log, deadline) for _ in range(SETUP_PROBES)]
            try:
                setups.append(spawn([str(work / "inputs.json"), str(work / "out"),
                                     str(work / "result.json"), *child_args],
                                    env, log, deadline))
            except RunError:
                log.flush()
                sys.stderr.write((work / "child.log").read_text()[-4000:])
                raise
            if not args.trace:
                setups += [spawn(["--probe"], env, log, deadline) for _ in range(SETUP_PROBES)]
        result = json.loads((work / "result.json").read_text())
        attempted, failed, problems, digests = verify(spec, result, work / "out")
        env_record = dict(result["env"], git_sha=git_sha(ROOT), src_tree=tree_sha(ROOT / "src"),
                          nproc=os.cpu_count(), affinity=len(os.sched_getaffinity(0)))
        report = {"workload": args.workload, "seed": args.seed, "trace": bool(args.trace),
                  "env": env_record, "rounds": len(result["rounds"]),
                  "ops_attempted": attempted, "ops_failed": failed,
                  "failed_op_ratio": failed / attempted, "output_digests": digests}
        if args.trace:
            metrics, more = per_layer(result)
            problems += more
            spans_path = build / f"spans-{args.workload}-seed{args.seed}.json.gz"
            with gzip.open(spans_path, "wt") as fh:
                json.dump({"columns": ["id", "parent", "name", "start", "end", "op", "thread"],
                           "spans": result["spans"]}, fh)
            report["spans_file"] = str(spans_path.relative_to(ROOT))
        else:
            metrics, report["samples"] = end_to_end(result, setups)
        report["problems"] = problems
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(report, sort_keys=True))
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not problems and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn a termination request into SystemExit, so the child is killed and
    # waited for on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for name in names:
        try:
            status = max(status, run(argparse.Namespace(**{**vars(args), "workload": name})))
        except RunError as err:
            print(f"error: {name}: {err}", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
