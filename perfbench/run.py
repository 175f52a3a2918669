"""Benchmark entry point: runs one workload in this process and prints one JSON line.

    python3 perfbench/run.py --workload flow-deep --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it repeats the workload's fixed work (a pass) until
``--seconds`` have passed, at least once, and prints the end-to-end metrics.
With ``--trace 1`` it runs one untraced pass and one traced pass, checks that
their outputs are byte-identical, writes the spans and prints the per-layer
metrics.  The last line of standard output is always the result object.
See README.md for the workloads and what each metric should move.
"""

import os

# One BLAS thread: with the default two, step times on a 2-core machine
# spread far wider (see README.md).  Must precede the first numpy import.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("flow-deep", "flow-flat", "campaign", "probes")
#: set-ups per run in fresh interpreters, besides this process's own
SETUP_REPEATS = 4


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the set-up time and exit (used for setup_s)")
    return ap.parse_args(argv)


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def setup_in_fresh_interpreter(args, outdir: Path) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
         "--setup-only"],
        capture_output=True, text=True, timeout=120, cwd=outdir)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up run failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def run_pass(workload, outdir: Path):
    """One pass: (wall seconds, op times, op count failed, check errors)."""
    gc.collect()
    t = time.perf_counter()
    try:
        ops = workload.run_pass(outdir)
    except Exception as exc:  # the program failed: count the pass, keep running
        print(f"pass failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return time.perf_counter() - t, [], workload.ops_per_pass, []
    wall = time.perf_counter() - t
    try:
        return wall, ops, 0, workload.check(outdir)
    except (OSError, LookupError, ValueError) as exc:
        return wall, ops, 0, [f"unreadable outputs: {type(exc).__name__}: {exc}"]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "isodiam" / "__init__.py").is_file():
        print(f"isodiam sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import workloads  # noqa: E402  (imports numpy and isodiam: part of set-up)

    out = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.setup_only:
        out = Path.cwd()
    workload = workloads.make(args.workload, args.seed, fresh_dir(out / "inputs"))
    gc.collect()
    setup = time.perf_counter() - t0
    if args.setup_only:
        print(repr(setup))
        return 0

    errors, attempted, failed = [], 0, 0
    if args.trace:
        from tracer import LAYERS, Tracer, layer_metrics
        wall_off, _, fail_off, err_off = run_pass(workload, fresh_dir(out / "untraced"))
        before = workload.outputs(out / "untraced")
        tracer = Tracer(LAYERS)
        with tracer:
            wall_on, _, fail_on, err_on = run_pass(workload, fresh_dir(out / "traced"))
        tracer.write(out / "spans.jsonl")
        attempted = 2 * workload.ops_per_pass
        failed = fail_off + fail_on
        errors = err_off + err_on
        if not failed and workload.outputs(out / "traced") != before:
            errors.append("outputs differ between the traced and the untraced pass")
        values = layer_metrics(tracer.spans)
        values["trace.overhead"] = wall_on / wall_off
        units = {name: ("count" if name.endswith((".calls", ".points", ".pairs"))
                        else "ratio" if name.endswith((".acceptance", ".overhead")) else "s")
                 for name in values}
    else:
        walls, ops = [], []
        start = time.perf_counter()
        while True:
            wall, pass_ops, pass_failed, pass_errors = run_pass(workload, fresh_dir(out / "pass"))
            walls.append(wall)
            ops += pass_ops
            attempted += workload.ops_per_pass
            failed += pass_failed
            errors += pass_errors
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(walls) > args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setups = [setup] + [setup_in_fresh_interpreter(args, fresh_dir(out / f"setup-{i}"))
                            for i in range(SETUP_REPEATS)]
        (out / "passes.json").write_text(json.dumps(
            {"pass_walls": walls, "op_times": ops, "setups": setups}) + "\n")
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "op_s_p50": statistics.median(ops) if ops else None,
            "peak_rss_mb": peak_rss_mb,
        }
        units = {"setup_s": "s", "wall_s": "s", "op_s_p50": "s", "peak_rss_mb": "MB"}

    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    result = {"correct": not errors, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}
    line = json.dumps(result)
    (out / "result.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
