"""tubelab benchmark: one workload run, end-to-end or traced.

    python3 perfbench/run.py --workload case2-ladder --seed 405 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

Run from anywhere inside a checkout that holds src/tubelab.  Each run starts
fresh worker processes (perfbench/worker.py), one closed-loop client running
one op at a time, with numpy thread pools pinned to 1.  Set-up is measured
on several fresh workers and reported as the median.  The last line printed
is one JSON object: {"correct", "attempted", "failed", "metrics"}, holding
the end-to-end metrics of BENCHMARK.json (--trace 0) or its per-layer
metrics (--trace 1).  See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 405
SETUP_SAMPLES = 5  # setup-only workers, plus the measuring worker's own setup
TIME_LIMIT_S = 170.0


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(
    args: argparse.Namespace, out: Path, deadline: float, slot: int, setup_only: bool
) -> tuple[dict, float]:
    """Run one fresh worker; return its result and its set-up time."""
    out.mkdir(parents=True)
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--out", str(out), "--slot", str(slot),
    ]  # fmt: skip
    if setup_only:
        cmd.append("--setup-only")
    elif args.trace:
        cmd += ["--spans", str(ROOT / ".perfbench_run" / f"spans-{args.workload}-seed{args.seed}.json")]
    start = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, env=worker_env(), cwd=ROOT, timeout=max(1.0, deadline - start),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )  # fmt: skip
    except subprocess.TimeoutExpired:
        fail(f"worker for {args.workload} ran past the time limit")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"worker for {args.workload} exited with code {proc.returncode}")
    result = json.loads((out / "result.json").read_text())
    return result, result["ready"] - start


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (q in 1..99), interpolated between samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def best_time(repeats: list[dict]) -> float:
    """The fastest of an op's repeats; an op timed in stages sums the fastest
    time of each stage."""
    if repeats[0]["stages"]:
        return sum(map(min, zip(*(op["stages"] for op in repeats))))
    return min(op["latency"] for op in repeats)


def end_to_end(result: dict, setups: list[float]) -> dict[str, float]:
    """Metrics of one run; each op time is the fastest of the run's passes.

    On a shared 2-vCPU host, single-thread speed swings by up to 1.9x for tens of
    seconds as other tenants load the host; the fastest repeat of the same
    op is far steadier than any one sample, and the more so the shorter the
    op (see README.md).
    """
    passes = [p["ops"] for p in result["passes"]]
    clean = [ops for ops in passes if not any(op["error"] for op in ops)] or passes
    width = min(len(ops) for ops in clean)
    best = [best_time([ops[i] for ops in clean]) for i in range(width)]
    ops = passes[0]
    finest = max(op["k"] for op in ops)
    wall = sum(best)
    return {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "op_p50_s": quantile(best, 50),
        "op_p90_s": quantile(best, 90),
        "finest_point_s": sum(t for op, t in zip(ops, best) if op["k"] == finest),
        "cells_per_s": sum(op["cells"] for op in ops) / wall,
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }


def run_one(args: argparse.Namespace, spec: dict, run_dir: Path) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    setups = []
    for i in range(SETUP_SAMPLES):
        _, took = spawn(args, run_dir / f"setup{i}", deadline, i + 1, setup_only=True)
        setups.append(took)
    result, took = spawn(args, run_dir / "run", deadline, 0, setup_only=False)
    setups.append(took)

    ops = [op for p in result["passes"] for op in p["ops"]]
    errors = [op["error"] for op in ops if op["error"]] + result["problems"]
    for msg in errors[:20]:
        print(f"check failed: {msg}")
    failed = sum(1 for op in ops if op["error"])
    if args.trace:
        values = result["trace"]
        wanted = spec["per_layer"]
    else:
        values = end_to_end(result, setups)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    print(f"# {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(result['passes'])} passes, {len(ops)} ops")  # fmt: skip
    for name, m in metrics.items():
        print(f"{name:<26} {m['value']:>16.6g} {m['unit']}")
    print(f"{'ops_failed_frac':<26} {failed / max(len(ops), 1):>16.6g} 1  ({failed}/{len(ops)})")
    return {
        "correct": not errors,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
        "observed": result.get("observed", {}),
    }


def write_reference(path: Path, reference: dict) -> None:
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


def main() -> int:
    # A terminated client raises SystemExit, so subprocess.run kills and reaps
    # the running worker and the run directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", required=True, help="a workload name, or 'all'")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=None, help="default: BENCHMARK.json run_seconds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--write-reference", action="store_true",
        help="store this run's reference values (table.csv digests, measured constants, "
        "exact counts) in perfbench/reference.json; needs --trace 1 and the default seed",
    )  # fmt: skip
    args = p.parse_args()

    if not (ROOT / "src" / "tubelab" / "__init__.py").is_file():
        fail(f"no tubelab sources under {ROOT / 'src'}; run inside a tubelab checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        fail(f"unknown workload {args.workload!r}; choose from {names} or 'all'")
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.write_reference and (args.trace != 1 or args.seed != DEFAULT_SEED):
        fail("--write-reference needs --trace 1 and the default seed")

    run_dir = ROOT / ".perfbench_run" / f"{os.getpid()}"
    ref_path = HERE / "reference.json"
    results = {}
    try:
        for name in names if args.workload == "all" else [args.workload]:
            one = argparse.Namespace(**{**vars(args), "workload": name})
            if args.write_reference:  # the worker must not check against the old values
                reference = json.loads(ref_path.read_text())
                old = reference.pop(name, None)
                write_reference(ref_path, reference)
            results[name] = run_one(one, spec, run_dir / name)
            if args.write_reference:
                new = results[name]["observed"] if results[name]["correct"] else old
                write_reference(ref_path, {**reference, name: new})
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if len(results) == 1:
        (res,) = results.values()
        metrics = res["metrics"]
    else:
        metrics = {f"{w}.{k}": v for w, res in results.items() for k, v in res["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))  # fmt: skip
    return 0


if __name__ == "__main__":
    sys.exit(main())
