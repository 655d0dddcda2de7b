"""One fresh benchmark worker: set up tubelab, run one workload, report.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --out DIR [--slot I] [--setup-only] [--spans FILE]

Started by run.py with PYTHONPATH pointing at the checkout's src and numpy
thread pools pinned to 1.  Setup is the interpreter start, the tubelab
import and one k=5 `verify` warm-up; the worker reports the monotonic clock
reading at its end, which run.py subtracts from its own reading at spawn.
The benchmark's own modules are imported only after that.  Results go to
DIR/result.json.
"""

import argparse
import gc
import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CPUS = sorted(os.sched_getaffinity(0))


def pin(slot: int) -> None:
    """Run on one CPU, chosen round-robin by slot.

    The host slows each vCPU at its own times, for up to tens of seconds;
    rotating the passes (and the set-up samples) over the CPUs lets the
    best-of-passes estimate in run.py find a quiet one.
    """
    os.sched_setaffinity(0, {CPUS[slot % len(CPUS)]})


def warm_up(out: Path) -> None:
    from tubelab import lab

    argv = ["verify", "--kind", "random", "--delta", "2^-5", "--t", "1.0", "--seed", "0"]
    if lab.run_cli(argv + ["--out", str(out / "warmup")]) not in (0, 1):
        raise RuntimeError("warm-up verify failed")


def run_pass(workload, pass_no: int, tracer=None):
    """Run one pass, timing each call; tracing is on only inside calls."""
    from workloads import Op

    ops, wall = [], 0.0
    gc.collect()  # garbage of the previous pass is collected outside the timed calls
    for call in workload.calls(pass_no):
        if tracer is not None:
            tracer.enabled = True
        t0 = time.perf_counter()
        try:
            result, error = call.run(), None
        except Exception as exc:  # an op that raises is a failed op, not a crash
            result, error = None, f"{call.label}: {type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        if tracer is not None:
            tracer.enabled = False
        wall += latency
        if error is None:
            ops += workload.ops_of(call, latency, result, pass_no)
        else:
            ops += [Op(call.label, call.k, latency, call.cells, error) for _ in range(call.n_ops)]
    return ops, wall


def trace_metrics(tracer, workload, untraced_wall: float, traced_wall: float):
    """Per-layer metrics of the traced pass, count problems, and the counts."""
    from tracer import COUNT_METRICS, RATIO_METRICS, layer_metrics

    problems = []
    derived = workload.derived_counts()
    for name, value in derived.items():
        if tracer.counts[name] != value:
            problems.append(f"count {name}: traced {tracer.counts[name]} != outputs {value}")
    names = list(COUNT_METRICS) + [n for pair in RATIO_METRICS.values() for n in pair]
    counts = {n: tracer.counts[n] for n in names}
    want = workload.reference.get("counts")
    if want is not None and counts != want:
        problems.append(f"counts {counts} != reference {want}")
    self_s, calls, top = tracer.self_times()
    metrics = layer_metrics(self_s, calls, tracer.counts)
    metrics["tracing_overhead_s"] = traced_wall - untraced_wall
    metrics["uncovered_s"] = traced_wall - top
    metrics["traced_wall_s"] = traced_wall
    return metrics, problems, counts


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--slot", type=int, default=0, help="CPU slot of the set-up")
    p.add_argument("--spans", type=Path, default=None, help="where a traced run writes its spans")
    args = p.parse_args()

    pin(args.slot)
    warm_up(args.out)
    ready = time.monotonic()
    result = {"ready": ready}
    if not args.setup_only:
        result.update(run_workload(args))
    (args.out / "result.json").write_text(json.dumps(result))
    return 0


def run_workload(args) -> dict:
    import resource

    from tracer import Tracer
    from workloads import WORKLOADS

    reference = json.loads((HERE / "reference.json").read_text())
    workload = WORKLOADS[args.workload](args.seed, args.out, reference)
    passes = []
    if args.trace:  # both passes on one CPU, so their difference is the tracing
        passes.append(run_pass(workload, 0))
        tracer = Tracer()
        tracer.install()
        passes.append(run_pass(workload, 1, tracer))
    else:
        start = time.monotonic()
        while True:
            pin(len(passes))
            began = time.monotonic()
            passes.append(run_pass(workload, len(passes)))
            took = time.monotonic() - began  # the pass with its checks, not just its calls
            if time.monotonic() - start + took > args.seconds:  # the next pass would overrun
                break
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workload.final_checks([ops for ops, _ in passes])
    out = {
        "peak_rss_kb": peak_kb,
        "passes": [
            {"wall": wall, "ops": [vars(op) for op in ops]} for ops, wall in passes
        ],
        "problems": [],
        "observed": workload.observed(),
    }
    if args.trace:
        metrics, problems, counts = trace_metrics(tracer, workload, passes[0][1], passes[1][1])
        out["trace"] = metrics
        out["problems"] = problems
        out["observed"]["counts"] = counts
        if args.spans is not None:
            fields = ["name", "start", "end", "parent"]
            args.spans.write_text(json.dumps({"fields": fields, "spans": tracer.spans}))
    return out


if __name__ == "__main__":
    sys.exit(main())
