"""g2cert benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The run makes its inputs from the seed,
measures set-up in fresh processes, then starts a fresh worker process that
calls `g2cert.cli.main` in a closed loop for S seconds and checks every
output.  The end-to-end timings are scaled to a reference machine speed
measured next to them (see reference.py).  Earlier lines of standard output
carry details (the tail latency with its percentile and sample count,
primes per second, the unscaled timings, failure causes, the input mix and
the known-defect probes); the last line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones from outside-in spans (see tracing.py), plus the tracing
overhead.  Work files go to .bench_work/ under the repository root.
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

from reference import REF_NOMINAL_S
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 9  # fresh set-up-only processes per run, plus the worker itself
RUN_LIMIT_S = 170  # the whole run, so that it ends within 180 s


def _run(argv: list[str], deadline: float) -> str:
    """Run argv to completion before the deadline and return its stdout.

    The child gets its own process group, so on a timeout the whole group
    (a worker and any pool processes it started) is killed and reaped.
    """
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            cwd=ROOT, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{Path(argv[1]).name} did not finish in time") from None
    if proc.returncode != 0:
        raise RuntimeError(f"{Path(argv[1]).name} exited {proc.returncode}: {err.strip()[-2000:]}")
    return out


def _spawn_worker(spec: dict, deadline: float) -> str:
    spec_path = Path(spec["workdir"]) / ("setup.json" if spec["setup_only"] else "spec.json")
    spec["t_spawn"] = time.monotonic()
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    return _run([sys.executable, str(HERE / "worker.py"), str(spec_path)], deadline)


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with at least ten calls beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def batch_rate(latencies: list[float], batch: int) -> float:
    """Median over consecutive batches of `batch` calls of calls per second."""
    rates = [
        batch / sum(latencies[i : i + batch])
        for i in range(0, len(latencies) - batch + 1, batch)
    ]
    return statistics.median(rates) if rates else len(latencies) / sum(latencies)


def end_to_end(result: dict, workload, setup_s: float) -> tuple[dict, dict]:
    """Gated metrics, with timings scaled to the reference speed (see reference.py)."""
    recs = result["records"]
    lat = [r["latency_s"] * r["scale"] for r in recs]
    value, pct = tail(lat)
    metrics = {
        "calls_per_s": {"value": batch_rate(lat, workload.batch), "unit": "1/s"},
        "latency_p50_ms": {"value": statistics.median(lat) * 1e3, "unit": "ms"},
        "cpu_s": {"value": statistics.median(r["cpu_s"] * r["scale"] for r in recs), "unit": "s"},
        "peak_rss_mb": {
            "value": max(result["peak_rss_self_mb"], result["peak_rss_children_mb"]),
            "unit": "MB",
        },
        "setup_s": {"value": setup_s, "unit": "s"},
    }
    raw_lat = [r["latency_s"] for r in recs]
    detail = {
        "latency_tail_ms": {"value": value * 1e3, "unit": "ms", "percentile": pct, "samples": len(lat)},
        **result["detail"],
        "unscaled": {
            "reference_s": statistics.median(result["references"]) if result["references"] else None,
            "calls_per_s": batch_rate(raw_lat, workload.batch),
            "latency_p50_ms": statistics.median(raw_lat) * 1e3,
            "cpu_s": statistics.median(r["cpu_s"] for r in recs),
        },
    }
    return metrics, detail


def trace_metrics(result: dict) -> dict:
    recs = result["records"]
    plain = statistics.median(r["cpu_s"] for r in recs if not r["traced"])
    traced = [r["cpu_s"] for r in recs if r["traced"]]
    over = statistics.median(traced) - plain if traced else 0.0
    metrics = dict(result["layer_metrics"])
    metrics["trace.overhead_cpu_s"] = {"value": over, "unit": "s"}
    metrics["trace.overhead_share"] = {"value": over / plain, "unit": "share"}
    metrics["process.peak_rss_self_mb"] = {"value": result["peak_rss_self_mb"], "unit": "MB"}
    metrics["process.peak_rss_children_mb"] = {"value": result["peak_rss_children_mb"], "unit": "MB"}
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (SRC / "g2cert" / "__init__.py").is_file():
        print(f"perfbench: no g2cert package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    work_root = ROOT / ".bench_work"
    workdir = work_root / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    inputs: dict = {"workload": workload.name, "seed": args.seed, "inputs": workload.seeded}
    data: list = []
    if workload.sample is not None:
        data, report = workload.sample(args.seed, lambda argv: _run(argv, deadline))
        inputs.update(report)
    spec = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": bool(args.trace), "src": str(SRC), "workdir": str(workdir),
        "data": data, "setup_only": True,
        "result_path": str(workdir / "result.json"),
        "spans_path": str(work_root / f"spans-{workload.name}-{args.seed}.json"),
    }
    setups = [json.loads(_spawn_worker(spec, deadline)) for _ in range(SETUP_SAMPLES)]
    spec["setup_only"] = False
    _spawn_worker(spec, deadline)
    result = json.loads(Path(spec["result_path"]).read_text(encoding="utf-8"))
    setups.append(result)
    raw_setup_s = statistics.median(one["setup_s"] for one in setups)
    setup_s = statistics.median(
        one["setup_s"] * REF_NOMINAL_S / statistics.median(one["setup_refs"]) for one in setups
    )
    shutil.rmtree(workdir, ignore_errors=True)

    recs = result["records"]
    statuses: dict[str, int] = {}
    for r in recs:
        statuses[r["status"]] = statuses.get(r["status"], 0) + 1
    problems = result["problems"]
    failed = sum(1 for r in recs if r["status"] != "ok")
    attempted = len(recs)
    inputs.update(result["report"])
    print(json.dumps({"inputs": inputs}))
    failure_messages = sorted({r["stderr"] for r in recs if r["status"] != "ok"})
    print(json.dumps({
        "statuses": statuses, "failed_share": failed / attempted,
        "failure_messages": failure_messages[:10], "problems": problems[:20],
    }))
    if args.trace:
        metrics = trace_metrics(result)
        trace = {"absent": result["absent"], "absent_targets": result["absent_targets"],
                 "not_run": result["not_run"],
                 "spans": str(Path(spec["spans_path"]).relative_to(ROOT))}
        if result["jobs"] > 1:
            trace["note"] = "parent-side spans only: forked pool workers' spans are not collected"
        print(json.dumps({"trace": trace}))
    else:
        metrics, detail = end_to_end(result, workload, setup_s)
        detail["unscaled"]["setup_s"] = raw_setup_s
        print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
