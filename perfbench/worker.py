"""The timed process of one run: set-up, then a closed loop of CLI calls.

Started fresh by run.py so that set-up time is measured from a new process
and `resource.getrusage(RUSAGE_CHILDREN)` sees only the pool workers that
the program itself starts.  Reads a JSON spec and writes a JSON result;
run.py turns the result into metrics.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import signal
import sys
import time
from pathlib import Path


class CallTimeout(BaseException):
    """Raised by SIGALRM inside a call; a BaseException so the CLI cannot catch it."""


def _alarm(signum, frame):
    raise CallTimeout()


def _children_cpu() -> float:
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


def _call(cli, argv: list[str], limit_s: float) -> tuple[int | None, str, str]:
    """(exit code or None, outcome, stderr) of one in-process CLI call."""
    err = io.StringIO()
    signal.setitimer(signal.ITIMER_REAL, limit_s)
    try:
        with contextlib.redirect_stderr(err):
            return cli.main(argv), "returned", err.getvalue()
    except CallTimeout:
        return None, "timeout", err.getvalue()
    except Exception as e:  # an uncaught exception is a failed call, not a dead run
        return None, f"exception {type(e).__name__}: {e}", err.getvalue()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def set_up(spec: dict):
    """Import the package and run the workload's warm-up call.

    Returns the cli module and the problems the warm-up showed.
    """
    sys.path.insert(0, spec["src"])
    import g2cert
    import g2cert.cli as cli

    if not Path(g2cert.__file__).resolve().is_relative_to(Path(spec["src"]).resolve()):
        raise SystemExit(f"imported g2cert from {g2cert.__file__}, not from {spec['src']}")
    from workloads import WORKLOADS

    warmup = WORKLOADS[spec["workload"]].warmup
    if warmup is not None:
        code = cli.main([*warmup, "--out", str(Path(spec["workdir"]) / "warmup")])
        if code != 0:
            return cli, [f"warm-up call {' '.join(warmup)} exited {code}"]
    return cli, []


def run(spec: dict, cli, problems: list[str]) -> dict:
    from reference import Sampler
    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS

    workload = WORKLOADS[spec["workload"]]
    ops = workload.ops(spec["seed"], Path(spec["workdir"]), spec["data"])
    tracer = Tracer() if spec["trace"] else None
    # Reference samples scale the end-to-end timings; a traced run's layer
    # timings stay raw, so it takes none.
    sampler = Sampler() if tracer is None else None
    signal.signal(signal.SIGALRM, _alarm)
    records = []
    if sampler is not None:
        sampler.start()
    deadline = time.perf_counter() + spec["seconds"]
    k = 0
    while True:
        traced = tracer is not None and k % 2 == 1
        argv = ops.argv(k)
        ops.prepare()
        if traced:
            tracer.install()
        mark = sampler.mark() if sampler is not None else 0
        # The worker is single-threaded; thread_time stays exact while the
        # sampler's CPU itimer is armed, process_time then reads in ticks.
        c0, ch0, t0 = time.thread_time(), _children_cpu(), time.perf_counter()
        code, outcome, stderr = _call(cli, argv, workload.call_limit_s)
        t1, c1, ch1 = time.perf_counter(), time.thread_time(), _children_cpu()
        # Time the reference sampler took inside the call is not the call's.
        ref_wall, ref_cpu = sampler.spent(mark) if sampler is not None else (0.0, 0.0)
        if traced:
            tracer.uninstall()
        if outcome == "timeout":
            found = []
        elif outcome != "returned":
            found = [f"call {k}: {outcome}"]
        else:
            try:
                found = ops.check(k, code)
            except (KeyError, IndexError, TypeError, ValueError) as e:  # output not in the expected shape
                found = [f"call {k}: unreadable output: {e!r}"]
        if outcome == "timeout":
            status = "timeout"
        elif not found:
            status = "ok"
        else:
            status = "wrong"
            problems.extend(found)
        records.append({
            "command": argv[0],
            "start_s": t0,
            "latency_s": t1 - t0 - ref_wall,
            "cpu_s": (c1 - c0 - ref_cpu) + (ch1 - ch0),
            "children_cpu_s": ch1 - ch0,
            "status": status,
            "traced": traced,
            "stderr": (stderr.strip() or "; ".join(found))[:200] if status != "ok" else "",
        })
        k += 1
        if t1 >= deadline and (tracer is None or k >= 2):  # a traced run makes one traced call
            break
    if sampler is not None:
        sampler.stop()
    for r in records:
        r["scale"] = sampler.scale(r["start_s"], r["start_s"] + r["latency_s"]) if sampler else 1.0

    # Untimed extra checks after the loop; their problems make the run incorrect.
    problems.extend(ops.finish(lambda argv: _call(cli, argv, workload.call_limit_s)[0]))

    self_ru = resource.getrusage(resource.RUSAGE_SELF)
    child_ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    latencies = [r["latency_s"] * r["scale"] for r in records]
    result = {
        "records": records,
        "references": sampler.wall if sampler is not None else [],
        "problems": problems,
        "peak_rss_self_mb": self_ru.ru_maxrss / 1024,
        "peak_rss_children_mb": child_ru.ru_maxrss / 1024,
        "report": ops.report(),
        "detail": ops.detail(latencies),
        "jobs": ops.jobs,
    }
    if tracer is not None:
        traced_records = [r for r in records if r["traced"]]
        certify_ops = sum(1 for r in traced_records if r["command"] == "certify")
        metrics, absent, not_run = layer_metrics(
            tracer.aggregate(), tracer.present, max(len(traced_records), 1), certify_ops,
            ops.jobs, sum(r["children_cpu_s"] for r in traced_records),
        )
        result.update(layer_metrics=metrics, absent=absent, not_run=not_run,
                      absent_targets=tracer.absent)
        tracer.write(spec["spans_path"])
    return result


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    cli, problems = set_up(spec)
    setup_s = time.monotonic() - spec["t_spawn"]
    from reference import SETUP_REFS, reference_s

    # Reference samples right after set-up, in the same process, scale it.
    setup = {"setup_s": setup_s, "setup_refs": [reference_s() for _ in range(SETUP_REFS)]}
    if spec["setup_only"]:
        print(json.dumps(setup))
        return 0
    result = run(spec, cli, problems)
    result.update(setup)
    Path(spec["result_path"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
