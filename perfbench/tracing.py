"""Per-layer spans recorded from outside the program.

The traced run wraps public names at the module attribute where their
caller looks them up (`g2cert.reduction.degree_pattern`,
`ReductionContext.classify`, `g2cert.cli.element_order`, the record sink
that `cli` hands to `certify.scan`, ...).  Each span keeps its name, start,
end and parent in memory; the spans are written out when the run ends.  A
layer's self time is its span minus its direct child spans.

Nothing under src/ knows about this.  Forked pool workers inherit the
wrappers but record nothing (their spans could not be collected), so for
scan-pool only parent-side spans are reported.  A target whose name no
longer exists is listed as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time

# (module, attribute path, span name).  The same function is often bound in
# several modules; each binding its callers use is wrapped.
TARGETS = (
    ("g2cert.cli", "main", "cli.main"),
    ("g2cert.cli", "load_polyfile", "polyfile.load_polyfile"),
    ("g2cert.cli", "deflate_root_one", "poly.deflate_root_one"),
    ("g2cert.cli", "palindromic_reduce", "palindromic.palindromic_reduce"),
    ("g2cert.cli", "classify_galois", "palindromic.classify_galois"),
    ("g2cert.cli", "ramified_primes", "palindromic.ramified_primes"),
    ("g2cert.cli", "temperedness_check", "palindromic.temperedness_check"),
    ("g2cert.cli", "excluded_primes", "reduction.excluded_primes"),
    ("g2cert.cli", "element_order", "reduction.element_order"),
    ("g2cert.cli", "certify_prime", "certify.certify_prime"),
    ("g2cert.cli", "scan", "certify.scan"),
    ("g2cert.certify", "primes_up_to", "arith.primes_up_to"),
    ("g2cert.certify", "independence_check", "palindromic.independence_check"),
    ("g2cert.reduction", "palindromic_reduce", "palindromic.palindromic_reduce"),
    ("g2cert.reduction", "classify_galois", "palindromic.classify_galois"),
    ("g2cert.reduction", "ramified_primes", "palindromic.ramified_primes"),
    ("g2cert.reduction", "degree_pattern", "poly.degree_pattern"),
    ("g2cert.reduction", "factor_integer", "arith.factor_integer"),
    ("g2cert.reduction", "ReductionContext.classify", "reduction.classify"),
    ("g2cert.reduction", "ReductionContext.order_report", "reduction.order_report"),
    ("g2cert.palindromic", "classify_galois", "palindromic.classify_galois"),
    ("g2cert.palindromic", "factor_integer", "arith.factor_integer"),
    ("g2cert.palindromic", "squarefree_kernel", "arith.squarefree_kernel"),
    ("g2cert.arith", "factor_integer", "arith.factor_integer"),
    ("g2cert.arith", "squarefree_kernel", "arith.squarefree_kernel"),
)

_DEGREE_NAMES = {3: "cubic", 6: "sextic"}

# (metric, unit, span, statistic).  Statistics are per CLI call ("per_op")
# or per span call; "self" subtracts the direct child spans.
PER_LAYER = (
    ("poly.degree_pattern.cubic.calls", "count", "poly.degree_pattern.cubic", "calls_per_op"),
    ("poly.degree_pattern.cubic.us_per_call", "us", "poly.degree_pattern.cubic", "us_per_call"),
    ("poly.degree_pattern.sextic.calls", "count", "poly.degree_pattern.sextic", "calls_per_op"),
    ("poly.degree_pattern.sextic.us_per_call", "us", "poly.degree_pattern.sextic", "us_per_call"),
    ("reduction.classify.calls", "count", "reduction.classify", "calls_per_op"),
    ("reduction.classify.us_per_call", "us", "reduction.classify", "us_per_call"),
    ("reduction.classify.self_us_per_call", "us", "reduction.classify", "self_us_per_call"),
    ("reduction.order_report.calls", "count", "reduction.order_report", "calls_per_op"),
    ("reduction.order_report.us_per_call", "us", "reduction.order_report", "us_per_call"),
    ("reduction.order_report.self_us_per_call", "us", "reduction.order_report", "self_us_per_call"),
    ("reduction.order_report.per_certify_call", "count", "reduction.order_report", "per_certify_call"),
    ("arith.factor_integer.calls", "count", "arith.factor_integer", "calls_per_op"),
    ("arith.factor_integer.us_per_call", "us", "arith.factor_integer", "us_per_call"),
    ("arith.factor_integer.max_ms", "ms", "arith.factor_integer", "max_ms"),
    ("arith.primes_up_to.ms", "ms", "arith.primes_up_to", "ms_per_call"),
    ("palindromic.palindromic_reduce.us_per_call", "us", "palindromic.palindromic_reduce", "us_per_call"),
    ("palindromic.classify_galois.us_per_call", "us", "palindromic.classify_galois", "us_per_call"),
    ("palindromic.classify_galois.self_us_per_call", "us", "palindromic.classify_galois", "self_us_per_call"),
    ("palindromic.ramified_primes.us_per_call", "us", "palindromic.ramified_primes", "us_per_call"),
    ("certify.certify_prime.self_us_per_call", "us", "certify.certify_prime", "self_us_per_call"),
    ("certify.scan.parent_wait_s", "s", "certify.scan", "pool_self_s_per_call"),
    ("certify.scan.worker_utilization", "share", "certify.scan", "worker_utilization"),
    ("cli.record_sink.us_per_record", "us", "cli.record_sink", "us_per_call"),
    ("cli.main.self_ms_per_call", "ms", "cli.main", "self_ms_per_call"),
    ("polyfile.load_polyfile.us_per_call", "us", "polyfile.load_polyfile", "us_per_call"),
)

# Reported by the traced run next to the layers, not derived from spans.
RUN_METRICS = (
    ("trace.overhead_cpu_s", "s"),
    ("trace.overhead_share", "share"),
    ("process.peak_rss_self_mb", "MB"),
    ("process.peak_rss_children_mb", "MB"),
)


def _resolve(module: str, path: str):
    """(owner, attribute) for module:path, or None when the name is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return (owner, attr) if callable(getattr(owner, attr, None)) else None


class Tracer:
    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index]
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self.absent: list[str] = []
        self.present: set[str] = set()  # span names with at least one wrapped target
        for module, path, name in TARGETS:
            found = _resolve(module, path)
            if found is None:
                self.absent.append(f"{module}.{path}")
                continue
            owner, attr = found
            original = owner.__dict__.get(attr, getattr(owner, attr))
            self._patches.append((owner, attr, original, self._wrap(original, name)))
            self.present.add(name)
        if "poly.degree_pattern" in self.present:
            self.present |= {f"poly.degree_pattern.{d}" for d in _DEGREE_NAMES.values()}
        if "certify.scan" in self.present:
            self.present.add("cli.record_sink")

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def _record(self, name: str, fn, args, kwargs):
        if os.getpid() != self.pid:
            return fn(*args, **kwargs)
        index = len(self.spans)
        span = [name, time.perf_counter_ns(), 0, self._stack[-1] if self._stack else -1]
        self.spans.append(span)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter_ns()
            self._stack.pop()

    def _wrap(self, fn, name: str):
        record = self._record
        if name == "poly.degree_pattern":

            @functools.wraps(fn)
            def by_degree(*args, **kwargs):
                degree = getattr(args[0] if args else None, "degree", None)
                return record(f"{name}.{_DEGREE_NAMES.get(degree, 'other')}", fn, args, kwargs)

            return by_degree
        if name == "certify.scan":

            @functools.wraps(fn)
            def scan(*args, **kwargs):
                sink = kwargs.get("record_sink")
                if sink is not None:
                    kwargs["record_sink"] = lambda r: record("cli.record_sink", sink, (r,), {})
                return record(name, fn, args, kwargs)

            return scan

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return record(name, fn, args, kwargs)

        return wrapper

    def aggregate(self) -> dict[str, dict]:
        """calls, total_ns, self_ns, max_ns for every span name."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict] = {}
        for (name, start, end, _), inner in zip(self.spans, child_ns):
            a = out.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0, "max_ns": 0})
            a["calls"] += 1
            a["total_ns"] += end - start
            a["self_ns"] += end - start - inner
            a["max_ns"] = max(a["max_ns"], end - start)
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent"], "spans": self.spans}, fh)


def layer_metrics(agg: dict, present: set[str], ops: int, certify_ops: int,
                  scan_jobs: int, scan_children_cpu_s: float) -> tuple[dict, list, list]:
    """Per-layer metrics from aggregated spans of `ops` traced CLI calls.

    Returns (metrics, absent, not_run).  A metric whose span name is not
    wrapped any more is absent; one whose layer did no work in this
    workload did not run.  Both are reported as 0 and listed by name.
    """
    metrics, absent, not_run = {}, [], []
    for metric, unit, span, stat in PER_LAYER:
        a = agg.get(span)
        value = None
        if span not in present:
            absent.append(metric)
        elif a is None or not a["calls"]:
            not_run.append(metric)
        elif stat == "calls_per_op":
            value = a["calls"] / ops
        elif stat == "us_per_call":
            value = a["total_ns"] / a["calls"] / 1e3
        elif stat == "self_us_per_call":
            value = a["self_ns"] / a["calls"] / 1e3
        elif stat == "self_ms_per_call":
            value = a["self_ns"] / a["calls"] / 1e6
        elif stat == "ms_per_call":
            value = a["total_ns"] / a["calls"] / 1e6
        elif stat == "max_ms":
            value = a["max_ns"] / 1e6
        elif stat == "per_certify_call":
            value = a["calls"] / certify_ops if certify_ops else None
        elif stat == "pool_self_s_per_call":
            value = a["self_ns"] / a["calls"] / 1e9 if scan_jobs > 1 else None
        elif stat == "worker_utilization":
            wall_s = a["total_ns"] / 1e9
            value = scan_children_cpu_s / (wall_s * scan_jobs) if scan_jobs > 1 else None
        if value is None and metric not in absent and metric not in not_run:
            not_run.append(metric)
        metrics[metric] = {"value": value if value is not None else 0, "unit": unit}
    return metrics, absent, not_run
