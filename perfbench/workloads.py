"""The four workloads: what each runs, how its inputs follow the seed, and
how each call's output is checked.

Why each one is in the benchmark is recorded in BENCHMARK.json.

Every operation is one in-process call of `g2cert.cli.main` with the argv
a user would type, writing its report to a file that is then checked.
Calls run in a closed loop, one after the other, until the run's seconds
are used up.  Everything that differs between workloads lives in its
`Workload` entry and its `Ops` class; run.py and worker.py only use them.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from checks import (
    check_certify,
    check_reduce,
    check_scan,
    rows_disagree,
    rows_from_csv,
    rows_from_json,
    sieve,
)
from corpus import CorpusItem, corpus_item, defect_item

HERE = Path(__file__).resolve().parent
PAIR = ("frobenius2", "frobenius3")

# The serial scan covers every prime up to SCAN_LIMIT: 3,237 scanned primes,
# about 2.5 s per call on a 2-core x86 box, so a run holds several calls.
# It is a time-bounded stand-in for the documented --limit 1000000 scan:
# the work per prime has the same mix (about 1 prime in 18 is a Coxeter
# pair and runs the order descent) but costs about 27% less at 3e4 than
# averaged over 1e6 (0.68 ms against 0.93 ms, see NOTES.md).
SCAN_LIMIT = 30_000
# sha256 of the (p, class_A, class_B, order_A, order_B, verdict) rows of the
# bundled pair up to SCAN_LIMIT.  These columns survive a change of the
# report schema, so the pin does too.
PINNED_ROW_HASH = "66eddae332f8dd5c6578ea669ac9640f1f233da96eb5e96ce9983f9a8504a506"

# certify.scan cuts the primes into jobs * 8 chunks of at least 1000.  The
# documented 1e6 scan (78,490 primes) gets jobs * 8 chunks for up to 9 jobs;
# the pooled scan gets the same shape by scanning 8,000 primes per job, up
# to the documented limit itself.
PAPER_LIMIT = 1_000_000
POOL_PRIMES_PER_JOB = 8_000

# Distinct Coxeter-pair primes sampled per certify-coxeter run; calls cycle
# through them if a run is long enough to use them all.
COXETER_PRIMES = 600

# Probe files reduced after the timed reduce-corpus loop, half per known defect.
DEFECT_PROBES = 8


def scan_jobs() -> int:
    return len(os.sched_getaffinity(0))


def pool_limit(jobs: int) -> int:
    """Smallest limit with POOL_PRIMES_PER_JOB scanned primes per job, at most PAPER_LIMIT."""
    primes = sieve(PAPER_LIMIT)
    # a margin for the primes the scan skips: 2, 3, 5 and the pair's excluded primes
    want = POOL_PRIMES_PER_JOB * jobs + 32
    return primes[want] if want < len(primes) else PAPER_LIMIT


class Ops:
    """The operation stream of one workload: argv for call k, and its check."""

    jobs = 1  # worker processes the program itself runs per call

    def __init__(self, seed: int, workdir: Path, data: list):
        self.seed = seed
        self.workdir = workdir
        self.data = data
        self.out = workdir / "out"

    def argv(self, k: int) -> list[str]:
        raise NotImplementedError

    def check(self, k: int, exit_code: int) -> list[str]:
        """Problems of call k, which exited with exit_code."""
        raise NotImplementedError

    def prepare(self) -> None:
        if self.out.exists():
            self.out.unlink()

    def read(self) -> str | None:
        try:
            return self.out.read_text(encoding="utf-8")
        except OSError:
            return None

    def read_json(self) -> dict | None:
        text = self.read()
        if not text:
            return None
        try:
            return json.loads(text)
        except json.JSONDecodeError:
            return None

    def finish(self, call: Callable[[list[str]], int | None]) -> list[str]:
        """Untimed extra checks after the loop; returns their problems."""
        return []

    def report(self) -> dict:
        """The input mix of the run, printed before the result."""
        return {}

    def detail(self, latencies: list[float]) -> dict:
        """Extra detail metrics, printed before the result and not gated."""
        return {}


class SerialScan(Ops):
    fmt = "json"

    def __init__(self, seed: int, workdir: Path, data: list):
        super().__init__(seed, workdir, data)
        self.limit = SCAN_LIMIT
        self.scanned: int | None = None
        self.last_rows: list[tuple] | None = None

    def argv(self, k: int) -> list[str]:
        return ["scan", *PAIR, "--limit", str(self.limit), "--format", self.fmt,
                "--jobs", str(self.jobs), "--out", str(self.out)]

    def check(self, k: int, exit_code: int) -> list[str]:
        text = self.read()
        if exit_code != 0 or text is None:
            return [f"scan exit {exit_code}"]
        rows, summary = (rows_from_json if self.fmt == "json" else rows_from_csv)(text)
        self.last_rows, self.scanned = rows, len(rows)
        return check_scan(rows, summary, self.limit, (SCAN_LIMIT, PINNED_ROW_HASH))

    def report(self) -> dict:
        return {"limit": self.limit, "jobs": self.jobs, "scanned_primes": self.scanned}

    def detail(self, latencies: list[float]) -> dict:
        if not self.scanned:
            return {}
        return {"primes_per_s": {"value": self.scanned / statistics.median(latencies), "unit": "1/s"}}


class PooledScan(SerialScan):
    fmt = "csv"

    def __init__(self, seed: int, workdir: Path, data: list):
        super().__init__(seed, workdir, data)
        self.jobs = scan_jobs()
        self.limit = pool_limit(self.jobs)

    def finish(self, call: Callable[[list[str]], int | None]) -> list[str]:
        """Serial JSON rows up to SCAN_LIMIT must agree with the pooled CSV rows."""
        if self.last_rows is None:
            return []
        self.prepare()
        code = call(["scan", *PAIR, "--limit", str(SCAN_LIMIT), "--format", "json",
                     "--jobs", "1", "--out", str(self.out)])
        try:
            if code != 0:
                raise ValueError(f"exit {code}")
            rows, _ = rows_from_json(self.out.read_text(encoding="utf-8"))
        except (OSError, KeyError, ValueError) as e:
            return [f"serial cross-check scan: {e}"]
        return rows_disagree(rows, self.last_rows)


class CertifyPrimes(Ops):
    def prime(self, k: int) -> int:
        return self.data[k % len(self.data)]

    def argv(self, k: int) -> list[str]:
        return ["certify", *PAIR, "--prime", str(self.prime(k)), "--out", str(self.out)]

    def check(self, k: int, exit_code: int) -> list[str]:
        return check_certify(self.read_json(), exit_code, self.prime(k))


def sample_coxeter_primes(seed: int, run: Callable[[list[str]], str]) -> tuple[list, dict]:
    """Seeded {3a, 6a} primes, selected in their own process by primes.py."""
    sampled = json.loads(run([sys.executable, str(HERE / "primes.py"), "--seed", str(seed),
                              "--count", str(COXETER_PRIMES)]))
    primes = sampled["primes"]
    return primes, {
        "candidates": sampled["candidates"],
        "decade_share": {d: n / len(primes) for d, n in sampled["per_decade"].items()},
    }


class ReduceCorpus(Ops):
    def __init__(self, seed: int, workdir: Path, data: list):
        super().__init__(seed, workdir, data)
        self.tags: dict[str, int] = {}
        self.kinds: dict[str, int] = {}
        self.defects: dict[str, int] = {}
        self.item = None

    def write(self, item: CorpusItem) -> Path:
        path = self.workdir / "corpus.json"
        path.write_text(item.file_text(self.seed), encoding="utf-8")
        return path

    def argv(self, k: int) -> list[str]:
        # File k of the stream is a pure function of (seed, k); no content is reused.
        self.item = corpus_item(self.seed, k)
        return ["reduce", str(self.write(self.item)), "--out", str(self.out)]

    def check(self, k: int, exit_code: int) -> list[str]:
        doc = self.read_json()
        self.kinds[self.item.kind] = self.kinds.get(self.item.kind, 0) + 1
        tag = doc["classification"] if doc else f"no report, exit {exit_code}"
        self.tags[tag] = self.tags.get(tag, 0) + 1
        return check_reduce(doc, exit_code, self.item)[0]

    def finish(self, call: Callable[[list[str]], int | None]) -> list[str]:
        """Reduce the probe files, each drawn to show one known defect.

        A probe that shows its defect and nothing else is counted in the
        report; any other problem makes the run incorrect.
        """
        problems = []
        for i in range(DEFECT_PROBES):
            item = defect_item(self.seed, i)
            self.prepare()
            code = call(["reduce", str(self.write(item)), "--out", str(self.out)])
            found, known = check_reduce(self.read_json(), code, item)
            if not found:
                continue
            if known is None:
                problems.extend(found)
            else:
                self.defects[known] = self.defects.get(known, 0) + 1
        return problems

    def report(self) -> dict:
        return {"kinds": self.kinds, "tags": self.tags,
                "defect_probes": DEFECT_PROBES, "known_defects_shown": self.defects}


@dataclass(frozen=True)
class Workload:
    name: str
    seeded: str  # how the seed enters, or why it does not
    warmup: tuple[str, ...] | None  # argv run once during set-up
    call_limit_s: float  # a call over this counts as failed
    batch: int  # calls per batch for calls_per_s
    ops: type[Ops]
    # (seed, run) -> (data, report): inputs made before set-up, in processes
    # started by `run`, so nothing they compute is cached in the timed process
    sample: Callable[[int, Callable[[list[str]], str]], tuple[list, dict]] | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="scan-serial",
            # The bundled pair is exactly what users scan, so the inputs do not
            # depend on the seed; only machine noise varies by run.
            seeded="seed-independent: the bundled pair is the users' actual input",
            warmup=("scan", *PAIR, "--limit", "100", "--format", "json", "--jobs", "1"),
            call_limit_s=120.0,
            batch=1,
            ops=SerialScan,
        ),
        Workload(
            name="scan-pool",
            # Seed-independent for the same reason as scan-serial.
            seeded="seed-independent: the bundled pair is the users' actual input",
            warmup=("scan", *PAIR, "--limit", "100", "--format", "csv", "--jobs", "1"),
            call_limit_s=120.0,
            batch=1,
            ops=PooledScan,
        ),
        Workload(
            name="certify-coxeter",
            # Primes are drawn log-uniformly by the seed, one per size stratum, so
            # seeds differ in the primes but not in their sizes.
            seeded="seeded: log-uniform primes in [1e6, 1e12], one per size stratum, "
            "kept when the classes are {3a, 6a}",
            warmup=("certify", *PAIR, "--prime", "29"),
            call_limit_s=30.0,
            batch=5,
            ops=CertifyPrimes,
            sample=sample_coxeter_primes,
        ),
        Workload(
            name="reduce-corpus",
            # File i of the stream is a pure function of (seed, i); see corpus.py.
            seeded="seeded: degree-7 files from corpus.py, file i a function of (seed, i)",
            warmup=None,
            call_limit_s=30.0,
            batch=5,
            ops=ReduceCorpus,
        ),
    )
}
