"""Self-tests of the benchmark's own code.

    python3 -m pytest perfbench -q

Outside the package's testpaths, so the package's own suite is unchanged.
"""

from __future__ import annotations

import copy
import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import g2cert.cli as cli  # noqa: E402

from checks import (  # noqa: E402
    TEMPERED_SIGN_CHAIN,
    check_certify,
    check_reduce,
    check_row,
    check_scan,
    cubic_discriminant,
    expected_galois,
    has_rational_root,
    known_defect,
    row_hash,
    rows_disagree,
    rows_from_csv,
    rows_from_json,
)
from corpus import BLOCK, DEFECT_KINDS, CorpusItem, corpus_item, defect_item  # noqa: E402
from primes import candidates, sample  # noqa: E402
from reference import REF_NOMINAL_S, Sampler  # noqa: E402
from tracing import PER_LAYER, RUN_METRICS  # noqa: E402

SMALL_LIMIT = 3000


def _cli(tmp_path: Path, *argv: str) -> tuple[int, str]:
    out = tmp_path / "out"
    code = cli.main([*argv, "--out", str(out)])
    return code, out.read_text(encoding="utf-8") if out.exists() else ""


# -- generators -------------------------------------------------------------


def test_corpus_is_a_function_of_seed_and_index():
    first = [corpus_item(5, i) for i in range(48)]
    assert first == [corpus_item(5, i) for i in range(48)]
    assert first != [corpus_item(6, i) for i in range(48)]
    for block in range(3):
        kinds = sorted(it.kind for it in first[block * len(BLOCK) : (block + 1) * len(BLOCK)])
        assert kinds == sorted(BLOCK)


def test_corpus_lift_identity_follows_the_kind():
    for i in range(64):
        it = corpus_item(3, i)
        assert (it.a * it.a == it.c + 2 * it.b + 4) == it.lift


def test_timed_corpus_avoids_the_known_defects_and_probes_show_them():
    assert all(known_defect(corpus_item(7, i).cubic) is None for i in range(64))
    probes = [defect_item(7, i) for i in range(8)]
    assert probes == [defect_item(7, i) for i in range(8)]
    assert [known_defect(it.cubic) for it in probes] == [dict(DEFECT_KINDS)[it.kind] for it in probes]
    assert {it.kind for it in probes} == set(dict(DEFECT_KINDS))


def test_prime_sampler_is_a_function_of_seed():
    def head(seed):
        gen = candidates(random.Random(seed), 3, 10)
        return [next(gen) for _ in range(20)]

    assert head(1) == head(1)
    assert head(1) != head(2)
    assert sample(4, 3) == sample(4, 3)


def test_sampler_times_the_reference_inside_a_call_and_accounts_for_it():
    sampler = Sampler()
    sampler.start()
    mark = sampler.mark()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 0.3:  # a CPU-bound call long enough for several samples
        sum(i * i for i in range(1000))
    t1 = time.perf_counter()
    sampler.stop()
    wall, cpu = sampler.spent(mark)
    assert sampler.mark() - mark >= 3 and 0 < wall < t1 - t0 and cpu > 0
    assert REF_NOMINAL_S / max(sampler.wall) <= sampler.scale(t0, t1) <= REF_NOMINAL_S / min(sampler.wall)


# -- checkers reject corrupted records --------------------------------------


@pytest.fixture(scope="module")
def scan_json(tmp_path_factory):
    code, text = _cli(tmp_path_factory.mktemp("scan"), "scan", "frobenius2", "frobenius3",
                      "--limit", str(SMALL_LIMIT), "--format", "json")
    assert code == 0
    return rows_from_json(text)


def test_scan_checker_accepts_the_real_scan(scan_json):
    rows, summary = scan_json
    assert check_scan(rows, summary, SMALL_LIMIT, (SMALL_LIMIT, row_hash(rows))) == []
    assert check_scan(rows, summary, SMALL_LIMIT, (1000, row_hash(r for r in rows if r[0] <= 1000))) == []


def test_scan_checker_rejects_corruption(scan_json):
    rows, summary = scan_json
    certified = next(i for i, r in enumerate(rows) if r[5] == "Certified")
    p, ca, cb, oa, ob, _ = rows[certified]
    bad_rows = list(rows)
    bad_rows[certified] = (p, ca, cb, oa, ob, "OrderTooSmall")
    assert check_scan(bad_rows, summary, SMALL_LIMIT, None)
    bad_rows[certified] = (p, ca, cb, oa + 1, ob, "Certified")
    assert check_scan(bad_rows, summary, SMALL_LIMIT, None)
    assert check_scan(rows[:-1], summary, SMALL_LIMIT, None)
    assert check_scan(rows, summary, SMALL_LIMIT, (SMALL_LIMIT, "0" * 64))
    bad_summary = copy.deepcopy(summary)
    bad_summary["verdict_counts"]["Certified"] += 1
    assert check_scan(rows, bad_summary, SMALL_LIMIT, None)


def test_row_checker_recomputes_the_verdict():
    assert check_row((29, "3a", "6a", 871, 813, "Certified")) == []
    assert check_row((29, "3a", "6a", 871, 813, "BoundedSubgroupNotExcluded"))
    assert check_row((29, "3a", "6a", 870, 813, "Certified"))
    assert check_row((31, "2b", "2a", None, None, "Certified"))


def test_serial_and_pooled_rows_agree(tmp_path, scan_json):
    rows, _ = scan_json
    code, text = _cli(tmp_path, "scan", "frobenius2", "frobenius3",
                      "--limit", str(SMALL_LIMIT), "--format", "csv", "--jobs", "2")
    assert code == 0
    pooled, _ = rows_from_csv(text)
    assert rows_disagree(rows, pooled) == []
    changed = list(pooled)
    changed[3] = changed[3][:5] + ("Certified",)
    assert rows_disagree(rows, changed)


def test_certify_checker_rejects_corruption(tmp_path):
    code, text = _cli(tmp_path, "certify", "frobenius2", "frobenius3", "--prime", "29")
    doc = json.loads(text)
    assert check_certify(doc, code, 29) == []
    assert check_certify(doc, 1, 29)
    for key, value in (("order_a", 3), ("order_b", 812), ("verdict", "OrderTooSmall"),
                       ("torus_order_a", 870)):
        bad = dict(doc, **{key: value})
        assert check_certify(bad, code, 29), key
    assert check_certify(None, 2, 29)


def _reduce(tmp_path: Path, item: CorpusItem) -> tuple[int, dict]:
    path = tmp_path / "in.json"
    path.write_text(item.file_text(2), encoding="utf-8")
    code, text = _cli(tmp_path, "reduce", str(path))
    return code, json.loads(text)


def test_reduce_checker_rejects_corruption(tmp_path):
    item = next(corpus_item(2, i) for i in range(32) if corpus_item(2, i).kind == "torus"
                and expected_galois(corpus_item(2, i).cubic, True)["classification"] == "D6")
    code, doc = _reduce(tmp_path, item)
    assert check_reduce(doc, code, item) == ([], None)
    assert check_reduce(doc, 2, item)[0]
    delta = cubic_discriminant(item.cubic)
    evidence = dict(doc["evidence"], q_irreducible=False)
    for key, value in (("discriminant", str(delta + 1)), ("unit_product", not item.lift),
                       ("cubic", doc["cubic"][:3] + ["2"]), ("classification", "Other"),
                       ("classification", "WeylBC_n"), ("tempered", False), ("evidence", evidence)):
        problems, known = check_reduce(dict(doc, **{key: value}), code, item)
        assert problems and known is None, key
    # Relabelled as Other with exit 1, as a broken rational-root test would report it.
    problems, known = check_reduce(dict(doc, classification="Other", evidence=evidence), 1, item)
    assert problems and known is None


def test_rational_root_search():
    rng = random.Random(0)

    def frac():
        return Fraction(rng.randint(-99, 99), rng.randint(1, 40))

    for _ in range(500):
        r, s, t = frac(), frac(), frac()
        assert has_rational_root((-r * t, t - r * s, s - r, Fraction(1)))  # (y - r)(y^2 + s y + t)
    assert not has_rational_root((Fraction(-2), Fraction(0), Fraction(0), Fraction(1)))  # y^3 - 2
    assert not has_rational_root((Fraction(-103, 100), Fraction(349, 100), Fraction(-17, 5), Fraction(1)))


def test_reduce_checker_names_the_sign_chain_defect(tmp_path):
    # Roots near 0.51, 1.17, 1.72: all inside (-2, 2) but on one side of 0.
    item = CorpusItem(0, "weyl", Fraction(17, 5), Fraction(349, 100), Fraction(103, 100), 7)
    want = expected_galois(item.cubic, False)
    assert want["classification"] == "WeylBC_n" and want["tempered"]
    code, doc = _reduce(tmp_path, item)
    right = dict(doc, **want)
    assert check_reduce(right, 1, item) == ([], None)
    wrong = dict(doc, classification="Inconclusive", tempered=False,
                 evidence=dict(want["evidence"], roots_in_interval=False))
    problems, known = check_reduce(wrong, 1, item)
    assert problems and known == TEMPERED_SIGN_CHAIN
    problems, known = check_reduce(dict(wrong, classification="Other"), 1, item)
    assert problems and known is None


# -- one short smoke run per workload ---------------------------------------


def _names(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def test_benchmark_json_lists_the_per_layer_metrics():
    expected = {name: unit for name, unit, *_ in PER_LAYER} | dict(RUN_METRICS)
    assert _names("per_layer") == expected


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric(trace):
    want = _names("per_layer" if trace else "end_to_end")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in (w["name"] for w in spec["workloads"]):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
             "--seconds", "1", "--trace", str(trace)],
            capture_output=True, text=True, cwd=ROOT, timeout=170,
        )
        assert proc.returncode == 0, proc.stderr
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] and last["attempted"] >= 1
        assert {k: v["unit"] for k, v in last["metrics"].items()} == want, workload
