import hashlib
import json
import os
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import pytest

from g2cert import cli
from g2cert.arith import SIEVE_LIMIT
from g2cert.certify import Pair, scan
from g2cert.poly import RatPoly
from g2cert.polyfile import PolyFile, bundled_polyfile, load_polyfile, serialize_polyfile
from oracles import inflate_palindromic, rat_mul, torus_cubic


DATA = Path(__file__).parent / "data"


def run_cli(*args, **kw):
    return subprocess.run(
        [sys.executable, "-m", "g2cert", *args],
        capture_output=True,
        text=True,
        **kw,
    )


def cubic_file(tmp_path, name, cubic, steinberg_prime=5):
    """A degree-7 input file (x - 1) x^3 Q(x + 1/x) for the cubic Q, ascending coefficients."""
    septic = rat_mul(inflate_palindromic(RatPoly.from_coeffs(cubic)), RatPoly.from_coeffs([-1, 1]))
    doc = {
        "name": name,
        "steinberg_prime": steinberg_prime,
        "variable": "x",
        "coefficients": list(septic.to_strings()),
    }
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return path


def steinberg29_file(tmp_path):
    """frobenius2 with Steinberg prime 29, where the bundled pair certifies."""
    doc = json.loads(serialize_polyfile(bundled_polyfile("frobenius2")))
    doc["steinberg_prime"] = 29
    path = tmp_path / "steinberg29.json"
    path.write_text(json.dumps(doc))
    return path


def no_floats(text):
    # every numeric leaf must arrive as an int or a string; a bare JSON
    # float anywhere is a contract violation
    def reject(s):
        raise AssertionError(f"float literal {s!r} in output")

    return json.loads(text, parse_float=reject)


def test_reduce_first_bundle_json_exit_zero():
    r = run_cli("reduce", "frobenius2")
    assert r.returncode == 0, r.stderr
    doc = no_floats(r.stdout)
    assert doc["schema"] == "g2cert-report-1"
    assert doc["cubic_str"] == "y^3 + 5/4*y^2 - 11/4*y - 49/16"
    assert doc["cubic_at_2"] == "71/16"
    assert doc["cubic_at_minus_2"] == "-9/16"
    assert doc["discriminant"] == "14129/256"
    assert doc["classification"] == "D6"
    assert doc["tempered"] is True
    assert {e["p"] for e in doc["excluded_primes"]} == {2, 3, 5, 71, 199}


def test_reduce_non_d6_input_exit_one(tmp_path):
    # x^6 + x^3 + 1 reduces to y^3 - 3y + 1: square discriminant, not D6
    doc = {
        "name": "cyclic",
        "steinberg_prime": 5,
        "variable": "x",
        "coefficients": ["1", "0", "0", "1", "0", "0", "1"],
    }
    path = tmp_path / "cyclic.json"
    path.write_text(json.dumps(doc))
    r = run_cli("reduce", str(path))
    assert r.returncode == 1
    out = no_floats(r.stdout)
    assert out["classification"] != "D6"


@pytest.mark.parametrize(
    "cubic, reason",
    [
        ([1, -1, -1, 1], "repeated root"),  # (y - 1)^2 (y + 1): disc(Q) = 0
        ([-2, 1, -2, 1], "root at 1 or -1"),  # (y - 2)(y^2 + 1): Q(2) = 0
    ],
)
def test_reduce_inseparable_input_exit_one(tmp_path, cubic, reason):
    r = run_cli("reduce", str(cubic_file(tmp_path, "inseparable", cubic)))
    assert r.returncode == 1
    assert r.stdout == ""
    assert reason in r.stderr


def test_reduce_tempered_with_roots_on_one_side_of_zero(tmp_path):
    # roots of Q in (0, 2), lift identity holds: see test_palindromic
    path = cubic_file(tmp_path, "one-sided", [F(-1, 16), F(7, 4), F(-11, 4), 1])
    r = run_cli("reduce", str(path))
    assert r.returncode == 0, r.stderr
    doc = no_floats(r.stdout)
    assert (doc["classification"], doc["tempered"]) == ("D6", True)


def test_frobenius_single_prime():
    r = run_cli("frobenius", "frobenius2", "--prime", "7")
    assert r.returncode == 0
    rec = no_floats(r.stdout)["records"][0]
    assert rec["weyl_class"] == "2b"
    assert rec["torus_order"] == 48
    assert rec["exact_order"] == 24
    assert rec["exceeds"] == {"3": True, "19": True}


def test_frobenius_exceeds_boundary():
    # "exceeds" compares strictly against exactly the thresholds 3 and 19
    assert cli._exceeds(3) == {"3": False, "19": False}
    assert cli._exceeds(4) == {"3": True, "19": False}
    assert cli._exceeds(19) == {"3": True, "19": False}
    assert cli._exceeds(20) == {"3": True, "19": True}


def test_frobenius_non_prime_is_a_usage_error():
    r = run_cli("frobenius", "frobenius2", "--prime", "9")
    assert r.returncode == 2
    assert r.stdout == ""
    assert "need an odd prime, got 9" in r.stderr


def test_frobenius_range_flags_even_prime_of_good_reduction(tmp_path):
    # D6 and tempered, and 2 divides no denominator or discriminant
    path = cubic_file(tmp_path, "odd-disc", [F(-37, 9), F(-4, 3), F(7, 3), 1])
    r = run_cli("frobenius", str(path), "--limit", "12")
    assert r.returncode == 0, r.stderr
    by_p = {rec["p"]: rec for rec in no_floats(r.stdout)["records"]}
    assert by_p[2]["excluded"] == "EvenPrime"
    assert by_p[3]["excluded"] == "DenominatorVanishes"
    assert by_p[7]["exact_order"] > 0
    # EvenPrime is a per-prime refusal, never one of the input's excluded primes
    reduced = no_floats(run_cli("reduce", str(path)).stdout)
    assert [e["p"] for e in reduced["excluded_primes"]] == [3, 5, 19]


def test_frobenius_flags_steinberg_prime(tmp_path):
    r = run_cli("frobenius", str(steinberg29_file(tmp_path)), "--prime", "29")
    assert r.returncode == 0, r.stderr
    assert no_floats(r.stdout)["records"] == [{"p": 29, "excluded": "SteinbergPrime"}]


def test_frobenius_range_flags_excluded_inline():
    r = run_cli("frobenius", "frobenius2", "--limit", "10")
    records = no_floats(r.stdout)["records"]
    by_p = {rec["p"]: rec for rec in records}
    assert by_p[2]["excluded"] == "DenominatorVanishes"
    assert by_p[3]["excluded"] == "RamifiedDiscriminant"
    assert by_p[5]["excluded"] == "SteinbergPrime"
    assert by_p[7]["weyl_class"] == "2b"


def test_frobenius_csv():
    r = run_cli("frobenius", "frobenius2", "--limit", "13", "--format", "csv")
    lines = r.stdout.strip().splitlines()
    assert lines[0] == "p,y_pattern,chi_delta_prime,chi_delta,weyl_class,torus_order,exact_order,excluded"
    assert lines[1] == "2,,,,,,,DenominatorVanishes"
    assert lines[4] == "7,1+2,-1,-1,2b,48,24,"
    assert lines[5] == "11,3,-1,1,6a,111,37,"


def test_certify_exit_codes():
    good = run_cli("certify", "frobenius2", "frobenius3", "--prime", "29")
    assert good.returncode == 0
    doc = no_floats(good.stdout)
    assert doc["verdict"] == "Certified"
    assert doc["order_evidence_a"]["exact_order"] == 871
    bad = run_cli("certify", "frobenius2", "frobenius3", "--prime", "11")
    assert bad.returncode == 1
    assert no_floats(bad.stdout)["verdict"] == "NotCoxeterPair"
    excluded = run_cli("certify", "frobenius2", "frobenius3", "--prime", "71")
    assert excluded.returncode == 1
    assert no_floats(excluded.stdout)["verdict"] == "ExcludedPrime"


def test_certify_refuses_primes_beyond_the_proof_bound_quickly():
    # 10^30 + 3349 is prime but above the bound where is_prime is a proof;
    # factoring its Phi_3 would take far longer than the timeout
    big = run_cli("certify", "frobenius2", "frobenius3", "--prime", str(10**30 + 3349), timeout=10)
    assert big.returncode == 2
    assert "need a prime below 3317044064679887385961981" in big.stderr
    # psi_12 = 399165290221 * 798330580441 fools the first 12 witnesses
    psp = run_cli("certify", "frobenius2", "frobenius3", "--prime", "318665857834031151167461", timeout=10)
    assert psp.returncode == 2
    assert "need an odd prime" in psp.stderr


def test_scan_json_schema_and_summary(tmp_path):
    out = tmp_path / "scan.json"
    r = run_cli("scan", "frobenius2", "frobenius3", "--limit", "300", "--out", str(out))
    assert r.returncode == 0
    doc = no_floats(out.read_text())
    assert doc["schema"] == "g2cert-report-1"
    assert doc["command"] == "scan"
    assert doc["inputs"]["a"]["name"] == "frobenius2"
    assert len(doc["inputs"]["a"]["digest"]) == 64
    assert doc["parameters"]["limit"] == 300
    assert doc["records"][0]["p"] == 11
    summary = doc["summary"]
    assert summary["certified"] == [29, 89, 283]
    assert summary["pattern_density"]["fraction"].count("/") == 1
    assert summary["predicted_pattern_density"]["fraction"] == "1/18"
    # decimal renderings stay strings with six places
    assert summary["predicted_pattern_density"]["decimal"] == "0.055556"


def test_scan_csv_golden_head():
    r = run_cli("scan", "frobenius2", "frobenius3", "--limit", "100", "--format", "csv")
    lines = r.stdout.splitlines()
    assert lines[0] == "p,class_A,class_B,order_A,order_B,verdict"
    assert lines[1] == "11,6a,6a,,,NotCoxeterPair"
    assert "29,3a,6a,871,813,Certified" in lines
    assert lines[-1].startswith("# {")


def test_scan_byte_identical_across_jobs(tmp_path):
    # 1,221 scanned primes: above the 1,000 that scan runs serially, so
    # --jobs 3 starts a real pool of two workers, one per batch
    a, b, c = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
    run_cli("scan", "frobenius2", "frobenius3", "--limit", "10000", "--out", str(a))
    run_cli("scan", "frobenius2", "frobenius3", "--limit", "10000", "--out", str(b))
    run_cli(
        "scan", "frobenius2", "frobenius3", "--limit", "10000",
        "--jobs", "3", "--out", str(c),
    )
    assert a.read_bytes() == b.read_bytes() == c.read_bytes()


def test_scan_output_pinned():
    # pinned sha256 of the CSV bytes and of the JSON records and summary;
    # the JSON parameters no longer carry order_bound, so they are not pinned
    r = run_cli("scan", "frobenius2", "frobenius3", "--limit", "3000", "--format", "csv")
    digest = hashlib.sha256(r.stdout.encode()).hexdigest()
    assert digest == "a05afa5a142c2d8c74e408092dd3ee8518a61e46e26d8ea1860a262fb8911482"
    doc = json.loads(run_cli("scan", "frobenius2", "frobenius3", "--limit", "3000").stdout)
    for key, want in (
        ("records", "4cf84eb8ab7b37d2db842379f5f956f3a268879bb89d590ea58a647956fd01a7"),
        ("summary", "751a183bb10ae070f3abc950ab3cc17bcd644d0dfd3dbe19f5858207371f90c9"),
    ):
        assert hashlib.sha256(json.dumps(doc[key]).encode()).hexdigest() == want, key
    assert doc["parameters"].keys() == {"limit", "excluded_primes"}


# (argv, sha256 of the whole stdout, exit code).  The scan, the single
# --prime, the record-less and the certify pins were computed before frobenius
# and scan shared one record writer; scan-json-empty is the one byte change
# that writer made, "records": [] where an empty scan wrote "[\n\n  ]".
PINNED_OUTPUTS = {
    "reduce-frobenius2": (
        ("reduce", "frobenius2"),
        "ddf3fc60d2fd37ef9539319c78030332c8316a29d8024b5c39c80754c8569994",
        0,
    ),
    "reduce-frobenius3": (
        ("reduce", "frobenius3"),
        "f034a65e67d7971d8cc4b24579640a79387769d8e6fd9bbce5158112cef5f157",
        0,
    ),
    "frobenius2-json": (
        ("frobenius", "frobenius2", "--limit", "2000"),
        "297002dd82f430b87b77f71148ee2fefea259784c7508c15106807034b0336d1",
        0,
    ),
    "frobenius2-csv": (
        ("frobenius", "frobenius2", "--limit", "2000", "--format", "csv"),
        "bc6d3308fb7e50b4ac5d0095252ac80b5940169c1e437e0e04899240acded0d0",
        0,
    ),
    "frobenius3-json": (
        ("frobenius", "frobenius3", "--limit", "2000"),
        "86f5d258b3b5d6ae0731e3f89533bb99edc3713e794df1efc517491e10735269",
        0,
    ),
    "frobenius3-csv": (
        ("frobenius", "frobenius3", "--limit", "2000", "--format", "csv"),
        "3355caf08149a8c811a0334b9062ffe53bca036ca4cbd4ff82e4de965b266798",
        0,
    ),
    "frobenius2-prime-71": (
        ("frobenius", "frobenius2", "--prime", "71"),
        "be64309c22daa614a909addc5aa36e7fb4e008887412e2334fba442037ea037b",
        0,
    ),
    "frobenius2-no-records": (
        ("frobenius", "frobenius2", "--limit", "1"),
        "b087dc4a5be094586af95954c4c4dd2622b41fd2fc1d58cdcd266a460cfebba4",
        0,
    ),
    "certify-29": (
        ("certify", "frobenius2", "frobenius3", "--prime", "29"),
        "7aab5f304d476aafce29d2331b6d7de0a855435f200e546bd9b1c8ce77a808f7",
        0,
    ),
    "certify-71": (
        ("certify", "frobenius2", "frobenius3", "--prime", "71"),
        "4450cbef2cb3ad7672176908a259251002922835538040795f0297c2b482b696",
        1,
    ),
    "scan-json": (
        ("scan", "frobenius2", "frobenius3", "--limit", "3000"),
        "bfaefd1290120ae2983ec2b30d3e4832f0ff933b88bba5a388daf97ad70dd0c0",
        0,
    ),
    # every one of the 36 class pairs occurs below 20000, 34 of them in
    # records with no orders, whose JSON the report encodes once per pair
    "scan-json-20000": (
        ("scan", "frobenius2", "frobenius3", "--limit", "20000"),
        "f0cc3a7cb58839acf8a26eeb2b6367a6b9adb1cdf3020971f32b43ebbdc4abc6",
        0,
    ),
    # the blocked pair below: all three verdicts a scan reaches, in JSON
    "scan-json-blocked": (
        ("scan", str(DATA / "blocked-a.json"), str(DATA / "blocked-b.json"), "--limit", "100"),
        "9394661f980721077085bd8689988279df9dbe5bf8affb30ef628eae4486bb58",
        0,
    ),
    "scan-json-empty": (
        ("scan", "frobenius2", "frobenius3", "--limit", "5"),
        "1d4d9eb8a3d5d8d97d0e3c402a3dbf0e7511344bfa185e2f58bbd30a690d45e4",
        0,
    ),
    "reproduce": (
        ("reproduce",),
        "846c7f655bc018e70efc84f9787ca8bbafda451642b3f54ec17dde9fec493810",
        0,
    ),
}


@pytest.mark.parametrize("argv, want, code", PINNED_OUTPUTS.values(), ids=PINNED_OUTPUTS.keys())
def test_single_input_output_pinned(argv, want, code):
    r = run_cli(*argv)
    assert r.returncode == code, r.stderr
    assert hashlib.sha256(r.stdout.encode()).hexdigest() == want


# `reduce` on each committed input under tests/data: sha256 of stdout, exit
# code and stderr, computed before the analysis ran on the integer model.
# d6, weyl-bc, inconclusive and rational-root are drawn by
# perfbench/corpus.py (seed 777) and reach the D6, WeylBC_n, Inconclusive
# and Other verdicts; square-discriminant is (x - 1)(x^6 + x^3 + 1), whose
# Q = y^3 - 3y + 1 has discriminant 81 (Other); no-root-at-one is
# frobenius2 with its x coefficient changed, so deflation fails.
DATA_PINS = {
    "d6": ("b9a56d9d0531fdc484058908158b650504d35243da644528bc6ff30bbd1e592c", 0, ""),
    "weyl-bc": ("1a70ce9bc87f26bd695bde9d4aa827809abd73f9c1db1bd6a9d5adc71db4983e", 1, ""),
    "inconclusive": ("d369e6d882c492e79c5bf3aa587d3b3cb2dd24353e78ce63df24d8b0d51b96cb", 1, ""),
    "rational-root": ("c5bda65fdb1106b01ce6a5908a13091037172b86d58ea43f90a204c4a8f7efd7", 1, ""),
    "square-discriminant": (
        "2fdce074dd524667fd03bfe793e96298898c4542c7d845167a9e17d9d72052d0", 1, ""
    ),
    "no-root-at-one": (
        hashlib.sha256(b"").hexdigest(),
        1,
        "g2cert: no-root-at-one: 1 is not a root, remainder -1/12\n",
    ),
}


@pytest.mark.parametrize("name", DATA_PINS)
def test_reduce_data_inputs_pinned(name):
    r = run_cli("reduce", str(DATA / f"{name}.json"))
    digest, code, stderr = DATA_PINS[name]
    assert (hashlib.sha256(r.stdout.encode()).hexdigest(), r.returncode, r.stderr) == (
        digest, code, stderr
    )


# A pair that reaches BoundedSubgroupNotExcluded from real inputs: each
# file is (x - 1) x^3 Q(x + 1/x) with Steinberg prime 5, and the cubics are
# a CRT lift of the period cubics of 2cos(2 pi/7) and 2cos(2 pi/13) mod 23,
# so at p = 23 the elements have orders 7 and 13, which both divide
# |L2(13)| = 1092, and 13 is a square mod 23.
BLOCKED_CUBICS = {
    "blocked-a": [F(5817, 9409), F(243, 97), F(281, 97), 1],
    "blocked-b": [F(-1964, 9409), F(-166, 97), F(-86, 97), 1],
}
BLOCKED = [str(DATA / f"{name}.json") for name in BLOCKED_CUBICS]


@pytest.mark.parametrize("name", BLOCKED_CUBICS)
def test_blocked_pair_files_rebuild_from_their_cubics(name):
    q = RatPoly.from_coeffs(BLOCKED_CUBICS[name])
    septic = rat_mul(inflate_palindromic(q), RatPoly.from_coeffs([-1, 1]))
    want = serialize_polyfile(PolyFile(name, 5, "x", tuple(septic.to_strings())))
    assert (DATA / f"{name}.json").read_text() == want


def test_blocked_pair_certify_reaches_bounded_subgroup_not_excluded():
    r = run_cli("certify", *BLOCKED, "--prime", "23")
    assert (r.returncode, r.stderr) == (1, "")
    doc = no_floats(r.stdout)
    assert (doc["class_a"], doc["class_b"]) == ("3a", "6a")
    assert (doc["order_a"], doc["order_b"]) == (7, 13)
    assert doc["verdict"] == "BoundedSubgroupNotExcluded"
    assert doc["reasons"] == [
        "2^3.L3(2): excluded: orders (7, 13) do not both divide 1344",
        "L2(13): not excluded: both element orders divide |M| = 1092",
        "G2(2): excluded: orders (7, 13) do not both divide 12096",
    ]


def test_blocked_pair_scan_byte_identical_across_jobs():
    # 1,429 scanned primes: above the 1,000 at which --jobs 2 runs the pool
    outs = [run_cli("scan", *BLOCKED, "--limit", "12000", "--format", "csv", "--jobs", jobs)
            for jobs in ("1", "2")]
    assert [(r.returncode, r.stderr) for r in outs] == [(0, "")] * 2
    assert outs[0].stdout == outs[1].stdout
    lines = outs[0].stdout.splitlines()
    rows = [line.split(",") for line in lines[1:] if not line.startswith("#")]
    summary = json.loads(lines[-1][2:])
    assert summary["scanned"] == len(rows) == 1429
    assert Counter(row[-1] for row in rows) == {
        "Certified": 86, "NotCoxeterPair": 1342, "BoundedSubgroupNotExcluded": 1
    }
    assert [row for row in rows if row[-1] == "BoundedSubgroupNotExcluded"] == [
        ["23", "3a", "6a", "7", "13", "BoundedSubgroupNotExcluded"]
    ]


# The lift identity with 41-digit coefficients: Q = y^3 - a y^2 + b y - c
# with a = 10^40 + 7, b = 3 10^39 + 11 and c = a^2 - 2b - 4, in the file as
# (x - 1) x^3 Q(x + 1/x) with Steinberg prime 7.  Its delta has 201 digits;
# every command that needs D6 refuses it without factoring anything.
LIFT_IDENTITY = str(DATA / "lift-identity.json")
INCONCLUSIVE_REFUSAL = (
    "g2cert: Frobenius classes need the order-12 dihedral splitting field, "
    "classification is Inconclusive\n"
)


def test_lift_identity_file_rebuilds_from_its_cubic():
    a, b = 10**40 + 7, 3 * 10**39 + 11
    q = RatPoly.from_coeffs([-(a * a - 2 * b - 4), b, -a, 1])
    septic = rat_mul(inflate_palindromic(q), RatPoly.from_coeffs([-1, 1]))
    want = serialize_polyfile(PolyFile("lift-identity", 7, "x", tuple(septic.to_strings())))
    assert Path(LIFT_IDENTITY).read_text() == want


@pytest.mark.parametrize(
    "argv",
    [
        ("certify", LIFT_IDENTITY, "frobenius3", "--prime", "29"),
        ("frobenius", LIFT_IDENTITY, "--limit", "200"),
        ("scan", LIFT_IDENTITY, "frobenius3", "--limit", "2000"),
    ],
    ids=["certify", "frobenius", "scan"],
)
def test_lift_identity_input_is_refused_in_bounded_time(argv):
    r = run_cli(*argv, timeout=5)
    assert (r.returncode, r.stdout, r.stderr) == (1, "", INCONCLUSIVE_REFUSAL)


# A tempered D6 input near a torus element: oracles.torus_cubic(m1, m2,
# 1/1000, 1/997) with m1 = (10^12 + 39)/(10^12 + 61) and
# m2 = (10^12 + 3)/(3 10^12 + 7), in the file as (x - 1) x^3 Q(x + 1/x) with
# Steinberg prime 5.  Its delta has 318 digits.  A CSV scan writes no head,
# so it never factors them for parameters.excluded_primes.
LARGE_D6 = str(DATA / "large-d6.json")


def test_large_d6_file_rebuilds_from_its_closed_form():
    m1, m2 = F(10**12 + 39, 10**12 + 61), F(10**12 + 3, 3 * 10**12 + 7)
    q = RatPoly.from_coeffs([*torus_cubic(m1, m2, F(1, 1000), F(1, 997)), 1])
    septic = rat_mul(inflate_palindromic(q), RatPoly.from_coeffs([-1, 1]))
    want = serialize_polyfile(PolyFile("large-d6", 5, "x", tuple(septic.to_strings())))
    assert Path(LARGE_D6).read_text() == want


def test_large_d6_csv_scan_runs_in_bounded_time():
    r = run_cli("scan", LARGE_D6, "frobenius3", "--limit", "100", "--format", "csv", timeout=5)
    assert (r.returncode, r.stderr) == (0, "")
    lines = r.stdout.splitlines()
    summary = json.loads(lines[-1][2:])
    assert (summary["scanned"], summary["excluded_count"], len(lines)) == (20, 5, 22)
    assert hashlib.sha256(r.stdout.encode()).hexdigest() == (
        "c1ffdaeb1f2f25aab481f69be3bb38d8c3707c861ac4ac61b92071a11b33abcc"
    )


# The displayed fields of lift-identity and large-d6 (square_kernels and
# ramified_primes from the exponents, and a JSON scan's excluded_primes from
# D) need more rho steps than reduction.DISPLAY_RHO_STEPS allows: each of
# these commands ends at once in the typed error, with nothing on stdout.
BUDGET_PINS = {
    "reduce-lift-identity": (
        ("reduce", LIFT_IDENTITY),
        (hashlib.sha256(b"").hexdigest(), 1,
         "g2cert: exponents: no factor of a 192-digit cofactor within 16384 rho steps\n"),
    ),
    "reduce-large-d6": (
        ("reduce", LARGE_D6),
        (hashlib.sha256(b"").hexdigest(), 1,
         "g2cert: exponents: no factor of a 469-digit cofactor within 16384 rho steps\n"),
    ),
    "scan-large-d6": (
        ("scan", LARGE_D6, "frobenius3", "--limit", "100"),
        (hashlib.sha256(b"").hexdigest(), 1,
         "g2cert: excluded: no factor of a 54-digit cofactor within 16384 rho steps\n"),
    ),
}


@pytest.mark.parametrize("name", BUDGET_PINS)
def test_displayed_factoring_stops_at_its_budget(name):
    argv, pin = BUDGET_PINS[name]
    r = run_cli(*argv, timeout=5)
    assert (hashlib.sha256(r.stdout.encode()).hexdigest(), r.returncode, r.stderr) == pin


def test_scan_excludes_steinberg_prime_in_library_and_cli(tmp_path):
    path = steinberg29_file(tmp_path)
    records = []
    summary = scan(Pair.from_files(load_polyfile(str(path)), bundled_polyfile("frobenius3")),
                   300, record_sink=records.append)
    assert 29 not in [rec.p for rec in records]
    assert summary.certified == (89, 283)
    r = run_cli("scan", str(path), "frobenius3", "--limit", "300")
    out = no_floats(r.stdout)
    assert 29 not in [rec["p"] for rec in out["records"]]
    assert {"p": 29, "reason": "SteinbergPrime"} in out["parameters"]["excluded_primes"]
    assert out["summary"]["certified"] == [89, 283]


def test_scan_rejects_dependent_pair():
    r = run_cli("scan", "frobenius2", "frobenius2", "--limit", "100")
    assert r.returncode == 1
    assert "independent" in r.stderr


def test_torus_orders_text():
    r = run_cli("torus-orders")
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert lines[0] == "1a  (q - 1)^2"
    assert lines[-1] == "6a  q^2 - q + 1"
    r5 = run_cli("torus-orders", "--q", "5")
    values = [int(line.split()[-1]) for line in r5.stdout.splitlines()]
    assert values == [16, 24, 24, 36, 31, 21]


def test_torus_orders_json():
    r = run_cli("torus-orders", "--q", "2", "--format", "json")
    doc = no_floats(r.stdout)
    assert [row["value"] for row in doc["rows"]] == [1, 3, 3, 9, 7, 3]


def test_torus_orders_rejects_tiny_q():
    r = run_cli("torus-orders", "--q", "1")
    assert r.returncode == 2


def test_reproduce_default_exit_zero():
    r = run_cli("reproduce")
    assert r.returncode == 0
    assert r.stdout.splitlines()[-1] == "all values reproduced exactly"
    assert all(line.startswith("ok ") for line in r.stdout.splitlines()[:-1])


def test_reproduce_corrupted_input_exit_one(tmp_path):
    pf = bundled_polyfile("frobenius3")
    doc = json.loads(serialize_polyfile(pf))
    doc["coefficients"][2] = "-175/242"
    doc["coefficients"][5] = "175/242"
    path = tmp_path / "bad3.json"
    path.write_text(json.dumps(doc))
    r = run_cli("reproduce", "frobenius2", str(path))
    assert r.returncode == 1
    assert "MISMATCH frobenius3" in r.stdout
    assert "FAILED" in r.stdout.splitlines()[-1]


def test_usage_errors_exit_two(tmp_path):
    assert run_cli("frobenius", "frobenius2").returncode == 2  # no prime/limit
    assert run_cli("scan", "frobenius2", "frobenius3").returncode == 2  # no limit
    for argv in (("scan", "frobenius2", "frobenius3", "--limit", "100"),
                 ("frobenius", "frobenius2", "--prime", "7"),
                 ("certify", "frobenius2", "frobenius3", "--prime", "29")):
        assert run_cli(*argv, "--order-bound", "19").returncode == 2  # option removed
    # a --prime that is not prime is refused before the p <= 5 gate
    for p in ("0", "1", "4", "-7", "9"):
        r = run_cli("certify", "frobenius2", "frobenius3", "--prime", p)
        assert (r.returncode, r.stdout) == (2, ""), p
        assert f"need an odd prime, got {p}" in r.stderr, p
    assert run_cli("frobenius", "frobenius2", "--prime", "4").returncode == 2
    assert run_cli("nonsense").returncode == 2
    assert run_cli("reduce", str(tmp_path / "missing.json")).returncode == 2
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{broken")
    assert run_cli("reduce", str(garbled)).returncode == 2


def test_version_flag():
    r = run_cli("--version")
    assert r.returncode == 0
    assert r.stdout.startswith("g2cert ")


# One process, one parser: main reuses the tree that build_parser built on
# its first call.  Interleaved calls of every kind, errors included, must
# each print exactly what the same call prints alone in a fresh process.
INTERLEAVED = (
    ("reduce", "frobenius2"),
    ("certify", "frobenius2", "frobenius3", "--prime", "29"),
    ("certify", "frobenius2", "frobenius3", "--prime", "71"),  # excluded: exit 1
    ("certify", "frobenius2", "frobenius3"),  # no --prime: usage on stderr, exit 2
    ("--version",),
    ("torus-orders", "--q", "5"),
    ("frobenius", "frobenius2", "--limit", "200", "--format", "csv"),
    ("certify", "frobenius2", "frobenius3", "--prime", "29"),
)


def test_parser_is_built_once_and_reuse_leaks_no_state(capsys, monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    # the usage text wraps at the terminal width; pin it on both sides
    monkeypatch.setenv("COLUMNS", "80")
    codes = []
    for argv in INTERLEAVED:
        code = cli.main(list(argv))
        out, err = capsys.readouterr()
        alone = run_cli(*argv)
        assert (code, out, err) == (alone.returncode, alone.stdout, alone.stderr), argv
        codes.append(code)
    assert codes == [0, 0, 1, 2, 0, 0, 0, 0]


IMPORT_HYGIENE = """
import sys
import g2cert, g2cert.cli
out = sys.argv[1]
pool = ["concurrent.futures", "multiprocessing"]
loaded = lambda: [m for m in pool if m in sys.modules]
assert loaded() == [], ("import", loaded())

def scan(limit, jobs):
    argv = ["scan", "frobenius2", "frobenius3", "--format", "csv", "--limit", limit, "--jobs", jobs]
    return g2cert.cli.main(argv + ["--out", f"{out}/{limit}-{jobs}.csv"])

# jobs=1, and a jobs=2 scan of at most 1,000 primes, run serially
for limit, jobs in (("500", "1"), ("500", "2"), ("10000", "1")):
    assert scan(limit, jobs) == 0 and loaded() == [], (limit, jobs, loaded())
# 1,221 scanned primes: above 1,000, so jobs=2 starts a pool
assert scan("10000", "2") == 0 and loaded() == pool, loaded()
"""


def test_only_a_pooled_scan_loads_the_process_pool(tmp_path):
    r = subprocess.run(
        [sys.executable, "-c", IMPORT_HYGIENE, str(tmp_path)],
        capture_output=True, text=True,
    )
    assert r.returncode == 0, r.stderr
    assert (tmp_path / "500-1.csv").read_bytes() == (tmp_path / "500-2.csv").read_bytes()
    assert (tmp_path / "10000-1.csv").read_bytes() == (tmp_path / "10000-2.csv").read_bytes()


# The child's own peak RSS, VmHWM, in kB.  Not ru_maxrss: Linux carries the
# launching process's high-water mark across fork and exec into it, so under
# a pytest process larger than the child both limits would read the same.
MEMORY_PROBE = """
import sys
from g2cert import cli
code = cli.main(["frobenius", "frobenius3", "--limit", sys.argv[1], "--out", sys.argv[2]])
with open("/proc/self/status") as status:
    print(code, next(line.split()[1] for line in status if line.startswith("VmHWM:")))
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs Linux VmHWM")
def test_frobenius_peak_memory_stays_flat_in_the_limit(tmp_path):
    # records stream to the output as they are made: ten times the primes
    # (9,592 against 1,229) may not raise the process's peak RSS by 10%
    peak = {}
    for n in (10_000, 100_000):
        out = tmp_path / f"{n}.json"
        r = subprocess.run([sys.executable, "-c", MEMORY_PROBE, str(n), str(out)],
                           capture_output=True, text=True)
        code, peak[n] = map(int, r.stdout.split())
        assert code == 0, r.stderr
    assert json.loads(out.read_text())["records"][-1]["p"] == 99991
    assert peak[100_000] <= 1.1 * peak[10_000], peak


@pytest.mark.parametrize("argv, limit", [
    (("scan", "frobenius2", "frobenius3", "--format", "csv"), 10**10),
    (("frobenius", "frobenius3"), 10**12),
])
def test_limit_above_the_sieve_bound_is_refused_before_output(tmp_path, capsys, argv, limit):
    out = tmp_path / "huge.csv"
    tracemalloc.start()
    start = time.perf_counter()
    code = cli.main([*argv, "--limit", str(limit), "--out", str(out)])
    elapsed = time.perf_counter() - start
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert (code, out.exists()) == (2, False)
    assert elapsed < 1
    assert peak < 2**23, peak  # no sieve was allocated
    assert capsys.readouterr() == (
        "", f"g2cert: limit {limit} is above the sieve bound {SIEVE_LIMIT}\n"
    )


# block-buffered stdout, as under a shell, whatever the environment sets
BUFFERED_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}


@pytest.mark.parametrize("argv", [
    ("frobenius", "frobenius2"),
    ("scan", "frobenius2", "frobenius3"),
])
def test_a_reader_that_goes_away_ends_the_command_quietly(argv):
    # the reader takes one line and closes the pipe while the command still
    # writes: both reports to 10^5 are several times what a pipe holds
    proc = subprocess.Popen(
        [sys.executable, "-m", "g2cert", *argv, "--limit", "100000", "--format", "csv"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=BUFFERED_ENV,
    )
    assert proc.stdout.readline().startswith(b"p,")
    proc.stdout.close()
    stderr = proc.stderr.read()
    assert (proc.wait(), stderr) == (2, b"")


def test_a_pipe_without_a_reader_fails_quietly_at_the_last_flush():
    # the whole report fits in stdout's buffer, so its first write to the
    # pipe is the command's own flush at the end, before interpreter exit
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        r = subprocess.run([sys.executable, "-m", "g2cert", "frobenius", "frobenius2", "--prime", "7"],
                           stdout=write_end, stderr=subprocess.PIPE, env=BUFFERED_ENV)
    finally:
        os.close(write_end)
    assert (r.returncode, r.stderr) == (2, b"")
