"""The public names, and the names perfbench/ imports or wraps, still exist.

perfbench/ resolves these at run time, so removing one would otherwise only
show up as a failed or silently thinner benchmark run.  The export list is
pinned, so a change to it is a deliberate edit here.
"""

import importlib

import g2cert
import g2cert.cli
import g2cert.reduction

PUBLIC_API = {
    "__version__",
    "G2CertError",
    "NotMonicError",
    "NotPalindromicError",
    "NotSeparableError",
    "ExcludedPrimeError",
    "WitnessMismatchError",
    "RatPoly",
    "deflate_root_one",
    "PalindromicPair",
    "GaloisClassification",
    "palindromic_reduce",
    "separability_check",
    "ramified_primes",
    "temperedness_check",
    "g2_lift_check",
    "classify_galois",
    "CLASS_LABELS",
    "WEYL_CLASSES",
    "WeylClassInfo",
    "torus_order",
    "ReductionContext",
    "frobenius_class",
    "BOUNDED_SUBGROUPS",
    "VERDICT_CERTIFIED",
    "CertificationReport",
    "Pair",
    "ScanSummary",
    "certify_prime",
    "scan",
    "PolyFile",
    "parse_polyfile",
    "load_polyfile",
    "bundled_polyfile",
}

# (module, attribute path) of every binding perfbench/tracing.py wraps that
# exists; the tracer lists a missing one as absent instead of failing
TRACED_BINDINGS = (
    ("g2cert.cli", "main"),
    ("g2cert.cli", "load_polyfile"),
    ("g2cert.cli", "certify_prime"),
    ("g2cert.cli", "scan"),
    ("g2cert.certify", "primes_up_to"),
    ("g2cert.reduction", "palindromic_reduce"),
    ("g2cert.reduction", "classify_galois"),
    ("g2cert.reduction", "ramified_primes"),
    ("g2cert.reduction", "factor_integer"),
    ("g2cert.reduction", "ReductionContext.classify"),
    ("g2cert.reduction", "ReductionContext.order_report"),
    ("g2cert.palindromic", "classify_galois"),
    ("g2cert.palindromic", "factor_integer"),
    ("g2cert.palindromic", "squarefree_kernel"),
    ("g2cert.arith", "factor_integer"),
    ("g2cert.arith", "squarefree_kernel"),
)


def test_every_public_name_resolves():
    missing = [name for name in g2cert.__all__ if not hasattr(g2cert, name)]
    assert missing == []


def test_public_api_is_pinned():
    assert len(g2cert.__all__) == len(set(g2cert.__all__))
    assert set(g2cert.__all__) == PUBLIC_API


def test_names_used_by_perfbench_exist(sextic_a):
    for name in ("bundled_polyfile", "deflate_root_one", "frobenius_class"):
        assert callable(getattr(g2cert, name)), name
    # perfbench/primes.py draws the certify-coxeter primes by this attribute
    assert g2cert.frobenius_class(sextic_a, 29).weyl_class == "3a"
    # the per-layer tracer wraps the binding each caller looks up
    for module, path in TRACED_BINDINGS:
        owner = importlib.import_module(module)
        for part in path.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (module, path)


def test_classify_runs_one_frobenius_pass(ctx_a, monkeypatch):
    # both patterns, Q's and P's, are read off one pass over the bits of p;
    # a second pass would be the per-pattern ladder that classify replaced
    calls = []
    original = g2cert.reduction._frobenius

    def counting(p, q):
        calls.append(p)
        return original(p, q)

    monkeypatch.setattr(g2cert.reduction, "_frobenius", counting)
    ctx_a.classify(101)
    assert calls == [101]
