"""The public names, and the names perfbench/ imports or wraps, still exist.

perfbench/ resolves these at run time, so removing one would otherwise only
show up as a failed or silently thinner benchmark run.
"""

import g2cert
import g2cert.cli
import g2cert.reduction
from g2cert.reduction import ReductionContext


def test_every_public_name_resolves():
    missing = [name for name in g2cert.__all__ if not hasattr(g2cert, name)]
    assert missing == []


def test_names_used_by_perfbench_exist():
    for name in ("bundled_polyfile", "deflate_root_one", "frobenius_class"):
        assert callable(getattr(g2cert, name)), name
    # the per-layer tracer wraps the binding reduction.py calls, and tells
    # the cubic from the sextic by the degree of its first argument
    assert callable(g2cert.reduction.degree_pattern)
    assert callable(ReductionContext.classify)
    assert callable(ReductionContext.order_report)
    assert callable(g2cert.cli.main)


def test_classify_sends_one_cubic_and_one_sextic_through_the_binding(ctx_a, monkeypatch):
    # the tracer splits this binding's spans by degree into the
    # poly.degree_pattern.cubic/sextic stages; a classify that stopped
    # calling it would leave both stages silently absent
    degrees = []
    original = g2cert.reduction.degree_pattern

    def counting(f):
        degrees.append(f.degree)
        return original(f)

    monkeypatch.setattr(g2cert.reduction, "degree_pattern", counting)
    ctx_a.classify(101)
    assert degrees == [3, 6]
