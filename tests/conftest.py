import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from g2cert.certify import Pair
from g2cert.polyfile import bundled_polyfile
from g2cert.reduction import ReductionContext


@pytest.fixture(scope="session")
def bundle_a():
    return bundled_polyfile("frobenius2")


@pytest.fixture(scope="session")
def bundle_b():
    return bundled_polyfile("frobenius3")


@pytest.fixture(scope="session")
def ctx_a(bundle_a):
    return ReductionContext.from_polyfile(bundle_a)


@pytest.fixture(scope="session")
def ctx_b(bundle_b):
    return ReductionContext.from_polyfile(bundle_b)


@pytest.fixture(scope="session")
def bundled_pair(ctx_a, ctx_b):
    return Pair(ctx_a, ctx_b)


@pytest.fixture(scope="session")
def sextic_a(ctx_a):
    return ctx_a.sextic


@pytest.fixture(scope="session")
def sextic_b(ctx_b):
    return ctx_b.sextic


@pytest.fixture(scope="session")
def pair_a(ctx_a):
    return ctx_a.pair


@pytest.fixture(scope="session")
def pair_b(ctx_b):
    return ctx_b.pair
