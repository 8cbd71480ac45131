import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2cert.palindromic import g2_lift_check
from g2cert.poly import RatPoly
from g2cert.weyl import (
    CLASS_LABELS,
    FROBENIUS_LOOKUP,
    WEYL_CLASSES,
    WeylClassInfo,
    torus_order,
    torus_poly_str,
)
from oracles import (
    WeylElement,
    cubic_model,
    derive_weyl_classes,
    enumerate_weyl,
    inflate_palindromic,
    rat_mul,
)

elements = st.sampled_from(enumerate_weyl())


def test_group_has_twelve_elements():
    elems = enumerate_weyl()
    assert len(elems) == 12
    assert len(set(elems)) == 12


@given(elements, elements, elements)
@settings(max_examples=100, deadline=None)
def test_compose_associative(a, b, c):
    assert a.compose(b).compose(c) == a.compose(b.compose(c))


@given(elements)
@settings(max_examples=50, deadline=None)
def test_inverse_and_identity(a):
    e = WeylElement.identity()
    assert a.compose(a.inverse()) == e
    assert a.inverse().compose(a) == e
    assert a.compose(e) == a


@given(elements)
@settings(max_examples=50, deadline=None)
def test_order_divides_group_order(a):
    assert 12 % a.order() == 0
    acc = WeylElement.identity()
    for _ in range(a.order()):
        acc = acc.compose(a)
    assert acc == WeylElement.identity()


@given(elements, elements)
@settings(max_examples=100, deadline=None)
def test_epsilon_characters_multiplicative(a, b):
    ab = a.compose(b)
    assert ab.epsilon() == a.epsilon() * b.epsilon()
    assert ab.epsilon_prime() == a.epsilon_prime() * b.epsilon_prime()


# each shipped column and the model's name for it; the model keeps its own
# names so that the derived table stays independent of weyl.py
SHIPPED_TO_MODEL = {
    "weyl_class": "label",
    "y_pattern": "pattern_on_y",
    "chi_delta_prime": "epsilon_prime",
    "chi_delta": "epsilon",
    "x_pattern": "pattern_on_x",
    "torus_poly": "torus_poly",
}


def test_class_table():
    # the shipped table is the one the group model derives, column by column
    derived = derive_weyl_classes()
    assert tuple(derived) == tuple(WEYL_CLASSES) == CLASS_LABELS
    assert tuple(f.name for f in dataclasses.fields(WeylClassInfo)) == tuple(SHIPPED_TO_MODEL)
    for label, shipped in WEYL_CLASSES.items():
        for column, model in SHIPPED_TO_MODEL.items():
            assert getattr(shipped, column) == getattr(derived[label], model), (label, column)
    assert tuple(c.size for c in derived.values()) == (1, 3, 3, 1, 2, 2)
    assert tuple(c.element_order for c in derived.values()) == (1, 2, 2, 2, 3, 6)
    assert sum(c.size for c in derived.values()) == 12


def test_torus_polynomials_symbolic():
    # ascending coefficient tuples (constant, linear, quadratic)
    expected = {
        "1a": (1, -2, 1),
        "2a": (-1, 0, 1),
        "2b": (-1, 0, 1),
        "2c": (1, 2, 1),
        "3a": (1, 1, 1),
        "6a": (1, -1, 1),
    }
    for cls in WEYL_CLASSES.values():
        assert cls.torus_poly == expected[cls.weyl_class], cls.weyl_class
    assert torus_poly_str("1a") == "(q - 1)^2"
    assert torus_poly_str("6a") == "q^2 - q + 1"


def test_torus_poly_matches_matrix_trace_det():
    # the quadratic is x^2 - tr(M) x + det(M) for the 2x2 action M
    for w in enumerate_weyl():
        m = w.matrix()
        tr = m[0][0] + m[1][1]
        det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        assert w.torus_poly() == (det, -tr, 1)
        assert det in (-1, 1)  # the action is by lattice automorphisms


def test_x_pattern_and_y_pattern_by_class():
    want = {
        "1a": ((1, 1, 1), (1, 1, 1, 1, 1, 1)),
        "2a": ((1, 2), (1, 1, 2, 2)),
        "2b": ((1, 2), (2, 2, 2)),
        "2c": ((1, 1, 1), (2, 2, 2)),
        "3a": ((3,), (3, 3)),
        "6a": ((3,), (6,)),
    }
    for cls in WEYL_CLASSES.values():
        assert (cls.y_pattern, cls.x_pattern) == want[cls.weyl_class], cls.weyl_class


def test_frobenius_lookup_is_a_bijection():
    assert len(FROBENIUS_LOOKUP) == 6
    assert {info.weyl_class for info in FROBENIUS_LOOKUP.values()} == set(CLASS_LABELS)
    # the key really determines the class: chi(delta') with the y-pattern
    for (pattern, chi_dp), info in FROBENIUS_LOOKUP.items():
        assert info.y_pattern == pattern
        assert info.chi_delta_prime == chi_dp


def test_torus_orders_at_small_q():
    assert [torus_order(lbl, 2) for lbl in CLASS_LABELS] == [1, 3, 3, 9, 7, 3]
    assert [torus_order(lbl, 5) for lbl in CLASS_LABELS] == [16, 24, 24, 36, 31, 21]
    assert torus_order("6a", 29) == 29**2 - 29 + 1 == 813
    assert torus_order("3a", 29) == 29**2 + 29 + 1 == 871


def test_torus_order_rejects_small_q():
    with pytest.raises(ValueError):
        torus_order("1a", 1)


def test_torus_order_of_each_element():
    # every element, looked up by its two witnesses, gets its own
    # characteristic polynomial at q
    for w in enumerate_weyl():
        info = FROBENIUS_LOOKUP[(w.cycle_type_on_y(), w.epsilon_prime())]
        c0, c1, c2 = w.torus_poly()
        assert torus_order(info.weyl_class, 7) == c2 * 49 + c1 * 7 + c0
        assert (info.chi_delta, info.x_pattern) == (w.epsilon(), w.pattern_on_x())


def test_conjugacy_classes_are_closed():
    # brute-force conjugation partition must match the published table
    elems = enumerate_weyl()
    seen = set()
    sizes = []
    for a in elems:
        if a in seen:
            continue
        orbit = {g.compose(a).compose(g.inverse()) for g in elems}
        seen |= orbit
        sizes.append(len(orbit))
    assert sorted(sizes) == [1, 1, 2, 2, 3, 3]


def test_characteristic_poly_lift(ctx_a, bundle_a):
    # lifting the reduced cubic rebuilds the original degree-7 input exactly
    # as (x - 1) x^3 Q(x + 1/x), since Q satisfies the unit-product constraint
    assert g2_lift_check(ctx_a.model)
    lifted = rat_mul(inflate_palindromic(ctx_a.q), RatPoly.from_coeffs([-1, 1]))
    assert lifted.degree == 7
    assert lifted == bundle_a.poly()
    # y^3 violates the unit-product constraint (0 != 4)
    assert not g2_lift_check(cubic_model(RatPoly.from_coeffs([0, 0, 0, 1])))
