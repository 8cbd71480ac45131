"""Frozen expected values for the bundled polynomials.

Everything here is stated in exact arithmetic and compared bit-for-bit
by the reproduce command and the regression tests.  Keys mirror the
fields emitted by the analysis pipeline, one block per bundled input.
"""

from __future__ import annotations

from fractions import Fraction

# expected[name][field]; rationals as Fraction, coefficient lists ascending
EXPECTED: dict[str, dict] = {
    "frobenius2": {
        "sextic_coefficients": (
            Fraction(1),
            Fraction(5, 4),
            Fraction(1, 4),
            Fraction(-9, 16),
            Fraction(1, 4),
            Fraction(5, 4),
            Fraction(1),
        ),
        "cubic_coefficients": (
            Fraction(-49, 16),
            Fraction(-11, 4),
            Fraction(5, 4),
            Fraction(1),
        ),
        "cubic_at_2": Fraction(71, 16),
        "cubic_at_minus_2": Fraction(-9, 16),
        "discriminant": Fraction(71 * 199, 2**8),
        "discriminant_product": Fraction(-639, 256),
        "classification": "D6",
        "tempered": True,
        "unit_product": True,
        "squarefree_kernels": frozenset({14129, -71, -199}),
        "excluded_primes": (2, 3, 5, 71, 199),
    },
    "frobenius3": {
        "sextic_coefficients": (
            Fraction(1),
            Fraction(-2, 27),
            Fraction(157, 243),
            Fraction(-628, 729),
            Fraction(157, 243),
            Fraction(-2, 27),
            Fraction(1),
        ),
        "cubic_coefficients": (
            Fraction(-520, 729),
            Fraction(-572, 243),
            Fraction(-2, 27),
            Fraction(1),
        ),
        "cubic_at_2": Fraction(2**7 * 13, 3**6),
        "cubic_at_minus_2": Fraction(-(2**6) * 7**2, 3**6),
        "discriminant": Fraction(2**14 * 13 * 7321, 3**16),
        "discriminant_product": Fraction(-(2**13) * 7**2 * 13, 3**12),
        "classification": "D6",
        "tempered": True,
        "unit_product": True,
        "squarefree_kernels": frozenset({95173, -26, -14642}),
        "excluded_primes": (2, 3, 5, 7, 13, 7321),
    },
}

# torus order table: label -> (display form, value at q = 2, value at q = 5)
TORUS_TABLE = {
    "1a": ("(q - 1)^2", 1, 16),
    "2a": ("q^2 - 1", 3, 24),
    "2b": ("q^2 - 1", 3, 24),
    "2c": ("(q + 1)^2", 9, 36),
    "3a": ("q^2 + q + 1", 7, 31),
    "6a": ("q^2 - q + 1", 3, 21),
}
