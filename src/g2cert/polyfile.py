"""Polynomial input files: JSON with exact rational coefficient strings.

The on-disk form is tiny and human-diffable; coefficients are canonical
"num/den" strings so nothing ever passes through floating point.  A file
parses to a monic polynomial or fails with a diagnostic naming the field.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass
from importlib import resources

from .arith import is_prime, parse_rational
from .poly import RatPoly

BUNDLED_NAMES = ("frobenius2", "frobenius3")


class PolyFileError(ValueError):
    """Malformed polynomial file; message carries the offending field."""


@dataclass(frozen=True)
class PolyFile:
    name: str
    steinberg_prime: int
    variable: str
    coefficients: tuple[str, ...]

    def poly(self) -> RatPoly:
        return self._poly

    @functools.cached_property
    def _poly(self) -> RatPoly:
        # each coefficient string is parsed once, here; equality and the
        # digest read the fields only
        parsed = []
        for i, c in enumerate(self.coefficients):
            if not isinstance(c, str):
                raise PolyFileError(f"coefficients[{i}] must be a string")
            try:
                parsed.append(parse_rational(c))
            except ValueError as e:
                raise PolyFileError(f"coefficients[{i}]: {e}") from e
        return RatPoly.from_coeffs(parsed)

    @functools.cached_property
    def digest(self) -> str:
        """sha256 of the canonical serialization, computed once per PolyFile."""
        return hashlib.sha256(serialize_polyfile(self).encode("utf-8")).hexdigest()


def parse_polyfile(text: str) -> PolyFile:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise PolyFileError(f"invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}") from e
    if not isinstance(raw, dict):
        raise PolyFileError("top level must be an object")
    for key, kind in (
        ("name", str),
        ("steinberg_prime", int),
        ("variable", str),
        ("coefficients", list),
    ):
        if key not in raw:
            raise PolyFileError(f"missing field {key!r}")
        if not isinstance(raw[key], kind) or isinstance(raw[key], bool):
            raise PolyFileError(f"field {key!r} must be a {kind.__name__}")
    if not is_prime(raw["steinberg_prime"]):
        raise PolyFileError(f"field 'steinberg_prime' must be prime, got {raw['steinberg_prime']}")
    pf = PolyFile(
        name=raw["name"],
        steinberg_prime=raw["steinberg_prime"],
        variable=raw["variable"],
        coefficients=tuple(raw["coefficients"]),
    )
    if not pf.poly().is_monic():
        raise PolyFileError("field 'coefficients' must describe a monic polynomial")
    return pf


def serialize_polyfile(pf: PolyFile) -> str:
    """Canonical bytes: fixed key order, 2-space indent, trailing newline."""
    doc = {
        "name": pf.name,
        "steinberg_prime": pf.steinberg_prime,
        "variable": pf.variable,
        "coefficients": list(pf.coefficients),
    }
    return json.dumps(doc, indent=2) + "\n"


def load_polyfile(path: str) -> PolyFile:
    with open(path, encoding="utf-8") as fh:
        return parse_polyfile(fh.read())


@functools.cache
def bundled_polyfile(name: str) -> PolyFile:
    """One of the two characteristic polynomials shipped with the package.

    Parsed once per process; an unknown name raises on every call (the
    cache keeps no exceptions).
    """
    if name not in BUNDLED_NAMES:
        raise ValueError(f"no bundled polynomial {name!r}; have {BUNDLED_NAMES}")
    text = resources.files(__package__).joinpath(f"data/{name}.json").read_text("utf-8")
    return parse_polyfile(text)
