"""Command line surface.

Subcommands: reduce, frobenius, certify, scan, torus-orders, reproduce.
All output is exact (rationals as strings, densities as fraction plus a
decimal rendering) and deterministic: the same inputs and flags produce
byte-identical bytes.  Exit codes: 0 all checks pass, 1 mathematical
precondition or certification failure, 2 usage or I/O error.

`frobenius` and `scan` stream records through one writer, `_Report`.  JSON
is `{`, a line per head field, `"records": [`, the records joined by
`,\n    `, `\n  ]` (`]` if none), a line per tail field, `}`; each value is
json.dumps(value, indent=indent) with its newlines padded to its depth
(indent=2 gives json.dumps(doc, indent=2), indent=None a compact line per
value).  CSV is the column names, a row per record, `# <json>` per tail value.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import sys
from fractions import Fraction
from typing import Any

from . import __version__
from .arith import primes_up_to, require_proven_prime, require_sievable
from .certify import (
    PREDICTED_PATTERN_DENSITY,
    VERDICT_CERTIFIED,
    CertificationReport,
    Pair,
    certify_prime,
    scan,
)
from .errors import G2CertError
from .golden import EXPECTED, INDEPENDENT, TORUS_TABLE
from .palindromic import TAG_D6
from .poly import format_poly
from .polyfile import (
    BUNDLED_NAMES,
    PolyFile,
    PolyFileError,
    bundled_polyfile,
    digest,
    load_polyfile,
)
from .reduction import ReductionContext
from .weyl import CLASS_LABELS, torus_order, torus_poly_str

SCHEMA = "g2cert-report-1"


# ---------------------------------------------------------------------------
# shared plumbing


def _load_input(arg: str) -> PolyFile:
    """A path, or one of the bundled names as a convenience."""
    if arg in BUNDLED_NAMES:
        return bundled_polyfile(arg)
    return load_polyfile(arg)


def _decimal(fr: Fraction, places: int = 6) -> str:
    sign = "-" if fr < 0 else ""
    fr = abs(fr)
    scaled = (fr.numerator * 10**places * 2 + fr.denominator) // (2 * fr.denominator)
    whole, part = divmod(scaled, 10**places)
    return f"{sign}{whole}.{part:0{places}d}"


def _density_doc(fr: Fraction) -> dict:
    return {"fraction": f"{fr.numerator}/{fr.denominator}", "decimal": _decimal(fr)}


def _head(command: str) -> dict:
    """The fields every report document opens with."""
    return {"schema": SCHEMA, "version": __version__, "command": command}


def _input_doc(pf: PolyFile) -> dict:
    return {
        "name": pf.name,
        "steinberg_prime": pf.steinberg_prime,
        "digest": digest(pf),
    }


@contextlib.contextmanager
def _output(path: str | None):
    """stdout for no path or "-", else the file at path, closed on exit."""
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh


def _write_json(doc: Any, path: str | None) -> None:
    # encoded before the file is opened, so a failed encode leaves no
    # partial file, and written in one call
    text = json.dumps(doc, indent=2) + "\n"
    with _output(path) as out:
        out.write(text)


class _Report:
    """A report streamed as the module docstring lays out; render maps a record to its value."""

    def __init__(self, out, fmt: str, head: dict, columns: tuple, render, indent: int | None):
        self.out, self.render, self.indent, self.sep = out, render, indent, ""
        self.rows = csv.writer(out, lineterminator="\n") if fmt == "csv" else None
        if self.rows is not None:
            self.rows.writerow(columns)
        else:
            fields = "".join(f"{self._field(k, v)},\n" for k, v in head.items())
            out.write("{\n" + fields + '  "records": [')

    def _dumps(self, value: Any, pad: str) -> str:
        return json.dumps(value, indent=self.indent).replace("\n", "\n" + pad)

    def _field(self, key: str, value: Any) -> str:
        return f"  {json.dumps(key)}: {self._dumps(value, '  ')}"

    def record(self, r: Any) -> None:
        if self.rows is not None:
            self.rows.writerow(self.render(r))
        else:
            self.out.write(f"{self.sep}\n    {self._dumps(self.render(r), '    ')}")
            self.sep = ","

    def close(self, tail: dict) -> None:
        if self.rows is not None:
            self.out.write("".join(f"# {json.dumps(v)}\n" for v in tail.values()))
        else:
            end = "".join(",\n" + self._field(k, v) for k, v in tail.items())
            self.out.write(("\n  ]" if self.sep else "]") + end + "\n}\n")


def _excluded_doc(excluded: dict[int, str]) -> list[dict]:
    return [{"p": p, "reason": why} for p, why in excluded.items()]


def _exceeds(order: int) -> dict[str, bool]:
    """Whether the exact order is above 3 and above 19, strictly."""
    return {str(b): order > b for b in (3, 19)}


def _order_doc(order: int) -> dict:
    """The order evidence of one element, as frobenius and certify print it."""
    # always true: order_report raises WitnessMismatchError unless V_torus = 2,
    # so every order it returns divides the torus order
    return {"exact_order": order, "order_divides_torus": True, "exceeds": _exceeds(order)}


# ---------------------------------------------------------------------------
# reduce


def cmd_reduce(args: argparse.Namespace) -> int:
    pf = _load_input(args.input)
    ctx = ReductionContext.from_polyfile(pf)
    doc = {
        **_head("reduce"),
        "input": _input_doc(pf),
        "characteristic_poly": list(pf.coefficients),
        "sextic": ctx.sextic.to_strings(),
        "sextic_str": format_poly(ctx.sextic.coeffs, "x"),
        "cubic": ctx.q.to_strings(),
        "cubic_str": format_poly(ctx.q.coeffs, "y"),
        "cubic_at_2": str(ctx.q_at_2),
        "cubic_at_minus_2": str(ctx.q_at_minus_2),
        "discriminant": str(ctx.delta),
        "discriminant_product": str(ctx.delta_prime),
        "squarefree_kernels": sorted(ctx.square_kernels),
        "ramified_primes": sorted(ctx.ramified),
        "classification": ctx.tag,
        "evidence": ctx.evidence,
        "tempered": ctx.tempered,
        "unit_product": ctx.unit_product,
    }
    if ctx.tag == TAG_D6:
        doc["excluded_primes"] = _excluded_doc(ctx.excluded)
    _write_json(doc, args.out)
    return 0 if ctx.tag == TAG_D6 and ctx.tempered else 1


# ---------------------------------------------------------------------------
# frobenius


_FROBENIUS_COLUMNS = ("p", "y_pattern", "chi_delta_prime", "chi_delta", "weyl_class",
                      "torus_order", "exact_order", "excluded")


def _frobenius_record(ctx: ReductionContext, p: int) -> dict:
    """The record of a proven prime p: its exclusion, or its class and order evidence."""
    why = ctx.exclusion(p)
    if why is not None:
        return {"p": p, "excluded": why}
    cls = ctx.classify(p, checked=True)
    return {
        "p": p,
        "y_pattern": list(cls.y_pattern),
        "chi_delta_prime": cls.chi_delta_prime,
        "chi_delta": cls.chi_delta,
        "weyl_class": cls.weyl_class,
        "torus_order": torus_order(cls.weyl_class, p),
        "x_pattern": list(cls.x_pattern),
        **_order_doc(ctx.order_report(p, cls, checked=True)),
    }


def _frobenius_row(r: dict) -> list:
    """A record's CSV row: absent fields empty, the y-pattern joined by +."""
    r = {**r, "y_pattern": "+".join(map(str, r.get("y_pattern", ())))}
    return [r.get(c, "") for c in _FROBENIUS_COLUMNS]


def cmd_frobenius(args: argparse.Namespace) -> int:
    pf = _load_input(args.input)
    ctx = ReductionContext.from_polyfile(pf)
    ctx.require_d6()
    if args.prime is None:
        primes = primes_up_to(args.limit)
    else:
        require_proven_prime(args.prime)
        primes = [args.prime]
    head = {**_head("frobenius"), "input": _input_doc(pf)}
    render = _frobenius_row if args.format == "csv" else (lambda r: r)
    with _output(args.out) as out:
        report = _Report(out, args.format, head, _FROBENIUS_COLUMNS, render, indent=2)
        for p in primes:
            report.record(_frobenius_record(ctx, p))
        report.close({})
    return 0


# ---------------------------------------------------------------------------
# certify


def _record_doc(r: CertificationReport) -> dict:
    """One prime of a pair: a scan record, and the body of a certify report."""
    doc: dict[str, Any] = {
        "p": r.p,
        "class_a": r.class_a,
        "class_b": r.class_b,
        "order_a": r.order_a,
        "order_b": r.order_b,
        "verdict": r.verdict,
    }
    if r.evidence_a is not None and r.evidence_b is not None:
        doc["y_pattern_a"] = list(r.evidence_a.y_pattern)
        doc["y_pattern_b"] = list(r.evidence_b.y_pattern)
        doc["chi_delta_a"] = r.evidence_a.chi_delta
        doc["chi_delta_b"] = r.evidence_b.chi_delta
        doc["chi_delta_prime_a"] = r.evidence_a.chi_delta_prime
        doc["chi_delta_prime_b"] = r.evidence_b.chi_delta_prime
    if r.excluded_subgroups:
        doc["reasons"] = [f"{label}: {why}" for label, why in r.excluded_subgroups]
    return doc


def cmd_certify(args: argparse.Namespace) -> int:
    pf_a = _load_input(args.input_a)
    pf_b = _load_input(args.input_b)
    report = certify_prime(Pair.from_files(pf_a, pf_b), args.prime)
    doc = {**_head("certify"), "inputs": {"a": _input_doc(pf_a), "b": _input_doc(pf_b)}}
    doc.update(_record_doc(report))
    if report.note:
        doc["note"] = report.note
    for side, ev, order in (
        ("a", report.evidence_a, report.order_a),
        ("b", report.evidence_b, report.order_b),
    ):
        if ev is not None:
            doc[f"x_pattern_{side}"] = list(ev.x_pattern)
            doc[f"torus_order_{side}"] = torus_order(ev.weyl_class, report.p)
        if order is not None:
            doc[f"order_evidence_{side}"] = _order_doc(order)
    _write_json(doc, args.out)
    return 0 if report.verdict == VERDICT_CERTIFIED else 1


# ---------------------------------------------------------------------------
# scan


def _summary_doc(summary) -> dict:
    return {
        "limit": summary.limit,
        "primes_total": summary.primes_total,
        "excluded_count": summary.excluded_count,
        "scanned": summary.scanned,
        "verdict_counts": dict(summary.verdict_counts),
        "class_counts_a": dict(summary.class_counts_a),
        "class_counts_b": dict(summary.class_counts_b),
        "pattern_count": summary.pattern_count,
        "certified_count": len(summary.certified),
        "certified": list(summary.certified),
        "density": _density_doc(summary.density),
        "density_all": _density_doc(summary.density_all),
        "pattern_density": _density_doc(summary.pattern_density),
        "predicted_pattern_density": _density_doc(PREDICTED_PATTERN_DENSITY),
    }


def _scan_row(r: CertificationReport) -> list:
    return [r.p, r.class_a, r.class_b, "" if r.order_a is None else r.order_a,
            "" if r.order_b is None else r.order_b, r.verdict]


def cmd_scan(args: argparse.Namespace) -> int:
    require_sievable(args.limit)
    pf_a = _load_input(args.input_a)
    pf_b = _load_input(args.input_b)
    pair = Pair.from_files(pf_a, pf_b)
    if args.format == "csv":  # CSV has no head, so it never factors for excluded_primes
        head, render = {}, _scan_row
    else:
        head = {
            **_head("scan"),
            "inputs": {"a": _input_doc(pf_a), "b": _input_doc(pf_b)},
            "parameters": {"limit": args.limit, "excluded_primes": _excluded_doc(pair.excluded)},
        }
        render = _record_doc
    columns = ("p", "class_A", "class_B", "order_A", "order_B", "verdict")
    with _output(args.out) as out:
        report = _Report(out, args.format, head, columns, render, indent=None)
        summary = scan(pair, args.limit, record_sink=report.record, jobs=args.jobs)
        report.close({"summary": _summary_doc(summary)})
    return 0


# ---------------------------------------------------------------------------
# torus-orders


def cmd_torus_orders(args: argparse.Namespace) -> int:
    if args.q is not None and args.q < 2:
        raise ValueError("q must be at least 2")
    rows = []
    for label in CLASS_LABELS:
        row: dict[str, Any] = {"class": label, "polynomial": torus_poly_str(label)}
        if args.q is not None:
            row["value"] = torus_order(label, args.q)
        rows.append(row)
    if args.format == "json":
        _write_json({**_head("torus-orders"), "q": args.q, "rows": rows}, args.out)
        return 0
    width = max(len(r["polynomial"]) for r in rows)
    with _output(args.out) as out:
        for row in rows:
            line = f'{row["class"]}  {row["polynomial"]:<{width}}'
            if args.q is not None:
                line += f'  {row["value"]}'
            out.write(line.rstrip() + "\n")
    return 0


# ---------------------------------------------------------------------------
# reproduce


def cmd_reproduce(args: argparse.Namespace) -> int:
    if args.inputs and len(args.inputs) != 2:
        raise ValueError("reproduce takes either no inputs or exactly two")
    names = args.inputs if args.inputs else list(BUNDLED_NAMES)
    failures: list[str] = []
    analyses = []
    with _output(args.out) as out:

        def mismatch(field: str, why: str) -> None:
            failures.append(field)
            out.write(f"MISMATCH {field}: {why}\n")

        def compare(field: str, expected, got) -> None:
            if expected == got:
                out.write(f"ok {field}\n")
            else:
                mismatch(field, f"expected {expected!r}, got {got!r}")

        for arg in names:
            pf = _load_input(arg)
            if pf.name not in EXPECTED:
                raise PolyFileError(f"no expected values for input named {pf.name!r}")
            want = EXPECTED[pf.name]
            try:
                ctx = ReductionContext.from_polyfile(pf)
            except G2CertError as e:
                mismatch(f"{pf.name}.pipeline", str(e))
                continue
            analyses.append(ctx)
            for field, got in (
                ("sextic_coefficients", ctx.sextic.coeffs),
                ("cubic_coefficients", ctx.q.coeffs),
                ("cubic_at_2", ctx.q_at_2),
                ("cubic_at_minus_2", ctx.q_at_minus_2),
                ("discriminant", ctx.delta),
                ("discriminant_product", ctx.delta_prime),
                ("classification", ctx.tag),
                ("tempered", ctx.tempered),
                ("unit_product", ctx.unit_product),
                ("squarefree_kernels", ctx.square_kernels),
            ):
                compare(f"{pf.name}.{field}", want[field], got)
            if ctx.tag == TAG_D6:
                compare(f"{pf.name}.excluded_primes", want["excluded_primes"], tuple(ctx.excluded))
            else:
                mismatch(f"{pf.name}.excluded_primes", f"not computable, classification is {ctx.tag}")
        if len(analyses) == 2:
            a, b = analyses
            try:
                Pair(a, b)
                compare("pair.independent", INDEPENDENT, True)
            except G2CertError as e:
                mismatch("pair.independent", str(e))
        for label, (poly_str, at2, at5) in TORUS_TABLE.items():
            compare(f"torus.{label}.polynomial", poly_str, torus_poly_str(label))
            compare(f"torus.{label}.at_2", at2, torus_order(label, 2))
            compare(f"torus.{label}.at_5", at5, torus_order(label, 5))
        if failures:
            out.write(f"FAILED: {len(failures)} mismatched field(s): {', '.join(failures)}\n")
            return 1
        out.write("all values reproduced exactly\n")
        return 0


# ---------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument tree, built once per process: it depends only on the code."""
    ap = argparse.ArgumentParser(
        prog="g2cert",
        description="Exact certification pipeline for Frobenius class data "
        "of palindromic characteristic polynomials.",
    )
    ap.add_argument("--version", action="version", version=f"g2cert {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def common_out(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("reduce", help="palindromic reduction and Galois analysis of one input")
    p.add_argument("input", help="polynomial file path or bundled name")
    common_out(p)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("frobenius", help="per-prime Frobenius class records for one input")
    p.add_argument("input")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--prime", type=int, help="single prime")
    group.add_argument("--limit", type=int, help="all primes up to this bound")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    common_out(p)
    p.set_defaults(func=cmd_frobenius)

    p = sub.add_parser("certify", help="generation certificate for a pair at one prime")
    p.add_argument("input_a")
    p.add_argument("input_b")
    p.add_argument("--prime", type=int, required=True)
    common_out(p)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("scan", help="certify all primes up to a bound")
    p.add_argument("input_a")
    p.add_argument("input_b")
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--jobs", type=int, default=1, help="worker processes (output unchanged)")
    common_out(p)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("torus-orders", help="the six finite torus orders, symbolic or at q")
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")
    common_out(p)
    p.set_defaults(func=cmd_torus_orders)

    p = sub.add_parser("reproduce", help="recompute the bundled tables and diff against "
                       "the frozen expected values")
    p.add_argument("inputs", nargs="*", help="override the two bundled inputs")
    common_out(p)
    p.set_defaults(func=cmd_reproduce)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except (PolyFileError, OSError) as e:
        print(f"g2cert: {e}", file=sys.stderr)
        return 2
    except G2CertError as e:
        print(f"g2cert: {e}", file=sys.stderr)
        return 1
    except ValueError as e:
        print(f"g2cert: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
