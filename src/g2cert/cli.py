"""Command line surface.

Subcommands: reduce, frobenius, certify, scan, torus-orders, reproduce.
All output is exact (rationals as strings, densities as fraction plus a
decimal rendering) and deterministic: the same inputs and flags produce
byte-identical bytes.  Exit codes: 0 all checks pass, 1 mathematical
precondition or certification failure, 2 usage or I/O error, and 2 with no
message when the reader of stdout goes away.

`frobenius` and `scan` loop over one generator, `certify.sweep`, and stream
its records through one writer, `_Report`.  JSON is `{`, a line per head
field, `"records": [`, the records joined by `,\n    `, `\n  ]` (`]` if
none), a line per tail field, `}`; each value is json.dumps(value,
indent=indent) with its newlines padded to its depth (indent=2 gives
json.dumps(doc, indent=2), indent=None a compact line per value).  CSV is
the column names, a row per record, `# <json>` per tail value.

One input at one prime has one evidence shape, `_evidence`.  A `frobenius`
record is p and that evidence; a `certify` report carries each side's under
the same names with an `_a`/`_b` suffix (`class_a`, `order_evidence_a` for
the class and the order keys), a `scan` record its y-pattern and symbols.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import json
import os
import sys
from fractions import Fraction
from typing import Any

from . import __version__
from .arith import primes_up_to, require_proven_prime, require_sievable
from .certify import (
    VERDICT_CERTIFIED,
    CertificationReport,
    Pair,
    ScanSummary,
    certify_prime,
    scan,
    sweep,
)
from .errors import G2CertError
from .golden import EXPECTED, TORUS_TABLE
from .palindromic import TAG_D6
from .poly import format_poly
from .polyfile import (
    BUNDLED_NAMES,
    PolyFile,
    PolyFileError,
    bundled_polyfile,
    load_polyfile,
)
from .reduction import ReductionContext
from .weyl import CLASS_LABELS, WEYL_CLASSES, WeylClassInfo, torus_order, torus_poly_str

SCHEMA = "g2cert-report-1"
_ORDER_KEYS = ("exact_order", "order_divides_torus", "exceeds")  # _evidence's, given an order


# ---------------------------------------------------------------------------
# shared plumbing


def _load_input(arg: str) -> PolyFile:
    """A path, or one of the bundled names as a convenience."""
    if arg in BUNDLED_NAMES:
        return bundled_polyfile(arg)
    return load_polyfile(arg)


def _decimal(fr: Fraction) -> str:
    # fr is a density, never negative: six places, rounded half up
    scaled = (fr.numerator * 10**6 * 2 + fr.denominator) // (2 * fr.denominator)
    whole, part = divmod(scaled, 10**6)
    return f"{whole}.{part:06d}"


def _density_doc(fr: Fraction) -> dict:
    return {"fraction": f"{fr.numerator}/{fr.denominator}", "decimal": _decimal(fr)}


def _head(command: str) -> dict:
    """The fields every report document opens with."""
    return {"schema": SCHEMA, "version": __version__, "command": command}


def _input_doc(pf: PolyFile) -> dict:
    return {
        "name": pf.name,
        "steinberg_prime": pf.steinberg_prime,
        "digest": pf.digest,
    }


@contextlib.contextmanager
def _output(path: str | None):
    """stdout for no path or "-", else the file at path, closed on exit."""
    if path is None or path == "-":
        yield sys.stdout
        sys.stdout.flush()  # a closed reader raises here, in main, not at interpreter exit
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
    """A report streamed as the module docstring lays out; render maps a record to its value.

    key, when given, maps a record r to None or to a hashable such that two
    records with one key render to values that differ only in their first
    field, "p": r.p.  A JSON report encodes each key's value once and then
    writes only p anew; CSV does not use it.
    """

    def __init__(self, out, fmt: str, head: dict, columns: tuple, render, indent: int | None,
                 key=None):
        self.out, self.render, self.indent, self.sep = out, render, indent, ""
        self.key, self.around_p = key, {}  # key -> the record text before and after p
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
            return
        k = None if self.key is None else self.key(r)
        if k is None:
            text = self._dumps(self.render(r), "    ")
        else:
            around = self.around_p.get(k)
            if around is None:
                text = self._dumps(self.render(r), "    ")
                at = text.index('"p": ') + 5
                around = self.around_p[k] = text[:at], text[at + len(str(r.p)):]
            text = f"{around[0]}{r.p}{around[1]}"
        self.out.write(f"{self.sep}\n    {text}")
        self.sep = ","

    def close(self, tail: dict) -> None:
        if self.rows is not None:
            self.out.write("".join(f"# {json.dumps(v)}\n" for v in tail.values()))
        else:
            end = "".join(",\n" + self._field(k, v) for k, v in tail.items())
            self.out.write(("\n  ]" if self.sep else "]") + end + "\n}\n")


def _excluded_doc(excluded: dict[int, str]) -> list[dict]:
    return [{"p": p, "reason": why} for p, why in excluded.items()]


def _evidence(row: WeylClassInfo, p: int, order: int | None = None) -> dict:
    """One input's evidence at p, from the WEYL_CLASSES row classify verified; given
    the exact order, also the _ORDER_KEYS (exceeds: strictly above 3, above 19)."""
    ev = {"y_pattern": list(row.y_pattern), "chi_delta_prime": row.chi_delta_prime,
          "chi_delta": row.chi_delta, "weyl_class": row.weyl_class,
          "torus_order": torus_order(row.weyl_class, p), "x_pattern": list(row.x_pattern)}
    if order is not None:
        # always true: order_report raises WitnessMismatchError unless V_torus = 2,
        # so every order it returns divides the torus order
        ev.update(exact_order=order, order_divides_torus=True,
                  exceeds={str(b): order > b for b in (3, 19)})
    return ev


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
    return {"p": p, **_evidence(cls, p, ctx.order_report(p, cls, checked=True))}


def _frobenius_row(r: dict) -> list:
    """A record's CSV row: absent fields empty, the y-pattern joined by +."""
    r = {**r, "y_pattern": "+".join(map(str, r.get("y_pattern", ())))}
    return [r.get(c) for c in _FROBENIUS_COLUMNS]


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
        for record in sweep(primes, functools.partial(_frobenius_record, ctx)):
            report.record(record)
        report.close({})
    return 0


# ---------------------------------------------------------------------------
# certify


def _record_doc(r: CertificationReport) -> dict:
    """One prime of a pair: a scan record, and the body of a certify report."""
    doc: dict[str, Any] = {"p": r.p, "class_a": r.class_a, "class_b": r.class_b,
                           "order_a": r.order_a, "order_b": r.order_b, "verdict": r.verdict}
    if r.class_a is not None and r.class_b is not None:
        row_a, row_b = WEYL_CLASSES[r.class_a], WEYL_CLASSES[r.class_b]
        for k in ("y_pattern", "chi_delta", "chi_delta_prime"):  # _evidence's names
            doc[f"{k}_a"], doc[f"{k}_b"] = getattr(row_a, k), getattr(row_b, k)
    if r.excluded_subgroups:
        doc["reasons"] = [f"{label}: {why}" for label, why in r.excluded_subgroups]
    return doc


def _record_key(r: CertificationReport) -> tuple | None:
    """What fixes a record's _record_doc besides p, when no order and no reason is in it:
    the verdict and the class labels, as _record_doc reads each row from WEYL_CLASSES[label]."""
    if r.order_a is None and r.order_b is None and not r.excluded_subgroups:
        return r.verdict, r.class_a, r.class_b
    return None


def cmd_certify(args: argparse.Namespace) -> int:
    pf_a = _load_input(args.input_a)
    pf_b = _load_input(args.input_b)
    report = certify_prime(Pair.from_files(pf_a, pf_b), args.prime)
    doc = {**_head("certify"), "inputs": {"a": _input_doc(pf_a), "b": _input_doc(pf_b)}}
    doc.update(_record_doc(report))
    if report.note:
        doc["note"] = report.note
    for s in ("a", "b"):
        label, order = getattr(report, f"class_{s}"), getattr(report, f"order_{s}")
        if label is not None:
            ev = _evidence(WEYL_CLASSES[label], report.p, order)
            doc[f"x_pattern_{s}"], doc[f"torus_order_{s}"] = ev["x_pattern"], ev["torus_order"]
            if order is not None:
                doc[f"order_evidence_{s}"] = {k: ev[k] for k in _ORDER_KEYS}
    _write_json(doc, args.out)
    return 0 if report.verdict == VERDICT_CERTIFIED else 1


# ---------------------------------------------------------------------------
# scan


def _summary_doc(summary: ScanSummary) -> dict:
    return {f.name: _density_doc(v) if isinstance(v, Fraction) else v
            for f in dataclasses.fields(summary) for v in [getattr(summary, f.name)]}


def _scan_row(r: CertificationReport) -> list:
    return [r.p, r.class_a, r.class_b, r.order_a, r.order_b, r.verdict]  # csv writes None empty


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
        report = _Report(out, args.format, head, columns, render, indent=None, key=_record_key)
        summary = scan(pair, args.limit, record_sink=report.record, jobs=args.jobs)
        report.close({"summary": _summary_doc(summary)})
    return 0


# ---------------------------------------------------------------------------
# torus-orders


def cmd_torus_orders(args: argparse.Namespace) -> int:
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
            except G2CertError as e:
                mismatch("pair.independent", str(e))
            else:
                out.write("ok pair.independent\n")
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
    except BrokenPipeError:
        # the reader went away: a quiet exit.  If stdout's buffer still holds
        # bytes, they go to devnull, or the interpreter's last flush fails on them
        try:
            sys.stdout.flush()
        except BrokenPipeError:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    except G2CertError as e:
        print(f"g2cert: {e}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as e:  # PolyFileError is a ValueError
        print(f"g2cert: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
