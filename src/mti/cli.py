"""Command line interface.

Matrices are passed as JSON arrays of arrays of decimal integer strings
(strings so that 64-bit-lossy JSON readers round-trip them) or JSON
integers, either inline or as a path to a file containing the JSON; any
other entry is refused.  Every subcommand can emit a stable JSON document
("schema": 1) with --json.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import random
import re
import sys
from dataclasses import asdict

import numpy as np

from .bqf import _MAX_T, _class_columns, _form_matrix, _trace_counts, classes_with_trace
from .census import census, census_text, density_report, theorem_constants
from .csw import MAX_LEVEL, compare_with_rep_trace, csw_invariant
from .intmat import IntMatrix, mapping_torus_homology, smith_normal_form
from .modular import (
    COSET_REPRESENTATIVES,
    ZETA3,
    lambda_function,
    lemma_cool_report,
    mobius,
)
from .sl2 import (
    SL2_S,
    SL2_T,
    Sl2Matrix,
    classify_mod_p,
    dw_invariant_genus_g,
    dw_invariant_sl2,
    genus1_homology,
)
from .weight1 import qexpansion_check

SCHEMA = 1


class DomainError(Exception):
    """Invalid mathematical input (exit code 1, not a usage error)."""


def _matrix_entry(x) -> int:
    # a JSON integer or a decimal integer string; never a bool, which is an int in Python
    if isinstance(x, str):
        if not re.fullmatch("-?[0-9]+", x):
            raise ValueError(f"invalid literal for int() with base 10: {x!r}")
        return int(x)
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"entry {json.dumps(x)} is not an integer or a decimal integer string")
    return x


def _load_matrix(arg: str) -> IntMatrix:
    text = arg
    if not arg.lstrip().startswith("["):
        with open(arg, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        data = json.loads(text)
        if not isinstance(data, list) or not all(isinstance(row, list) for row in data):
            raise ValueError("expected an array of arrays")
        return IntMatrix.from_rows([[_matrix_entry(x) for x in row] for row in data])
    except ValueError as exc:  # json.JSONDecodeError included
        raise DomainError(f"bad matrix JSON: {exc}") from exc


def _as_sl2(m: IntMatrix) -> Sl2Matrix:
    if m.rows != 2 or m.cols != 2:
        raise DomainError("expected a 2x2 matrix")
    return Sl2Matrix(m[0, 0], m[0, 1], m[1, 0], m[1, 1])


def _emit(args, payload: dict, text: str) -> None:
    if getattr(args, "json", False):
        payload = {"schema": SCHEMA, **payload}
        print(json.dumps(payload, indent=None, sort_keys=True))
    else:
        print(text)


def _cmd_snf(args) -> int:
    m = _load_matrix(args.matrix)
    if args.subtract_identity:
        if m.rows != m.cols:
            raise DomainError("--subtract-identity needs a square matrix")
        m = m - IntMatrix.identity(m.rows)
    res = smith_normal_form(m)
    payload = {
        "diag": [str(d) for d in res.diag],
        "left": [[str(x) for x in row] for row in res.left.to_rows()],
        "right": [[str(x) for x in row] for row in res.right.to_rows()],
    }
    _emit(args, payload, f"diag {res.diag}")
    return 0


def _cmd_dw(args) -> int:
    m = _load_matrix(args.matrix)
    # --no-check treats a 2x2 matrix as the 2g x 2g ones, with no determinant check
    if m.rows == 2 and not args.no_check:
        val = dw_invariant_sl2(_as_sl2(m), args.prime)
    else:
        val = dw_invariant_genus_g(m, args.prime, check_symplectic=not args.no_check)
    payload = {"p": args.prime, "value": str(val.value), "exponent": val.exponent}
    _emit(args, payload, str(val.value))
    return 0


def _cmd_classify(args) -> int:
    a = _as_sl2(_load_matrix(args.matrix))
    label = classify_mod_p(a, args.prime)
    _emit(args, asdict(label), label.kind)
    return 0


def _cmd_homology(args) -> int:
    m = _load_matrix(args.matrix)
    if m.rows == 2 and not args.no_check:
        group = genus1_homology(_as_sl2(m))
    else:
        group = mapping_torus_homology(m, check_symplectic=not args.no_check)
    payload = {"free_rank": group.free_rank, "torsion": [str(t) for t in group.torsion]}
    _emit(args, payload, str(group))
    return 0


def _cmd_classes(args) -> int:
    if args.trace is None and args.tmax is None:
        raise DomainError("need --trace or --tmax")
    if args.trace is not None:
        if args.tmax is not None or args.count_only:
            raise DomainError("--trace lists one trace: give no --tmax or --count-only")
        forms = classes_with_trace(args.trace)
        classes = []
        for m, l, k, content in zip(*(col.tolist() for col in (*forms, np.gcd.reduce(forms)))):
            a = _form_matrix(args.trace, m, l, k)
            matrix = [[str(a.a), str(a.b)], [str(a.c), str(a.d)]]
            classes.append({"matrix": matrix, "form": [str(m), str(l), str(k)], "content": str(content)})
        payload = {"trace": args.trace, "classes": classes}
        _emit(args, payload, json.dumps(payload["classes"]))
        return 0
    if args.count_only:
        counts = list(enumerate(_trace_counts(args.tmax)[3:].tolist(), 3))
        payload = {"tmax": args.tmax, "counts": [{"t": t, "classes_per_sign": c} for t, c in counts]}
        text = "\n".join(f"{t} {c}" for t, c in counts)
        _emit(args, payload, text)
        return 0
    if args.json:  # each count is of trace t and of trace -t
        _emit(args, {"tmax": args.tmax, "total": 2 * int(_trace_counts(args.tmax).sum())}, "")
    else:  # one piece per trace s: its forms as trace s, then as trace -s
        t, *form = _class_columns(args.tmax)
        cols = (*form, np.gcd.reduce(form))
        ends = np.searchsorted(t, np.arange(3, args.tmax + 1)).tolist()
        for s, lo, hi in zip(range(3, args.tmax), ends, ends[1:]):
            cells = zip(*(col[lo:hi].tolist() for col in cols))
            rows = ["({}, {}, {}) content={}\n".format(*cell) for cell in cells]
            sys.stdout.write("".join(f"{s} {row}" for row in rows) + "".join(f"{-s} {row}" for row in rows))
    return 0


def _census_payload(report) -> dict:
    return {
        "p": report.p,
        "T": report.T,
        "total": report.total_classes,
        "total_pos": report.total_pos,
        "per_label": report.per_label,
        "dw_sum": report.dw_sum,
        "snf_triple": report.snf_triple,
        "li_T2": report.li_T2,
        "density": [asdict(r) for r in density_report(report).rows],
        "constants": asdict(theorem_constants(report)),
    }


def _cmd_census(args) -> int:
    # with --csv -, stdout carries the CSV and nothing else
    to_stdout = args.csv == "-"
    if to_stdout and args.json:
        raise DomainError("--csv - writes the CSV to stdout; write the JSON document with --json-out")
    if len(args.prime) > 1 and (args.csv or args.json or args.json_out):
        raise DomainError("--csv, --json and --json-out name one document: give one --prime")
    # every census runs before anything is written; they share one walk
    reports = [census(p, args.tmax) for p in args.prime]
    if args.outdir:
        pathlib.Path(args.outdir).mkdir(parents=True, exist_ok=True)
    for report in reports:
        csv_text = report.to_csv()
        if args.outdir:
            path = pathlib.Path(args.outdir, f"census_p{report.p}_T{report.T}.csv")
            path.write_text(csv_text, encoding="utf-8")
        if to_stdout:
            sys.stdout.write(csv_text)
        elif args.csv:
            with open(args.csv, "w", encoding="utf-8") as fh:
                fh.write(csv_text)
        payload = _census_payload(report)
        if args.json_out:
            with open(args.json_out, "w", encoding="utf-8") as fh:
                json.dump({"schema": SCHEMA, **payload}, fh, sort_keys=True)
        if not to_stdout:
            _emit(args, payload, census_text(report))
    return 0


def _cmd_lambda_check(args) -> int:
    expected = {
        "Id": complex(0.5, -0.866025),
        "T": complex(0.5, 0.866025),
        "S": complex(0.5, 0.866025),
        "T.S": complex(0.5, -0.866025),
        "T.S.T": complex(0.5, 0.866025),
        "-S.T^-1": complex(0.5, -0.866025),
    }
    rows = []
    ok = True
    for name, ref in expected.items():
        val = lambda_function(mobius(COSET_REPRESENTATIVES[name], ZETA3))
        good = abs(val - ref) < 1e-5
        ok = ok and good
        rows.append((name, val, ref, good))
    lemma = lemma_cool_report()
    payload = {
        "lambda_values": [
            {"coset": n, "value": [v.real, v.imag], "reference": [r.real, r.imag], "pass": g}
            for n, v, r, g in rows
        ],
        "log_formula": [asdict(r) for r in lemma],
    }
    lines = ["coset | computed | reference | pass"]
    for n, v, r, g in rows:
        lines.append(f"{n:>8} | {v.real:+.6f}{v.imag:+.6f}i | {r.real:+.6f}{r.imag:+.6f}i | {g}")
    lines.append("coset | class | formula(principal) | formula([0,2pi)) | Z | agrees")
    for r in lemma:
        lines.append(
            f"{r.coset:>8} | {r.mod2_class} | {r.principal:.6f} | "
            f"{r.positive_branch:.6f} | {r.z} | {'ok' if r.agrees else 'FLAG'}"
        )
    _emit(args, payload, "\n".join(lines))
    return 0 if ok else 1


def _cmd_csw(args) -> int:
    a = _as_sl2(_load_matrix(args.matrix))
    if args.oracle:
        cmp_ = compare_with_rep_trace(a, args.level)
        payload = {
            "level": args.level,
            "gauss_sum": [cmp_.gauss_sum.real, cmp_.gauss_sum.imag],
            "rep_trace": [cmp_.trace.real, cmp_.trace.imag],
            "modulus_difference": cmp_.modulus_difference,
            "phase_difference_turns": cmp_.phase_difference,
        }
        text = (
            f"gauss sum  {cmp_.gauss_sum:.10f}\n"
            f"rep trace  {cmp_.trace:.10f}\n"
            f"|mod diff| {cmp_.modulus_difference:.3e}\n"
            f"phase diff {cmp_.phase_difference} turns"
        )
    else:
        z = csw_invariant(a, args.level)
        payload = {"level": args.level, "gauss_sum": [z.real, z.imag]}
        text = f"{z:.10f}"
    _emit(args, payload, text)
    return 0


def _cmd_csw_sweep(args) -> int:
    # classes_with_trace refuses |t| >= 2^21: refuse such a --tmax before any sample runs
    if args.kmax < 1 or not 3 <= args.tmax < _MAX_T or args.samples < 0:
        raise DomainError("need --kmax >= 1, 3 <= --tmax < 2^21 and --samples >= 0")
    if args.kmax > MAX_LEVEL:
        raise DomainError(f"--kmax must be at most {MAX_LEVEL}: the rep-trace oracle refuses larger levels")
    rng = random.Random(0)
    worst = 0.0
    phases = [0] * 8  # nonvanishing values by residual phase in eighths of a turn
    zeros = 0
    for _ in range(args.samples):
        # a random class of trace 3 <= |t| <= tmax, conjugated by a short word in S, T
        t = rng.randint(3, args.tmax) * rng.choice([1, -1])
        forms = classes_with_trace(t)
        i = rng.randrange(len(forms[0]))
        a = _form_matrix(t, *(int(col[i]) for col in forms))
        g = Sl2Matrix(1, 0, 0, 1)
        for _ in range(rng.randint(0, 4)):
            g = g * rng.choice([SL2_T, SL2_T.inverse(), SL2_S])
        a = a.conjugate_by(g)
        k = rng.randint(1, args.kmax)
        cmp_ = compare_with_rep_trace(a, k)
        worst = max(worst, cmp_.modulus_difference)
        if cmp_.phase_difference is None:
            zeros += 1
        else:
            phases[round(cmp_.phase_difference * 8) % 8] += 1
    payload = {
        "samples": args.samples,
        "kmax": args.kmax,
        "tmax": args.tmax,
        "worst_modulus_difference": worst,
        "vanishing": zeros,
        "phase_eighths": phases,
    }
    lines = [
        f"{args.samples} samples, k <= {args.kmax}, |Tr| <= {args.tmax}",
        f"worst |gauss sum| vs |trace| difference: {worst:.3e}",
        f"vanishing values (phase undefined): {zeros}",
        "framing phase distribution (eighths of a turn):",
    ]
    lines += [f"  {eighth}/8 turn: {n}" for eighth, n in enumerate(phases) if n]
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_modform(args) -> int:
    report = qexpansion_check(args.pmax)
    lines = ["p | a_p | ref | splitting | mod-2 class | Z | Z-2"]
    for r in report.rows:
        lines.append(
            f"{r.p:>3} | {r.a_p:>2} | {r.reference:>2} | {r.pattern:>6} | "
            f"{r.mod2_class} | {r.z} | {r.z - 2}"
        )
    lines.append(f"mismatches: {report.mismatches or 'none'}")
    _emit(args, {"d": 2, **asdict(report)}, "\n".join(lines))
    return 0 if not report.mismatches else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mti",
        description="Mapping-torus invariants: partition functions, class enumeration, densities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_matrix(p):
        p.add_argument("--matrix", required=True, help="inline JSON or path to JSON file")

    p = sub.add_parser("snf", help="Smith normal form (optionally of M - Id)")
    add_matrix(p)
    p.add_argument("--subtract-identity", action="store_true")
    p.set_defaults(func=_cmd_snf)

    p = sub.add_parser("dw", help="Z/p partition function of the mapping torus")
    add_matrix(p)
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--no-check", action="store_true", help="skip the symplectic validation")
    p.set_defaults(func=_cmd_dw)

    p = sub.add_parser("classify", help="conjugacy class mod p")
    add_matrix(p)
    p.add_argument("--prime", type=int, required=True)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("homology", help="H1 of the mapping torus")
    add_matrix(p)
    p.add_argument("--no-check", action="store_true", help="skip the symplectic validation")
    p.set_defaults(func=_cmd_homology)

    p = sub.add_parser("classes", help="hyperbolic classes by trace")
    p.add_argument("--trace", type=int)
    p.add_argument("--tmax", type=int)
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(func=_cmd_classes)

    p = sub.add_parser("census", help="classify all classes with |Tr| < T mod p, for each prime p")
    p.add_argument("--prime", type=int, nargs="+", required=True)
    p.add_argument("--tmax", type=int, required=True)
    p.add_argument("--outdir", help="write census_p{p}_T{T}.csv per prime into this directory")
    p.add_argument("--csv", help="CSV output path, or - for stdout (one prime only)")
    p.add_argument("--json-out", dest="json_out", help="JSON output path (one prime only)")
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("lambda-check", help="lambda values and log-formula table")
    p.set_defaults(func=_cmd_lambda_check)

    p = sub.add_parser("csw", help="level-k Gauss-sum invariant")
    add_matrix(p)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--oracle", action="store_true", help="also evaluate the rep-trace oracle")
    p.set_defaults(func=_cmd_csw)

    p = sub.add_parser("csw-sweep", help="Gauss sum vs rep-trace oracle on seeded random classes")
    p.add_argument("--kmax", type=int, default=8)
    p.add_argument("--tmax", type=int, default=50)
    p.add_argument("--samples", type=int, default=100)
    p.set_defaults(func=_cmd_csw_sweep)

    p = sub.add_parser("modform", help="weight-one coefficient comparison table for d = 2")
    p.add_argument("--pmax", type=int, default=100)
    p.set_defaults(func=_cmd_modform)

    for p in sub.choices.values():
        p.add_argument("--json", action="store_true")
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (DomainError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
