"""Command-line front end: radius tables, certification, norms, thresholds.

Exit codes: 0 success/separable, 1 verification failure, 2 usage or parse
error, 3 inconclusive certificate, 4 state not PSD or not normalized.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

from . import ballbounds, certify, nmr, schurnorm, verify
from .matcore import load_matrix
from .sampling import DEFAULT_SEED

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3
EXIT_REJECTED = 4

#: All numeric output uses 9 significant digits.
FMT = ".9g"

#: Radius tables print the gb03 method under its long name.
TABLE_NAMES = {"gb03": "gb03_baseline"}


def _fail_usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("SEPBALL_SEED")
    if env is not None:
        return int(env, 0)
    return DEFAULT_SEED


def cmd_bound(args) -> int:
    if args.qubits is not None:
        if args.dims:
            return _fail_usage("give either dims or --qubits, not both")
        dims = [2] * args.qubits
    elif args.dims:
        dims = args.dims
    else:
        return _fail_usage("no dimensions given")

    methods = ["recursion", "gb03"]
    if len(set(dims)) == 1:
        methods[1:1] = ["closed_form", "weak_corollary"]
    try:
        reports = [ballbounds.radius_report(dims, m) for m in methods]
    except ValueError as exc:
        return _fail_usage(str(exc))
    all_qubits = set(dims) == {2}

    if args.format == "json":
        out = {
            "dims": list(reports[0].dims),
            "methods": {
                TABLE_NAMES.get(r.method, r.method): {
                    "unnormalized": r.unnormalized_radius,
                    "normalized": r.normalized_radius,
                }
                for r in reports
            },
        }
        if all_qubits:
            out["qubit_exponent"] = ballbounds.qubit_asymptotic_exponent()
        print(json.dumps(out))
    else:
        print(f"dims: {' '.join(str(d) for d in dims)}")
        print(f"{'method':<16} {'unnormalized':>14} {'normalized':>14}")
        for r in reports:
            name = TABLE_NAMES.get(r.method, r.method)
            print(
                f"{name:<16} {r.unnormalized_radius:>14{FMT}} "
                f"{r.normalized_radius:>14{FMT}}"
            )
        if all_qubits:
            g = ballbounds.qubit_asymptotic_exponent()
            print(f"qubit decay exponent gamma = {g:{FMT}}")
    return EXIT_OK


def cmd_certify(args) -> int:
    try:
        matrix, dims = load_matrix(args.file)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        return _fail_usage(f"cannot read matrix file: {exc}")
    try:
        if args.unnormalized:
            cert = certify.certify_unnormalized(matrix, dims)
        else:
            cert = certify.certify_normalized(matrix, dims)
    except ValueError as exc:
        return _fail_usage(str(exc))

    ppt_line = None
    if args.ppt and len(dims) > 1:
        # the certificate accepted matrix and dims: only non-PSD input is left
        try:
            ppt_ok = certify.ppt_all_cuts(matrix, dims)
        except ValueError:
            ppt_line = "ppt: skipped (input not PSD)"
        else:
            ppt_line = "ppt: all cuts positive" if ppt_ok else "ppt: VIOLATED"

    if args.format == "json":
        obj = json.loads(cert.to_json())
        if ppt_line is not None:
            obj["ppt"] = ppt_line.split(": ", 1)[1]
        print(json.dumps(obj))
    else:
        print(f"verdict:  {cert.verdict}")
        print(f"bound:    {cert.bound_used:{FMT}}")
        print(f"measured: {cert.measured:{FMT}}")
        print(f"margin:   {cert.margin:{FMT}}")
        if cert.boundary:
            print("note: within the boundary band of the bound")
        if ppt_line is not None:
            print(ppt_line)

    if cert.verdict == certify.SEPARABLE:
        return EXIT_OK
    if cert.verdict == certify.INCONCLUSIVE:
        return EXIT_INCONCLUSIVE
    return EXIT_REJECTED


def cmd_schur_norm(args) -> int:
    seed = _resolve_seed(args)
    if args.l_matrix is not None:
        if args.file is not None:
            return _fail_usage("give either a file or --l-matrix, not both")
        eta, n_raw = args.l_matrix
        n = int(n_raw)
        if n != n_raw or n < 1:
            return _fail_usage("--l-matrix size must be a positive integer")
        b = schurnorm.l_matrix(float(eta), n)
    elif args.file is not None:
        try:
            b, _ = load_matrix(args.file)
        except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
            return _fail_usage(f"cannot read matrix file: {exc}")
    else:
        return _fail_usage("need a matrix file or --l-matrix ETA N")

    n = b.shape[0]
    if not args.oracle_only and n > schurnorm.EXACT_SOLVER_CAP:
        return _fail_usage(
            f"n = {n} exceeds the exact-solver cap "
            f"{schurnorm.EXACT_SOLVER_CAP}; rerun with --oracle-only"
        )
    try:
        oracle = schurnorm.oracle_two_inf_norm(b, restarts=args.restarts, seed=seed)
        exact = None if args.oracle_only else schurnorm.schur_two_inf_norm(b)
    except ValueError as exc:
        return _fail_usage(str(exc))

    if args.format == "json":
        out = {"n": n, "oracle": oracle}
        if exact is not None:
            out["exact"] = exact
            out["gap"] = exact - oracle
        print(json.dumps(out))
    else:
        if exact is not None:
            print(f"exact:  {exact:{FMT}}")
        print(f"oracle: {oracle:{FMT}}")
        if exact is not None:
            print(f"gap:    {exact - oracle:{FMT}}")
    return EXIT_OK


def cmd_nmr(args) -> int:
    try:
        m = nmr.threshold(args.eta, args.mode, args.baseline)
        m_gb03 = nmr.threshold(args.eta, args.mode, "gb03")
    except (ValueError, RuntimeError) as exc:
        return _fail_usage(str(exc))
    margins = {}
    for label, mm in (("at_threshold", m), ("above_threshold", m + 1)):
        measured, bound = nmr.measured_and_bound(args.eta, mm, args.mode, args.baseline)
        margins[label] = {"m": mm, "measured": measured, "bound": bound}

    if args.format == "json":
        print(
            json.dumps(
                {
                    "mode": args.mode,
                    "eta": args.eta,
                    "baseline": args.baseline,
                    "threshold": m,
                    "gb03_threshold": m_gb03,
                    "margins": margins,
                }
            )
        )
    else:
        print(f"mode: {args.mode}   eta = {args.eta:{FMT}}   baseline = {args.baseline}")
        print(f"threshold: {m} qubits certified separable")
        print(f"entanglement not certified possible until {m + 1}")
        for label in ("at_threshold", "above_threshold"):
            row = margins[label]
            print(
                f"  m = {row['m']}: measured {row['measured']:{FMT}} "
                f"vs bound {row['bound']:{FMT}}"
            )
        print(f"gb03 baseline comparison: threshold {m_gb03}")
    return EXIT_OK


def cmd_verify(args) -> int:
    seed = _resolve_seed(args)
    results = verify.run_suite(args.suite, seed)
    failed = [r for r in results if not r.passed]
    if args.format == "json":
        print(
            json.dumps(
                {
                    "suite": args.suite,
                    "seed": seed,
                    "passed": len(results) - len(failed),
                    "failed": [r.name for r in failed],
                    "checks": [
                        {"name": r.name, "passed": r.passed, "detail": r.detail,
                         "seconds": r.seconds}
                        for r in results
                    ],
                }
            )
        )
    else:
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            extra = "" if r.passed else f"  ({r.detail})"
            print(f"{status} {r.name}{extra}")
        print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return EXIT_OK if not failed else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sepball",
        description="Separable-ball radius bounds and separability certificates.",
    )
    parser.add_argument("--seed", type=lambda s: int(s, 0), default=None,
                        help="seed for sampling-based commands (default 0xB0B5; "
                        "env SEPBALL_SEED overrides the default)")
    parser.add_argument("--format", choices=["human", "json"], default="human")
    sub = parser.add_subparsers(dest="command", required=True)

    p_bound = sub.add_parser("bound", help="radius lower bounds for a dims profile")
    p_bound.add_argument("dims", nargs="*", type=int)
    p_bound.add_argument("--qubits", type=int, default=None,
                         help="shorthand for that many local dimensions of 2")
    p_bound.set_defaults(fn=cmd_bound)

    p_cert = sub.add_parser("certify", help="certify a density matrix from a file")
    p_cert.add_argument("file")
    group = p_cert.add_mutually_exclusive_group()
    group.add_argument("--normalized", dest="unnormalized", action="store_false",
                       help="trace-one state against the normalized ball (default)")
    group.add_argument("--unnormalized", dest="unnormalized", action="store_true",
                       help="test ||X - I||_2 against the unnormalized radius")
    p_cert.add_argument("--ppt", action="store_true",
                        help="also report the partial-transpose test on all cuts")
    p_cert.set_defaults(fn=cmd_certify, unnormalized=False)

    p_schur = sub.add_parser("schur-norm",
                             help="2-to-inf norm of a Schur multiplier map")
    p_schur.add_argument("file", nargs="?", default=None)
    p_schur.add_argument("--l-matrix", nargs=2, type=float, default=None,
                         metavar=("ETA", "N"),
                         help="use the eta-offdiagonal matrix of size N")
    p_schur.add_argument("--oracle-only", action="store_true",
                         help="skip the exact solver (required above its cap)")
    p_schur.add_argument("--restarts", type=int, default=64)
    p_schur.set_defaults(fn=cmd_schur_norm)

    p_nmr = sub.add_parser("nmr", help="separability thresholds for NMR states")
    p_nmr.add_argument("--eta", type=float, default=nmr.ETA_DEFAULT)
    p_nmr.add_argument("--mode", choices=["thermal", "pseudopure"],
                       default="pseudopure")
    p_nmr.add_argument("--baseline", choices=["recursion", "gb03"],
                       default="recursion")
    p_nmr.set_defaults(fn=cmd_nmr)

    p_verify = sub.add_parser("verify", help="run the invariant self-check suite")
    p_verify.add_argument("suite", nargs="?", choices=["all", "fast"], default="all")
    p_verify.set_defaults(fn=cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
