"""Command-line front end: radius tables, certification, norms, thresholds.

Each command builds its result once, as a JSON object and as human lines,
and ``_emit`` prints the one ``--format`` asks for.  ``main`` is the only
place that turns bad input into an exit code: a ``ValueError`` from a command
or the library (bad dims, an unreadable matrix file, an eta outside
(0, 0.1), a ``SEPBALL_SEED`` that is not an integer, a negative seed)
prints ``error: <message>`` to stderr and exits 2.

Exit codes: 0 success/separable, 1 verification failure, 2 usage or parse
error, 3 inconclusive certificate, 4 state not PSD or not normalized.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict
from typing import Sequence

from . import ballbounds, certify, nmr, schurnorm, verify
from .matcore import check_count, load_matrix, measure
from .sampling import DEFAULT_SEED

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3
EXIT_REJECTED = 4

#: Exit code of each certificate verdict.
VERDICT_EXIT = {
    certify.SEPARABLE: EXIT_OK,
    certify.INCONCLUSIVE: EXIT_INCONCLUSIVE,
    certify.NOT_PSD: EXIT_REJECTED,
    certify.NOT_NORMALIZED: EXIT_REJECTED,
}

#: All numeric output uses 9 significant digits.
FMT = ".9g"

#: Radius tables print the gb03 method under its long name.
TABLE_NAMES = {"gb03": "gb03_baseline"}


def _emit(args, obj: dict, lines: list[str]) -> None:
    print(json.dumps(obj) if args.format == "json" else "\n".join(lines))


def _load(path):
    try:
        return load_matrix(path)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read matrix file: {exc}") from exc


def number(text: str) -> int | float:
    """A number argument: an integer literal in float range as an int, any other as a float."""
    value = float(text)
    try:
        return int(text) if math.isfinite(value) else value
    except ValueError:
        return value


def _resolve_seed(args) -> int:
    """The seed from ``--seed``, else ``SEPBALL_SEED``, else the default; refused if negative."""
    if args.seed is not None:
        seed = args.seed
    else:
        env = os.environ.get("SEPBALL_SEED")
        seed = DEFAULT_SEED if env is None else int(env, 0)
    return check_count(seed, "seed", 0)


def cmd_bound(args) -> int:
    if args.qubits is not None:
        if args.dims:
            raise ValueError("give either dims or --qubits, not both")
        dims = [2] * check_count(args.qubits, "--qubits", 1)
    elif args.dims:
        dims = args.dims
    else:
        raise ValueError("no dimensions given")

    methods = ["recursion", "gb03"]
    if len(set(dims)) == 1:
        methods[1:1] = ["closed_form", "weak_corollary"]
    reports = [ballbounds.radius_report(dims, m) for m in methods]

    obj = {"dims": list(reports[0].dims), "methods": {}}
    lines = [
        f"dims: {' '.join(str(d) for d in dims)}",
        f"{'method':<16} {'unnormalized':>14} {'normalized':>14}",
    ]
    for r in reports:
        name = TABLE_NAMES.get(r.method, r.method)
        obj["methods"][name] = {
            "unnormalized": r.unnormalized_radius,
            "normalized": r.normalized_radius,
        }
        lines.append(
            f"{name:<16} {r.unnormalized_radius:>14{FMT}} "
            f"{r.normalized_radius:>14{FMT}}"
        )
    if set(dims) == {2}:
        g = ballbounds.qubit_asymptotic_exponent()
        obj["qubit_exponent"] = g
        lines.append(f"qubit decay exponent gamma = {g:{FMT}}")
    _emit(args, obj, lines)
    return EXIT_OK


def cmd_certify(args) -> int:
    # one validation and one measurement, read by the certificate and the PPT scan
    state = measure(*_load(args.file))
    certify_fn = certify.certify_unnormalized if args.unnormalized else certify.certify_normalized
    cert = certify_fn(state, state.dims)

    obj = cert.to_dict()
    lines = [
        f"verdict:  {cert.verdict}",
        f"bound:    {cert.bound_used:{FMT}}",
        f"measured: {cert.measured:{FMT}}",
        f"margin:   {cert.margin:{FMT}}",
    ]
    if cert.boundary:
        lines.append("note: within the boundary band of the bound")
    if args.ppt:
        # the certificate accepted the state's dims (a one-party file stops at
        # its radius), and the state's one PSD decision gates the scan
        if state.psd:
            ppt = "all cuts positive" if certify.ppt_all_cuts(state, state.dims) else "VIOLATED"
        else:
            ppt = "skipped (input not PSD)"
        obj["ppt"] = ppt
        lines.append(f"ppt: {ppt}")
    _emit(args, obj, lines)
    return VERDICT_EXIT[cert.verdict]


def cmd_schur_norm(args) -> int:
    seed = _resolve_seed(args)
    if args.l_matrix is not None:
        if args.file is not None:
            raise ValueError("give either a file or --l-matrix, not both")
        eta, n = args.l_matrix
        n = check_count(n, "--l-matrix size", 1)
    elif args.file is not None:
        b, _ = _load(args.file)
        n = b.shape[0]
    else:
        raise ValueError("need a matrix file or --l-matrix ETA N")

    # refused before an --l-matrix matrix is built
    if not args.oracle_only:
        schurnorm.check_exact_size(n)
    if args.l_matrix is not None:
        b = schurnorm.l_matrix(eta, n)
    oracle = schurnorm.oracle_two_inf_norm(b, restarts=args.restarts, seed=seed)
    obj = {"n": n, "oracle": oracle}
    lines = [f"oracle: {oracle:{FMT}}"]
    if not args.oracle_only:
        # the oracle's value seeds the exact solver's pruned walk, which
        # changes no digit of the answer, only how many faces are solved;
        # it goes through seeded because perfbench's fault injection
        # replaces schur_two_inf_norm with a one-argument function
        with schurnorm.seeded(oracle * oracle):
            exact = schurnorm.schur_two_inf_norm(b)
        obj.update(exact=exact, gap=exact - oracle)
        lines = [f"exact:  {exact:{FMT}}", *lines, f"gap:    {exact - oracle:{FMT}}"]
    _emit(args, obj, lines)
    return EXIT_OK


def cmd_nmr(args) -> int:
    m = nmr.threshold(args.eta, args.mode, args.baseline)
    m_gb03 = nmr.threshold(args.eta, args.mode, "gb03")
    obj = {
        "mode": args.mode,
        "eta": args.eta,
        "baseline": args.baseline,
        "threshold": m,
        "gb03_threshold": m_gb03,
        "margins": {},
    }
    lines = [
        f"mode: {args.mode}   eta = {args.eta:{FMT}}   baseline = {args.baseline}",
        f"threshold: {m} qubits certified separable",
        f"entanglement not certified possible until {m + 1}",
    ]
    for label, mm in (("at_threshold", m), ("above_threshold", m + 1)):
        measured, bound = nmr.measured_and_bound(args.eta, mm, args.mode, args.baseline)
        # the linear values underflow to 0 at small eta; their log10s do not
        log10_measured, log10_bound = (
            x / math.log(10.0)
            for x in nmr.log_measured_and_bound(args.eta, mm, args.mode, args.baseline))
        obj["margins"][label] = {"m": mm, "measured": measured, "bound": bound,
                                 "log10_measured": log10_measured, "log10_bound": log10_bound}
        lines.append(f"  m = {mm}: measured {measured:{FMT}} vs bound {bound:{FMT}} "
                     f"(log10 {log10_measured:{FMT}} vs {log10_bound:{FMT}})")
    lines.append(f"gb03 baseline comparison: threshold {m_gb03}")
    _emit(args, obj, lines)
    return EXIT_OK


def cmd_verify(args) -> int:
    seed = _resolve_seed(args)
    results = verify.run_suite(args.suite, seed)
    failed = [r.name for r in results if not r.passed]
    passed = len(results) - len(failed)
    obj = {
        "suite": args.suite,
        "seed": seed,
        "workers": verify.workers(),
        "passed": passed,
        "failed": failed,
        "checks": [asdict(r) for r in results],
    }
    lines = [
        f"PASS {r.name}" if r.passed else f"FAIL {r.name}  ({r.detail})"
        for r in results
    ]
    lines.append(f"{passed}/{len(results)} checks passed")
    _emit(args, obj, lines)
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
    p_schur.add_argument("--l-matrix", nargs=2, type=number, default=None,
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
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
