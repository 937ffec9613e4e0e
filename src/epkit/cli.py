"""Command-line front end: classification, theorem verification, suites, models.

Exit codes: 0 on success, 1 when a verified property failed, 2 on usage or
input errors.  Reports are canonical JSON written to --output or standard
output.  Timing fields are serialized as 0 unless --timings is given, so a
rerun with the same seed produces byte-identical reports.

The master seed comes from --seed, falling back to the EPKIT_SEED
environment variable, then 0.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time

from . import harness, models, serialize
from .classify import classify
from .core import ToleranceConfig
from .errors import EpkitError, InvalidSpec


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--output", help="write the JSON report to this path instead of stdout")
    sub.add_argument("--tol-rank", type=float, default=1e-10, metavar="RTOL",
                     help="relative singular-value cutoff for rank decisions (default 1e-10)")
    sub.add_argument("--tol-eq", type=float, default=1e-8, metavar="ATOL",
                     help="absolute tolerance for equality residuals (default 1e-8)")
    sub.add_argument("--timings", action="store_true",
                     help="record measured wall time (reports are then not byte-reproducible)")


def _add_generator_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--dim", type=int, default=8, help="matrix dimension (default 8)")
    sub.add_argument("--rank", type=int, default=None,
                     help="target rank (default dim - 2)")
    sub.add_argument("--trials", type=int, default=200,
                     help="generated instances per verifier (default 200)")
    sub.add_argument("--seed", type=int, default=None,
                     help="master seed (default: EPKIT_SEED env var, then 0)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epkit",
        description="Pseudoinverse and EP-matrix analysis toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="classify one matrix from a JSON file")
    p_classify.add_argument("--input", required=True, help="MatrixFile JSON path")
    _add_common(p_classify)

    p_verify = sub.add_parser("verify", help="run one theorem verifier")
    p_verify.add_argument("theorem", nargs="?", default=None,
                          help="theorem id, e.g. thm2.1 (alternative to --theorem)")
    p_verify.add_argument("--theorem", dest="theorem_flag", default=None,
                          help="theorem id, e.g. thm2.1")
    _add_generator_flags(p_verify)
    _add_common(p_verify)

    p_suite = sub.add_parser("suite", help="run every theorem verifier at default specs")
    _add_generator_flags(p_suite)
    _add_common(p_suite)

    p_model = sub.add_parser("model", help="truncation study of a diagonal model family")
    p_model.add_argument("family", nargs="?", default=None,
                         help="model family id (alternative to --family)")
    p_model.add_argument("--family", dest="family_flag", default=None,
                         help="model family id, e.g. diag_harmonic_truncated")
    p_model.add_argument("--n-max", type=int, default=10,
                         help="largest truncation parameter (default 10)")
    _add_common(p_model)

    return parser


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("EPKIT_SEED")
    if env:
        try:
            return int(env)
        except ValueError:
            raise InvalidSpec(f"EPKIT_SEED is not an integer: {env!r}") from None
    return 0


def _resolve_rank(args) -> int:
    if args.rank is not None:
        return args.rank
    return max(args.dim - 2, 0)


def _emit(doc: dict, output: str | None) -> None:
    text = serialize.render_report(doc)
    if output:
        with open(output, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _normalize_verdict(verdict, timings: bool):
    if timings:
        return verdict
    return dataclasses.replace(verdict, elapsed_ms=0)


def _cmd_classify(args) -> int:
    tol = ToleranceConfig(rank_rtol=args.tol_rank, eq_atol=args.tol_eq)
    start = time.perf_counter()
    matrix = serialize.read_matrix_file(args.input)
    report = classify(matrix, tol)
    wall_ms = int(round((time.perf_counter() - start) * 1000.0)) if args.timings else 0
    doc = serialize.report_document(
        serialize.KIND_CLASSIFICATION,
        serialize.classification_to_payload(report),
        tol,
        wall_ms,
    )
    _emit(doc, args.output)
    return 0


def _cmd_verify(args) -> int:
    theorem = args.theorem or args.theorem_flag
    if theorem is None:
        raise InvalidSpec("a theorem id is required (positional or --theorem)")
    tol = ToleranceConfig(rank_rtol=args.tol_rank, eq_atol=args.tol_eq)
    spec = harness.GeneratorSpec(
        dim=args.dim, rank=_resolve_rank(args), seed=_resolve_seed(args)
    )
    start = time.perf_counter()
    verdict = harness.run_theorem_check(theorem, spec, args.trials, tol)
    verdict = _normalize_verdict(verdict, args.timings)
    wall_ms = int(round((time.perf_counter() - start) * 1000.0)) if args.timings else 0
    doc = serialize.report_document(
        serialize.KIND_THEOREM, serialize.verdict_to_payload(verdict), tol, wall_ms
    )
    _emit(doc, args.output)
    return 0 if verdict.failures == 0 else 1


def _cmd_suite(args) -> int:
    tol = ToleranceConfig(rank_rtol=args.tol_rank, eq_atol=args.tol_eq)
    seed = _resolve_seed(args)
    spec = harness.GeneratorSpec(dim=args.dim, rank=_resolve_rank(args), seed=seed)
    start = time.perf_counter()
    verdicts = [
        _normalize_verdict(
            harness.run_theorem_check(tid, spec, args.trials, tol), args.timings
        )
        for tid in harness.THEOREM_IDS
    ]
    wall_ms = int(round((time.perf_counter() - start) * 1000.0)) if args.timings else 0
    all_passed = all(v.failures == 0 for v in verdicts)
    payload = {
        "seed": seed,
        "trials": args.trials,
        "dim": args.dim,
        "rank": spec.rank,
        "theorem_ids": list(harness.THEOREM_IDS),
        "all_passed": all_passed,
        "verdicts": [serialize.verdict_to_payload(v) for v in verdicts],
    }
    doc = serialize.report_document(serialize.KIND_SUITE, payload, tol, wall_ms)
    _emit(doc, args.output)
    return 0 if all_passed else 1


def _cmd_model(args) -> int:
    family = args.family or args.family_flag
    if family is None:
        raise InvalidSpec("a model family is required (positional or --family)")
    tol = ToleranceConfig(rank_rtol=args.tol_rank, eq_atol=args.tol_eq)
    start = time.perf_counter()
    rows = models.limit_study(family, args.n_max, tol)
    wall_ms = int(round((time.perf_counter() - start) * 1000.0)) if args.timings else 0
    payload = {"family_id": family, "n_max": args.n_max, "rows": rows}
    doc = serialize.report_document(serialize.KIND_LIMIT_STUDY, payload, tol, wall_ms)
    _emit(doc, args.output)
    return 0


_COMMANDS = {
    "classify": _cmd_classify,
    "verify": _cmd_verify,
    "suite": _cmd_suite,
    "model": _cmd_model,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (EpkitError, ValueError, OSError) as exc:
        print(f"epkit: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
