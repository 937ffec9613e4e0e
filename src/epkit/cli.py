"""Command-line front end: classification, theorem verification, suites, models.

Exit codes: 0 on success, 1 when a verified property failed, 2 on usage or
input errors.  Reports are canonical JSON written to --output or standard
output.  Timing fields are serialized as 0 unless --timings is given, so a
rerun with the same seed produces byte-identical reports.

Every command runs through ``main``: it builds the tolerances, times the
command and writes its report, and each ``_cmd_*`` only computes the
report's kind, payload and exit code.  --timings' ``wall_time_ms`` covers
the whole command, from reading its input or building its spec to its
payload.  A classification or verdict payload is exactly the fields of
its dataclass (``serialize.report_payload``).

The master seed comes from --seed alone (default 0); the theorem id and the
model family are positional arguments.  Each command imports only the
layers it runs: ``classify`` loads neither the harness nor the model
families.
"""

from __future__ import annotations

import argparse
import sys
import time

from . import serialize
from .classify import classify
from .core import ToleranceConfig
from .errors import EpkitError


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
    sub.add_argument("--seed", type=int, default=0,
                     help="master seed (default 0)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epkit",
        description="Pseudoinverse and EP-matrix analysis toolkit.  A fixed seed "
        "reproduces every byte of a report on the same machine, numpy/BLAS build "
        "and BLAS thread count (OPENBLAS_NUM_THREADS).  Past dim 64 the thread "
        "count moves the last bits of residuals, but no verdict.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="classify one matrix from a JSON file")
    p_classify.add_argument("--input", required=True, help="MatrixFile JSON path")
    _add_common(p_classify)

    p_verify = sub.add_parser("verify", help="run one theorem verifier")
    p_verify.add_argument("theorem", help="theorem id, e.g. thm2.1")
    _add_generator_flags(p_verify)
    _add_common(p_verify)

    p_suite = sub.add_parser("suite", help="run every theorem verifier at default specs")
    _add_generator_flags(p_suite)
    _add_common(p_suite)

    p_model = sub.add_parser("model", help="truncation study of a diagonal model family")
    p_model.add_argument("family", help="model family id, e.g. diag_harmonic_truncated")
    p_model.add_argument("--n-max", type=int, default=10,
                         help="largest truncation parameter (default 10)")
    _add_common(p_model)

    return parser


def _resolve_rank(args) -> int:
    if args.rank is not None:
        return args.rank
    return max(args.dim - 2, 0)


def _verdict_payload(verdict, timings: bool) -> dict:
    payload = serialize.report_payload(verdict)
    if not timings:
        payload["elapsed_ms"] = 0
    return payload


def _cmd_classify(args, tol):
    report = classify(serialize.read_matrix_file(args.input), tol)
    return serialize.KIND_CLASSIFICATION, serialize.report_payload(report), 0


def _cmd_verify(args, tol):
    from . import harness

    spec = harness.GeneratorSpec(dim=args.dim, rank=_resolve_rank(args), seed=args.seed)
    verdict = harness.run_theorem_check(args.theorem, spec, args.trials, tol)
    payload = _verdict_payload(verdict, args.timings)
    return serialize.KIND_THEOREM, payload, 0 if verdict.failures == 0 else 1


def _cmd_suite(args, tol):
    from . import harness

    spec = harness.GeneratorSpec(dim=args.dim, rank=_resolve_rank(args), seed=args.seed)
    # A suite that cannot run every verifier runs none.
    for tid in harness.THEOREM_IDS:
        harness.require_runnable(tid, spec, args.trials)
    verdicts = [
        harness.run_theorem_check(tid, spec, args.trials, tol) for tid in harness.THEOREM_IDS
    ]
    all_passed = all(v.failures == 0 for v in verdicts)
    payload = {
        "seed": args.seed,
        "trials": args.trials,
        "dim": args.dim,
        "rank": spec.rank,
        "theorem_ids": list(harness.THEOREM_IDS),
        "all_passed": all_passed,
        "verdicts": [_verdict_payload(v, args.timings) for v in verdicts],
    }
    return serialize.KIND_SUITE, payload, 0 if all_passed else 1


def _cmd_model(args, tol):
    from . import models

    rows = models.limit_study(args.family, args.n_max, tol)
    payload = {"family_id": args.family, "n_max": args.n_max, "rows": rows}
    return serialize.KIND_LIMIT_STUDY, payload, 0


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
        tol = ToleranceConfig(rank_rtol=args.tol_rank, eq_atol=args.tol_eq)
        start = time.perf_counter()
        kind, payload, code = _COMMANDS[args.command](args, tol)
        wall_ms = int(round((time.perf_counter() - start) * 1000.0)) if args.timings else 0
        text = serialize.render_report(serialize.report_document(kind, payload, tol, wall_ms))
        if args.output:
            with open(args.output, "w") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)
        return code
    except (EpkitError, ValueError, OSError) as exc:
        print(f"epkit: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
