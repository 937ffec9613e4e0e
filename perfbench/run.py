"""Benchmark of the epkit command line.  See README.md in this directory.

    python3 perfbench/run.py --workload suite-d8 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``).  The line before it records the environment, report
digests and other details of the run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / ".out"

# One BLAS thread: at dims up to 256 a second thread made the suite at
# dim 128 and the model sweep slower, not faster, on a 2-core machine.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SCRUBBED_VARS = ("EPKIT_SEED", "EPKIT_TEST_CORRUPT")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _configure_environment() -> dict:
    """Pin BLAS threads and drop epkit's environment overrides.

    Must run before numpy is imported: OpenBLAS reads its thread count once,
    at load.  Returns the environment for child processes.
    """
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    for var in SCRUBBED_VARS:
        os.environ.pop(var, None)
    sys.path.insert(0, str(SRC))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _commit() -> str | None:
    """HEAD of the checkout's git metadata, read without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        loose = ROOT / ".git" / ref[5:]
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "epkit").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": int(BLAS_THREADS),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "machine": platform.machine(),
    }


def _timed(workload, seconds: float, env: dict, out) -> tuple[dict, dict]:
    import workloads

    # Set-up samples come from both ends of the run, so that their median
    # follows the machine's speed over the whole run, not over 3 seconds.
    setup, setup_wall, failures = workloads.measure_setup(env, 3)
    times, peak_mb = workload.timed(seconds, env, out)
    more, more_wall, more_failures = workloads.measure_setup(env, 2)
    setup += more
    setup_wall += more_wall
    failures += more_failures
    out.attempted += len(setup)
    if failures:
        out.fail(f"{failures} fresh `import epkit` processes failed", failures)
    if "tracer" in sys.modules:
        raise RuntimeError("an untraced run imported the tracer")
    metrics = {
        "setup_s": (workloads.median(setup), "s"),
        "command_ms_p50": (workloads.median(times), "ms"),
        "command_ms_p75": (workloads.upper_quartile(times), "ms"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    info = {"setup_s_samples": setup, "setup_wall_s_samples": setup_wall,
            "command_ms_samples": times, "commands": len(times)}
    return metrics, info


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "epkit" / "__init__.py").is_file():
        print(f"perfbench: no epkit sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    env = _configure_environment()

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    import epkit.cli  # noqa: F401  (compiles bytecode before anything is timed)

    workload = workloads.WORKLOADS[args.workload]
    out = workloads.Outputs()
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with tempfile.TemporaryDirectory(dir=OUT) as work:
        workload.prepare(args.seed, Path(work))
        if args.trace:
            import traced

            layer, info = traced.run(workload, args.seed, env, OUT / f"{stem}.spans.npz", out)
            metrics = {k: (v, traced.unit_of(k)) for k, v in layer.items()}
        else:
            metrics, info = _timed(workload, args.seconds, env, out)
    info.update(workload.details)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": _environment(),
        "failed_ratio": out.failed / max(out.attempted, 1),
        "problems": out.problems,
        "report_sha256": out.digests(),
        "details": info,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record))
    result = {
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
