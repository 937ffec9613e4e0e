"""The golden corpus: seeded ``epkit`` reports pinned in ``tests/golden/``.

A case is one command line (``argv``) or one ``run_theorem_check`` call
(``call``), for what the command line cannot ask: a check case runs a
verifier at a condition bound off the default and renders its verdict as
``epkit verify`` would.  ``corpus.json`` records, per case, two layers:

- the verdict layer (exit code, failures, warnings, counterexample trial,
  accepting and rejecting counts, every yes/no field of the details, which
  model rows are EP, and a classified matrix's EP and hypo-EP verdicts and
  rank), which must hold on every machine;
- the sha256 of the report bytes, which must hold only where the
  environment fingerprint (numpy version, BLAS name and version, machine)
  is the recorded one, since a report is byte-reproducible only within one
  environment.

A case listed in ``CORRUPT_EP`` runs with the ep generator corrupted, so
that the bytes of a failing verdict (exit code 1, the counterexample's
matrices and note) are pinned too.

The report itself is kept beside it as ``<case>.json``, so that a changed
digest can be shown field by field (``tests/golden/refresh.py``).
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import platform
from pathlib import Path

import numpy as np
import pytest

from epkit import DEFAULT_TOL, FAMILIES, harness, serialize
from epkit.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
CORPUS = GOLDEN / "corpus.json"

# Fixed matrices in golden/inputs/, named by what they are: invertible,
# not normal past dim 1 (integer entries plus a diagonal shift); EP of rank
# 2 in dim 4 (a non-normal 2 x 2 block); a nilpotent Jordan block; zero;
# a dim-4 file that mixes JSON integers, -0.0 and subnormal entries.
CLASSIFY_INPUTS = (
    "invertible-d1",
    "invertible-d8",
    "invertible-d64",
    "ep-rank2-d4",
    "nilpotent-d3",
    "zero-d3",
    "mixed-ints-subnormals-d4",
)

CASES = {
    **{f"model-{f}": ["model", f, "--n-max", "64"] for f in FAMILIES},
    # At --tol-rank 1e-3 the truncations from n = 33 on are rank-deficient.
    "model-diag_alternating-n64-tolrank1e-3": [
        "model", "diag_alternating", "--n-max", "64", "--tol-rank", "1e-3",
    ],
    # The full window: every truncation up to the dimension cap.
    **{f"model-{f}-n256": ["model", f, "--n-max", "256"] for f in FAMILIES},
    "model-diag_alternating-n256-tolrank1e-3": [
        "model", "diag_alternating", "--n-max", "256", "--tol-rank", "1e-3",
    ],
    # At --tol-rank 1e-2 both families are rank-deficient from n = 100 on:
    # diag_n drops its smallest entries, diag_harmonic_truncated its last.
    **{f"model-{f}-n256-tolrank1e-2": [
        "model", f, "--n-max", "256", "--tol-rank", "1e-2",
    ] for f in ("diag_n", "diag_harmonic_truncated")},
    "suite-seed1-d8-t10": ["suite", "--seed", "1", "--dim", "8", "--trials", "10"],
    "verify-thm1.5-d32-t6": ["verify", "thm1.5", "--dim", "32", "--trials", "6"],
    # Ten trials cover each of thm2.16's five dominance modes twice.
    "verify-thm2.16-d5-r3-t10": [
        "verify", "thm2.16", "--dim", "5", "--rank", "3", "--trials", "10", "--seed", "2",
    ],
    **{f"classify-{m}": ["classify", "--input", f"inputs/{m}.json"] for m in CLASSIFY_INPUTS},
    "verify-thm2.1-d4-r2-t4-corrupt-ep": [
        "verify", "thm2.1", "--dim", "4", "--rank", "2", "--trials", "4", "--seed", "3",
    ],
    # Tolerances off the default reach false counterexamples at the default
    # condition bound: thm2.13 fails 2 trials at --tol-rank 1e-4, and at
    # --tol-eq 1e-14 thm2.1, thm2.6 and thm2.12 fail 1 each, thm2.13 3.
    # Their failing verdicts are pinned as they stand.
    "verify-thm2.13-d8-r6-t6-s7-tolrank1e-4": [
        "verify", "thm2.13", "--dim", "8", "--rank", "6", "--trials", "6", "--seed", "7",
        "--tol-rank", "1e-4",
    ],
    "suite-d8-r6-t6-s7-toleq1e-14": [
        "suite", "--dim", "8", "--rank", "6", "--trials", "6", "--seed", "7",
        "--tol-eq", "1e-14",
    ],
}

# Every verifier at dim 8, rank 6, seed 7 and 6 trials, at condition bounds
# past the default of 100; thm2.12 and thm2.13, whose rank cutoffs give way
# first, also at 1e6.  Their failing verdicts are pinned as they stand.
CHECK_BOUNDS = {
    **{tid: ("1e2", "1e4") for tid in harness.THEOREM_IDS},
    "thm2.12": ("1e2", "1e4", "1e6"),
    "thm2.13": ("1e2", "1e4", "1e6"),
}
CASES.update({
    f"check-{tid}-d8-r6-t6-cond{bound}": {
        "theorem_id": tid, "dim": 8, "rank": 6, "seed": 7, "trials": 6,
        "condition_bound": float(bound),
    }
    for tid, bounds in CHECK_BOUNDS.items()
    for bound in bounds
})

CORRUPT_EP = {"verify-thm2.1-d4-r2-t4-corrupt-ep"}


@contextlib.contextmanager
def _faulted(family: str, fault):
    """Apply ``fault`` to each instance the family builds, until the block ends.

    The family keeps its draws, so every rng is left where the real family
    leaves it.
    """
    real = harness._GENERATORS[family]

    def build(params, unitaries):
        return fault(real.build(params, unitaries))

    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(harness._GENERATORS, family, dataclasses.replace(real, build=build))
        yield


@contextlib.contextmanager
def corrupt_ep_generation():
    """Make the ep family return a non-EP matrix after building its usual instance.

    Every verifier draws its ep matrices, pairs and windows included, through
    the family table, so each sees genuine counterexamples.  thm2.12's
    aligned pair is a family of its own, which ``graded_ep_fault`` faults
    with kind ``"pair"``.  The patch is undone when the block ends.
    """

    def non_ep(m):
        dim = m.shape[0]
        out = np.zeros((dim, dim), dtype=np.complex128)
        out[0, min(1, dim - 1)] = 1.0
        return out

    with _faulted("ep", non_ep):
        yield


FAULT_KINDS = ("range", "index2", "pair")


@contextlib.contextmanager
def graded_ep_fault(eps: float, kind: str):
    """Move each ep draw, or each aligned pair, off its class by a fault of size eps.

    With T = U S V* (full SVD, rank below the dimension):

    - ``kind="range"``: every ep draw T becomes T + eps sigma_1 x y*, with
      x = U[:, -1] in N(T*) and y = V[:, 0] the top right singular vector.
      The rank stays the same, and T leaves the EP class at relative
      distance about eps.
    - ``kind="index2"``: the same with x = V[:, -2] and y = V[:, -1], both
      in N(T), so y -> x -> 0 is a Jordan chain and the index becomes 2.
      This is the fault that breaks thm2.7, whose conclusion holds at every
      index-1 matrix.
    - ``kind="pair"``: T of each aligned pair (S, T) of thm2.12 becomes
      R T R*, with R the rotation by the angle eps in the plane of U[:, 0],
      in T's range, and U[:, -1], in its null space.  T stays EP, but its
      range and null space leave those of S.

    Every table draw of the family is faulted, as in
    ``corrupt_ep_generation``.  The patch is undone when the block ends.
    """
    if kind not in FAULT_KINDS:
        raise ValueError(f"unknown fault kind {kind!r}; known: {', '.join(FAULT_KINDS)}")

    def faulty(m):
        u, s, vh = np.linalg.svd(m)
        v = vh.conj().T
        x, y = (u[:, -1], v[:, 0]) if kind == "range" else (v[:, -2], v[:, -1])
        return m + eps * s[0] * np.outer(x, y.conj())

    def rotated(pair):
        s, t = pair
        u = np.linalg.svd(t)[0]
        x, y = u[:, 0], u[:, -1]
        c, sn = np.cos(eps), np.sin(eps)
        r = (np.eye(len(t)) + (c - 1.0) * (np.outer(x, x.conj()) + np.outer(y, y.conj()))
             + sn * (np.outer(y, x.conj()) - np.outer(x, y.conj())))
        return s, r @ t @ r.conj().T

    with _faulted("aligned_ep_pair", rotated) if kind == "pair" else _faulted("ep", faulty):
        yield


def fingerprint() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy before 1.26 prints its configuration only
        blas = {}
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
    }


def run(argv: list[str]) -> tuple[int, str]:
    """Exit code and report text of one ``epkit`` command, run in this process.

    An ``--input`` path is relative to ``tests/golden/``.
    """
    argv = [
        str(GOLDEN / arg) if prev == "--input" else arg
        for prev, arg in zip([None, *argv], argv)
    ]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def check(call: dict) -> tuple[int, str]:
    """Exit code and report text of one ``run_theorem_check`` call, as ``epkit verify``."""
    spec = {k: v for k, v in call.items() if k not in ("theorem_id", "trials")}
    verdict = harness.run_theorem_check(
        call["theorem_id"], harness.GeneratorSpec(**spec), call["trials"]
    )
    payload = {**serialize.report_payload(verdict), "elapsed_ms": 0}
    doc = serialize.report_document(serialize.KIND_THEOREM, payload, DEFAULT_TOL)
    return 0 if verdict.failures == 0 else 1, serialize.render_report(doc)


def invocation(name: str) -> tuple[str, list | dict]:
    """How a case runs: ``("argv", command line)`` or ``("call", check arguments)``."""
    case = CASES[name]
    return ("call", case) if isinstance(case, dict) else ("argv", case)


def run_case(name: str) -> tuple[int, str]:
    """``run`` or ``check`` of one case, under the corrupted ep generator if in ``CORRUPT_EP``."""
    kind, case = invocation(name)
    with corrupt_ep_generation() if name in CORRUPT_EP else contextlib.nullcontext():
        return run(case) if kind == "argv" else check(case)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _yes_no_fields(details: dict, prefix: str = "") -> dict:
    out = {}
    for key, value in details.items():
        if isinstance(value, dict):
            out.update(_yes_no_fields(value, f"{prefix}{key}."))
        elif isinstance(value, bool):
            out[prefix + key] = value
    return out


def _verdict(payload: dict) -> dict:
    cex = payload["counterexample"]
    details = payload["details"]
    return {
        "theorem_id": payload["theorem_id"],
        "trials": payload["trials"],
        "failures": payload["failures"],
        "warnings": payload["warnings"],
        "counterexample_trial": None if cex is None else cex["trial"],
        "accepting_trials": details["accepting_trials"],
        "rejecting_trials": details["rejecting_trials"],
        "yes_no": _yes_no_fields(details),
    }


def verdict_layer(code: int, text: str) -> dict:
    """What a report decides, as opposed to the digits it reports."""
    doc = json.loads(text)
    payload = doc["payload"]
    kind = doc["payload_kind"]
    layer: dict = {"exit": code, "kind": kind}
    if kind == "limit_study":
        layer["rows"] = len(payload["rows"])
        layer["non_ep_rows"] = [row["n"] for row in payload["rows"] if not row["is_ep"]]
    elif kind == "classification":
        layer.update({key: payload[key] for key in ("is_ep", "is_hypo_ep", "rank")})
    elif kind == "suite":
        layer["all_passed"] = payload["all_passed"]
        layer["verdicts"] = [_verdict(v) for v in payload["verdicts"]]
    else:
        layer["verdict"] = _verdict(payload)
    return layer


def record(name: str) -> tuple[dict, str]:
    """The corpus entry of one case, from a fresh run, plus its report text."""
    code, text = run_case(name)
    kind, case = invocation(name)
    return {kind: case, "sha256": sha256(text), "verdict": verdict_layer(code, text)}, text


def load() -> dict:
    return json.loads(CORPUS.read_text())


def report_path(name: str) -> Path:
    return GOLDEN / f"{name}.json"


def field_diff(old, new, path: str = "") -> list[str]:
    """One line per leaf that differs between two JSON values."""
    if isinstance(old, dict) and isinstance(new, dict):
        lines = []
        for key in sorted(old.keys() | new.keys()):
            sub = f"{path}.{key}" if path else key
            if key not in new:
                lines.append(f"{sub}: removed (was {old[key]!r})")
            elif key not in old:
                lines.append(f"{sub}: added {new[key]!r}")
            else:
                lines += field_diff(old[key], new[key], sub)
        return lines
    if isinstance(old, list) and isinstance(new, list):
        lines = []
        for i in range(max(len(old), len(new))):
            sub = f"{path}[{i}]"
            if i >= len(new):
                lines.append(f"{sub}: removed (was {old[i]!r})")
            elif i >= len(old):
                lines.append(f"{sub}: added {new[i]!r}")
            else:
                lines += field_diff(old[i], new[i], sub)
        return lines
    if old == new and type(old) is type(new):
        return []
    return [f"{path}: {old!r} -> {new!r}"]
