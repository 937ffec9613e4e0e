"""JSON wire formats: matrix files and report files.

MatrixFile (version "1")::

    {"version": "1", "rows": R, "cols": C,
     "data": [[[re, im], ...C entries...], ...R rows...]}

ReportFile::

    {"tool_version": "...", "tolerances": {"rank_rtol": ..., "eq_atol": ...},
     "payload_kind": "classification" | "theorem_verdict" | "suite" | "limit_study",
     "payload": ..., "wall_time_ms": int}

Rendering is canonical (sorted keys, two-space indent, trailing newline) and
refuses non-finite floats, so identical payloads serialize to identical
bytes.  Timing fields default to 0 for reproducible output; the CLI's
--timings flag substitutes measured values.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import MatrixFileError

TOOL_VERSION = "0.1.0"
MATRIX_FILE_VERSION = "1"

KIND_CLASSIFICATION = "classification"
KIND_THEOREM = "theorem_verdict"
KIND_SUITE = "suite"
KIND_LIMIT_STUDY = "limit_study"
REPORT_KINDS = (KIND_CLASSIFICATION, KIND_THEOREM, KIND_SUITE, KIND_LIMIT_STUDY)


def _reject_constant(name: str):
    raise MatrixFileError(f"non-finite JSON constant {name!r} is not allowed")


def _loads(text: str):
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except ValueError as exc:  # malformed JSON, or an integer past int's digit limit
        raise MatrixFileError(f"invalid JSON: {exc}") from exc


def matrix_to_payload(matrix) -> dict:
    """Encode a matrix as a MatrixFile payload dictionary."""
    m = np.asarray(matrix, dtype=np.complex128)
    if m.ndim != 2:
        raise MatrixFileError(f"expected a 2-D matrix, got ndim={m.ndim}")
    rows, cols = m.shape
    data = [
        [[float(m[i, j].real), float(m[i, j].imag)] for j in range(cols)]
        for i in range(rows)
    ]
    return {"version": MATRIX_FILE_VERSION, "rows": rows, "cols": cols, "data": data}


def matrix_from_payload(doc) -> np.ndarray:
    """Decode and validate a MatrixFile payload dictionary."""
    if not isinstance(doc, dict):
        raise MatrixFileError("matrix document must be a JSON object")
    missing = {"version", "rows", "cols", "data"} - doc.keys()
    if missing:
        raise MatrixFileError(f"matrix document lacks fields: {sorted(missing)}")
    if doc["version"] != MATRIX_FILE_VERSION:
        raise MatrixFileError(f"unsupported matrix file version {doc['version']!r}")
    rows, cols = doc["rows"], doc["cols"]
    if (
        not isinstance(rows, int)
        or not isinstance(cols, int)
        or isinstance(rows, bool)
        or isinstance(cols, bool)
        or rows < 1
        or cols < 1
    ):
        raise MatrixFileError(f"rows/cols must be positive integers, got {rows!r}/{cols!r}")
    data = doc["data"]
    if not isinstance(data, list) or len(data) != rows:
        raise MatrixFileError(f"data must be a list of {rows} rows")
    out = np.zeros((rows, cols), dtype=np.complex128)
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != cols:
            raise MatrixFileError(f"row {i} must be a list of {cols} entries")
        for j, entry in enumerate(row):
            if (
                not isinstance(entry, list)
                or len(entry) != 2
                or not all(
                    isinstance(part, (int, float)) and not isinstance(part, bool)
                    for part in entry
                )
            ):
                raise MatrixFileError(f"entry ({i}, {j}) must be a [re, im] number pair")
            try:
                re, im = float(entry[0]), float(entry[1])
            except OverflowError:  # an integer beyond the float range
                raise MatrixFileError(f"entry ({i}, {j}) is not finite") from None
            if not np.isfinite(re) or not np.isfinite(im):
                raise MatrixFileError(f"entry ({i}, {j}) is not finite")
            out[i, j] = complex(re, im)
    return out


def parse_matrix_text(text: str) -> np.ndarray:
    return matrix_from_payload(_loads(text))


def read_matrix_file(path) -> np.ndarray:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise MatrixFileError(f"cannot read {path}: {exc}") from exc
    return parse_matrix_text(text)


def write_matrix_file(path, matrix) -> None:
    Path(path).write_text(
        json.dumps(matrix_to_payload(matrix), sort_keys=True, indent=2, allow_nan=False)
        + "\n"
    )


def classification_to_payload(report) -> dict:
    return {
        "dim": int(report.dim),
        "rank": int(report.rank),
        "is_ep": bool(report.is_ep),
        "is_hypo_ep": bool(report.is_hypo_ep),
        "is_normal": bool(report.is_normal),
        "gamma": float(report.gamma),
        "spectral_radius": float(report.spectral_radius),
        "commutator_residual": float(report.commutator_residual),
        "range_gap": float(report.range_gap),
        "zero_operator": bool(report.zero_operator),
    }


def classification_from_payload(doc):
    from .classify import ClassificationReport

    try:
        return ClassificationReport(
            dim=int(doc["dim"]),
            rank=int(doc["rank"]),
            is_ep=bool(doc["is_ep"]),
            is_hypo_ep=bool(doc["is_hypo_ep"]),
            is_normal=bool(doc["is_normal"]),
            gamma=float(doc["gamma"]),
            spectral_radius=float(doc["spectral_radius"]),
            commutator_residual=float(doc["commutator_residual"]),
            range_gap=float(doc["range_gap"]),
            zero_operator=bool(doc["zero_operator"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise MatrixFileError(f"invalid classification payload: {exc}") from exc


def verdict_to_payload(verdict) -> dict:
    return {
        "theorem_id": verdict.theorem_id,
        "trials": int(verdict.trials),
        "failures": int(verdict.failures),
        "worst_residual": float(verdict.worst_residual),
        "counterexample": verdict.counterexample,
        "elapsed_ms": int(verdict.elapsed_ms),
        "warnings": int(verdict.warnings),
        "notes": list(verdict.notes),
        "details": dict(verdict.details),
    }


def verdict_from_payload(doc):
    from .harness import TheoremVerdict

    try:
        return TheoremVerdict(
            theorem_id=str(doc["theorem_id"]),
            trials=int(doc["trials"]),
            failures=int(doc["failures"]),
            worst_residual=float(doc["worst_residual"]),
            counterexample=doc["counterexample"],
            elapsed_ms=int(doc["elapsed_ms"]),
            warnings=int(doc["warnings"]),
            notes=tuple(doc["notes"]),
            details=dict(doc["details"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise MatrixFileError(f"invalid verdict payload: {exc}") from exc


def report_document(kind: str, payload, tol, wall_time_ms: int = 0) -> dict:
    if kind not in REPORT_KINDS:
        raise MatrixFileError(f"unknown report kind {kind!r}")
    return {
        "tool_version": TOOL_VERSION,
        "tolerances": {"rank_rtol": float(tol.rank_rtol), "eq_atol": float(tol.eq_atol)},
        "payload_kind": kind,
        "payload": payload,
        "wall_time_ms": int(wall_time_ms),
    }


def render_report(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def parse_report(text: str) -> dict:
    doc = _loads(text)
    if not isinstance(doc, dict):
        raise MatrixFileError("report must be a JSON object")
    missing = {"tool_version", "tolerances", "payload_kind", "payload", "wall_time_ms"} - doc.keys()
    if missing:
        raise MatrixFileError(f"report lacks fields: {sorted(missing)}")
    if doc["payload_kind"] not in REPORT_KINDS:
        raise MatrixFileError(f"unknown report kind {doc['payload_kind']!r}")
    return doc
