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
bytes.  One encoder, ``_canonical_json``, renders every report and matrix
file.  Its contract: the bytes of the standard json encoder with
``sort_keys=True, indent=2, allow_nan=False``, plus a newline, for a tree
of str-keyed dicts, lists, tuples, str, int, float, bool and None,
subclasses included (``np.float64`` is a float); on a non-finite float or
a value of any other type, json's exception with json's text.  json runs
its C encoder only when ``indent`` is None, so an indented render takes
json's pure-Python generators, at about twice the cost of this encoder.
``tests/test_serialize.py`` checks it against json as an oracle.  Timing
fields default to 0 for reproducible output; the CLI's --timings flag
substitutes measured values.

A MatrixFile decodes as arrays: its rows, entries and parts are checked in
whole-list passes and its parts converted by one numpy call, to the same
bits as ``complex(float(re), float(im))`` per entry.  A file that fails
those passes is scanned entry by entry in row-major order, and the first
fault is reported.  A shape past the ``MAX_DIM`` cap is rejected before
any entry is read.

A classification or theorem-verdict payload is exactly the fields of its
dataclass (``report_payload``); the suite and limit-study payloads are
assembled by the CLI.
"""

from __future__ import annotations

import json
import math
from dataclasses import fields
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .core import require_within_cap
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
    data = np.stack([m.real, m.imag], -1).tolist()
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
    require_within_cap((rows, cols))
    data = doc["data"]
    if not isinstance(data, list) or len(data) != rows:
        raise MatrixFileError(f"data must be a list of {rows} rows")
    parts = _finite_parts(data, cols)
    if parts is None:
        _raise_first_fault(data, cols)
    return parts.view(np.complex128).reshape(rows, cols)


def _finite_parts(data: list, cols: int) -> np.ndarray | None:
    """Every [re, im] part of ``data``, row-major, as one float64 array.

    None when a row, an entry or a part is malformed or not finite.
    """
    if not all(map(isinstance, data, repeat(list))) or {*map(len, data)} != {cols}:
        return None
    entries = list(chain.from_iterable(data))
    if not all(map(isinstance, entries, repeat(list))) or {*map(len, entries)} != {2}:
        return None
    parts = list(chain.from_iterable(entries))
    if not all(map(isinstance, parts, repeat((int, float)))) or any(
        map(isinstance, parts, repeat(bool))
    ):
        return None
    try:
        values = np.array(parts, dtype=np.float64)
    except OverflowError:  # an integer beyond the float range
        return None
    return values if np.isfinite(values).all() else None


def _raise_first_fault(data: list, cols: int) -> None:
    """Raise the error of the first malformed row or entry in row-major order."""
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
                finite = math.isfinite(entry[0]) and math.isfinite(entry[1])
            except OverflowError:  # an integer beyond the float range
                finite = False
            if not finite:
                raise MatrixFileError(f"entry ({i}, {j}) is not finite")


def parse_matrix_text(text: str) -> np.ndarray:
    return matrix_from_payload(_loads(text))


def read_matrix_file(path) -> np.ndarray:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise MatrixFileError(f"cannot read {path}: {exc}") from exc
    return parse_matrix_text(text)


def write_matrix_file(path, matrix) -> None:
    Path(path).write_text(_canonical_json(matrix_to_payload(matrix)))


def report_payload(report) -> dict:
    """A ClassificationReport or TheoremVerdict as its payload.

    The keys are exactly the dataclass's fields, and each value is the one
    the field holds.  Shallow on purpose: a verdict's counterexample
    matrices are already MatrixFile payloads, and copying them would cost
    far more than the rest of the report.
    """
    return {f.name: getattr(report, f.name) for f in fields(report)}


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
    return _canonical_json(doc)


def _canonical_json(doc) -> str:
    """``doc`` as canonical JSON text, ending in a newline (module docstring).

    A document is a tree: a cycle recurses until RecursionError, where json
    raises ValueError.  Dict keys must be str; json would also take int,
    float, bool and None keys.
    """
    return _encode(doc, "\n") + "\n"


# The base classes' reprs, so a subclass writes as its base does: the repr
# of np.float64(0.5) is "np.float64(0.5)".
_float_repr = float.__repr__
_int_repr = int.__repr__
_isfinite = math.isfinite


def _encode(value, newline: str) -> str:
    """``value`` as canonical JSON; ``newline`` is "\\n" and the indent of its line.

    Dispatches on the exact type first, then on isinstance for subclasses,
    in json's order.
    """
    kind = type(value)
    if kind is float:
        return _float_text(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return _int_repr(value)
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is None:
        return "null"
    if kind is dict:
        return _dict_text(value, newline)
    if kind is list or kind is tuple:
        return _list_text(value, newline)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, int):
        return _int_repr(value)
    if isinstance(value, float):
        return _float_text(value)
    if isinstance(value, (list, tuple)):
        return _list_text(value, newline)
    if isinstance(value, dict):
        return _dict_text(value, newline)
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def _float_text(value) -> str:
    if _isfinite(value):
        return _float_repr(value)
    raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")


# A finite float of exact type, the commonest value of a report or matrix
# file, is written in place in the two loops below, without a call to
# ``_encode``: about a tenth of a model report's render time.


def _list_text(items, newline: str) -> str:
    if not items:
        return "[]"
    inner = newline + "  "
    parts = []
    for v in items:
        if type(v) is float and _isfinite(v):
            parts.append(_float_repr(v))
        else:
            parts.append(_encode(v, inner))
    return "[" + inner + ("," + inner).join(parts) + newline + "]"


def _dict_text(mapping, newline: str) -> str:
    if not mapping:
        return "{}"
    inner = newline + "  "
    parts = []
    for key in sorted(mapping):
        v = mapping[key]
        if type(v) is float and _isfinite(v):
            parts.append(encode_basestring_ascii(key) + ": " + _float_repr(v))
        else:
            parts.append(encode_basestring_ascii(key) + ": " + _encode(v, inner))
    return "{" + inner + ("," + inner).join(parts) + newline + "}"


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
