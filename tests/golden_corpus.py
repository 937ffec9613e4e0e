"""The golden corpus: seeded ``epkit`` reports pinned in ``tests/golden/``.

Each case is one command line.  ``corpus.json`` records, per case, two
layers:

- the verdict layer (exit code, failures, warnings, counterexample trial,
  accepting and rejecting counts, every yes/no field of the details, which
  model rows are EP, and a classified matrix's EP and hypo-EP verdicts and
  rank), which must hold on every machine;
- the sha256 of the report bytes, which must hold only where the
  environment fingerprint (numpy version, BLAS name and version, machine)
  is the recorded one, since a report is byte-reproducible only within one
  environment.

The report itself is kept beside it as ``<case>.json``, so that a changed
digest can be shown field by field (``tests/golden/refresh.py``).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
from pathlib import Path

import numpy as np

from epkit import FAMILIES
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
    "suite-seed1-d8-t10": ["suite", "--seed", "1", "--dim", "8", "--trials", "10"],
    "verify-thm1.5-d32-t6": ["verify", "thm1.5", "--dim", "32", "--trials", "6"],
    # Ten trials cover each of thm2.16's five dominance modes twice.
    "verify-thm2.16-d5-r3-t10": [
        "verify", "thm2.16", "--dim", "5", "--rank", "3", "--trials", "10", "--seed", "2",
    ],
    **{f"classify-{m}": ["classify", "--input", f"inputs/{m}.json"] for m in CLASSIFY_INPUTS},
}


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
    argv = CASES[name]
    code, text = run(argv)
    return {"argv": argv, "sha256": sha256(text), "verdict": verdict_layer(code, text)}, text


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
