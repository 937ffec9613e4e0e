"""Seeded reports against the golden corpus in tests/golden/ (see golden_corpus.py).

The verdict layer is asserted everywhere; the report digests only where the
environment fingerprint is the recorded one.  After a change that alters
report bytes on purpose, ``tests/golden/refresh.py`` shows each changed
field and rewrites the corpus.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import epkit
import golden_corpus as gc

CORPUS = gc.load()


@pytest.fixture(scope="module")
def fresh():
    """Exit code and report text of each case, run once per module."""
    runs = {}

    def get(name):
        if name not in runs:
            runs[name] = gc.run_case(name)
        return runs[name]

    return get


def test_corpus_covers_every_case():
    assert sorted(CORPUS["cases"]) == sorted(gc.CASES)
    for name, entry in CORPUS["cases"].items():
        kind, case = gc.invocation(name)
        assert entry[kind] == case
        assert gc.sha256(gc.report_path(name).read_text()) == entry["sha256"]


@pytest.mark.parametrize("name", list(gc.CASES))
def test_verdict_layer(fresh, name):
    code, text = fresh(name)
    assert gc.verdict_layer(code, text) == CORPUS["cases"][name]["verdict"]


@pytest.mark.parametrize("name", list(gc.CASES))
def test_report_bytes(fresh, name):
    if gc.fingerprint() != CORPUS["fingerprint"]:
        pytest.skip(f"recorded in {CORPUS['fingerprint']}, not in {gc.fingerprint()}")
    code, text = fresh(name)
    if gc.sha256(text) != CORPUS["cases"][name]["sha256"]:
        recorded = json.loads(gc.report_path(name).read_text())
        diff = gc.field_diff(recorded, json.loads(text))
        pytest.fail(f"{name}: report bytes changed\n" + "\n".join(diff[:20]))


def test_verdict_layer_holds_across_blas_thread_counts():
    """Past dim 64 the BLAS thread count moves a report's last bits, never a verdict.

    The two fresh processes run side by side, so the test costs about one run.
    """
    argv = ["suite", "--dim", "128", "--rank", "126", "--trials", "3", "--seed", "1"]
    paths = [str(Path(epkit.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    code = "import sys; from epkit.cli import main; sys.exit(main())"
    procs = [
        subprocess.Popen([sys.executable, "-c", code, *argv], stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True,
                         env={**env, "OPENBLAS_NUM_THREADS": threads})
        for threads in ("1", "2")
    ]
    layers = []
    for proc in procs:
        out, err = proc.communicate()
        assert proc.returncode in (0, 1), err
        layers.append(gc.verdict_layer(proc.returncode, out))
    assert layers[0] == layers[1]
    assert layers[0]["all_passed"]
