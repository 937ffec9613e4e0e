"""Seeded reports against the golden corpus in tests/golden/ (see golden_corpus.py).

The verdict layer is asserted everywhere; the report digests only where the
environment fingerprint is the recorded one.  After a change that alters
report bytes on purpose, ``tests/golden/refresh.py`` shows each changed
field and rewrites the corpus.
"""

import json

import pytest

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
