"""Show how fresh ``epkit`` reports differ from the golden corpus, or rewrite it.

    PYTHONPATH=src python tests/golden/refresh.py            # diff only
    PYTHONPATH=src python tests/golden/refresh.py --write    # rewrite the corpus

Runs every case of ``tests/golden_corpus.py``, command lines and
``run_theorem_check`` calls alike, with the epkit on the import path and
prints, per case, each field that differs from the committed
corpus: first the verdict layer, then the report itself.  Without
``--write`` it exits 1 when anything differs; with it, it rewrites
``corpus.json`` and the stored reports, and records this environment's
fingerprint.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import golden_corpus as gc  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--write", action="store_true", help="rewrite the corpus")
    args = parser.parse_args(argv)

    old = gc.load() if gc.CORPUS.is_file() else {"fingerprint": None, "cases": {}}
    here = gc.fingerprint()
    if old["fingerprint"] != here:
        print(f"fingerprint: recorded {old['fingerprint']}, here {here}; "
              "digests are comparable only within one environment")
    changed = False
    cases = {}
    for name in gc.CASES:
        entry, text = gc.record(name)
        cases[name] = entry
        before = old["cases"].get(name)
        if before is None:
            lines = ["new case"]
        else:
            lines = gc.field_diff(before["verdict"], entry["verdict"], "verdict")
        if before is not None and before["sha256"] != entry["sha256"]:
            path = gc.report_path(name)
            old_report = json.loads(path.read_text()) if path.is_file() else {}
            lines.append(f"sha256: {before['sha256'][:16]} -> {entry['sha256'][:16]}")
            lines += gc.field_diff(old_report, json.loads(text), "report")
        if lines:
            changed = True
            print(f"{name}:")
            print("\n".join(f"  {line}" for line in lines))
        if args.write:
            gc.report_path(name).write_text(text)
    if args.write:
        gc.CORPUS.write_text(
            json.dumps({"fingerprint": here, "cases": cases}, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {gc.CORPUS}")
        return 0
    if not changed:
        print("every case matches the corpus")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
