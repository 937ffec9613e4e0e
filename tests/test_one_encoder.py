"""``serialize._canonical_json`` is the only JSON encoder in ``src/epkit``.

Every report and matrix file is rendered by that one encoder, whose bytes
``tests/test_serialize.py`` checks against json's.  An AST walk finds every
reference to json's ``dump`` or ``dumps``, under any alias, in every module
of the package, so no module writes JSON another way.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "epkit").rglob("*.py"))
DUMPERS = {"dump", "dumps"}


def json_dump_references(source: str) -> list[int]:
    """Sorted lines that name json's dump or dumps: ``json.dumps``, an alias's
    ``.dump`` or ``from json import dumps as d``."""
    tree = ast.parse(source)
    aliases = {"json"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases |= {a.asname for a in node.names if a.name == "json" and a.asname}
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in DUMPERS:
            if getattr(node.value, "id", None) in aliases:
                lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            if any(alias.name in DUMPERS for alias in node.names):
                lines.append(node.lineno)
    return sorted(lines)


def test_every_module_is_walked():
    assert {p.name for p in MODULES} >= {"serialize.py", "cli.py", "harness.py", "models.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_calls_json_dump(path):
    lines = json_dump_references(path.read_text())
    assert lines == [], (
        f"{path.name} calls json.dump/dumps at lines {lines}; use serialize._canonical_json"
    )


def test_the_walk_finds_every_spelling():
    source = (
        "import json\n"
        "import json as j\n"
        "from json import dumps as d\n"
        "from json import loads, dump\n"
        "text = json.dumps(doc, indent=2)\n"
        "j.dump(doc, handle)\n"
        "f = j.dumps\n"
        "ok = json.loads(text), obj.dumps(doc), json.dumpsx, pickle.dumps(doc)\n"
        "from json import loads\n"
        "from json.encoder import encode_basestring_ascii\n"
    )
    assert json_dump_references(source) == [3, 4, 5, 6, 7]
