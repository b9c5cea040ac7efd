"""The package has one input path: ``errors.open_input`` opens every input
file and alone turns a decoding failure into a ParseError, and
``dataset`` decodes JSON with one scanner, asking ``json.loads`` only for
the wording of an error."""

import ast
from pathlib import Path

import pytest

import osnmatch

PACKAGE = Path(osnmatch.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))


def _name(node):
    """The identifier a node uses, if any: a name, an attribute or an import."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name
    return None


def _tree(name):
    return ast.parse((PACKAGE / name).read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", [p.name for p in MODULES if p.name != "errors.py"])
def test_only_errors_handles_undecodable_bytes(name):
    names = {_name(node) for node in ast.walk(_tree(name))}
    assert not names & {"UnicodeDecodeError", "undecodable_line"}


def test_dataset_calls_json_loads_only_to_word_an_error():
    tree = _tree("dataset.py")
    bad_json = next(node for node in ast.walk(tree)
                    if isinstance(node, ast.FunctionDef) and node.name == "_bad_json")
    uses = [node for node in ast.walk(tree) if _name(node) == "loads"]
    inside = [node for node in ast.walk(bad_json) if _name(node) == "loads"]
    assert uses == inside and len(uses) == 1
