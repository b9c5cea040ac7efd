"""The package has one input path: ``errors.open_input`` opens every input
file, its handle is read only through the reader of ``errors`` that
checks each line for bytes that are not UTF-8, and ``dataset`` decodes
JSON with one scanner, asking ``json.loads`` only for the wording of an
error."""

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
    nodes = list(ast.walk(_tree(name)))
    words = {_name(node) for node in nodes}
    words |= {node.value for node in nodes
              if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    assert "UnicodeDecodeError" not in words
    assert not [word for word in words if word and "surrogateescape" in word]


CHECKED_READERS = {"line_blocks", "input_lines"}


def test_input_files_are_read_only_through_the_checked_reader():
    readers = set()
    for path in MODULES:
        if path.name == "errors.py":
            continue
        tree = _tree(path.name)
        parents = {child: node for node in ast.walk(tree)
                   for child in ast.iter_child_nodes(node)}
        for call in ast.walk(tree):
            if not (isinstance(call, ast.Call) and _name(call.func) == "open_input"):
                continue
            # opened only as ``with open_input(path) as fh:``
            item = parents[call]
            assert isinstance(item, ast.withitem) and isinstance(item.optional_vars, ast.Name)
            handle = item.optional_vars.id
            block = parents[item]
            # and every use of fh in the block is an argument of a checked reader
            uses = [node for node in ast.walk(block) if isinstance(node, ast.Name)
                    and node.id == handle and node is not item.optional_vars]
            for node in uses:
                reader = parents[node]
                where = (path.name, node.lineno)
                assert isinstance(reader, ast.Call) and node in reader.args, where
                assert _name(reader.func) in CHECKED_READERS, where
            while not isinstance(block, ast.FunctionDef):
                block = parents[block]
            readers.add((path.name, block.name))
    assert readers == {
        ("cli.py", "_read_config_file"), ("cli.py", "_read_profile"),
        ("dataset.py", "_load_profiles"), ("dataset.py", "_load_posts"),
        ("dataset.py", "_load_pairs"), ("embedding_features.py", "_read_lines"),
    }


def test_dataset_calls_json_loads_only_to_word_an_error():
    tree = _tree("dataset.py")
    bad_json = next(node for node in ast.walk(tree)
                    if isinstance(node, ast.FunctionDef) and node.name == "_bad_json")
    uses = [node for node in ast.walk(tree) if _name(node) == "loads"]
    inside = [node for node in ast.walk(bad_json) if _name(node) == "loads"]
    assert uses == inside and len(uses) == 1
