"""Each piece of pipeline state is kept once: ``profile_features.per_side``
alone maps a pair's sides to platforms, and ``folds`` declares none of
the corpus options it shares with ``run``."""

import ast
from pathlib import Path

import pytest

import osnmatch
from osnmatch import cli

PACKAGE = Path(osnmatch.__file__).parent


def _names(module):
    """Every identifier the module uses: names, attributes and imports."""
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
            | {node.name for node in ast.walk(tree) if isinstance(node, ast.alias)})


@pytest.mark.parametrize("module", ["temporal_features.py", "embedding_features.py"])
def test_feature_families_leave_platforms_to_per_side(module):
    names = _names(module)
    assert "per_side" in names
    assert "Platform" not in names


def test_folds_takes_its_corpus_options_from_run():
    run_params = {p.name: p for p in cli.run.params}
    shared = [p for p in cli.folds.params if p.name != "output_path"]
    assert [p.name for p in shared] == ["neg_ratio", "k", "seed", "user_disjoint",
                                        "data_dir", "profiles", "posts", "pairs"]
    for param in shared:
        assert param is run_params[param.name], param.name
