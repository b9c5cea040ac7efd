"""Each piece of pipeline state is kept once: ``profile_features.per_side``
alone maps a pair's sides to platforms, ``folds`` and ``score-pair``
declare none of the options they share with ``run``, ``cli.FAMILIES``
alone says which model reads posts, ``dataset`` alone declares the
corpus format, ``HistogramMode`` alone names the temporal modes,
``DimensionMismatchError`` is the one shape error, ``ps_schema`` gives
the ``ps`` column names with no reordering beside them, ``ps_layout``
alone orders the ``ps`` columns, ``dataset`` alone names the text fields
the embedding reads, the package ``__init__`` loads none of the modules,
and ``evaluation.fold_partitions`` alone picks the kind of folds."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import osnmatch
from osnmatch import cli, errors
from osnmatch.dataset import PS_TEXT_FIELDS
from osnmatch.profile_features import ps_schema
from osnmatch.strsim import Measure
from osnmatch.temporal_features import HistogramMode

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
                                        "data_dir", "profiles", "pairs"]
    for param in shared:
        assert param is run_params[param.name], param.name


def test_score_pair_takes_its_measure_options_from_run():
    run_params = {p.name: p for p in cli.run.params}
    shared = [p for p in cli.score_pair.params if p.name in run_params]
    assert [p.name for p in shared] == ["measure", "include_names"]
    for param in shared:
        assert param is run_params[param.name], param.name


def test_only_temporal_reads_posts():
    assert [name for name, family in cli.FAMILIES.items()
            if "posts" in family.options] == ["temporal"]
    assert "reads_posts" not in cli.Family._fields


def _tree(module):
    return ast.parse((PACKAGE / module).read_text(encoding="utf-8"))


MODULES = sorted(path.name for path in PACKAGE.glob("*.py"))


def test_dataset_imports_no_package_module_but_errors():
    imported = {(node.level, node.module) for node in ast.walk(_tree("dataset.py"))
                if isinstance(node, ast.ImportFrom)
                and (node.level or node.module.startswith("osnmatch"))}
    assert imported == {(1, "errors")}


@pytest.mark.parametrize("module", MODULES)
def test_no_type_checking_guard(module):
    assert "TYPE_CHECKING" not in _names(module)


@pytest.mark.parametrize("module", [m for m in MODULES if m != "dataset.py"])
def test_corpus_format_is_spelled_only_in_dataset(module):
    format_names = {"profiles.jsonl", "posts.jsonl", "pairs.csv", "twitter_id", "flickr_id"}
    constants = {node.value for node in ast.walk(_tree(module))
                 if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    assert not constants & format_names


def test_cli_takes_the_temporal_modes_from_histogram_mode():
    constants = {node.value for node in ast.walk(_tree("cli.py"))
                 if isinstance(node, ast.Constant)}
    assert not constants & {mode.value for mode in HistogramMode}
    (param,) = [p for p in cli.run.params if p.name == "temporal_mode"]
    assert list(param.type.choices) == [mode.value for mode in HistogramMode]


def test_errors_has_one_shape_mismatch_class():
    assert [name for name in vars(errors) if name.endswith("MismatchError")] == [
        "DimensionMismatchError"
    ]


@pytest.mark.parametrize("names", [True, False], ids=["names", "no-names"])
@pytest.mark.parametrize("measure", [Measure.EDITEX, None], ids=["one", "all"])
def test_ps_schema_is_the_names_alone(measure, names):
    schema = ps_schema(measure, names)
    assert type(schema) is list
    assert all(type(name) is str for name in schema)


def test_importing_dataset_loads_no_other_package_module():
    code = ("import sys, osnmatch.dataset; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'osnmatch'))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(PACKAGE.parent), *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env).stdout
    assert ast.literal_eval(out) == ["osnmatch", "osnmatch.dataset", "osnmatch.errors"]


@pytest.mark.parametrize("folder", ["k_folds", "k_folds_user_disjoint"])
def test_one_function_picks_the_kind_of_folds(folder):
    users = set()
    for module in MODULES:
        for node in ast.walk(_tree(module)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                isinstance(n, ast.Name) and n.id == folder for n in ast.walk(node)
            ):
                users.add((module, node.name))
    assert users == {("evaluation.py", "fold_partitions")}


def _strings(module, in_f_strings=True):
    """The module's string constants; the pieces of f-strings only if
    ``in_f_strings``."""
    tree = _tree(module)
    pieces = {id(v) for node in ast.walk(tree) if isinstance(node, ast.JoinedStr)
              for v in node.values}
    return {node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and (in_f_strings or id(node) not in pieces)}


def test_score_pair_reads_the_ps_layout_not_the_column_names():
    strings = _strings("cli.py")
    assert "post_ratio" not in strings
    assert not [text for text in strings if text.endswith("_score")]
    assert "removesuffix" not in _names("cli.py")


def test_ps_column_names_are_spelled_only_by_the_naming_rule():
    # ps_schema's f-string is the rule; a whole literal would be a second list
    assert "insert" not in _names("profile_features.py")  # nor is a column moved
    assert not [text for text in _strings("profile_features.py", in_f_strings=False)
                if text.endswith("_score")]


def test_embedding_takes_its_text_fields_from_dataset():
    assert not _strings("embedding_features.py") & set(PS_TEXT_FIELDS)
