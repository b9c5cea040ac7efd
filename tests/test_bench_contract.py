"""The names and behaviour the benchmark's tracer relies on.

``perfbench/tracer.py`` wraps package functions by their module-level
names and derives per-layer metrics from the calls it sees. A renamed
function, or one that is no longer called through its module global,
turns a metric into ``null`` or a wrong number without failing any other
test.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from osnmatch import synth

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer_contract", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves():
    targets = _tracer_module().TARGETS
    unresolved = [
        name for name in targets
        if getattr(importlib.import_module(f"osnmatch.{name.split('.')[0]}"),
                   name.split(".")[1], None) is None
    ]
    assert unresolved == []


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("contract-corpus")
    synth.generate_corpus(12, 0.15, 42, str(out))
    return out


@pytest.mark.parametrize(
    "model",
    [("--model", "ps", "--all-measures"), ("--model", "temporal"),
     ("--model", "embedding")],
    ids=["ps-all", "temporal", "embedding"],
)
def test_traced_run_has_every_metric(corpus_dir, tmp_path, model):
    trace = tmp_path / "trace.json"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    )}
    proc = subprocess.run(
        [sys.executable, str(TRACER), str(trace), "--", "run", *model,
         "--data-dir", str(corpus_dir), "--k", "2", "--max-epochs", "2",
         "--output", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    doc = json.loads(trace.read_text(encoding="utf-8"))
    metrics = doc["metrics"]
    assert doc["missing"] == []
    assert [name for name, value in metrics.items() if value is None] == []
    assert metrics["temporal_features.histograms_per_account"] <= 1.2
    assert metrics["embedding_features.embeds_per_field"] <= 1.2
    if model[1] == "ps":
        raw = [name for name in metrics if name.startswith("strsim.")
               and name.endswith(".calls")]
        assert len(raw) == 10
        assert all(metrics[name] > 0 for name in raw)
    else:
        key = {"temporal": "temporal_features.histograms_per_account",
               "embedding": "embedding_features.embeds_per_field"}[model[1]]
        assert metrics[key] >= 1.0
    if model[1] == "temporal":
        # the history holds every epoch of both folds (two epochs each, so
        # a list per fold would count 2), and the steps go through
        # mlp.adam_step
        assert metrics["mlp.epochs"] == 4
        assert metrics["mlp.steps"] > 0
    assert len(doc["scores"]) == len(doc["labels"]) > 0
