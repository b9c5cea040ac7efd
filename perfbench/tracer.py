"""Per-layer tracing of one in-process `osnmatch` CLI invocation.

Timing and counting wrappers replace public functions of the osnmatch
modules under the module-level name each caller looks them up by (for
example ``evaluation.train`` is what ``_run_fold`` calls, and
``strsim.editex`` is what ``normalized_similarity`` calls). No file of the
package changes. Spans are aggregated per wrapped name as they close: call
count, total time and self time (total minus the time of directly nested
wrapped calls). A wrapped name the package no longer has is recorded as
missing, and every metric derived from it is reported as missing.

Run as a script, with ``src`` on ``sys.path``::

    python3 perfbench/tracer.py TRACE.json -- run --model ps --data-dir c ...

It runs ``osnmatch.cli.main([...], standalone_mode=False)`` under the
wrappers and writes the per-layer metrics, the missing targets and the
pooled out-of-fold ``p(same)`` scores with their labels to TRACE.json.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

RAW_MEASURES = (
    "levenshtein",
    "damerau_levenshtein",
    "editex",
    "jaro_winkler",
    "jaccard_2gram",
    "ncd_bzip2",
    "lcs_length",
    "smith_waterman",
    "cosine_2gram",
)

# every wrapped "module.attr", as the caller looks it up
TARGETS = (
    "cli.load_corpus",
    "cli.negative_sample",
    "cli.k_folds",
    "cli.k_folds_user_disjoint",
    "cli.cross_validate",
    "cli.save_model",
    "cli.extract_ps_features_all_measures",
    "cli.featurize_pairs",
    "cli.extract_temporal_features",
    "cli.pair_embedding_features",
    "evaluation.k_folds",
    "evaluation.k_folds_user_disjoint",
    "evaluation.split",
    "evaluation.train",
    "evaluation.predict_batch",
    "evaluation.confusion",
    "mlp.backward",
    "mlp.adam_step",
    "profile_features.normalized_similarity",
    *(f"strsim.{m}" for m in RAW_MEASURES),
    "temporal_features.build_histogram",
    "embedding_features.embed_field",
)

FEATURIZE = "evaluation.featurize"  # the featurizer handed to cross_validate
MAIN = "cli.main"


class Missing(Exception):
    """A metric's input was not recorded because its target is gone."""


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.accounts: set[tuple[str, str]] = set()
        self.scores: list[float] = []
        self.labels: list[bool] = []
        self.missing: set[str] = set()
        self._open: list[float] = []  # child time of each open span

    def wrap(self, name: str, fn: Callable, before=None, after=None) -> Callable:
        """``before(args, kwargs)`` may return replacement (args, kwargs);
        ``after(args, kwargs, result)`` sees the result. Neither is timed
        into the parent span's child time."""

        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            self._open.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                child = self._open.pop()
                self.calls[name] += 1
                self.total[name] += elapsed
                self.self_time[name] += elapsed - child
                if self._open:
                    self._open[-1] += elapsed
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        hooks = {
            "cli.load_corpus": dict(after=self._count_posts),
            "cli.cross_validate": dict(before=self._wrap_featurizer),
            "cli.featurize_pairs": dict(after=self._count_profile_pairs),
            "cli.extract_ps_features_all_measures": dict(after=self._count_profile_pair),
            "evaluation.train": dict(after=self._count_epochs),
            "evaluation.confusion": dict(after=self._capture_scores),
        }
        for target in TARGETS:
            module_name, attr = target.split(".")
            module = importlib.import_module(f"osnmatch.{module_name}")
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.add(target)
                if target == "cli.cross_validate":
                    self.missing.add(FEATURIZE)
                continue
            setattr(module, attr, self.wrap(target, fn, **hooks.get(target, {})))

    # --- hooks -----------------------------------------------------------

    def _count_posts(self, args, kwargs, corpus) -> None:
        self.counters["posts"] += sum(len(v) for v in corpus.posts.values())

    def _wrap_featurizer(self, args, kwargs):
        import osnmatch.evaluation as evaluation

        bound = inspect.signature(evaluation.cross_validate).bind(*args, **kwargs)
        if "featurizer" not in bound.arguments:
            self.missing.add(FEATURIZE)
            return args, kwargs

        def note_accounts(f_args, f_kwargs):
            for pair in f_args[0]:
                self.accounts.add(("twitter", pair[0]))
                self.accounts.add(("flickr", pair[1]))
            return f_args, f_kwargs

        bound.arguments["featurizer"] = self.wrap(
            FEATURIZE, bound.arguments["featurizer"], before=note_accounts
        )
        return bound.args, bound.kwargs

    def _count_profile_pairs(self, args, kwargs, result) -> None:
        self.counters["profile_pairs"] += len(result)

    def _count_profile_pair(self, args, kwargs, result) -> None:
        self.counters["profile_pairs"] += 1

    def _count_epochs(self, args, kwargs, result) -> None:
        self.counters["epochs"] += len(result[1])

    def _capture_scores(self, args, kwargs, result) -> None:
        preds, labels = args[0], args[1]
        self.scores.extend(p_same(preds))
        self.labels.extend(bool(x) for x in labels)


def p_same(preds) -> list[float]:
    """``p(same)`` from a list of predictions or a probability array."""
    out = []
    for p in preds:
        probs = getattr(p, "probabilities", p)
        out.append(float(probs[1]) if getattr(probs, "ndim", 0) else float(probs))
    return out


# --- per-layer metrics ---------------------------------------------------


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    compute: Callable[["TraceView"], float]


class TraceView:
    """Read access to a finished trace; reading a name that was never
    wrapped raises Missing."""

    def __init__(self, tracer: Tracer) -> None:
        self.t = tracer

    def _check(self, name: str) -> None:
        if name in self.t.missing:
            raise Missing(name)

    def calls(self, name: str) -> int:
        self._check(name)
        return self.t.calls.get(name, 0)

    def s(self, *names: str) -> float:
        """Total seconds spent in the named spans."""
        for name in names:
            self._check(name)
        return sum(self.t.total.get(n, 0.0) for n in names)

    def self_s(self, name: str) -> float:
        self._check(name)
        return self.t.self_time.get(name, 0.0)

    def us_per_call(self, name: str) -> float:
        n = self.calls(name)
        return 1e6 * self.s(name) / n if n else 0.0

    def counter(self, key: str, *needs: str) -> float:
        for name in needs:
            self._check(name)
        return self.t.counters.get(key, 0.0)

    def accounts(self) -> int:
        self._check(FEATURIZE)
        return len(self.t.accounts)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


FOLDS = ("cli.k_folds", "cli.k_folds_user_disjoint", "evaluation.k_folds",
         "evaluation.k_folds_user_disjoint")
PROFILE = ("cli.extract_ps_features_all_measures", "cli.featurize_pairs")


def _embedding_fields() -> int:
    from osnmatch import embedding_features

    fields = getattr(embedding_features, "EMBEDDING_FIELDS", None)
    if fields is None:
        raise Missing("embedding_features.EMBEDDING_FIELDS")
    return len(fields)


PER_LAYER: tuple[LayerMetric, ...] = (
    LayerMetric("dataset.load_corpus_s", "s", "lower", lambda v: v.s("cli.load_corpus")),
    LayerMetric(
        "dataset.posts_per_s", "1/s", "higher",
        lambda v: _ratio(v.counter("posts", "cli.load_corpus"), v.s("cli.load_corpus")),
    ),
    LayerMetric("dataset.negative_sample_s", "s", "lower",
                lambda v: v.s("cli.negative_sample")),
    LayerMetric("dataset.folds_s", "s", "lower", lambda v: v.s(*FOLDS)),
    LayerMetric("dataset.split_s", "s", "lower", lambda v: v.s("evaluation.split")),
    *(
        metric
        for m in RAW_MEASURES
        for metric in (
            LayerMetric(f"strsim.{m}.calls", "count", "lower",
                        lambda v, m=m: v.calls(f"strsim.{m}")),
            LayerMetric(f"strsim.{m}.us", "us", "lower",
                        lambda v, m=m: v.us_per_call(f"strsim.{m}")),
        )
    ),
    LayerMetric("strsim.normalized_similarity.calls", "count", "lower",
                lambda v: v.calls("profile_features.normalized_similarity")),
    LayerMetric(
        "strsim.raw_call_frac", "ratio", "lower",
        lambda v: _ratio(
            sum(v.calls(f"strsim.{m}") for m in RAW_MEASURES),
            v.calls("profile_features.normalized_similarity"),
        ),
    ),
    LayerMetric("profile_features.featurize_s", "s", "lower", lambda v: v.s(*PROFILE)),
    LayerMetric(
        "profile_features.us_per_pair", "us", "lower",
        lambda v: 1e6 * _ratio(v.s(*PROFILE), v.counter("profile_pairs", *PROFILE)),
    ),
    LayerMetric("temporal_features.featurize_s", "s", "lower",
                lambda v: v.s("cli.extract_temporal_features")),
    LayerMetric(
        "temporal_features.histograms_per_account", "ratio", "lower",
        lambda v: _ratio(v.calls("temporal_features.build_histogram"), v.accounts()),
    ),
    LayerMetric("embedding_features.featurize_s", "s", "lower",
                lambda v: v.s("cli.pair_embedding_features")),
    LayerMetric(
        "embedding_features.embeds_per_field", "ratio", "lower",
        lambda v: _ratio(
            v.calls("embedding_features.embed_field"), v.accounts() * _embedding_fields()
        ),
    ),
    LayerMetric("mlp.train_s", "s", "lower", lambda v: v.s("evaluation.train")),
    LayerMetric("mlp.epochs", "count", "lower",
                lambda v: v.counter("epochs", "evaluation.train")),
    LayerMetric("mlp.steps", "count", "lower", lambda v: v.calls("mlp.adam_step")),
    LayerMetric(
        "mlp.step_us", "us", "lower",
        lambda v: 1e6 * _ratio(v.s("evaluation.train"), v.calls("mlp.adam_step")),
    ),
    LayerMetric("mlp.adam_step.us", "us", "lower", lambda v: v.us_per_call("mlp.adam_step")),
    LayerMetric("mlp.backward.us", "us", "lower", lambda v: v.us_per_call("mlp.backward")),
    LayerMetric("mlp.predict_s", "s", "lower", lambda v: v.s("evaluation.predict_batch")),
    LayerMetric("mlp.save_model_s", "s", "lower", lambda v: v.s("cli.save_model")),
    LayerMetric("evaluation.cross_validate_s", "s", "lower",
                lambda v: v.s("cli.cross_validate")),
    LayerMetric("evaluation.featurize_s", "s", "lower", lambda v: v.s(FEATURIZE)),
    LayerMetric("evaluation.self_s", "s", "lower", lambda v: v.self_s("cli.cross_validate")),
    LayerMetric("cli.main_s", "s", "lower", lambda v: v.s(MAIN)),
    LayerMetric("cli.self_s", "s", "lower", lambda v: v.self_s(MAIN)),
)

# computed by run.py from the traced cli.main_s and an untraced run
OVERHEAD = LayerMetric("trace.overhead_frac", "ratio", "lower", lambda v: 0.0)


def layer_metrics(tracer: Tracer) -> dict[str, float | None]:
    """Every per-layer metric by name; None marks a missing one."""
    view = TraceView(tracer)
    out: dict[str, float | None] = {}
    for metric in PER_LAYER:
        try:
            out[metric.name] = float(metric.compute(view))
        except Missing:
            out[metric.name] = None
    return out


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: tracer.py TRACE.json -- <osnmatch arguments>", file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    tracer.install()
    from osnmatch import cli

    run_main = tracer.wrap(MAIN, cli.main)
    code = 0
    try:
        run_main(cli_args, standalone_mode=False)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    doc = {
        "metrics": layer_metrics(tracer),
        "missing": sorted(tracer.missing),
        "scores": tracer.scores,
        "labels": tracer.labels,
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
