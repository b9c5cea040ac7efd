"""Command-line front end: corpus synthesis, end-to-end evaluation runs,
pair scoring and fold inspection."""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import TextIO

import click
import numpy as np

from . import synth
from .atomic import replacing
from .dataset import (
    Corpus,
    load_corpus,
    negative_sample,
    k_folds,
    k_folds_user_disjoint,
    parse_profile,
)
from .embedding_features import (
    EmbeddingTable,
    hash_fallback_table,
    load_embedding_file,
    pair_embedding_features,
)
from .errors import NOT_UTF8, OsnMatchError, ParseError, undecodable_line
from .evaluation import cross_validate, render_report, report_as_dict
from .mlp import MlpConfig, save_model
from .profile_features import (
    PS_SCHEMA,
    PS_SCHEMA_NO_NAMES,
    FeatureMatrix,
    Platform,
    UserProfile,
    all_measures_schema,
    extract_ps_features,
    extract_ps_features_all_measures,
    featurize_pairs,
)
from .strsim import Measure, raw_measure
from .temporal_features import HistogramMode, extract_temporal_features

MEASURE_CHOICES = [m.value for m in Measure]

DEFAULT_HIDDEN_NODES = {"ps": 50, "temporal": 50, "embedding": 300}


@dataclass
class RunConfig:
    """Fully resolved options of one `run` invocation, echoed into reports."""

    model: str
    measure: str
    all_measures: bool
    temporal_mode: str
    include_names: bool
    include_description: bool
    neg_ratio: int
    k: int
    seed: int
    user_disjoint: bool
    hidden_nodes: int
    n_hidden_layers: int
    dropout_rate: float
    learning_rate: float
    batch_size: int
    max_epochs: int
    early_stop_patience: int
    embedding_seed: int
    profiles_path: str
    posts_path: str
    pairs_path: str
    embeddings_path: str | None
    char_embeddings_path: str | None
    output_dir: str


def _fail(exc: Exception) -> None:
    click.echo(f"error: {type(exc).__name__}: {exc}", err=True)
    sys.exit(1)


def _read_config_file(ctx: click.Context, param: click.Parameter, value):
    """Eager --config callback: file values become parameter defaults, so
    explicit flags still win. A key that names no option is an error."""
    if not value:
        return value
    known = {p.name for p in ctx.command.params if p is not param}
    overrides = {}
    with open(value, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise click.BadParameter(
                    f"{value}:{line_no}: expected key=value, got {stripped!r}"
                )
            key, _, raw = stripped.partition("=")
            key = key.strip().replace("-", "_")
            if key not in known:
                raise click.BadParameter(f"{value}:{line_no}: unknown key {key!r}")
            overrides[key] = raw.strip()
    ctx.default_map = {**(ctx.default_map or {}), **overrides}
    return value


def _resolve_paths(data_dir, profiles, posts, pairs):
    base = Path(data_dir)
    return (
        str(Path(profiles) if profiles else base / "profiles.jsonl"),
        str(Path(posts) if posts else base / "posts.jsonl"),
        str(Path(pairs) if pairs else base / "pairs.csv"),
    )


def _build_featurizer(corpus: Corpus, cfg: RunConfig, table: EmbeddingTable | None):
    """``featurize(pairs) -> FeatureMatrix`` for the configured model."""
    if cfg.model == "ps" and cfg.all_measures:
        schema = all_measures_schema(cfg.include_names)

        def featurize(pairs):
            return FeatureMatrix.from_rows(
                [
                    extract_ps_features_all_measures(
                        corpus.profile(Platform.TWITTER, t),
                        corpus.profile(Platform.FLICKR, f),
                        include_names=cfg.include_names,
                    )
                    for t, f, _ in pairs
                ],
                schema,
            )

        return featurize
    if cfg.model == "ps":
        measure = Measure(cfg.measure)
        return lambda pairs: featurize_pairs(
            corpus, pairs, measure, include_names=cfg.include_names
        )
    if cfg.model == "temporal":
        mode = HistogramMode(cfg.temporal_mode)
        return lambda pairs: extract_temporal_features(corpus, pairs, mode)
    if cfg.model == "embedding":
        assert table is not None
        return lambda pairs: pair_embedding_features(
            corpus, pairs, table, include_description=cfg.include_description
        )
    raise ValueError(f"unknown model {cfg.model!r}")


@click.group()
def main():
    """Match user accounts across two social platforms."""


@main.command("synth")
@click.option("--n-users", type=int, default=100, show_default=True)
@click.option("--noise", type=float, default=0.15, show_default=True)
@click.option("--seed", type=int, default=42, show_default=True)
@click.option("--out", "out_dir", type=click.Path(), default="synth-corpus",
              show_default=True)
def synth_cmd(n_users, noise, seed, out_dir):
    """Generate a synthetic corpus (profiles, posts, ground-truth pairs)."""
    try:
        summary = synth.generate_corpus(n_users, noise, seed, out_dir)
    except (OsnMatchError, OSError, ValueError) as exc:
        _fail(exc)
    click.echo(json.dumps(summary, sort_keys=True))


@main.command()
@click.option("--config", callback=_read_config_file, is_eager=True,
              expose_value=False, type=click.Path(exists=True),
              help="key=value file supplying defaults for any option below")
@click.option("--model", type=click.Choice(["ps", "temporal", "embedding"]),
              default="ps", show_default=True)
@click.option("--measure", type=click.Choice(MEASURE_CHOICES), default="editex",
              show_default=True, help="similarity measure (ps model)")
@click.option("--all-measures", is_flag=True, default=False,
              help="concatenate every measure's text scores (ps model)")
@click.option("--temporal-mode", type=click.Choice(["hod", "dow"]), default="hod",
              show_default=True)
@click.option("--names/--no-names", "include_names", default=True,
              help="include user/real name scores (ps model)")
@click.option("--include-description", is_flag=True, default=False,
              help="embed the description field too (embedding model)")
@click.option("--neg-ratio", type=int, default=8, show_default=True)
@click.option("--k", type=int, default=10, show_default=True)
@click.option("--seed", type=int, default=42, show_default=True)
@click.option("--user-disjoint", is_flag=True, default=False,
              help="stricter folds: no user appears in both train and test")
@click.option("--hidden-nodes", type=int, default=None,
              help="[default: 50; 300 for the embedding model]")
@click.option("--learning-rate", type=float, default=1e-3, show_default=True)
@click.option("--dropout", "dropout_rate", type=float, default=0.5, show_default=True)
@click.option("--batch-size", type=int, default=32, show_default=True)
@click.option("--max-epochs", type=int, default=200, show_default=True)
@click.option("--patience", type=int, default=10, show_default=True)
@click.option("--embedding-seed", type=int, default=0, show_default=True,
              help="seed of the hash-fallback embedder")
@click.option("--embeddings", type=click.Path(exists=True), default=None,
              help="word2vec-text embedding file (else: hash fallback)")
@click.option("--char-embeddings", type=click.Path(exists=True), default=None,
              help="separate character-n-gram embedding file")
@click.option("--data-dir", type=click.Path(), default=".", show_default=True)
@click.option("--profiles", type=click.Path(), default=None)
@click.option("--posts", type=click.Path(), default=None)
@click.option("--pairs", type=click.Path(), default=None)
@click.option("--output", "output_dir", type=click.Path(), default="osnmatch-out",
              show_default=True)
def run(model, measure, all_measures, temporal_mode, include_names,
        include_description, neg_ratio, k, seed, user_disjoint, hidden_nodes,
        learning_rate, dropout_rate, batch_size, max_epochs,
        patience, embedding_seed, embeddings, char_embeddings, data_dir,
        profiles, posts, pairs, output_dir):
    """Run one model end-to-end with k-fold cross-validation."""
    profiles_path, posts_path, pairs_path = _resolve_paths(
        data_dir, profiles, posts, pairs
    )
    cfg = RunConfig(
        model=model,
        measure=measure,
        all_measures=all_measures,
        temporal_mode=temporal_mode,
        include_names=include_names,
        include_description=include_description,
        neg_ratio=neg_ratio,
        k=k,
        seed=seed,
        user_disjoint=user_disjoint,
        hidden_nodes=DEFAULT_HIDDEN_NODES[model] if hidden_nodes is None else hidden_nodes,
        n_hidden_layers=3,
        dropout_rate=dropout_rate,
        learning_rate=learning_rate,
        batch_size=batch_size,
        max_epochs=max_epochs,
        early_stop_patience=patience,
        embedding_seed=embedding_seed,
        profiles_path=profiles_path,
        posts_path=posts_path,
        pairs_path=pairs_path,
        embeddings_path=embeddings,
        char_embeddings_path=char_embeddings,
        output_dir=output_dir,
    )
    try:
        report_paths = _execute_run(cfg)
    except (OsnMatchError, OSError, ValueError) as exc:
        _fail(exc)
    click.echo(json.dumps(report_paths, sort_keys=True))


def _execute_run(cfg: RunConfig) -> dict:
    corpus = load_corpus(cfg.profiles_path, cfg.posts_path, cfg.pairs_path)
    pair_set = negative_sample(corpus, cfg.neg_ratio, cfg.seed)
    table = None
    if cfg.model == "embedding":
        if cfg.embeddings_path:
            table = load_embedding_file(cfg.embeddings_path, cfg.char_embeddings_path)
        else:
            table = hash_fallback_table(seed=cfg.embedding_seed)
    featurize = _build_featurizer(corpus, cfg, table)
    input_dim = len(featurize([]).schema)
    mlp_cfg = MlpConfig(
        input_dim=input_dim,
        hidden_nodes=cfg.hidden_nodes,
        n_hidden_layers=cfg.n_hidden_layers,
        dropout_rate=cfg.dropout_rate,
        learning_rate=cfg.learning_rate,
        batch_size=cfg.batch_size,
        max_epochs=cfg.max_epochs,
        early_stop_patience=cfg.early_stop_patience,
        rng_seed=cfg.seed,
    )
    report, models = cross_validate(
        mlp_cfg,
        featurize,
        pair_set,
        cfg.k,
        cfg.seed,
        user_disjoint=cfg.user_disjoint,
    )

    out = Path(cfg.output_dir)
    models_dir = out / "models"
    models_dir.mkdir(parents=True, exist_ok=True)
    for i, model in enumerate(models):
        save_model(model, str(models_dir / f"fold-{i:02d}.bin"))
    report_doc = {
        "run": asdict(cfg),
        "dataset": {
            "profiles": len(corpus.profiles),
            "dropped_pairs": corpus.dropped_pairs,
            "n_pos": pair_set.n_pos,
            "n_neg": pair_set.n_neg,
        },
        "mlp": {
            "input_dim": input_dim,
            "hidden_nodes": mlp_cfg.hidden_nodes,
            "n_hidden_layers": mlp_cfg.n_hidden_layers,
            "dropout_rate": mlp_cfg.dropout_rate,
            "learning_rate": mlp_cfg.learning_rate,
            "batch_size": mlp_cfg.batch_size,
            "max_epochs": mlp_cfg.max_epochs,
            "early_stop_patience": mlp_cfg.early_stop_patience,
        },
        "results": report_as_dict(report),
        "generated_at": datetime.now(timezone.utc).isoformat(),
    }
    json_path = out / "report.json"
    txt_path = out / "report.txt"
    with replacing(json_path) as tmp:
        tmp.write_text(
            json.dumps(report_doc, sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )
    title = f"model={cfg.model} measure={cfg.measure} mode={cfg.temporal_mode}"
    with replacing(txt_path) as tmp:
        tmp.write_text(render_report(report, title=title), encoding="utf-8")
    return {
        "report_json": str(json_path),
        "report_txt": str(txt_path),
        "f1": report.f1,
        "precision": report.precision,
        "recall": report.recall,
    }


def _read_profile(raw: str, which: str) -> UserProfile:
    """A profile given inline as JSON, or as @path to a JSON file; it is
    checked as the corpus loader checks each profile line."""
    if raw.startswith("@"):
        path = raw[1:]
        try:
            text = Path(path).read_text(encoding="utf-8")
        except UnicodeDecodeError:
            raise ParseError(path, undecodable_line(path), NOT_UTF8) from None
        return parse_profile(text, path, 1)
    return parse_profile(raw, f"--profile-{which}", 1)


@main.command("score-pair")
@click.option("--profile-a", "-a", required=True,
              help="profile JSON, or @path to a JSON file")
@click.option("--profile-b", "-b", required=True,
              help="profile JSON, or @path to a JSON file")
@click.option("--measure", type=click.Choice(MEASURE_CHOICES), default="editex",
              show_default=True)
@click.option("--names/--no-names", "include_names", default=True)
def score_pair(profile_a, profile_b, measure, include_names):
    """Print each profile feature's raw measure value and normalized score."""
    try:
        a = _read_profile(profile_a, "a")
        b = _read_profile(profile_b, "b")
        m = Measure(measure)
        values = extract_ps_features(a, b, m, include_names=include_names)
    except (OsnMatchError, OSError, ValueError) as exc:
        _fail(exc)
    schema = PS_SCHEMA if include_names else PS_SCHEMA_NO_NAMES
    for name, value in zip(schema, values):
        if name == "post_ratio":
            click.echo(
                f"{name:<18} raw={a.post_count}/{b.post_count} score={value:.4f}"
            )
        else:
            field = name.removesuffix("_score")
            raw = raw_measure(m, getattr(a, field), getattr(b, field))
            raw_str = f"{raw:.4f}" if isinstance(raw, float) else str(raw)
            click.echo(f"{name:<18} raw={raw_str} score={value:.4f}")


def _pairs_json(pairs: list[tuple[str, str, bool]], rows: np.ndarray) -> str:
    if not len(rows):
        return "[]"
    enc = encode_basestring_ascii
    return "[\n" + ",\n".join(
        f"      [\n        {enc(t)},\n        {enc(f)},\n        "
        f"{'true' if lbl else 'false'}\n      ]"
        for t, f, lbl in map(pairs.__getitem__, rows.tolist())
    ) + "\n    ]"


def write_folds_json(
    fh: TextIO,
    pairs: list[tuple[str, str, bool]],
    partitions: list[tuple[np.ndarray, np.ndarray]],
) -> None:
    """Write the fold membership exactly as ``json.dumps(doc, sort_keys=True,
    indent=2) + "\\n"`` would, for doc = ``[{"fold": i, "test": [[t, f,
    label], ...], "train": [...]}, ...]``, where each fold's (train_rows,
    test_rows) index ``pairs``. With an indent the json module encodes in
    pure Python, so the triples are gathered and formatted here, one fold at
    a time, with its C string encoder."""
    fh.write("[")
    for i, (train_rows, test_rows) in enumerate(partitions):
        fh.write(f"{',' if i else ''}\n  {{\n    \"fold\": {i},\n    \"test\": ")
        fh.write(_pairs_json(pairs, test_rows))
        fh.write(',\n    "train": ')
        fh.write(_pairs_json(pairs, train_rows))
        fh.write("\n  }")
    fh.write("\n]\n" if partitions else "]\n")


@main.command()
@click.option("--neg-ratio", type=int, default=8, show_default=True)
@click.option("--k", type=int, default=10, show_default=True)
@click.option("--seed", type=int, default=42, show_default=True)
@click.option("--user-disjoint", is_flag=True, default=False)
@click.option("--data-dir", type=click.Path(), default=".", show_default=True)
@click.option("--profiles", type=click.Path(), default=None)
@click.option("--posts", type=click.Path(), default=None)
@click.option("--pairs", type=click.Path(), default=None)
@click.option("--output", "output_path", type=click.Path(), default=None,
              help="also write the fold membership as JSON")
def folds(neg_ratio, k, seed, user_disjoint, data_dir, profiles, posts, pairs,
          output_path):
    """Inspect the stratified k-fold partition of the sampled pair set."""
    profiles_path, posts_path, pairs_path = _resolve_paths(
        data_dir, profiles, posts, pairs
    )
    try:
        corpus = load_corpus(profiles_path, posts_path, pairs_path)
        pair_set = negative_sample(corpus, neg_ratio, seed)
        folder = k_folds_user_disjoint if user_disjoint else k_folds
        partitions = folder(pair_set, k, seed)
        if output_path:
            with replacing(output_path) as tmp, open(tmp, "w", encoding="utf-8") as fh:
                write_folds_json(fh, pair_set.pairs, partitions)
    except (OsnMatchError, OSError, ValueError) as exc:
        _fail(exc)
    click.echo(f"{'fold':>4} {'train+':>7} {'train-':>7} {'test+':>6} {'test-':>6}")
    for i, (train_rows, test_rows) in enumerate(partitions):
        train_pos = int(np.count_nonzero(pair_set.labels[train_rows]))
        test_pos = int(np.count_nonzero(pair_set.labels[test_rows]))
        click.echo(
            f"{i:>4} {train_pos:>7} {len(train_rows) - train_pos:>7} "
            f"{test_pos:>6} {len(test_rows) - test_pos:>6}"
        )


if __name__ == "__main__":
    main()
