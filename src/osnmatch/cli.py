"""Command-line front end: corpus synthesis, end-to-end evaluation runs,
pair scoring and fold inspection."""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path

import click

from . import synth
from .dataset import (
    Corpus,
    load_corpus,
    negative_sample,
    k_folds,
    k_folds_user_disjoint,
)
from .embedding_features import (
    EmbeddingTable,
    hash_fallback_table,
    load_embedding_file,
    pair_embedding_features,
)
from .errors import OsnMatchError
from .evaluation import cross_validate, render_report, report_as_dict
from .mlp import MlpConfig, save_model
from .profile_features import (
    Platform,
    UserProfile,
    extract_ps_features,
    extract_ps_features_all_measures,
    featurize_pairs,
)
from .strsim import (
    Measure,
    cosine_2gram,
    damerau_levenshtein,
    editex,
    jaccard_2gram,
    jaro_winkler,
    lcs_length,
    levenshtein,
    ncd_bzip2,
    normalized_similarity,
    smith_waterman,
)
from .temporal_features import HistogramMode, extract_temporal_features

MEASURE_CHOICES = [m.value for m in Measure]

RAW_MEASURE_FUNCS = {
    Measure.LEVENSHTEIN: levenshtein,
    Measure.DAMERAU_LEVENSHTEIN: damerau_levenshtein,
    Measure.EDITEX: editex,
    Measure.JARO_WINKLER: jaro_winkler,
    Measure.JACCARD_2GRAM: jaccard_2gram,
    Measure.NCD_BZIP2: ncd_bzip2,
    Measure.LCS: lcs_length,
    Measure.SMITH_WATERMAN: smith_waterman,
    Measure.COSINE_2GRAM: cosine_2gram,
}

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
    explicit flags still win."""
    if not value:
        return value
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
            overrides[key.strip().replace("-", "_")] = raw.strip()
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
    if cfg.model == "ps":
        measure = Measure(cfg.measure)

        def featurize(pairs):
            triples = [
                (
                    corpus.profile(Platform.TWITTER, t),
                    corpus.profile(Platform.FLICKR, f),
                    lbl,
                )
                for t, f, lbl in pairs
            ]
            if cfg.all_measures:
                return [
                    extract_ps_features_all_measures(
                        a, b, include_names=cfg.include_names, label=lbl
                    )
                    for a, b, lbl in triples
                ]
            return featurize_pairs(triples, measure, include_names=cfg.include_names)

    elif cfg.model == "temporal":
        mode = HistogramMode(cfg.temporal_mode)

        def featurize(pairs):
            return [
                extract_temporal_features(
                    corpus.posts_for(Platform.TWITTER, t),
                    corpus.posts_for(Platform.FLICKR, f),
                    mode,
                    label=lbl,
                )
                for t, f, lbl in pairs
            ]

    elif cfg.model == "embedding":
        assert table is not None

        def featurize(pairs):
            return [
                pair_embedding_features(
                    corpus.profile(Platform.TWITTER, t),
                    corpus.profile(Platform.FLICKR, f),
                    table,
                    include_description=cfg.include_description,
                    label=lbl,
                )
                for t, f, lbl in pairs
            ]

    else:
        raise ValueError(f"unknown model {cfg.model!r}")
    return featurize


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
        hidden_nodes=hidden_nodes or DEFAULT_HIDDEN_NODES[model],
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
    probe = featurize(pair_set.pairs[:1])[0]
    input_dim = len(probe.values)
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
    json_path.write_text(
        json.dumps(report_doc, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    title = f"model={cfg.model} measure={cfg.measure} mode={cfg.temporal_mode}"
    txt_path.write_text(render_report(report, title=title), encoding="utf-8")
    return {
        "report_json": str(json_path),
        "report_txt": str(txt_path),
        "f1": report.f1,
        "precision": report.precision,
        "recall": report.recall,
    }


def _parse_profile(raw: str, which: str) -> UserProfile:
    text = raw
    if raw.startswith("@"):
        text = Path(raw[1:]).read_text(encoding="utf-8")
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"profile {which}: bad JSON ({exc.msg})") from None
    if not isinstance(obj, dict):
        raise ValueError(f"profile {which}: expected a JSON object")
    try:
        return UserProfile(
            platform=Platform(obj.get("platform")),
            user_id=obj.get("user_id", which),
            user_name=obj.get("user_name", "") or "",
            real_name=obj.get("real_name", "") or "",
            description=obj.get("description", "") or "",
            location=obj.get("location", "") or "",
            post_count=int(obj.get("post_count", 0)),
        )
    except (ValueError, TypeError) as exc:
        raise ValueError(f"profile {which}: {exc}") from None


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
        a = _parse_profile(profile_a, "a")
        b = _parse_profile(profile_b, "b")
        m = Measure(measure)
        vec = extract_ps_features(a, b, m, include_names=include_names)
    except (OsnMatchError, OSError, ValueError) as exc:
        _fail(exc)
    raw_fn = RAW_MEASURE_FUNCS[m]
    text_fields = {
        "user_name_score": (a.user_name, b.user_name),
        "real_name_score": (a.real_name, b.real_name),
        "description_score": (a.description, b.description),
        "location_score": (a.location, b.location),
    }
    for name, value in zip(vec.schema, vec.values):
        if name == "post_ratio":
            click.echo(
                f"{name:<18} raw={a.post_count}/{b.post_count} score={value:.4f}"
            )
        else:
            fa, fb = text_fields[name]
            raw = raw_fn(fa, fb)
            raw_str = f"{raw:.4f}" if isinstance(raw, float) else str(raw)
            click.echo(f"{name:<18} raw={raw_str} score={value:.4f}")


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
    except (OsnMatchError, OSError, ValueError) as exc:
        _fail(exc)
    click.echo(f"{'fold':>4} {'train+':>7} {'train-':>7} {'test+':>6} {'test-':>6}")
    doc = []
    for i, (train_set, test_set) in enumerate(partitions):
        click.echo(
            f"{i:>4} {train_set.n_pos:>7} {train_set.n_neg:>7} "
            f"{test_set.n_pos:>6} {test_set.n_neg:>6}"
        )
        doc.append(
            {
                "fold": i,
                "train": [[t, f, lbl] for t, f, lbl in train_set.pairs],
                "test": [[t, f, lbl] for t, f, lbl in test_set.pairs],
            }
        )
    if output_path:
        Path(output_path).write_text(
            json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )


if __name__ == "__main__":
    main()
