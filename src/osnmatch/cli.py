"""Command-line front end: corpus synthesis, end-to-end evaluation runs,
pair scoring and fold inspection.

``FAMILIES`` holds one entry per ``run --model`` choice: the run options
its featurizer reads, its input files among them, its default
``--hidden-nodes``, its report title suffix and
``build(corpus, opts) -> featurize(pairs)``. The choices, the width
default, the title and the featurizer all come from that entry, and
report.json ``run`` records the shared options plus the chosen family's
only. An option that ``FAMILIES`` gives to another model is a usage error
when it is given, on the command line or in ``--config``. Each ``build``
looks up ``featurize_pairs``, ``extract_temporal_features`` and
``pair_embedding_features`` as globals of this module when it runs, since
``perfbench/tracer.py`` traces those names here.

``folds`` takes the options that build and split the pair set,
``_CORPUS_OPTIONS``, from ``run`` as the same parameter objects, and both
commands get their corpus and pair set from ``_resolve_paths`` and
``_pair_set``, which calls ``load_corpus`` and ``negative_sample`` as
globals of this module for the same reason, and their partitions from
``evaluation.fold_partitions``. ``--posts`` is a ``temporal``
option, so only ``run --model temporal`` resolves a posts path; for any
other model, and for ``folds``, posts.jsonl is neither opened nor checked.

Every command has one error exit, the group's ``invoke``: an
``OsnMatchError``, ``OSError`` or ``ValueError`` ends the run with one
``error: <Type>: <message>`` line on stderr and exit status 1. Usage
errors stay click's, with exit status 2.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import asdict, fields
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import BinaryIO, Callable, NamedTuple

import click
import numpy as np
from click.core import ParameterSource

from . import synth
from .atomic import replacing
from .dataset import (
    CORPUS_FILES,
    Corpus,
    LabeledPairSet,
    UserProfile,
    load_corpus,
    negative_sample,
    parse_profile,
)
# not called here; perfbench/tracer.py TARGETS name them until ROADMAP item 5's revision
from .dataset import k_folds, k_folds_user_disjoint  # noqa: F401
from .embedding_features import (
    hash_fallback_table,
    load_embedding_file,
    pair_embedding_features,
)
from .errors import OsnMatchError, ParseError, open_input
from .evaluation import Featurizer, cross_validate, fold_partitions, render_report, results
from .mlp import MlpConfig, save_model
from .profile_features import (
    extract_ps_features_all_measures, featurize_pairs, ps_layout, ps_schema,
)
from .strsim import Measure, raw_measure
from .temporal_features import HistogramMode, extract_temporal_features

def _read_config_file(ctx: click.Context, param: click.Parameter, value):
    """Eager --config callback: file values become parameter defaults, so
    explicit flags still win. A key that names no option is an error."""
    if not value:
        return value
    # a key is a parameter name or an option's long name, "-" read as "_"
    known = {
        key: p.name
        for p in ctx.command.params if p is not param
        for key in (p.name, *(o.lstrip("-").replace("-", "_") for o in p.opts))
    }
    overrides = {}
    try:
        with open_input(value) as fh:
            lines = fh.readlines()
    except ParseError as exc:
        raise click.BadParameter(str(exc)) from None
    for line_no, line in enumerate(lines, 1):
        # a comment opens at a "#" that starts the line or follows whitespace
        stripped = re.split(r"(?<!\S)#", line, maxsplit=1)[0].strip()
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
        overrides[known[key]] = raw.strip()
    ctx.default_map = {**(ctx.default_map or {}), **overrides}
    return value


_CORPUS_OPTIONS = ("neg_ratio", "k", "seed", "user_disjoint", "data_dir", "profiles", "pairs")


def _resolve_paths(opts: dict) -> None:
    """Replace ``data_dir`` and each corpus file option in ``opts`` (``posts``
    only for ``temporal``) by the input path it names, ``<name>_path``."""
    base = Path(opts.pop("data_dir"))
    for name, default in CORPUS_FILES.items():
        if name in opts:
            opts[f"{name}_path"] = str(Path(opts.pop(name) or base / default))


def _pair_set(opts: dict) -> tuple[Corpus, LabeledPairSet]:
    """The corpus at the resolved input paths of ``opts``, its posts only
    if ``opts`` holds a posts path, and the pair set sampled from it."""
    corpus = load_corpus(opts["profiles_path"], opts.get("posts_path"), opts["pairs_path"])
    return corpus, negative_sample(corpus, opts["neg_ratio"], opts["seed"])


def _build_ps(corpus: Corpus, opts: dict):
    measure = None if opts["all_measures"] else Measure(opts["measure"])
    return lambda pairs: featurize_pairs(
        corpus, pairs, measure, include_names=opts["include_names"]
    )


def _build_temporal(corpus: Corpus, opts: dict):
    mode = HistogramMode(opts["temporal_mode"])
    return lambda pairs: extract_temporal_features(corpus, pairs, mode)


def _build_embedding(corpus: Corpus, opts: dict):
    if opts["embeddings_path"]:
        table = load_embedding_file(opts["embeddings_path"], opts["embedding_seed"])
    else:
        table = hash_fallback_table(seed=opts["embedding_seed"])
    return lambda pairs: pair_embedding_features(
        corpus, pairs, table, include_description=opts["include_description"]
    )


class Family(NamedTuple):
    """One ``--model`` choice."""

    options: tuple[str, ...]  # the run options it reads, its input files among them
    hidden_nodes: int  # the --hidden-nodes default
    title: Callable[[dict], str]  # the report title after "model=<name>"
    build: Callable[[Corpus, dict], Featurizer]


FAMILIES = {
    "ps": Family(
        ("measure", "all_measures", "include_names"), MlpConfig.hidden_nodes,
        lambda opts: f"measure={'all' if opts['all_measures'] else opts['measure']}",
        _build_ps,
    ),
    "temporal": Family(
        ("temporal_mode", "posts"), MlpConfig.hidden_nodes,
        lambda opts: f"mode={opts['temporal_mode']}", _build_temporal,
    ),
    "embedding": Family(
        ("include_description", "embedding_seed", "embeddings_path"), 300,
        lambda opts: "", _build_embedding,
    ),
}


class _FiniteRange(click.FloatRange):
    """A ``click.FloatRange`` that rejects NaN and the infinities too."""

    def convert(self, value, param, ctx):
        if not np.isfinite(value := super().convert(value, param, ctx)):
            self.fail(f"{value} is not finite.", param, ctx)
        return value


class _Group(click.Group):
    """The command group; its ``invoke`` is every command's error exit."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except BrokenPipeError:
            raise  # click's own exit: the reader of stdout has gone
        except (OsnMatchError, OSError, ValueError) as exc:
            click.echo(f"error: {type(exc).__name__}: {exc}", err=True)
            sys.exit(1)


@click.group(cls=_Group)
def main():
    """Match user accounts across two social platforms."""


@main.command("synth")
@click.option("--n-users", type=click.IntRange(min=synth.MIN_USERS), default=100,
              show_default=True)
@click.option("--noise", type=_FiniteRange(0, 1), default=0.15, show_default=True)
@click.option("--seed", type=int, default=42, show_default=True)
@click.option("--out", "out_dir", type=click.Path(), default="synth-corpus",
              show_default=True)
def synth_cmd(n_users, noise, seed, out_dir):
    """Generate a synthetic corpus (profiles, posts, ground-truth pairs)."""
    summary = synth.generate_corpus(n_users, noise, seed, out_dir)
    click.echo(json.dumps(summary, sort_keys=True))


@main.command()
@click.option("--config", callback=_read_config_file, is_eager=True,
              expose_value=False, type=click.Path(exists=True, dir_okay=False),
              help="key=value file supplying defaults for any option below")
@click.option("--model", type=click.Choice(list(FAMILIES)), default="ps", show_default=True)
@click.option("--measure", type=click.Choice([m.value for m in Measure]), default="editex",
              show_default=True, help="similarity measure (ps model)")
@click.option("--all-measures", is_flag=True, default=False,
              help="score the text fields under all nine measures, measure-major "
                   "(ps model; excludes --measure)")
@click.option("--temporal-mode", type=click.Choice([m.value for m in HistogramMode]),
              default=HistogramMode.HOUR_OF_DAY.value, show_default=True)
@click.option("--names/--no-names", "include_names", default=True,
              help="include user/real name scores (ps model)")
@click.option("--include-description", is_flag=True, default=False,
              help="embed the description field too (embedding model)")
@click.option("--neg-ratio", type=click.IntRange(min=0), default=8, show_default=True)
@click.option("--k", type=click.IntRange(min=2), default=10, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=42, show_default=True)
@click.option("--user-disjoint", is_flag=True, default=False,
              help="stricter folds: no user appears in both train and test")
@click.option("--hidden-nodes", type=click.IntRange(min=1), default=None,
              help="[default: %s]" % "; ".join(f"{f.hidden_nodes} for {name}"
                                               for name, f in FAMILIES.items()))
@click.option("--learning-rate", type=_FiniteRange(min=0, min_open=True),
              default=MlpConfig.learning_rate, show_default=True)
@click.option("--dropout", "dropout_rate", type=_FiniteRange(0, 1, max_open=True),
              default=MlpConfig.dropout_rate, show_default=True)
@click.option("--batch-size", type=click.IntRange(min=1), default=MlpConfig.batch_size,
              show_default=True)
@click.option("--max-epochs", type=click.IntRange(min=1), default=MlpConfig.max_epochs,
              show_default=True)
@click.option("--patience", "early_stop_patience", type=click.IntRange(min=0),
              default=MlpConfig.early_stop_patience, show_default=True)
@click.option("--embedding-seed", type=int, default=0, show_default=True,
              help="seed of the hash fallback's vectors, and of the character "
                   "n-grams an --embeddings file lacks (embedding model)")
@click.option("--embeddings", "embeddings_path",
              type=click.Path(exists=True, dir_okay=False), default=None,
              help="word2vec-text embedding file (embedding model; else: hash "
                   "fallback); character n-gram vectors may follow its "
                   "'#char-ngrams' line; without them, every n-gram is hashed")
@click.option("--data-dir", type=click.Path(), default=".", show_default=True)
@click.option("--profiles", type=click.Path(dir_okay=False), default=None)
@click.option("--posts", type=click.Path(dir_okay=False), default=None,
              help="post times [default: <data-dir>/posts.jsonl] "
                   "(temporal model)")
@click.option("--pairs", type=click.Path(dir_okay=False), default=None)
@click.option("--output", "output_dir", type=click.Path(file_okay=False),
              default="osnmatch-out", show_default=True)
@click.pass_context
def run(ctx: click.Context, **opts):
    """Run one model end-to-end with k-fold cross-validation."""
    family = FAMILIES[opts["model"]]
    # the options of the other models, each with the model that reads it
    foreign = {name: model for model, f in FAMILIES.items() for name in f.options
               if name not in family.options}
    for param in ctx.command.params:
        if (param.name in foreign
                and ctx.get_parameter_source(param.name) is not ParameterSource.DEFAULT):
            raise click.UsageError(f"{param.opts[0]} needs --model {foreign[param.name]}")
    if (opts["all_measures"]
            and ctx.get_parameter_source("measure") is not ParameterSource.DEFAULT):
        raise click.UsageError("--measure and --all-measures exclude each other")
    opts = {name: value for name, value in opts.items() if name not in foreign}
    if opts["hidden_nodes"] is None:
        opts["hidden_nodes"] = family.hidden_nodes
    _resolve_paths(opts)
    click.echo(json.dumps(_execute_run(opts), sort_keys=True))


def _execute_run(opts: dict) -> dict:
    """Run ``opts`` (the `run` options its model reads, with the input paths
    resolved) and write the models and both reports."""
    family = FAMILIES[opts["model"]]
    corpus, pair_set = _pair_set(opts)
    out = Path(opts["output_dir"])
    models_dir = out / "models"
    # made before training, so that an output path under a file fails first
    models_dir.mkdir(parents=True, exist_ok=True)
    featurize = family.build(corpus, opts)
    mlp_cfg = MlpConfig(
        input_dim=len(featurize([]).schema), rng_seed=opts["seed"],
        **{f.name: opts[f.name] for f in fields(MlpConfig) if f.name in opts},
    )
    partitions = fold_partitions(pair_set, opts["k"], opts["seed"], opts["user_disjoint"])
    cv = cross_validate(mlp_cfg, featurize, pair_set, partitions, opts["seed"])
    summary = results(cv, pair_set.labels)

    saved = {models_dir / f"fold-{i:02d}.bin": model for i, model in enumerate(cv.models)}
    for path, model in saved.items():
        save_model(model, str(path))
    for path in set(models_dir.glob("fold-*.bin")) - saved.keys():  # a larger k's
        path.unlink()
    report_doc = {
        "run": opts,
        "dataset": {
            "profiles": len(corpus.profiles),
            "dropped_pairs": corpus.dropped_pairs,
            "n_pos": pair_set.n_pos,
            "n_neg": pair_set.n_neg,
        },
        "mlp": asdict(mlp_cfg),
        "results": summary,
        "generated_at": datetime.now(timezone.utc).isoformat(),
    }
    json_path = out / "report.json"
    txt_path = out / "report.txt"
    with replacing(json_path) as tmp:
        tmp.write_text(
            json.dumps(report_doc, sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )
    title = f"model={opts['model']} {family.title(opts)}".rstrip()
    with replacing(txt_path) as tmp:
        tmp.write_text(render_report(summary, title), encoding="utf-8")
    return {
        "report_json": str(json_path),
        "report_txt": str(txt_path),
        "f1": summary["f1"],
        "precision": summary["precision"],
        "recall": summary["recall"],
    }


def _read_profile(raw: str, which: str) -> UserProfile:
    """A profile given inline as JSON, or as @path to a JSON file; it is
    checked as the corpus loader checks each profile line."""
    if raw.startswith("@"):
        path = raw[1:]
        with open_input(path) as fh:
            return parse_profile(fh.read(), path, 1)
    return parse_profile(raw, f"--profile-{which}", 1)


@main.command("score-pair",
              params=[p for p in run.params if p.name in ("measure", "include_names")])
@click.option("--profile-a", "-a", required=True,
              help="profile JSON, or @path to a JSON file")
@click.option("--profile-b", "-b", required=True,
              help="profile JSON, or @path to a JSON file")
def score_pair(profile_a, profile_b, measure, include_names):
    """Print each profile feature's raw measure value and normalized score."""
    a = _read_profile(profile_a, "a")
    b = _read_profile(profile_b, "b")
    m = Measure(measure)
    values = extract_ps_features_all_measures(a, b, include_names, m)
    columns = zip(ps_schema(m, include_names), ps_layout(m, include_names), values, strict=True)
    for name, (attr, column_measure), value in columns:
        s, t = getattr(a, attr), getattr(b, attr)
        # the post counts' raw value is the two counts
        raw = f"{s}/{t}" if column_measure is None else raw_measure(column_measure, s, t)
        raw_str = f"{raw:.4f}" if isinstance(raw, float) else str(raw)
        click.echo(f"{name:<18} raw={raw_str} score={value:.4f}")


def write_folds_json(
    fh: BinaryIO,
    pairs: list[tuple[str, str]],
    labels: np.ndarray,
    partitions: list[tuple[np.ndarray, np.ndarray]],
) -> None:
    """Write the fold membership, to a binary file, exactly as
    ``json.dumps(doc, sort_keys=True, indent=2) + "\\n"`` would encode it
    to UTF-8, for doc = ``[{"fold": i, "test": [[t, f, label], ...],
    "train": [...]}, ...]``, where each fold's (train_rows, test_rows) index
    ``pairs`` and ``labels``. With an indent the json module encodes in pure
    Python, so each pair's indented triple is formatted here once, with its
    C string encoder, into one numpy object array of bytes, and every fold
    list joins the triples its rows pick from that array."""
    enc = encode_basestring_ascii
    triples = np.array([
        f"      [\n        {enc(t)},\n        {enc(f)},\n        "
        f"{'true' if lbl else 'false'}\n      ]".encode()
        for (t, f), lbl in zip(pairs, labels.tolist(), strict=True)
    ], dtype=object)

    def write_list(rows: np.ndarray) -> None:
        if len(rows):
            fh.writelines((b"[\n", b",\n".join(triples[rows].tolist()), b"\n    ]"))
        else:
            fh.write(b"[]")

    fh.write(b"[")
    for i, (train_rows, test_rows) in enumerate(partitions):
        fh.write(b'%s\n  {\n    "fold": %d,\n    "test": ' % (b"," if i else b"", i))
        write_list(test_rows)
        fh.write(b',\n    "train": ')
        write_list(train_rows)
        fh.write(b"\n  }")
    fh.write(b"\n]\n" if partitions else b"]\n")


@main.command(params=[p for p in run.params if p.name in _CORPUS_OPTIONS])
@click.option("--output", "output_path", type=click.Path(dir_okay=False), default=None,
              help="also write the fold membership as JSON")
def folds(output_path, **opts):
    """Inspect the stratified k-fold partition of the sampled pair set."""
    _resolve_paths(opts)
    _, pair_set = _pair_set(opts)
    partitions = fold_partitions(pair_set, opts["k"], opts["seed"], opts["user_disjoint"])
    if output_path:
        with replacing(output_path) as tmp, open(tmp, "wb") as fh:
            write_folds_json(fh, pair_set.pairs, pair_set.labels, partitions)
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
