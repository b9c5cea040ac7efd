import dataclasses
import errno
import io
import json
import shutil
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from osnmatch import cli, dataset, evaluation, strsim, synth
from osnmatch.cli import main, write_folds_json
from osnmatch.dataset import LabeledPairSet, load_corpus, negative_sample
from osnmatch.evaluation import k_folds, k_folds_user_disjoint
from osnmatch.mlp import load_model
from osnmatch.profile_features import featurize_pairs
from tests.oracles import folds_json_reference


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    synth.generate_corpus(12, 0.15, 42, str(out))
    return out


def _run(corpus_dir, tmp_path, config_text, *extra):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config_text, encoding="utf-8")
    out = tmp_path / "out"
    result = CliRunner().invoke(
        main,
        ["run", "--config", str(cfg), "--data-dir", str(corpus_dir),
         "--model", "temporal", "--k", "2", "--output", str(out), *extra],
    )
    return result, cfg, out


class TestRunConfigFile:
    @pytest.mark.parametrize("key", ["max_epoch", "jobs"])
    def test_unknown_key_is_rejected(self, corpus_dir, tmp_path, key):
        result, cfg, out = _run(corpus_dir, tmp_path, f"# tiny run\nk = 2\n{key} = 1\n")
        assert result.exit_code == 2
        assert f"{cfg}:3: unknown key '{key}'" in result.output
        assert not out.exists()

    def test_valid_keys_set_defaults(self, corpus_dir, tmp_path):
        result, _, out = _run(corpus_dir, tmp_path, "max-epochs = 1\npatience = 0\n")
        assert result.exit_code == 0, result.output
        run = json.loads((out / "report.json").read_text(encoding="utf-8"))["run"]
        assert run["max_epochs"] == 1
        assert run["early_stop_patience"] == 0

    @pytest.mark.parametrize(
        "key, raw, field, value",
        [
            ("dropout", "0.25", "dropout_rate", 0.25),
            ("names", "false", "include_names", False),
            ("output", "from-config", "output_dir", "from-config"),
            ("embeddings", "e.txt", "embeddings_path", "e.txt"),
        ],
    )
    def test_option_long_name_is_a_key(self, corpus_dir, tmp_path, monkeypatch, key, raw,
                                       field, value):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "e.txt").write_text("1 3\nfoo 0 0 1\n", encoding="utf-8")
        (tmp_path / "run.cfg").write_text(f"max_epochs = 1\n{key} = {raw}\n",
                                          encoding="utf-8")
        # a model that reads the option, so that report.json records it
        model = "embedding" if key == "embeddings" else "ps"
        result = CliRunner().invoke(
            main, ["run", "--config", "run.cfg", "--data-dir", str(corpus_dir),
                   "--model", model, "--k", "2"]
        )
        assert result.exit_code == 0, result.output
        report_json = json.loads(result.output.splitlines()[-1])["report_json"]
        run = json.loads((tmp_path / report_json).read_text(encoding="utf-8"))["run"]
        assert run[field] == value

    def test_flags_win_over_the_file(self, corpus_dir, tmp_path):
        result, _, out = _run(
            corpus_dir, tmp_path, "max_epochs = 3\npatience = 0\n", "--max-epochs", "1"
        )
        assert result.exit_code == 0, result.output
        run = json.loads((out / "report.json").read_text(encoding="utf-8"))["run"]
        assert run["max_epochs"] == 1

    def test_line_without_equals_is_rejected(self, corpus_dir, tmp_path):
        result, cfg, _ = _run(corpus_dir, tmp_path, "max_epochs 1\n")
        assert result.exit_code == 2
        assert f"{cfg}:1: expected key=value" in result.output

    def test_not_utf8_names_the_line(self, corpus_dir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"k = 2\n# caf\xe9\nmax_epochs = 1\n")
        result = CliRunner().invoke(
            main, ["run", "--config", str(cfg), "--data-dir", str(corpus_dir)]
        )
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)  # not a traceback
        assert f"{cfg}:2: not valid UTF-8" in result.output

    def test_a_malformed_line_before_a_bad_byte_is_reported(self, corpus_dir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"k = 2\nmax_epochs\n# caf\xe9\n")
        result = CliRunner().invoke(
            main, ["run", "--config", str(cfg), "--data-dir", str(corpus_dir)]
        )
        assert result.exit_code == 2
        assert f"{cfg}:2: expected key=value, got 'max_epochs'" in result.output

    def test_hash_opens_a_comment_only_at_line_start_or_after_whitespace(
            self, corpus_dir, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        shutil.copytree(corpus_dir, "d#1")
        Path("run.cfg").write_text(
            "# a tiny run\ndata_dir = d#1\nk = 3 # three folds\nmax_epochs = 1\t#one\n",
            encoding="utf-8",
        )
        result = CliRunner().invoke(main, ["run", "--config", "run.cfg", "--model", "ps"])
        assert result.exit_code == 0, result.output
        report_json = json.loads(result.output.splitlines()[-1])["report_json"]
        run = json.loads(Path(report_json).read_text(encoding="utf-8"))["run"]
        assert run["profiles_path"] == str(Path("d#1", "profiles.jsonl"))
        assert (run["k"], run["max_epochs"]) == (3, 1)

    def test_directory_is_rejected(self, corpus_dir, tmp_path):
        result = CliRunner().invoke(
            main, ["run", "--config", str(tmp_path), "--data-dir", str(corpus_dir)]
        )
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)  # not a traceback
        assert "is a directory" in result.output


class TestSeedRange:
    """A negative seed is a usage error of ``run`` and ``folds``, raised
    before the corpus is loaded."""

    @pytest.fixture
    def loads(self, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "load_corpus", lambda *args: calls.append(args))
        return calls

    @pytest.mark.parametrize("command", ["run", "folds"])
    def test_negative_seed_on_the_command_line(self, corpus_dir, loads, command):
        result = CliRunner().invoke(
            main, [command, "--data-dir", str(corpus_dir), "--seed", "-1"]
        )
        assert result.exit_code == 2
        assert "Invalid value for '--seed'" in result.output
        assert loads == []

    def test_negative_seed_in_the_config_file(self, corpus_dir, tmp_path, loads):
        result, _, out = _run(corpus_dir, tmp_path, "seed = -1\n")
        assert result.exit_code == 2
        assert "Invalid value for '--seed'" in result.output
        assert loads == []
        assert not out.exists()


class TestNumericRange:
    """An out-of-range numeric option of ``run`` is a usage error, on the
    command line or in ``--config``, raised before the corpus is loaded."""

    @pytest.mark.parametrize("option, value", [
        ("--k", "1"), ("--neg-ratio", "-1"), ("--hidden-nodes", "0"), ("--batch-size", "0"),
        ("--max-epochs", "0"), ("--patience", "-1"), ("--dropout", "1"),
        ("--learning-rate", "0"),
    ])
    @pytest.mark.parametrize("in_config", [False, True], ids=["flag", "config"])
    def test_is_a_usage_error(self, corpus_dir, tmp_path, monkeypatch, option, value,
                              in_config):
        loads = []
        monkeypatch.setattr(cli, "load_corpus", lambda *args: loads.append(args))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{option[2:]} = {value}\n" if in_config else "", encoding="utf-8")
        out = tmp_path / "out"
        result = CliRunner().invoke(
            main,
            ["run", "--config", str(cfg), "--data-dir", str(corpus_dir), "--model",
             "temporal", "--output", str(out), *([] if in_config else [option, value])],
        )
        assert result.exit_code == 2
        assert f"Invalid value for '{option}'" in result.output
        assert loads == []
        assert not out.exists()


class TestOutputPath:
    """``run --output`` names a directory and ``folds --output`` a file; the
    wrong kind is a usage error, raised before the corpus is loaded."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        for name in ("load_corpus", "cross_validate"):
            monkeypatch.setattr(cli, name, lambda *a, name=name, **kw: calls.append(name))
        return calls

    @pytest.mark.parametrize("command", ["run", "folds"])
    def test_wrong_kind_is_a_usage_error(self, corpus_dir, tmp_path, calls, command):
        out = tmp_path / "out"
        if command == "run":
            out.write_text("keep\n", encoding="utf-8")
        else:
            out.mkdir()
        result = CliRunner().invoke(
            main, [command, "--data-dir", str(corpus_dir), "--output", str(out)]
        )
        assert result.exit_code == 2
        assert "Invalid value for '--output'" in result.output
        assert calls == []
        assert out.is_file() if command == "run" else not any(out.iterdir())

    def test_run_under_a_file_fails_before_training(self, corpus_dir, tmp_path,
                                                    monkeypatch):
        trained = []
        monkeypatch.setattr(cli, "cross_validate", lambda *a, **kw: trained.append(a))
        (tmp_path / "afile").write_text("keep\n", encoding="utf-8")
        result = CliRunner().invoke(
            main, ["run", "--data-dir", str(corpus_dir), "--model", "temporal",
                   "--output", str(tmp_path / "afile" / "out")]
        )
        assert result.exit_code == 1
        assert "error: NotADirectoryError: " in result.output
        assert trained == []


def _folds(corpus_dir, out, *extra):
    return CliRunner().invoke(
        main,
        ["folds", "--data-dir", str(corpus_dir), "--k", "3", "--output", str(out),
         *extra],
    )


def _rows(*rows):
    return np.array(rows, dtype=np.intp)


_K2 = LabeledPairSet([("t0", "f0"), ("t1", "f1"), ("t0", "f1"), ("t1", "f0")],
                     np.array([True, True, False, False]))


def _triples(pair_set):
    """The (t, f, label) triples the fold file lists."""
    return [(*pair, lbl) for pair, lbl in zip(pair_set.pairs, pair_set.labels.tolist())]


def _write_folds(triples, partitions):
    """``write_folds_json``'s bytes for the pairs and labels of ``triples``,
    decoded as UTF-8."""
    fh = io.BytesIO()
    labels = np.array([lbl for _, _, lbl in triples], dtype=bool)
    write_folds_json(fh, [(t, f) for t, f, _ in triples], labels, partitions)
    return fh.getvalue().decode("utf-8")


class TestFoldsExport:
    @pytest.mark.parametrize("user_disjoint", [False, True])
    def test_matches_json_dumps(self, corpus_dir, tmp_path, user_disjoint):
        out = tmp_path / "folds.json"
        result = _folds(corpus_dir, out, *(["--user-disjoint"] if user_disjoint else []))
        assert result.exit_code == 0, result.output
        corpus = load_corpus(*(str(corpus_dir / n) for n in
                               ("profiles.jsonl", "posts.jsonl", "pairs.csv")))
        folder = k_folds_user_disjoint if user_disjoint else k_folds
        pair_set = negative_sample(corpus, 8, 42)
        partitions = folder(pair_set, 3, 42)
        assert out.read_bytes() == folds_json_reference(_triples(pair_set), partitions).encode(
            "utf-8"
        )

    @pytest.mark.parametrize(
        "pairs, partitions",
        [
            (
                [("tw-é", 'fl"q"', True), ("t\\b", "f/\n", False), ("用户", "ü\u2028", True),
                 ("a", "b", False)],
                [(_rows(0, 1), _rows(2)), (_rows(), _rows(3))],
            ),
            (_triples(_K2), k_folds(_K2, 2, 5)),
            ([], []),
        ],
        ids=["escapes-and-empty-list", "k2", "no-folds"],
    )
    def test_unit_cases(self, pairs, partitions):
        assert _write_folds(pairs, partitions) == folds_json_reference(pairs, partitions)

    def test_missing_directory_is_an_error(self, corpus_dir, tmp_path):
        out = tmp_path / "missing" / "x" / "folds.json"
        result = _folds(corpus_dir, out)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # not a traceback
        assert "error: FileNotFoundError: " in result.output
        assert not (tmp_path / "missing").exists()

    def test_failed_write_keeps_old_file(self, corpus_dir, tmp_path, monkeypatch):
        out = tmp_path / "folds.json"
        out.write_text("old", encoding="utf-8")

        class DiskFull:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(data[:5])
                raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(cli, "open", lambda *a, **kw: DiskFull(open(*a, **kw)),
                            raising=False)
        result = _folds(corpus_dir, out)
        assert result.exit_code == 1
        assert "error: OSError: [Errno 28] No space left on device" in result.output
        assert out.read_text(encoding="utf-8") == "old"
        assert [p.name for p in tmp_path.iterdir()] == ["folds.json"]


# pair ids with every kind of character that json.dumps escapes or passes
# through: quotes, backslashes, control characters, line separators, astral
# characters and lone surrogates
ID_CHARS = st.one_of(
    st.sampled_from(['"', "\\", "/", "\x00", "\n", "\x1f", "\x7f", "\u00e9", "\u2028",
                     "\u2029", "\U0001f600", "\ud800", "\udfff"]),
    st.characters(),
)


@st.composite
def _pairs_and_partitions(draw):
    pairs = draw(st.lists(st.tuples(st.text(ID_CHARS, max_size=6),
                                    st.text(ID_CHARS, max_size=6), st.booleans()),
                          max_size=6))
    index = st.integers(0, len(pairs) - 1) if pairs else st.nothing()
    rows = st.lists(index, max_size=len(pairs)).map(lambda r: _rows(*r))
    return pairs, draw(st.lists(st.tuples(rows, rows), max_size=4))


class TestFoldsExportDifferential:
    @settings(max_examples=300, deadline=None)
    @given(_pairs_and_partitions())
    # empty folds, and a pair (row 0) that sits in no fold
    @example(([("t", "f", True), ("u", "g", False)],
              [(_rows(), _rows()), (_rows(1), _rows())]))
    @example(([("t\ud800", "\U0001f600", True)], []))
    def test_matches_json_dumps(self, case):
        pairs, partitions = case
        assert _write_folds(pairs, partitions) == folds_json_reference(pairs, partitions)


@pytest.fixture(scope="module")
def no_posts_dir(corpus_dir, tmp_path_factory):
    """``corpus_dir`` without its posts.jsonl."""
    out = tmp_path_factory.mktemp("no-posts")
    for name in ("profiles.jsonl", "pairs.csv"):
        (out / name).write_bytes((corpus_dir / name).read_bytes())
    return out


def _outputs(data_dir, out, *args):
    """Stdout and what the command wrote to ``out``: the fold file, or the
    models and the report.json results."""
    result = CliRunner().invoke(main, [*args, "--data-dir", str(data_dir), "--k", "2",
                                       "--output", str(out)])
    assert result.exit_code == 0, result.output
    if args[0] == "folds":
        return result.output, out.read_bytes()
    models = {p.name: p.read_bytes() for p in sorted((out / "models").iterdir())}
    results = json.loads((out / "report.json").read_text(encoding="utf-8"))["results"]
    return result.output, models, results


RUN_ARGS = ("--max-epochs", "2", "--hidden-nodes", "8")


class TestPostsOnlyForTemporal:
    """Only `run --model temporal` reads posts.jsonl."""

    @pytest.mark.parametrize(
        "args",
        [("folds",), ("folds", "--user-disjoint"), ("run", "--model", "ps", *RUN_ARGS),
         ("run", "--model", "embedding", *RUN_ARGS)],
        ids=["folds", "folds-user-disjoint", "ps", "embedding"],
    )
    def test_same_outputs_without_posts(self, corpus_dir, no_posts_dir, tmp_path, args):
        # one output path for both, so that stdout names the same files
        out = tmp_path / ("folds.json" if args[0] == "folds" else "out")
        with_posts = _outputs(corpus_dir, out, *args)
        assert _outputs(no_posts_dir, out, *args) == with_posts

    def test_temporal_needs_the_posts_file(self, no_posts_dir, tmp_path):
        result = CliRunner().invoke(
            main, ["run", "--data-dir", str(no_posts_dir), "--model", "temporal",
                   "--output", str(tmp_path / "out")]
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # not a traceback
        assert result.output.startswith("error: FileNotFoundError: ")

    def test_temporal_rejects_a_malformed_post(self, corpus_dir, tmp_path):
        posts = tmp_path / "posts.jsonl"
        lines = (corpus_dir / "posts.jsonl").read_text(encoding="utf-8").splitlines()
        lines.insert(2, '{"platform": "twitter", "user_id": "t0", "timestamp": "soon"}')
        posts.write_text("\n".join(lines) + "\n", encoding="utf-8")
        args = ["--data-dir", str(corpus_dir), "--posts", str(posts)]
        result = CliRunner().invoke(
            main, ["run", *args, "--model", "temporal", "--output", str(tmp_path / "out")]
        )
        assert result.exit_code == 1
        assert result.output == f"error: ParseError: {posts}:3: bad timestamp 'soon'\n"
        result = CliRunner().invoke(main, ["folds", *args])
        assert result.exit_code == 2
        assert "Error: No such option '--posts'" in result.output

    def test_only_temporal_loads_posts(self, corpus_dir, tmp_path, monkeypatch):
        def unreadable(path):
            raise OSError(f"{path} must not be read")

        monkeypatch.setattr(dataset, "_load_posts", unreadable)
        for i, args in enumerate([("folds",), ("run", "--model", "ps", *RUN_ARGS),
                                  ("run", "--model", "temporal", *RUN_ARGS)]):
            result = CliRunner().invoke(
                main, [*args, "--data-dir", str(corpus_dir), "--k", "2",
                       "--output", str(tmp_path / f"out-{i}")]
            )
            if "temporal" in args:
                assert result.exit_code == 1
                assert "must not be read" in result.output
            else:
                assert result.exit_code == 0, (args, result.output)


class TestEmbeddings:
    @pytest.mark.parametrize(
        "model, options, message",
        [
            ("ps", ("--embeddings", "e.txt"), "--embeddings needs --model embedding"),
            ("temporal", ("--embeddings", "e.txt"), "--embeddings needs --model embedding"),
            ("temporal", ("--measure", "lcs"), "--measure needs --model ps"),
            ("temporal", ("--no-names",), "--names needs --model ps"),
            ("ps", ("--temporal-mode", "dow"), "--temporal-mode needs --model temporal"),
            ("ps", ("--include-description",),
             "--include-description needs --model embedding"),
            ("ps", ("--posts", "e.txt"), "--posts needs --model temporal"),
            ("embedding", ("--posts", "e.txt"), "--posts needs --model temporal"),
            # a --config key is given too
            ("temporal", ("--config", "run.cfg"), "--measure needs --model ps"),
            ("ps", ("--config", "posts.cfg"), "--posts needs --model temporal"),
        ],
        ids=["ps", "temporal", "temporal-measure", "temporal-no-names", "ps-temporal-mode",
             "ps-include-description", "ps-posts", "embedding-posts", "temporal-config",
             "ps-posts-config"],
    )
    def test_with_another_model_is_a_usage_error(self, tmp_path, monkeypatch, model,
                                                 options, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "e.txt").write_text("1 3\nfoo 0 0 1\n", encoding="utf-8")
        (tmp_path / "run.cfg").write_text("measure = lcs\n", encoding="utf-8")
        (tmp_path / "posts.cfg").write_text("posts = e.txt\n", encoding="utf-8")
        out = tmp_path / "out"
        result = CliRunner().invoke(
            main, ["run", "--model", model, *options,
                   "--data-dir", str(tmp_path / "no-corpus"), "--output", str(out)]
        )
        assert result.exit_code == 2
        assert f"Error: {message}" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("options", [("--measure", "lcs"), ("--config", "run.cfg")],
                             ids=["command-line", "config"])
    def test_measure_with_all_measures_is_a_usage_error(self, tmp_path, monkeypatch,
                                                        options):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.cfg").write_text("measure = lcs\n", encoding="utf-8")
        out = tmp_path / "out"
        result = CliRunner().invoke(
            main, ["run", "--model", "ps", "--all-measures", *options,
                   "--data-dir", str(tmp_path / "no-corpus"), "--output", str(out)]
        )
        assert result.exit_code == 2
        assert "Error: --measure and --all-measures exclude each other" in result.output
        assert not out.exists()

    def test_embedding_seed_hashes_what_the_file_lacks(self, corpus_dir, tmp_path):
        # the section has one n-gram; every other n-gram is hashed from the seed,
        # and a file without the section has every n-gram hashed, 32 wide
        files = {"sectioned": ("1 2\nalice 1 2\n#char-ngrams\n1 3\n^al 1 0 0\n", 3),
                 "word-only": ("1 2\nalice 1 2\n", 32)}
        for name, (text, dim_char) in files.items():
            table = tmp_path / f"{name}.txt"
            table.write_text(text, encoding="utf-8")
            models = []
            for seed in ("0", "5"):
                out = tmp_path / f"out-{name}-{seed}"
                result = CliRunner().invoke(
                    main, ["run", "--data-dir", str(corpus_dir), "--model", "embedding",
                           "--embeddings", str(table), "--embedding-seed", seed,
                           "--k", "2", "--max-epochs", "1", "--hidden-nodes", "8",
                           "--output", str(out)]
                )
                assert result.exit_code == 0, result.output
                models.append([p.read_bytes() for p in sorted((out / "models").iterdir())])
                report = json.loads((out / "report.json").read_text(encoding="utf-8"))
                assert report["mlp"]["input_dim"] == 2 * (2 + dim_char + 1)
            assert models[0] != models[1], name

    @pytest.mark.parametrize(
        "option, model",
        [("--embeddings", "embedding"), ("--profiles", "ps"), ("--posts", "temporal"),
         ("--pairs", "ps")],
    )
    def test_directory_input_is_a_usage_error(self, tmp_path, option, model):
        out = tmp_path / "out"
        result = CliRunner().invoke(
            main, ["run", "--model", model, option, str(tmp_path),
                   "--data-dir", str(tmp_path / "no-corpus"), "--output", str(out)]
        )
        assert result.exit_code == 2
        assert f"Invalid value for '{option}'" in result.output
        assert "is a directory" in result.output
        assert not out.exists()


class TestReportTitle:
    @pytest.mark.parametrize(
        "options, title",
        [
            (("--model", "ps"), "model=ps measure=editex"),
            (("--model", "ps", "--all-measures"), "model=ps measure=all"),
            (("--model", "temporal", "--temporal-mode", "dow"), "model=temporal mode=dow"),
            (("--model", "embedding", "--hidden-nodes", "8"), "model=embedding"),
        ],
        ids=["ps", "ps-all", "temporal", "embedding"],
    )
    def test_names_what_the_run_used(self, corpus_dir, tmp_path, options, title):
        out = tmp_path / "out"
        result = CliRunner().invoke(
            main, ["run", "--data-dir", str(corpus_dir), "--k", "2", "--max-epochs", "1",
                   "--output", str(out), *options]
        )
        assert result.exit_code == 0, result.output
        lines = (out / "report.txt").read_text(encoding="utf-8").splitlines()
        assert lines[:2] == [title, "-" * len(title)]


class TestHiddenNodes:
    def test_zero_is_rejected_not_replaced(self, corpus_dir, tmp_path):
        out = tmp_path / "out"
        result = CliRunner().invoke(
            main,
            ["run", "--data-dir", str(corpus_dir), "--model", "temporal", "--k", "2",
             "--max-epochs", "1", "--hidden-nodes", "0", "--output", str(out)],
        )
        assert result.exit_code == 2
        assert "Invalid value for '--hidden-nodes'" in result.output
        assert not out.exists()

    def test_default_depends_on_the_model(self, corpus_dir, tmp_path):
        out = tmp_path / "out"
        result = CliRunner().invoke(
            main,
            ["run", "--data-dir", str(corpus_dir), "--model", "temporal", "--k", "2",
             "--max-epochs", "1", "--output", str(out)],
        )
        assert result.exit_code == 0, result.output
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert report["run"]["hidden_nodes"] == report["mlp"]["hidden_nodes"] == 50


# the `run` options every model reads; the input paths as resolved
SHARED_OPTIONS = {
    "model", "neg_ratio", "k", "seed", "user_disjoint", "hidden_nodes", "learning_rate",
    "dropout_rate", "batch_size", "max_epochs", "early_stop_patience", "profiles_path",
    "pairs_path", "output_dir",
}


class TestRunModels:
    def test_a_smaller_k_leaves_no_stale_models(self, corpus_dir, tmp_path):
        out = tmp_path / "out"
        for k in ("3", "2"):
            result = CliRunner().invoke(
                main, ["run", "--data-dir", str(corpus_dir), "--model", "temporal",
                       "--k", k, "--max-epochs", "1", "--output", str(out)]
            )
            assert result.exit_code == 0, result.output
        assert sorted(p.name for p in (out / "models").iterdir()) == [
            "fold-00.bin", "fold-01.bin"
        ]


class TestRunAndFoldsAgree:
    """``run`` tests each fold on the rows ``folds`` lists for it."""

    @pytest.mark.parametrize("user_disjoint", [False, True], ids=["stratified", "user-disjoint"])
    def test_fold_class_counts(self, corpus_dir, tmp_path, user_disjoint):
        extra = ["--seed", "7", *(["--user-disjoint"] if user_disjoint else [])]
        result = _folds(corpus_dir, tmp_path / "folds.json", *extra)
        assert result.exit_code == 0, result.output
        result = CliRunner().invoke(
            main, ["run", "--data-dir", str(corpus_dir), "--model", "temporal", "--k", "3",
                   "--max-epochs", "1", "--output", str(tmp_path / "out"), *extra]
        )
        assert result.exit_code == 0, result.output
        listed = json.loads((tmp_path / "folds.json").read_text(encoding="utf-8"))
        report = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
        per_fold = report["results"]["per_fold"]
        assert len(per_fold) == len(listed) == 3
        for fold, doc in zip(per_fold, listed):
            n_pos = sum(label for _, _, label in doc["test"])
            c = fold["counts"]
            assert c["tp"] + c["fn"] == n_pos
            assert c["fp"] + c["tn"] == len(doc["test"]) - n_pos


class TestInnerSplitFallback:
    def test_folds_too_small_to_split_stop_on_their_training_rows(self, tmp_path,
                                                                   monkeypatch):
        # one positive per training fold leaves the inner split no positive to hold out
        profiles = [{"platform": p, "user_id": f"{p[0]}{i}", "user_name": f"user{i}"}
                    for p in ("twitter", "flickr") for i in range(5)]
        (tmp_path / "profiles.jsonl").write_text(
            "".join(json.dumps(r) + "\n" for r in profiles), encoding="utf-8")
        (tmp_path / "pairs.csv").write_text("twitter_id,flickr_id\nt0,f0\nt1,f1\n",
                                            encoding="utf-8")
        folds, jobs = [], []
        train = evaluation.train

        def recording_k_folds(*args):
            result = k_folds(*args)
            folds.extend(result)
            return result

        def recording_train(cfg, x, y, fold_jobs):
            jobs.extend(fold_jobs)
            return train(cfg, x, y, fold_jobs)

        monkeypatch.setattr(evaluation, "k_folds", recording_k_folds)
        monkeypatch.setattr(evaluation, "train", recording_train)
        result = CliRunner().invoke(
            main, ["run", "--data-dir", str(tmp_path), "--k", "2", "--max-epochs", "2",
                   "--output", str(tmp_path / "out")]
        )
        assert result.exit_code == 0, result.output
        assert len(jobs) == len(folds) == 2
        for job, (train_rows, _) in zip(jobs, folds):
            assert job.fit.tolist() == job.stop.tolist() == train_rows.tolist()


class TestRunRecord:
    @pytest.mark.parametrize(
        "model, own",
        [
            ("ps", {"measure", "all_measures", "include_names"}),
            ("temporal", {"temporal_mode", "posts_path"}),
            ("embedding", {"include_description", "embedding_seed", "embeddings_path"}),
        ],
        ids=["ps", "temporal", "embedding"],
    )
    def test_run_holds_the_options_the_model_reads(self, corpus_dir, tmp_path, model, own):
        out = tmp_path / "out"
        result = CliRunner().invoke(
            main, ["run", "--data-dir", str(corpus_dir), "--model", model, "--k", "2",
                   "--max-epochs", "1", "--hidden-nodes", "8", "--output", str(out)]
        )
        assert result.exit_code == 0, result.output
        run = json.loads((out / "report.json").read_text(encoding="utf-8"))["run"]
        assert run.keys() == SHARED_OPTIONS | own

    def test_family_options_are_run_parameters(self):
        params = {p.name for p in cli.run.params}
        for name, family in cli.FAMILIES.items():
            assert set(family.options) <= params, name

    def test_mlp_section_is_the_model_config(self, corpus_dir, tmp_path):
        out = tmp_path / "out"
        result = CliRunner().invoke(
            main, ["run", "--data-dir", str(corpus_dir), "--model", "temporal", "--k", "2",
                   "--max-epochs", "1", "--seed", "6", "--output", str(out)]
        )
        assert result.exit_code == 0, result.output
        mlp = json.loads((out / "report.json").read_text(encoding="utf-8"))["mlp"]
        for fold in range(2):
            config = load_model(str(out / "models" / f"fold-{fold:02d}.bin")).config
            # each fold trains under seed XOR fold
            assert {**mlp, "rng_seed": 6 ^ fold} == dataclasses.asdict(config)


class TestLearningRate:
    # NaN compares false with every bound of a range, so it is checked apart
    @pytest.mark.parametrize("option, value", [
        pytest.param("--learning-rate", "nan", id="nan"),
        pytest.param("--learning-rate", "inf", id="inf"),
        pytest.param("--learning-rate", "-1", id="-1"),
        pytest.param("--learning-rate", "0", id="0"),
        pytest.param("--dropout", "nan", id="dropout-nan"),
    ])
    def test_non_finite_or_non_positive_is_rejected(self, corpus_dir, tmp_path, monkeypatch,
                                                    option, value):
        loads = []
        monkeypatch.setattr(cli, "load_corpus", lambda *args: loads.append(args))
        out = tmp_path / "out"
        result = CliRunner().invoke(
            main,
            ["run", "--data-dir", str(corpus_dir), "--model", "temporal", "--k", "2",
             "--max-epochs", "2", option, value, "--output", str(out)],
        )
        assert result.exit_code == 2
        assert f"Invalid value for '{option}'" in result.output
        assert loads == []
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_divergence_is_a_typed_error(self, corpus_dir, tmp_path):
        # steps of about 1e300 overflow the weights, so every validation
        # loss is NaN
        out = tmp_path / "out"
        result = CliRunner().invoke(
            main,
            ["run", "--data-dir", str(corpus_dir), "--model", "temporal", "--k", "2",
             "--max-epochs", "2", "--learning-rate", "1e300", "--output", str(out)],
        )
        assert result.exit_code == 1
        assert ("error: TrainingDivergedError: fold 0: no epoch reached a finite "
                "validation loss") in result.output
        assert not (out / "report.json").exists()


PROFILE_A = {"platform": "twitter", "user_id": "t1", "user_name": "kwanhui",
             "real_name": "Kwan Hui Lim", "description": "data science researcher",
             "location": "Singapore", "post_count": 40}
PROFILE_B = {"platform": "flickr", "user_id": "f1", "user_name": "kwan_hui",
             "real_name": "Lim Kwan Hui", "description": "photos of research",
             "location": "singapore", "post_count": 10}


def _score(a, b, *extra):
    return CliRunner().invoke(
        main, ["score-pair", "-a", json.dumps(a), "-b", json.dumps(b), *extra]
    )


class TestScorePair:
    def test_valid_pair_prints_every_feature(self):
        result = _score(PROFILE_A, PROFILE_B)
        assert result.exit_code == 0, result.output
        names = [line.split()[0] for line in result.output.splitlines()]
        assert names == ["user_name_score", "real_name_score", "post_ratio",
                         "description_score", "location_score"]
        assert "post_ratio         raw=40/10 score=0.2500" in result.output
        assert "location_score     raw=0 score=1.0000" in result.output

    def test_profile_from_file(self, tmp_path):
        path = tmp_path / "b.json"
        path.write_text(json.dumps(PROFILE_B), encoding="utf-8")
        result = CliRunner().invoke(
            main, ["score-pair", "-a", json.dumps(PROFILE_A), "-b", f"@{path}",
                   "--no-names"]
        )
        assert result.exit_code == 0, result.output
        assert len(result.output.splitlines()) == 3

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"user_name": 5}, "user_name must be a string or null"),
            ({"location": {"c": 1}}, "location must be a string or null"),
            ({"post_count": True}, "post_count must be a nonnegative integer"),
            ({"post_count": "7"}, "post_count must be a nonnegative integer"),
            ({"post_count": 2.9}, "post_count must be a nonnegative integer"),
            ({"post_count": -1}, "post_count must be a nonnegative integer"),
            ({"user_id": ["x"]}, "user_id must be a nonempty string"),
            ({"platform": "Twitter"}, "unknown platform 'Twitter'"),
        ],
        ids=["user_name-number", "location-object", "post_count-true", "post_count-text",
             "post_count-float", "post_count-negative", "user_id-list", "platform-case"],
    )
    def test_malformed_profile_is_rejected(self, change, message):
        result = _score({**PROFILE_A, **change}, PROFILE_B)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # not a traceback
        assert f"error: ParseError: --profile-a:1: {message}" in result.output

    def test_profile_file_not_utf8_names_the_line(self, tmp_path):
        path = tmp_path / "b.json"
        text = json.dumps(PROFILE_B, indent=1).encode()
        path.write_bytes(text.replace(b'"flickr"', b'"fl\xffickr"'))
        result = CliRunner().invoke(
            main, ["score-pair", "-a", json.dumps(PROFILE_A), "-b", f"@{path}"]
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # not a traceback
        # line 1 is "{", line 2 the platform
        assert f"error: ParseError: {path}:2: not valid UTF-8" in result.output

    @pytest.mark.parametrize("text", ["{not json", "[1, 2]"])
    def test_not_a_json_object(self, text):
        result = CliRunner().invoke(
            main, ["score-pair", "-a", json.dumps(PROFILE_A), "-b", text]
        )
        assert result.exit_code == 1
        assert "error: ParseError: --profile-b:1: " in result.output

    def test_same_platform_is_rejected(self):
        result = _score(PROFILE_A, {**PROFILE_B, "platform": "twitter"})
        assert result.exit_code == 1
        assert "error: SamePlatformError: both accounts are on twitter" in result.output

    @pytest.mark.parametrize("measure", list(strsim.Measure))
    def test_raw_column_is_the_strsim_measure(self, measure):
        fn = {
            "levenshtein": strsim.levenshtein,
            "damerau-levenshtein": strsim.damerau_levenshtein,
            "editex": strsim.editex,
            "jaro-winkler": strsim.jaro_winkler,
            "jaccard": strsim.jaccard_2gram,
            "ncd-bzip2": strsim.ncd_bzip2,
            "lcs": strsim.lcs_length,
            "smith-waterman": strsim.smith_waterman,
            "cosine": strsim.cosine_2gram,
        }[measure.value]
        result = _score(PROFILE_A, PROFILE_B, "--measure", measure.value)
        assert result.exit_code == 0, result.output
        raws = [line.split()[1] for line in result.output.splitlines()]
        for field, raw in zip(("user_name", "real_name", None, "description", "location"),
                              raws):
            if field is None:
                continue
            value = fn(PROFILE_A[field], PROFILE_B[field])
            assert raw == (f"raw={value:.4f}" if isinstance(value, float) else f"raw={value}")


# real_name and location are empty on one side, description on both
SPARSE_A = {**PROFILE_A, "real_name": "", "description": ""}
SPARSE_B = {**PROFILE_B, "description": "", "location": ""}


class TestScorePairIsTheMatrixRow:
    """Each ``score-pair`` line is its ``featurize_pairs`` column: the same
    name and score, and as raw value the strsim measure of the two fields,
    or the two post counts."""

    @pytest.mark.parametrize("names", ["--names", "--no-names"])
    @pytest.mark.parametrize("measure", list(strsim.Measure), ids=lambda m: m.value)
    @pytest.mark.parametrize("pair", [(PROFILE_A, PROFILE_B), (SPARSE_A, SPARSE_B)],
                             ids=["full", "empty-fields"])
    def test_lines_are_the_featurize_pairs_row(self, pair, measure, names):
        result = _score(*pair, "--measure", measure.value, names)
        assert result.exit_code == 0, result.output
        a, b = (dataset.parse_profile(json.dumps(obj), "profile", 1) for obj in pair)
        corpus = dataset.Corpus({(p.platform, p.user_id): p for p in (a, b)}, {}, [])
        fm = featurize_pairs(corpus, [(a.user_id, b.user_id)], measure, names == "--names")
        lines = [line.split() for line in result.output.splitlines()]
        assert [name for name, _, _ in lines] == fm.schema
        for (name, raw, score), value in zip(lines, fm.x[0].tolist(), strict=True):
            assert score == f"score={value:.4f}", name
            if name == "post_ratio":
                assert raw == f"raw={a.post_count}/{b.post_count}"
                continue
            field = name.removesuffix("_score")
            expected = strsim.raw_measure(measure, getattr(a, field), getattr(b, field))
            shown = f"{expected:.4f}" if isinstance(expected, float) else str(expected)
            assert raw == f"raw={shown}", name
        if pair[0] is SPARSE_A:
            scores = {name: score for name, _, score in lines}
            assert scores["description_score"] == "score=1.0000"
            assert scores["location_score"] == "score=0.0000"
            assert scores.get("real_name_score", "score=0.0000") == "score=0.0000"


def _exits_cleanly(result):
    """Exit 0, or exit 1 with an `error:` line and no traceback."""
    return result.exit_code == 0 or (result.exit_code == 1
                                     and isinstance(result.exception, SystemExit)
                                     and result.output.startswith("error: "))


class TestPairsCsvErrors:
    @pytest.mark.parametrize("command", ["folds", "run"])
    def test_field_over_the_csv_limit(self, corpus_dir, tmp_path, command):
        pairs = tmp_path / "pairs.csv"
        pairs.write_text(f"twitter_id,flickr_id\n{'t' * 131_073},f0\n", encoding="utf-8")
        result = CliRunner().invoke(
            main, [command, "--data-dir", str(corpus_dir), "--pairs", str(pairs)]
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # not a traceback
        assert result.output == (
            f"error: ParseError: {pairs}:2: bad CSV: field larger than field limit (131072)\n"
        )


FUZZ_USERS = 4
PROFILES = [{"platform": "twitter" if p == "t" else "flickr", "user_id": f"{p}{i}",
             "user_name": f"user {i}", "real_name": f"Name {i}", "post_count": i}
            for p in "tf" for i in range(FUZZ_USERS)]
POSTS = [{"platform": "twitter" if p == "t" else "flickr", "user_id": f"{p}{i}",
          "timestamp": f"2022-05-0{1 + j}T{8 + i:02d}:30:00+00:00"}
         for p in "tf" for i in range(FUZZ_USERS) for j in range(2)]
ANY_JSON = st.one_of(st.none(), st.booleans(), st.integers(-2, 2), st.floats(),
                     st.text(max_size=3), st.lists(st.integers(), max_size=2),
                     st.just({"a": 1}))
REMOVED = object()  # a change that deletes the field


def _jsonl(records):
    return "".join(json.dumps(r) + "\n" for r in records).encode()


def _wrong_types(records):
    """JSON lines of ``records`` with a field or two set to a value of any
    type, or removed."""
    change = st.tuples(st.integers(0, len(records) - 1), st.sampled_from(sorted(records[0])),
                       ANY_JSON | st.just(REMOVED))

    def apply(changes):
        changed = [dict(r) for r in records]
        for i, key, value in changes:
            if value is REMOVED:
                changed[i].pop(key, None)
            else:
                changed[i][key] = value
        return _jsonl(changed)

    return st.lists(change, min_size=1, max_size=2).map(apply)


# the true pairs plus a few rows that may dangle (t4, f4) or repeat
PAIRS = st.lists(st.tuples(st.sampled_from(range(FUZZ_USERS + 1)),
                           st.sampled_from(range(FUZZ_USERS + 1))), max_size=3).map(
    lambda extra: ("twitter_id,flickr_id\n" + "".join(
        f"t{t},f{f}\n" for t, f in [(i, i) for i in range(FUZZ_USERS)] + extra
    )).encode())


def _bad_bytes(files):
    """One of the three files with a few arbitrary bytes put in."""
    def apply(files, which, at, raw):
        files = list(files)
        at %= len(files[which]) + 1
        files[which] = files[which][:at] + raw + files[which][at:]
        return files

    return st.builds(apply, files, st.integers(0, 2), st.integers(0, 10_000),
                     st.binary(min_size=1, max_size=3))


CLEAN = st.tuples(st.just(_jsonl(PROFILES)), st.just(_jsonl(POSTS)), PAIRS)
CORPORA = st.one_of(
    CLEAN,
    st.tuples(_wrong_types(PROFILES), st.just(_jsonl(POSTS)), PAIRS),
    st.tuples(st.just(_jsonl(PROFILES)), _wrong_types(POSTS), PAIRS),
    _bad_bytes(CLEAN),
)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("e2e-fuzz")


class TestEndToEndFuzz:
    """Whatever the corpus, `folds` and `run` exit 0, or exit 1 with an
    `error:` line; no other exception escapes."""

    @staticmethod
    def _invoke(directory, files, *args):
        for name, data in zip(("profiles.jsonl", "posts.jsonl", "pairs.csv"), files):
            (directory / name).write_bytes(data)
        return CliRunner().invoke(main, [*args, "--data-dir", str(directory), "--k", "2"])

    @settings(max_examples=100, deadline=None)
    @given(files=CORPORA, neg_ratio=st.integers(0, 3), user_disjoint=st.booleans())
    def test_folds(self, fuzz_dir, files, neg_ratio, user_disjoint):
        result = self._invoke(fuzz_dir, files, "folds", "--neg-ratio", str(neg_ratio),
                              *(["--user-disjoint"] if user_disjoint else []))
        assert _exits_cleanly(result), result.output

    @settings(max_examples=60, deadline=None)
    @given(files=CORPORA, model=st.sampled_from(sorted(cli.FAMILIES)),
           neg_ratio=st.integers(0, 3))
    def test_run(self, fuzz_dir, files, model, neg_ratio):
        result = self._invoke(fuzz_dir, files, "run", "--model", model, "--neg-ratio",
                              str(neg_ratio), "--max-epochs", "1", "--hidden-nodes", "8",
                              "--output", str(fuzz_dir / "out"))
        assert _exits_cleanly(result), result.output
