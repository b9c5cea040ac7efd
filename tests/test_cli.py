import errno
import io
import json

import pytest
from click.testing import CliRunner

from osnmatch import cli, synth
from osnmatch.cli import main, write_folds_json
from osnmatch.dataset import (
    LabeledPairSet,
    k_folds,
    k_folds_user_disjoint,
    load_corpus,
    negative_sample,
)
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


def _folds(corpus_dir, out, *extra):
    return CliRunner().invoke(
        main,
        ["folds", "--data-dir", str(corpus_dir), "--k", "3", "--output", str(out),
         *extra],
    )


class TestFoldsExport:
    @pytest.mark.parametrize("user_disjoint", [False, True])
    def test_matches_json_dumps(self, corpus_dir, tmp_path, user_disjoint):
        out = tmp_path / "folds.json"
        result = _folds(corpus_dir, out, *(["--user-disjoint"] if user_disjoint else []))
        assert result.exit_code == 0, result.output
        corpus = load_corpus(*(str(corpus_dir / n) for n in
                               ("profiles.jsonl", "posts.jsonl", "pairs.csv")))
        folder = k_folds_user_disjoint if user_disjoint else k_folds
        partitions = folder(negative_sample(corpus, 8, 42), 3, 42)
        assert out.read_bytes() == folds_json_reference(partitions).encode("utf-8")

    @pytest.mark.parametrize(
        "partitions",
        [
            [
                (
                    LabeledPairSet([("tw-é", 'fl"q"', True), ("t\\b", "f/\n", False)], 1, 0),
                    LabeledPairSet([("用户", "ü\u2028", True)], 1, 0),
                ),
                (LabeledPairSet([], 1, 0), LabeledPairSet([("a", "b", False)], 1, 0)),
            ],
            k_folds(
                LabeledPairSet([("t0", "f0", True), ("t1", "f1", True),
                                ("t0", "f1", False), ("t1", "f0", False)], 1, 0),
                2,
                5,
            ),
            [],
        ],
        ids=["escapes-and-empty-list", "k2", "no-folds"],
    )
    def test_unit_cases(self, partitions):
        fh = io.StringIO()
        write_folds_json(fh, partitions)
        assert fh.getvalue() == folds_json_reference(partitions)

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
