import errno
import io
import json

import numpy as np
import pytest
from click.testing import CliRunner

from osnmatch import cli, strsim, synth
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


def _rows(*rows):
    return np.array(rows, dtype=np.intp)


_K2 = LabeledPairSet([("t0", "f0", True), ("t1", "f1", True), ("t0", "f1", False),
                      ("t1", "f0", False)])


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
        assert out.read_bytes() == folds_json_reference(pair_set.pairs, partitions).encode(
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
            (_K2.pairs, k_folds(_K2, 2, 5)),
            ([], []),
        ],
        ids=["escapes-and-empty-list", "k2", "no-folds"],
    )
    def test_unit_cases(self, pairs, partitions):
        fh = io.StringIO()
        write_folds_json(fh, pairs, partitions)
        assert fh.getvalue() == folds_json_reference(pairs, partitions)

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


class TestHiddenNodes:
    def test_zero_is_rejected_not_replaced(self, corpus_dir, tmp_path):
        out = tmp_path / "out"
        result = CliRunner().invoke(
            main,
            ["run", "--data-dir", str(corpus_dir), "--model", "temporal", "--k", "2",
             "--max-epochs", "1", "--hidden-nodes", "0", "--output", str(out)],
        )
        assert result.exit_code == 1
        assert "error: ValueError: layer dimensions must be positive" in result.output
        assert not (out / "report.json").exists()

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


class TestLearningRate:
    @pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
    def test_non_finite_or_non_positive_is_rejected(self, corpus_dir, tmp_path, value):
        out = tmp_path / "out"
        result = CliRunner().invoke(
            main,
            ["run", "--data-dir", str(corpus_dir), "--model", "temporal", "--k", "2",
             "--max-epochs", "2", "--learning-rate", value, "--output", str(out)],
        )
        assert result.exit_code == 1
        assert "error: ValueError: learning_rate must be finite and positive" in result.output
        assert not (out / "report.json").exists()

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
