import json

import pytest
from click.testing import CliRunner

from osnmatch import synth
from osnmatch.cli import main


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
