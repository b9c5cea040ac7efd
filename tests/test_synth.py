import hashlib
import json
import re

import pytest
from click.testing import CliRunner

from osnmatch import synth
from osnmatch.cli import main
from osnmatch.dataset import load_corpus
from osnmatch.profile_features import Platform

FILES = ("profiles.jsonl", "posts.jsonl", "pairs.csv")


def _generate(tmp_path, name, seed):
    out = tmp_path / name
    summary = synth.generate_corpus(12, 0.15, seed, str(out))
    for key in ("profiles_path", "posts_path", "pairs_path"):
        summary[key] = summary[key].removeprefix(str(out))
    return summary, {n: (out / n).read_bytes() for n in FILES}


def _load(directory):
    return load_corpus(*(str(directory / n) for n in FILES))


class TestDeterminism:
    def test_same_seed_same_bytes(self, tmp_path):
        summary_a, files_a = _generate(tmp_path, "a", 7)
        summary_b, files_b = _generate(tmp_path, "b", 7)
        assert summary_a == summary_b
        assert files_a == files_b
        assert summary_a["generator_version"] == synth.GENERATOR_VERSION
        assert summary_a["posts"] == files_a["posts.jsonl"].count(b"\n")

    def test_version_one_bytes_are_pinned(self, tmp_path):
        """The pools and coefficients of version 1 make these exact files;
        a change to them must bump ``GENERATOR_VERSION`` and these digests."""
        synth.generate_corpus(12, 0.15, 7, str(tmp_path))
        assert synth.GENERATOR_VERSION == 1
        assert {n: hashlib.sha256((tmp_path / n).read_bytes()).hexdigest() for n in FILES} == {
            "profiles.jsonl": "c7c75555eb8303d056413dfdc08ebd2d689c321453d28aa689335998f5321d89",
            "posts.jsonl": "de7489c7d547cf1b23fcb5b623dc387c701d842850d16f01bf70e5d140b9f6fa",
            "pairs.csv": "63bd28b71f8e4753f6b3c28835c7fe75589e40ce58caba259fd418312adb739e",
        }

    def test_other_seed_other_posts(self, tmp_path):
        _, files_a = _generate(tmp_path, "a", 7)
        _, files_b = _generate(tmp_path, "b", 8)
        assert files_a["posts.jsonl"] != files_b["posts.jsonl"]


PROFILE_FIELDS = ("user_name", "real_name", "description", "location", "post_count")


class TestCorpus:
    def test_noise_zero_gives_equal_profiles(self, tmp_path):
        synth.generate_corpus(12, 0.0, 5, str(tmp_path))
        corpus = _load(tmp_path)
        for t_id, f_id in corpus.positive_pairs:
            a = corpus.profile(Platform.TWITTER, t_id)
            b = corpus.profile(Platform.FLICKR, f_id)
            assert [getattr(a, f) for f in PROFILE_FIELDS] == [
                getattr(b, f) for f in PROFILE_FIELDS
            ]

    def test_loads_every_pair_and_profile(self, tmp_path):
        synth.generate_corpus(15, 0.15, 9, str(tmp_path))
        corpus = _load(tmp_path)
        assert len(corpus.positive_pairs) == 15
        assert len(corpus.profiles) == 30
        assert corpus.dropped_pairs == 0


class TestBeyondTheNamePool:
    def test_names_repeat_and_usernames_stay_distinct(self, tmp_path, monkeypatch):
        # two name combinations for 30 people: names are drawn with repeats,
        # and colliding usernames get suffixes
        monkeypatch.setattr(synth, "FIRST_NAMES", ["ann", "bob"])
        monkeypatch.setattr(synth, "LAST_NAMES", ["lee"])
        synth.generate_corpus(30, 0.0, 3, str(tmp_path))
        corpus = _load(tmp_path)
        twitter = [p for (platform, _), p in corpus.profiles.items()
                   if platform is Platform.TWITTER]
        assert len(twitter) == 30
        assert {p.real_name for p in twitter} <= {"Ann Lee", "Bob Lee"}
        assert len({p.user_name for p in twitter}) == 30
        assert len(corpus.positive_pairs) == 30
        assert corpus.dropped_pairs == 0


class TestCommand:
    def test_writes_the_corpus_and_one_summary_line(self, tmp_path):
        out = tmp_path / "out"
        result = CliRunner().invoke(
            main, ["synth", "--n-users", "20", "--seed", "3", "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        assert result.output.count("\n") == 1
        expected = synth.generate_corpus(20, 0.15, 3, str(tmp_path / "api"))
        for key, name in zip(("profiles_path", "posts_path", "pairs_path"), FILES):
            expected[key] = str(out / name)
            assert (out / name).read_bytes() == (tmp_path / "api" / name).read_bytes()
        assert json.loads(result.output) == expected


class TestArguments:
    @pytest.mark.parametrize(
        "n_users, noise, message",
        [
            (synth.MIN_USERS - 1, 0.15, "n_users must be >= 10"),
            (12, -0.01, "noise must be in [0, 1]"),
            (12, 1.01, "noise must be in [0, 1]"),
        ],
    )
    def test_out_of_range_is_a_value_error(self, tmp_path, n_users, noise, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            synth.generate_corpus(n_users, noise, 1, str(tmp_path / "out"))
        assert not (tmp_path / "out").exists()

    def test_cli_reports_the_error(self, tmp_path):
        result = CliRunner().invoke(
            main, ["synth", "--n-users", "5", "--out", str(tmp_path / "out")]
        )
        assert result.exit_code == 2
        assert "Invalid value for '--n-users': 5 is not in the range x>=10." in result.output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("noise", ["nan", "inf", "-0.01", "1.01"])
    def test_cli_noise_is_finite_and_in_range(self, tmp_path, noise):
        result = CliRunner().invoke(
            main, ["synth", "--noise", noise, "--out", str(tmp_path / "out")]
        )
        assert result.exit_code == 2
        assert "Invalid value for '--noise'" in result.output
        assert not (tmp_path / "out").exists()
