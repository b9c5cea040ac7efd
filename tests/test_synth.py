from osnmatch import synth

FILES = ("profiles.jsonl", "posts.jsonl", "pairs.csv")


def _generate(tmp_path, name, seed):
    out = tmp_path / name
    summary = synth.generate_corpus(12, 0.15, seed, str(out))
    for key in ("profiles_path", "posts_path", "pairs_path"):
        summary[key] = summary[key].removeprefix(str(out))
    return summary, {n: (out / n).read_bytes() for n in FILES}


class TestDeterminism:
    def test_same_seed_same_bytes(self, tmp_path):
        summary_a, files_a = _generate(tmp_path, "a", 7)
        summary_b, files_b = _generate(tmp_path, "b", 7)
        assert summary_a == summary_b
        assert files_a == files_b
        assert summary_a["generator_version"] == synth.GENERATOR_VERSION
        assert summary_a["posts"] == files_a["posts.jsonl"].count(b"\n")

    def test_other_seed_other_posts(self, tmp_path):
        _, files_a = _generate(tmp_path, "a", 7)
        _, files_b = _generate(tmp_path, "b", 8)
        assert files_a["posts.jsonl"] != files_b["posts.jsonl"]
