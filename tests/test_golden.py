"""End-to-end golden pin: per-fold confusion counts and model-file digests.

Each case runs ``osnmatch run`` (negative sampling, ``cross_validate`` with
k = 3 and 3 epochs, ``save_model``) on one small synthetic corpus and
compares the per-fold counts of ``report.json`` and the SHA-256 of every
``models/fold-*.bin`` with values recorded before the feature pipeline
became one matrix (the user-disjoint and early-stopping cases: before the
folds were trained in lockstep). Any change to a feature value, its column
order, the folds, the training or the file format shows up here.
"""

import hashlib
import json

import pytest
from click.testing import CliRunner

from osnmatch import synth
from osnmatch.cli import main


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden-corpus")
    synth.generate_corpus(20, 0.15, 3, str(out))
    return out


# per case: the extra `run` options (they override the defaults below), the
# per-fold (tp, fp, fn, tn) and the SHA-256 of fold-00.bin, fold-01.bin and
# fold-02.bin
GOLDEN = {
    "ps-editex": (
        ("--model", "ps", "--measure", "editex"),
        [(0, 0, 7, 54), (1, 0, 6, 53), (0, 0, 6, 53)],
        [
            "2f4a4a710005c178c09c1b5ea4e411d7b74da10c6ea5ed53d7d3afee994c143f",
            "cf379448952d6ce7e06e904a04da6457ba888eda74df372e5bb6e98eb27e9234",
            "533a4aa0d1efeb05745c303a37cee9b7ca658abfda3ec9c6d6504b732d911b29",
        ],
    ),
    "ps-all-measures": (
        ("--model", "ps", "--all-measures"),
        [(0, 0, 7, 54), (0, 0, 7, 53), (0, 0, 6, 53)],
        [
            "e3732f1dd735076f928a7276c507908224a905c66733cab78f4bb3c20281656e",
            "45c1676b1908d873e98f44a349d10830422454f7e448564e9f224c5a8a4730a4",
            "4f0ad23c148084c1c6be6e5a8468b4ba7e3a005848cc766347f68883905a0cce",
        ],
    ),
    "temporal-hod": (
        ("--model", "temporal", "--temporal-mode", "hod"),
        [(1, 3, 6, 51), (0, 0, 7, 53), (0, 3, 6, 50)],
        [
            "8d95266637ed6662cd73b9d67773e2b539a3111a861c4d0746068ec495f9b7e0",
            "66c9fdd0ffb47931856e538c29e08c4b2fca31199a3d01978da2c2b7d1db6186",
            "04f8bdbcf0258d522b25b362643ddb98a6cc6fb507be5fa6da623e62388b0a91",
        ],
    ),
    "embedding-hash": (
        ("--model", "embedding"),
        [(0, 0, 7, 54), (0, 0, 7, 53), (0, 0, 6, 53)],
        [
            "8ca14e3461259c68a9bf6c346861e2f46e80215ec8a37577f2203875099c45bc",
            "ce85e8694aa19ecfc98c3366a4c23eab93af521eb45637b382c983900634d9e6",
            "795dbaf1a7ae3b2e83d28c29b8c5e7f042c1bb5dff964ec81ae358d13add31fe",
        ],
    ),
    "temporal-user-disjoint": (
        ("--model", "temporal", "--user-disjoint"),
        [(2, 2, 5, 14), (0, 0, 7, 15), (1, 1, 5, 10)],
        [
            "7d6b18c5456cb38df06e97bdc4ecc946b4aac137eb5a442a87393999769a6dad",
            "1a984dcfb24db119ff4164d49ae1aeafe5901b25f4afb47cd82b5bf4e074c6d8",
            "8aa7369787eb477e25c70b83b40f92c26837bc531301d99db3721f14da004300",
        ],
    ),
    # the three folds stop early after 10, 4 and 7 epochs
    "temporal-patience-1": (
        ("--model", "temporal", "--patience", "1", "--max-epochs", "40"),
        [(0, 0, 7, 54), (0, 0, 7, 53), (0, 0, 6, 53)],
        [
            "c2cb48e55514455785d718551f22373893d51b7d608bc3d346553b8940e39ddb",
            "76b316eb56514463d997f43bf81c0bd0edf8518158bcad9de454bb5019256e35",
            "721cc258f7560be268e260712408d455e6b7fe261803535434f525fc3a2b8d6d",
        ],
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_counts_and_model_digests(corpus_dir, tmp_path, case):
    options, counts, digests = GOLDEN[case]
    out = tmp_path / "out"
    result = CliRunner().invoke(
        main,
        ["run", "--k", "3", "--max-epochs", "3", "--seed", "42",
         "--data-dir", str(corpus_dir), "--output", str(out), *options],
    )
    assert result.exit_code == 0, result.output
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    got_counts = [
        tuple(fold["counts"][c] for c in ("tp", "fp", "fn", "tn"))
        for fold in report["results"]["per_fold"]
    ]
    got_digests = [
        hashlib.sha256((out / "models" / f"fold-{i:02d}.bin").read_bytes()).hexdigest()
        for i in range(3)
    ]
    assert sorted(p.name for p in (out / "models").iterdir()) == [
        "fold-00.bin", "fold-01.bin", "fold-02.bin"
    ]
    assert got_counts == counts
    assert got_digests == digests
