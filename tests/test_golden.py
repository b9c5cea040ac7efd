"""End-to-end golden pin: per-fold confusion counts and model-file digests.

Each case runs ``osnmatch run`` (negative sampling, ``cross_validate`` with
k = 3 and 3 epochs, ``save_model``) on one small synthetic corpus and
compares the per-fold counts of ``report.json`` and the SHA-256 of every
``models/fold-*.bin`` with values recorded when training became float32;
they were the same at 1, 2 and 4 BLAS threads and on one CPU. Any change
to a feature value, its column order, the folds, the training or the file
format shows up here.
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
        [(0, 0, 7, 54), (0, 0, 7, 53), (0, 0, 6, 53)],
        [
            "a3952a388c97015272ca8550a9c0f6c9cde61a76a92f9f28fa2509212cd66f20",
            "c90cc3e3d6030c8207d8c32584faf7b8398a090cc58e209e4f840031ef25a9eb",
            "55f8cb5c2294c2f2376ba8867b5c0925cbf9653aa9f9427cdf80726c4a4ddced",
        ],
    ),
    "ps-all-measures": (
        ("--model", "ps", "--all-measures"),
        [(0, 0, 7, 54), (0, 0, 7, 53), (0, 0, 6, 53)],
        [
            "ebafb1332a06a31c623c52a10b9e58d853855b9c66c25a9a79a7006a1c943f1e",
            "671afd7d4297fdea233c0f30b7de41318da9e702350deffda6c3c9aae1232186",
            "b22a281c2fb5a43e1016a0510de9c8ab78d85b38d9e13314c14fa0d8af8892f0",
        ],
    ),
    # post_ratio first: the [2, 0, 1] order of the single-measure no-names row
    "ps-no-names": (
        ("--model", "ps", "--measure", "ncd-bzip2", "--no-names"),
        [(0, 0, 7, 54), (0, 0, 7, 53), (0, 0, 6, 53)],
        [
            "6c5e6f81b72c12510d68d10dfb04af0934e7e7f3f393d6efe1a20bf261a011cd",
            "0a29e8094000896de66b138ce936598ce5e3b0ea00079d4774c9760398301a7f",
            "56dd0f2316b5cff67832e9300b621baf0e0c29688f4643c28919acf3c1aa806f",
        ],
    ),
    "ps-all-no-names": (
        ("--model", "ps", "--all-measures", "--no-names"),
        [(0, 0, 7, 54), (0, 0, 7, 53), (0, 0, 6, 53)],
        [
            "de348de0ac48dbd408858065d99aaf7c6a599a404a7f336012301c922ce181ed",
            "96ae44467dd33fdf990211e3ed7357959ac7d518ced3dec4350d66d33a8c1d6c",
            "2152a34fac185457cc0fc64ff0d0c1d6335164aebc4d6a3f911e7dee26e7b653",
        ],
    ),
    "temporal-hod": (
        ("--model", "temporal", "--temporal-mode", "hod"),
        [(1, 3, 6, 51), (0, 0, 7, 53), (0, 3, 6, 50)],
        [
            "e9b57ccf59653f508852bf7152160315174845ce4113aac0b9ea77991710d4ec",
            "665400d01f9fc0f93e6f52c858e734822d89bb884b97da4dbd37a55f4f88482b",
            "43a6734ed46f82619a279f2fef33fc59c5d484534a619f93406c4d5427de2779",
        ],
    ),
    "embedding-hash": (
        ("--model", "embedding"),
        [(0, 0, 7, 54), (0, 0, 7, 53), (0, 0, 6, 53)],
        [
            "f935ed8a402198f1a7386c7b41cb0f731af6dad80e84e510397f87b9c5592ef2",
            "f6f34046f3000f01c9115355eb027946c7c7d04f07378804f1ad52a3df882c3e",
            "d13b32a4e25c28097a4f02198e6e992273b9c55ab76371947e888e5d7e8f7932",
        ],
    ),
    "temporal-user-disjoint": (
        ("--model", "temporal", "--user-disjoint"),
        [(2, 3, 5, 13), (0, 0, 7, 15), (1, 1, 5, 10)],
        [
            "b6c5e13f89ce77ad2f20f7f1e738f82cd01ed322fea8399b0e54106c3d7c88e9",
            "c08afc15837621e92561dd94674c5b1079119cec7ac8893fc2981e4b75d90c4e",
            "322199bd8e771bbf1397c3cbd800faa4cb0c0c5fc4c2d333e07d4e45adb172cf",
        ],
    ),
    # the three folds stop early after 9, 4 and 7 epochs
    "temporal-patience-1": (
        ("--model", "temporal", "--patience", "1", "--max-epochs", "40"),
        [(0, 0, 7, 54), (0, 0, 7, 53), (0, 0, 6, 53)],
        [
            "0984b411f6b41906af1e6265588c3573ee7b08f69d2c866c025291b72995b1e0",
            "6f83ed0c54bc4f461fdca6473051f216b1724381c7ed22704e9cdfcf15036176",
            "43185f13040121c7b1350beac1fe913b9dcfc6e15d76fa0ce0b47d3ba521feba",
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


# per case: the SHA-256 of ``json.dumps(results, sort_keys=True)`` for the
# ``results`` object of report.json, and of the report.txt lines below the
# title rule; recorded when training became float32
REPORT_GOLDEN = {
    "ps-all-measures": (
        "d7b5b9f9ae1233bafe69c04d8524b54c8a1b481771f147dc8b8e8609f8b91096",
        "46b9f18a7e6d45cde4358c73e331e57081fabb33d91d82c66928b4c67554ba68",
    ),
    "temporal-user-disjoint": (
        "ed1c934e27470f4a47d1b59ee15a4e8846aa319351c1ae71a76e53fc7a3c6663",
        "2b9430104c191b5d4462c28d53c85b8609b4ab40c507ad51f0cc0826238a2226",
    ),
}


@pytest.mark.parametrize("case", sorted(REPORT_GOLDEN))
def test_report_digests(corpus_dir, tmp_path, case):
    out = tmp_path / "out"
    result = CliRunner().invoke(
        main,
        ["run", "--k", "3", "--max-epochs", "3", "--seed", "42",
         "--data-dir", str(corpus_dir), "--output", str(out), *GOLDEN[case][0]],
    )
    assert result.exit_code == 0, result.output
    results = json.loads((out / "report.json").read_text(encoding="utf-8"))["results"]
    lines = (out / "report.txt").read_text(encoding="utf-8").splitlines(keepends=True)
    assert [
        hashlib.sha256(json.dumps(results, sort_keys=True).encode()).hexdigest(),
        hashlib.sha256("".join(lines[2:]).encode()).hexdigest(),
    ] == list(REPORT_GOLDEN[case])
