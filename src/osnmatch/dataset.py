"""The corpus format (``CORPUS_FILES``, ``PAIRS_HEADER`` and the account
record ``UserProfile``), corpus ingestion, negative under-sampling and
train/test partitioning.

Input files:
  profiles.jsonl  one JSON object per line:
                  {"platform": "twitter"|"flickr", "user_id", "user_name",
                   "real_name", "description", "location", "post_count"}
                  (missing or null text fields default to "")
  posts.jsonl     {"platform", "user_id", "timestamp": ISO-8601 with zone}
                  (kept per account as one int64 array of UTC epoch
                   seconds, floored, in file order)
  pairs.csv       header "twitter_id,flickr_id"; every row is a positive pair

``load_corpus`` reads posts.jsonl only when given its path. With
``posts_path=None`` it opens no posts file and ``Corpus.posts`` is empty,
for the callers whose features never read post times.

Every file must be UTF-8, with \\n, \\r\\n or \\r line ends; blank lines are
skipped. Any malformed line, bytes that are not UTF-8 included, raises
``ParseError`` naming ``path:line``. Lines are physical lines: a pairs.csv
row is numbered by the line it ends on, even when a quoted field spans
several.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from enum import Enum
from json.decoder import JSONDecoder
from json.scanner import make_scanner

import numpy as np

from .errors import (
    DegenerateSplitError,
    EmptyCorpusError,
    InsufficientPoolError,
    ParseError,
    TooFewExamplesError,
    open_input,
)

_EARLIEST_SECONDS = datetime(1990, 1, 1, tzinfo=timezone.utc).timestamp()

CORPUS_FILES = {"profiles": "profiles.jsonl", "posts": "posts.jsonl", "pairs": "pairs.csv"}
PAIRS_HEADER = ("twitter_id", "flickr_id")
PS_TEXT_FIELDS = ("user_name", "real_name", "description", "location")


class Platform(str, Enum):
    TWITTER = "twitter"
    FLICKR = "flickr"


@dataclass(frozen=True)
class UserProfile:
    """One account's textual and count attributes on one platform."""

    platform: Platform
    user_id: str
    user_name: str = ""
    real_name: str = ""
    description: str = ""
    location: str = ""
    post_count: int = 0

    def __post_init__(self):
        if not self.user_id:
            raise ValueError("user_id must be nonempty")
        if self.post_count < 0:
            raise ValueError(f"post_count must be >= 0, got {self.post_count}")


_PLATFORMS = {p.value: p for p in Platform}


@dataclass
class Corpus:
    """All loaded profiles and posts plus the positive ground-truth pairs."""

    profiles: dict[tuple[Platform, str], UserProfile]
    posts: dict[tuple[Platform, str], np.ndarray]  # int64 UTC epoch seconds
    positive_pairs: list[tuple[str, str]]  # (twitter user_id, flickr user_id)
    dropped_pairs: int = 0  # pairs discarded at load (dangling or duplicate)

    def profile(self, platform: Platform, user_id: str) -> UserProfile:
        return self.profiles[(platform, user_id)]

    def posts_for(self, platform: Platform, user_id: str) -> np.ndarray:
        """The account's post times; an account without posts has none."""
        return self.posts.get((platform, user_id), np.empty(0, dtype=np.int64))


@dataclass
class LabeledPairSet:
    """(twitter_id, flickr_id, label) triples; ``labels`` holds their labels
    as one boolean array. Splits and folds are arrays of row indices into
    ``pairs``."""

    pairs: list[tuple[str, str, bool]]
    labels: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.labels = np.array([lbl for _, _, lbl in self.pairs], dtype=bool)

    @property
    def n_pos(self) -> int:
        return int(np.count_nonzero(self.labels))

    @property
    def n_neg(self) -> int:
        return len(self.labels) - self.n_pos


# the C scanner behind json.loads, without its per-call Python wrapper
_scan = make_scanner(JSONDecoder())


def _bad_json(path: str, line_no: int, text: str) -> ParseError:
    """The error for a text the scanner rejected, worded as ``json.loads``
    words it."""
    try:
        json.loads(text)
    except (ValueError, RecursionError) as exc:  # too deep, or an overlong int
        return ParseError(path, line_no, f"bad JSON: {getattr(exc, 'msg', exc)}")
    raise AssertionError(f"{path}:{line_no}: the scanner and json.loads disagree")


def _decode_record(text: str, path: str, line_no: int) -> tuple[dict, Platform, str]:
    """The JSON object of one profile or post (a line, or a whole profile
    file) with its checked platform and user_id. It accepts what
    ``json.loads`` accepts; anything else raises ``ParseError(path,
    line_no)``. It runs once per post."""
    stripped = text.strip(" \t\n\r")
    try:
        obj, end = _scan(stripped, 0)
    except (StopIteration, ValueError, RecursionError):
        raise _bad_json(path, line_no, text) from None
    if end != len(stripped):
        raise _bad_json(path, line_no, text)
    if not isinstance(obj, dict):
        raise ParseError(path, line_no, "expected a JSON object")
    raw = obj.get("platform")
    # the isinstance guard keeps unhashable JSON (a list, an object) a ParseError
    platform = _PLATFORMS.get(raw) if isinstance(raw, str) else None
    if platform is None:
        raise ParseError(path, line_no, f"unknown platform {raw!r}")
    user_id = obj.get("user_id")
    if not user_id or not isinstance(user_id, str):
        raise ParseError(path, line_no, "user_id must be a nonempty string")
    return obj, platform, user_id


def parse_profile(text: str, path: str, line_no: int) -> UserProfile:
    """One profile from its JSON text; any malformed part raises
    ``ParseError(path, line_no)``."""
    obj, platform, user_id = _decode_record(text, path, line_no)
    post_count = obj.get("post_count", 0)
    if type(post_count) is not int or post_count < 0:  # bool is no count
        raise ParseError(path, line_no, "post_count must be a nonnegative integer")
    texts = {}
    for name in PS_TEXT_FIELDS:
        value = obj.get(name)
        if value is not None and not isinstance(value, str):
            raise ParseError(path, line_no, f"{name} must be a string or null")
        texts[name] = value or ""
    return UserProfile(platform=platform, user_id=user_id, post_count=post_count, **texts)


def _load_profiles(path: str) -> dict[tuple[Platform, str], UserProfile]:
    profiles: dict[tuple[Platform, str], UserProfile] = {}
    with open_input(path) as fh:
        for line_no, line in enumerate(fh, 1):
            if not line.strip():
                continue
            profile = parse_profile(line, path, line_no)
            key = (profile.platform, profile.user_id)
            if key in profiles:
                raise ParseError(path, line_no, f"duplicate profile {key[0].value}/{key[1]}")
            profiles[key] = profile
    return profiles


def _load_posts(path: str) -> dict[tuple[Platform, str], np.ndarray]:
    """Each account's post times as int64 UTC epoch seconds (floored), in
    file order. The loop runs once per post: past the decoder it is inlined."""
    times: dict[tuple[Platform, str], list[int]] = {}
    decode = _decode_record
    fromisoformat = datetime.fromisoformat
    # float seconds compare as the instants do: they are whole microseconds,
    # and floats near 2**31 are spaced 2.4e-7 apart
    latest = (datetime.now(timezone.utc) + timedelta(hours=1)).timestamp()
    with open_input(path) as fh:
        for line_no, line in enumerate(fh, 1):
            if not line.strip():
                continue
            obj, platform, user_id = decode(line, path, line_no)
            raw = obj.get("timestamp")
            try:
                # 3.10's fromisoformat rejects a "Z" suffix
                ts = fromisoformat(raw.replace("Z", "+00:00"))
            except (ValueError, TypeError, AttributeError):
                raise ParseError(path, line_no, f"bad timestamp {raw!r}") from None
            if ts.tzinfo is None:
                raise ParseError(path, line_no, f"timestamp {raw!r} lacks a timezone")
            seconds = ts.timestamp()
            if not _EARLIEST_SECONDS <= seconds <= latest:
                raise ParseError(path, line_no, f"timestamp {raw!r} outside 1990..now")
            key = (platform, user_id)
            account = times.get(key)
            if account is None:
                account = times[key] = []
            # int() floors: every accepted instant is after 1990
            account.append(int(seconds))
    return {key: np.array(account, dtype=np.int64) for key, account in times.items()}


def load_corpus(profiles_path: str, posts_path: str | None, pairs_path: str) -> Corpus:
    """Load and cross-reference the corpus files; with ``posts_path=None``
    no posts are read and every account has none.

    Pairs naming a missing profile, and duplicate pairs, are dropped and
    counted in ``dropped_pairs`` rather than failing the load.
    """
    profiles = _load_profiles(profiles_path)
    posts = _load_posts(posts_path) if posts_path is not None else {}
    positive_pairs: list[tuple[str, str]] = []
    seen: set[tuple[str, str]] = set()
    dropped = 0
    with open_input(pairs_path) as fh:
        reader = csv.reader(fh)
        try:
            rows = [(reader.line_num, row) for row in reader]
        except csv.Error as exc:  # e.g. a field over the csv module's size limit
            raise ParseError(pairs_path, reader.line_num, f"bad CSV: {exc}") from None
    if not rows or tuple(h.strip() for h in rows[0][1]) != PAIRS_HEADER:
        raise ParseError(pairs_path, 1, "header must be 'twitter_id,flickr_id'")
    for line_no, row in rows[1:]:
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 2:
            raise ParseError(pairs_path, line_no, f"expected 2 columns, got {len(row)}")
        t_id, f_id = row[0].strip(), row[1].strip()
        pair = (t_id, f_id)
        if pair in seen:
            dropped += 1
            continue
        seen.add(pair)
        if (Platform.TWITTER, t_id) not in profiles or (
            Platform.FLICKR,
            f_id,
        ) not in profiles:
            dropped += 1
            continue
        positive_pairs.append(pair)
    if not positive_pairs:
        raise EmptyCorpusError("no valid positive pairs after filtering")
    return Corpus(
        profiles=profiles,
        posts=posts,
        positive_pairs=positive_pairs,
        dropped_pairs=dropped,
    )


def negative_sample(corpus: Corpus, neg_ratio: int, seed: int) -> LabeledPairSet:
    """Positive pairs plus ``neg_ratio`` times as many uniformly random
    cross-platform non-pairs, sampled without replacement.

    Candidates are drawn, and positives and repeats rejected, until the
    target is met. A request for over half the pool of non-pairs needs
    n_twitter * n_flickr < (2r + 1) * n_pos at ratio r: with one-to-one
    ground truth, at most 2r positives and a pool under 4r² pairs (256 at
    ratio 8), which the draw fills in a few thousand candidates."""
    if neg_ratio < 0:
        raise ValueError("neg_ratio must be >= 0")
    positives = list(corpus.positive_pairs)
    pos_set = set(positives)
    twitter_users: list[str] = []
    flickr_users: list[str] = []
    for platform, uid in corpus.profiles:
        (twitter_users if platform is Platform.TWITTER else flickr_users).append(uid)
    target = neg_ratio * len(positives)
    pool = len(twitter_users) * len(flickr_users) - len(pos_set)
    if target > pool:
        raise InsufficientPoolError(neg_ratio, pool / max(len(positives), 1))
    rng = np.random.default_rng(seed)
    # each row of a batch draw continues the sequence of two scalar draws
    # (twitter, then flickr) per candidate; rows drawn past the target are
    # left unused
    bounds = np.array([len(twitter_users), len(flickr_users)])
    negatives: dict[tuple[str, str], None] = {}  # in order of first draw
    while len(negatives) < target:
        for t, f in rng.integers(bounds, size=(target - len(negatives), 2)).tolist():
            pair = (twitter_users[t], flickr_users[f])
            if pair not in pos_set:
                negatives[pair] = None
                if len(negatives) == target:
                    break
    pairs = [(t, f, True) for t, f in positives] + [(t, f, False) for t, f in negatives]
    return LabeledPairSet(pairs)


def split(
    s: LabeledPairSet, rows: np.ndarray, train_fraction: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Stratified split of ``rows`` (indices into ``s.pairs``) into
    (train_rows, test_rows): each class, in the order of ``rows``, is
    shuffled with the seed and cut at ``train_fraction`` (floor), so the two
    sides are an exact disjoint partition of ``rows``."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    rng = np.random.default_rng(seed)
    labels = s.labels[rows]
    train_rows, test_rows = [], []
    for cls in (rows[labels], rows[~labels]):
        n_train = int(len(cls) * train_fraction)
        if len(cls) and n_train in (0, len(cls)):
            raise DegenerateSplitError(
                f"fraction {train_fraction} leaves a side without a class "
                f"(class size {len(cls)})"
            )
        shuffled = cls[rng.permutation(len(cls))]
        train_rows.append(shuffled[:n_train])
        test_rows.append(shuffled[n_train:])
    return np.concatenate(train_rows), np.concatenate(test_rows)


def k_folds(s: LabeledPairSet, k: int, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Stratified k-fold partition as (train_rows, test_rows) per fold, row
    indices into ``s.pairs``: every row lands in exactly one test fold and
    per-class fold sizes differ by at most one."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    rng = np.random.default_rng(seed)
    members: list[list[np.ndarray]] = [[] for _ in range(k)]
    for cls in (np.flatnonzero(s.labels), np.flatnonzero(~s.labels)):
        if 0 < len(cls) < k:
            raise TooFewExamplesError(
                f"a class has {len(cls)} examples, fewer than k={k}"
            )
        shuffled = cls[rng.permutation(len(cls))]
        for i in range(k):
            members[i].append(shuffled[i::k])
    tests = [np.concatenate(m) for m in members]
    return [(np.concatenate(tests[:i] + tests[i + 1 :]), test) for i, test in enumerate(tests)]


def _positive_components(pairs: list[tuple[str, str, bool]], rows: list[int]):
    """Group the positive ``rows`` whose pairs share a user (either
    endpoint) so a person can never straddle a user-disjoint partition."""
    parent: dict[tuple[str, str], tuple[str, str]] = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for r in rows:
        t, f, _ = pairs[r]
        a, b = ("t", t), ("f", f)
        parent.setdefault(a, a)
        parent.setdefault(b, b)
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    components: dict[tuple[str, str], list[int]] = {}
    for r in rows:
        components.setdefault(find(("t", pairs[r][0])), []).append(r)
    return list(components.values())


def k_folds_user_disjoint(
    s: LabeledPairSet, k: int, seed: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Stricter k-fold, as (train_rows, test_rows) per fold, where fold-i
    test users never appear in fold-i training pairs. Negatives with
    endpoints in two different folds are only used for training (in folds
    holding neither endpoint)."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    rng = np.random.default_rng(seed)
    pairs = s.pairs
    neg = np.flatnonzero(~s.labels)
    components = _positive_components(pairs, np.flatnonzero(s.labels).tolist())
    if len(components) < k:
        raise TooFewExamplesError(
            f"{len(components)} user groups with positives, fewer than k={k}"
        )
    order = rng.permutation(len(components))
    fold_pos: list[list[int]] = [[] for _ in range(k)]
    for i in order:
        smallest = min(range(k), key=lambda j: (len(fold_pos[j]), j))
        fold_pos[smallest].extend(components[i])
    twitter_fold: dict[str, int] = {}
    flickr_fold: dict[str, int] = {}
    for fold_i, members in enumerate(fold_pos):
        for r in members:
            t, f, _ = pairs[r]
            twitter_fold[t] = fold_i
            flickr_fold[f] = fold_i
    # a fold is drawn for both endpoints of every negative, used or not;
    # one batch draw yields the sequence of the scalar draws
    draws = iter(rng.integers(k, size=2 * len(neg)).tolist())
    fold_t, fold_f = np.array(
        [
            (twitter_fold.setdefault(t, next(draws)), flickr_fold.setdefault(f, next(draws)))
            for t, f, _ in map(pairs.__getitem__, neg.tolist())
        ],
        dtype=np.intp,
    ).reshape(-1, 2).T
    pos = [np.array(members, dtype=np.intp) for members in fold_pos]
    folds = []
    for i in range(k):
        in_t, in_f = fold_t == i, fold_f == i
        test = np.concatenate([pos[i], neg[in_t & in_f]])
        train = np.concatenate([*pos[:i], *pos[i + 1 :], neg[~in_t & ~in_f]])
        folds.append((train, test))
    return folds
