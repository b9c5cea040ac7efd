"""The corpus format (``CORPUS_FILES``, ``PAIRS_HEADER`` and the account
record ``UserProfile``), corpus ingestion, negative under-sampling and
train/test partitioning.

Input files:
  profiles.jsonl  one JSON object per line:
                  {"platform": "twitter"|"flickr", "user_id", "user_name",
                   "real_name", "description", "location", "post_count"}
                  (missing, null or whitespace-only text fields are "")
  posts.jsonl     {"platform", "user_id", "timestamp": ISO-8601 with zone}
                  (kept per account as one int64 array of UTC epoch
                   seconds, floored, in file order)
  pairs.csv       header "twitter_id,flickr_id"; every row is a positive pair.
                  Duplicate rows, and rows naming a missing profile, are
                  dropped and counted in ``Corpus.dropped_pairs``.

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
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from enum import Enum
from json.decoder import JSONDecoder
from json.scanner import make_scanner

import numpy as np

from .errors import (
    DegenerateSplitError,
    DimensionMismatchError,
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
    """One account's textual and count attributes on one platform. A null
    or whitespace-only text field is stored as "", so every family reads it
    as absent."""

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
        for name in PS_TEXT_FIELDS:
            value = getattr(self, name)
            if not value or value.isspace():
                object.__setattr__(self, name, "")  # the class is frozen


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
    """(twitter_id, flickr_id) pairs, and ``labels``, one boolean array
    whose row i is the label of pair i. Splits and folds are arrays of row
    indices into ``pairs``."""

    pairs: list[tuple[str, str]]
    labels: np.ndarray

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=bool)
        if self.labels.shape != (len(self.pairs),):
            raise DimensionMismatchError(f"{self.labels.shape} labels for {len(self.pairs)} pairs")

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
        texts[name] = value = obj.get(name)
        if value is not None and not isinstance(value, str):
            raise ParseError(path, line_no, f"{name} must be a string or null")
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


def _load_pairs(path: str) -> list[tuple[str, str]]:
    """Every data row of pairs.csv as a stripped (twitter_id, flickr_id), in file order."""
    with open_input(path) as fh:
        reader = csv.reader(fh)
        try:
            rows = [(reader.line_num, row) for row in reader]
        except csv.Error as exc:  # e.g. a field over the csv module's size limit
            raise ParseError(path, reader.line_num, f"bad CSV: {exc}") from None
    if not rows or tuple(h.strip() for h in rows[0][1]) != PAIRS_HEADER:
        raise ParseError(path, 1, "header must be 'twitter_id,flickr_id'")
    pairs = []
    for line_no, row in rows[1:]:
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 2:
            raise ParseError(path, line_no, f"expected 2 columns, got {len(row)}")
        pairs.append((row[0].strip(), row[1].strip()))
    return pairs


def load_corpus(profiles_path: str, posts_path: str | None, pairs_path: str) -> Corpus:
    """Load and cross-reference the corpus files; with ``posts_path=None``
    no posts are read and every account has none. Duplicate pairs, and pairs
    naming a missing profile, are dropped and counted in ``dropped_pairs``."""
    profiles = _load_profiles(profiles_path)
    posts = _load_posts(posts_path) if posts_path is not None else {}
    rows = _load_pairs(pairs_path)
    # the distinct pairs in the order of their first row
    positive_pairs = [(t, f) for t, f in dict.fromkeys(rows)
                      if (Platform.TWITTER, t) in profiles and (Platform.FLICKR, f) in profiles]
    if not positive_pairs:
        raise EmptyCorpusError("no valid positive pairs after filtering")
    return Corpus(
        profiles=profiles,
        posts=posts,
        positive_pairs=positive_pairs,
        dropped_pairs=len(rows) - len(positive_pairs),
    )


def negative_sample(corpus: Corpus, neg_ratio: int, seed: int) -> LabeledPairSet:
    """The positive pairs, then ``neg_ratio`` times as many uniformly random
    cross-platform non-pairs, sampled without replacement, in order of draw.

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
    # (twitter, then flickr) per candidate, and is read from the draw's two
    # flat columns; rows drawn past the target are left unused
    bounds = np.array([len(twitter_users), len(flickr_users)])
    negatives: dict[tuple[str, str], None] = {}  # in order of first draw
    while len(negatives) < target:
        draw_t, draw_f = rng.integers(bounds, size=(target - len(negatives), 2)).T.tolist()
        for t, f in zip(draw_t, draw_f):
            pair = (twitter_users[t], flickr_users[f])
            if pair not in pos_set:
                negatives[pair] = None
                if len(negatives) == target:
                    break
    pairs = positives + list(negatives)
    return LabeledPairSet(pairs, np.arange(len(pairs)) < len(positives))


def _shuffled_classes(s: LabeledPairSet, rows: np.ndarray, seed: int) -> list[np.ndarray]:
    """The positive ``rows`` (indices into ``s.pairs``), then the negative
    ones, each shuffled in turn by one generator seeded with ``seed``."""
    rng = np.random.default_rng(seed)
    labels = s.labels[rows]
    return [cls[rng.permutation(len(cls))] for cls in (rows[labels], rows[~labels])]


def split(
    s: LabeledPairSet, rows: np.ndarray, train_fraction: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Stratified split of ``rows`` (indices into ``s.pairs``) into
    (train_rows, test_rows): each class, in the order of ``rows``, is
    shuffled with the seed and cut at ``train_fraction`` (floor), so the two
    sides are an exact disjoint partition of ``rows``."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    train_rows, test_rows = [], []
    for cls in _shuffled_classes(s, rows, seed):
        n_train = int(len(cls) * train_fraction)
        if len(cls) and n_train in (0, len(cls)):
            raise DegenerateSplitError(
                f"fraction {train_fraction} leaves a side without a class "
                f"(class size {len(cls)})"
            )
        train_rows.append(cls[:n_train])
        test_rows.append(cls[n_train:])
    return np.concatenate(train_rows), np.concatenate(test_rows)


def k_folds(s: LabeledPairSet, k: int, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Stratified k-fold partition as (train_rows, test_rows) per fold, row
    indices into ``s.pairs``: every row lands in exactly one test fold and
    per-class fold sizes differ by at most one."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    members: list[list[np.ndarray]] = [[] for _ in range(k)]
    for cls in _shuffled_classes(s, np.arange(len(s.labels)), seed):
        if 0 < len(cls) < k:
            raise TooFewExamplesError(
                f"a class has {len(cls)} examples, fewer than k={k}"
            )
        for i in range(k):
            members[i].append(cls[i::k])
    tests = [np.concatenate(m) for m in members]
    return [(np.concatenate(tests[:i] + tests[i + 1 :]), test) for i, test in enumerate(tests)]


def _positive_components(pairs: list[tuple[str, str]], rows: list[int]):
    """Group the positive ``rows`` whose pairs share a user (either
    endpoint) so a person can never straddle a user-disjoint partition."""
    parent: dict[tuple[str, str], tuple[str, str]] = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for r in rows:
        t, f = pairs[r]
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
    test users never appear in fold-i training pairs. The groups of
    positives that share a user go, in a seeded order, each to the fold with
    the fewest positives so far (the lowest index on a tie); each endpoint
    of a negative that no positive placed gets a seeded random fold.
    Negatives with endpoints in two different folds are only used for
    training (in folds holding neither endpoint)."""
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
    sizes = [0] * k
    for i in order.tolist():
        smallest = sizes.index(min(sizes))
        fold_pos[smallest].extend(components[i])
        sizes[smallest] += len(components[i])
    twitter_fold: dict[str, int] = {}
    flickr_fold: dict[str, int] = {}
    for fold_i, members in enumerate(fold_pos):
        for r in members:
            t, f = pairs[r]
            twitter_fold[t] = fold_i
            flickr_fold[f] = fold_i
    # a fold is drawn for both endpoints of every negative, used or not: row
    # i of one batch draw holds the scalar draws of negative i (twitter, then
    # flickr). The two dicts are independent, so each side takes its column
    # in turn; an endpoint already placed keeps its fold.
    draw_t, draw_f = rng.integers(k, size=(len(neg), 2)).T.tolist()
    neg_pairs = list(map(pairs.__getitem__, neg.tolist()))
    fold_t = np.array(list(map(twitter_fold.setdefault, [t for t, _ in neg_pairs], draw_t)),
                      dtype=np.intp)
    fold_f = np.array(list(map(flickr_fold.setdefault, [f for _, f in neg_pairs], draw_f)),
                      dtype=np.intp)
    pos = [np.array(members, dtype=np.intp) for members in fold_pos]
    folds = []
    for i in range(k):
        in_t, in_f = fold_t == i, fold_f == i
        test = np.concatenate([pos[i], neg[in_t & in_f]])
        train = np.concatenate([*pos[:i], *pos[i + 1 :], neg[~in_t & ~in_f]])
        folds.append((train, test))
    return folds
