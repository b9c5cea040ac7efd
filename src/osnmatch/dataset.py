"""Corpus ingestion, negative under-sampling and train/test partitioning.

Input files:
  profiles.jsonl  one JSON object per line:
                  {"platform": "twitter"|"flickr", "user_id", "user_name",
                   "real_name", "description", "location", "post_count"}
                  (missing or null text fields default to "")
  posts.jsonl     {"platform", "user_id", "timestamp": ISO-8601 with zone}
  pairs.csv       header "twitter_id,flickr_id"; every row is a positive pair
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone

import numpy as np

from .errors import (
    DegenerateSplitError,
    EmptyCorpusError,
    InsufficientPoolError,
    ParseError,
    TooFewExamplesError,
    undecodable_line,
)
from .profile_features import PS_TEXT_FIELDS, Platform, UserProfile
from .temporal_features import PostEvent

_EARLIEST_TIMESTAMP = datetime(1990, 1, 1, tzinfo=timezone.utc)

PAIRS_HEADER = ("twitter_id", "flickr_id")

_PLATFORMS = {p.value: p for p in Platform}

_NOT_UTF8 = "not valid UTF-8"


@dataclass
class Corpus:
    """All loaded profiles and posts plus the positive ground-truth pairs."""

    profiles: dict[tuple[Platform, str], UserProfile]
    posts: dict[tuple[Platform, str], list[PostEvent]]
    positive_pairs: list[tuple[str, str]]  # (twitter user_id, flickr user_id)
    dropped_pairs: int = 0  # pairs discarded at load (dangling or duplicate)

    def profile(self, platform: Platform, user_id: str) -> UserProfile:
        return self.profiles[(platform, user_id)]

    def posts_for(self, platform: Platform, user_id: str) -> list[PostEvent]:
        return self.posts.get((platform, user_id), [])

    def users(self, platform: Platform) -> list[str]:
        return [uid for (p, uid) in self.profiles if p is platform]


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


def _parse_timestamp(raw, path: str, line_no: int, latest: datetime) -> datetime:
    """``latest`` is the upper bound, now + 1 h, read once per file."""
    try:
        # 3.10's fromisoformat rejects a "Z" suffix
        ts = datetime.fromisoformat(raw.replace("Z", "+00:00"))
    except (ValueError, TypeError, AttributeError):
        raise ParseError(path, line_no, f"bad timestamp {raw!r}") from None
    if ts.tzinfo is None:
        raise ParseError(path, line_no, f"timestamp {raw!r} lacks a timezone")
    if not _EARLIEST_TIMESTAMP <= ts <= latest:
        raise ParseError(path, line_no, f"timestamp {raw!r} outside 1990..now")
    return ts


def _parse_platform(raw, path: str, line_no: int) -> Platform:
    # the isinstance guard keeps unhashable JSON (a list, an object) a ParseError
    platform = _PLATFORMS.get(raw) if isinstance(raw, str) else None
    if platform is None:
        raise ParseError(path, line_no, f"unknown platform {raw!r}")
    return platform


def parse_profile(text: str, path: str, line_no: int) -> UserProfile:
    """One profile from its JSON text; any malformed part raises
    ``ParseError(path, line_no)``."""
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:  # too deep, or an overlong int
        raise ParseError(path, line_no, f"bad JSON: {getattr(exc, 'msg', exc)}") from None
    if not isinstance(obj, dict):
        raise ParseError(path, line_no, "expected a JSON object")
    platform = _parse_platform(obj.get("platform"), path, line_no)
    user_id = obj.get("user_id")
    if not user_id or not isinstance(user_id, str):
        raise ParseError(path, line_no, "user_id must be a nonempty string")
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
    with open(path, encoding="utf-8") as fh:
        try:
            for line_no, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                profile = parse_profile(line, path, line_no)
                key = (profile.platform, profile.user_id)
                if key in profiles:
                    raise ParseError(
                        path, line_no, f"duplicate profile {key[0].value}/{key[1]}"
                    )
                profiles[key] = profile
        except UnicodeDecodeError:
            raise ParseError(path, undecodable_line(path), _NOT_UTF8) from None
    return profiles


def _load_posts(path: str) -> dict[tuple[Platform, str], list[PostEvent]]:
    posts: dict[tuple[Platform, str], list[PostEvent]] = {}
    loads = json.loads
    latest = datetime.now(timezone.utc) + timedelta(hours=1)
    with open(path, encoding="utf-8") as fh:
        try:
            for line_no, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                try:
                    obj = loads(line)
                except (ValueError, RecursionError) as exc:
                    raise ParseError(
                        path, line_no, f"bad JSON: {getattr(exc, 'msg', exc)}"
                    ) from None
                if not isinstance(obj, dict):
                    raise ParseError(path, line_no, "expected a JSON object")
                platform = _parse_platform(obj.get("platform"), path, line_no)
                user_id = obj.get("user_id")
                if not user_id or not isinstance(user_id, str):
                    raise ParseError(path, line_no, "user_id must be a nonempty string")
                ts = _parse_timestamp(obj.get("timestamp"), path, line_no, latest)
                key = (platform, user_id)
                events = posts.get(key)
                if events is None:
                    events = posts[key] = []
                events.append(PostEvent(platform, user_id, ts))
        except UnicodeDecodeError:
            raise ParseError(path, undecodable_line(path), _NOT_UTF8) from None
    return posts


def load_corpus(profiles_path: str, posts_path: str, pairs_path: str) -> Corpus:
    """Load and cross-reference the three corpus files.

    Pairs naming a missing profile, and duplicate pairs, are dropped and
    counted in ``dropped_pairs`` rather than failing the load.
    """
    profiles = _load_profiles(profiles_path)
    posts = _load_posts(posts_path)
    positive_pairs: list[tuple[str, str]] = []
    seen: set[tuple[str, str]] = set()
    dropped = 0
    with open(pairs_path, encoding="utf-8", newline="") as fh:
        try:
            rows = list(csv.reader(fh))
        except UnicodeDecodeError:
            raise ParseError(pairs_path, undecodable_line(pairs_path), _NOT_UTF8) from None
    if not rows or tuple(h.strip() for h in rows[0]) != PAIRS_HEADER:
        raise ParseError(pairs_path, 1, "header must be 'twitter_id,flickr_id'")
    for line_no, row in enumerate(rows[1:], 2):
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
    cross-platform non-pairs, sampled without replacement."""
    if neg_ratio < 0:
        raise ValueError("neg_ratio must be >= 0")
    positives = list(corpus.positive_pairs)
    pos_set = set(positives)
    twitter_users = corpus.users(Platform.TWITTER)
    flickr_users = corpus.users(Platform.FLICKR)
    target = neg_ratio * len(positives)
    pool = len(twitter_users) * len(flickr_users) - len(pos_set)
    if target > pool:
        raise InsufficientPoolError(neg_ratio, pool / max(len(positives), 1))
    rng = np.random.default_rng(seed)
    negatives: list[tuple[str, str]] = []
    if target > pool // 2:
        # dense request: enumerate the pool and take a seeded sample
        candidates = [
            (t, f)
            for t in twitter_users
            for f in flickr_users
            if (t, f) not in pos_set
        ]
        order = rng.permutation(len(candidates))
        negatives = [candidates[i] for i in order[:target]]
    else:
        chosen: set[tuple[str, str]] = set()
        while len(negatives) < target:
            t = twitter_users[rng.integers(len(twitter_users))]
            f = flickr_users[rng.integers(len(flickr_users))]
            pair = (t, f)
            if pair in pos_set or pair in chosen:
                continue
            chosen.add(pair)
            negatives.append(pair)
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
