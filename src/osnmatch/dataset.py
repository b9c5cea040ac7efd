"""The corpus format (``CORPUS_FILES``, ``PAIRS_HEADER`` and the account
record ``UserProfile``), corpus ingestion, negative under-sampling, and
what every later stage shares: ``LabeledPairSet``, the ``FeatureMatrix``
of every feature family, and ``per_side``, the one place that maps a
pair's sides to their platforms.

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
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptyCorpusError,
    InsufficientPoolError,
    ParseError,
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
    as absent. A post count that is not a nonnegative int, or a text field
    that is neither a str nor None, raises ValueError."""

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
        if type(self.post_count) is not int or self.post_count < 0:  # bool is no count
            raise ValueError("post_count must be a nonnegative integer")
        for name in PS_TEXT_FIELDS:
            value = getattr(self, name)
            if value is not None and not isinstance(value, str):
                raise ValueError(f"{name} must be a string or null")
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


@dataclass
class FeatureMatrix:
    """Features of a batch of candidate pairs: row i of ``x`` belongs to
    pair i, column j is named by ``schema[j]``, and every value lies in
    [0, 1]."""

    x: np.ndarray
    schema: list[str]

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        if self.x.ndim != 2 or self.x.shape[1] != len(self.schema):
            raise ValueError(
                f"{self.x.shape} matrix for {len(self.schema)} schema entries"
            )
        outside = ~((self.x >= 0.0) & (self.x <= 1.0))  # NaN compares False
        if outside.any():
            i, j = np.argwhere(outside)[0]
            raise ValueError(f"feature {self.schema[j]} out of [0, 1]: {self.x[i, j]}")

    def __len__(self) -> int:  # perfbench/tracer.py counts profile pairs with it
        return self.x.shape[0]


Featurizer = Callable[[list[tuple[str, str]]], FeatureMatrix]


def per_side(
    pairs: Sequence[tuple[str, str]], width: int, compute: Callable, dtype=np.float64
) -> tuple[np.ndarray, np.ndarray]:
    """(twitter_rows, flickr_rows) of (twitter_id, flickr_id) pairs:
    row i of each is ``compute(platform, uid)`` of that side's account of
    pair i. ``compute`` runs once per distinct account on each side, and
    its result is repeated for every pair the account is in."""
    sides = []
    for side, platform in enumerate((Platform.TWITTER, Platform.FLICKR)):
        first: dict = {}
        for pair in pairs:
            first.setdefault(pair[side], len(first))
        table = np.empty((len(first), width), dtype=dtype)
        for row, uid in enumerate(first):
            table[row] = compute(platform, uid)
        sides.append(table[[first[pair[side]] for pair in pairs]])
    return sides[0], sides[1]


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
    texts = {name: obj.get(name) for name in PS_TEXT_FIELDS}
    try:
        return UserProfile(platform, user_id, post_count=obj.get("post_count", 0), **texts)
    except ValueError as exc:
        raise ParseError(path, line_no, str(exc)) from None


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
