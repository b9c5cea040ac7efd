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

A post timestamp loads on every supported Python when it is written as
``datetime.isoformat()`` writes an aware time, ``YYYY-MM-DDTHH:MM:SS±HH:MM``
with or without ``.ffffff`` after the seconds, or with ``Z`` for
``+00:00``. Python 3.11 and later also accept forms that 3.10 rejects,
such as ``20220501T093000+00:00``, ``2022-05-01T09:30:00.5+00:00``,
``2022-W17-7T09:30:00+00:00`` and ``2022-05-01T09:30:00+0000``.

The canonical post line loads fastest: the text ``json.dumps`` writes with
``sort_keys=True`` for the three keys (what ``synth`` writes), with a
whole-second ``YYYY-MM-DDTHH:MM:SS±HH:MM`` timestamp and a user_id of
printable ASCII other than '"' and '\\', ended by \\n. posts.jsonl is read
in blocks of whole lines. A block of canonical lines is decoded at once
with numpy; any other block is decoded line by line, to the same posts
and, for a malformed line, the same error.

``load_corpus`` reads posts.jsonl only when given its path. With
``posts_path=None`` it opens no posts file and ``Corpus.posts`` is empty,
for the callers whose features never read post times.

Every file must be UTF-8, with \\n, \\r\\n or \\r line ends; blank lines are
skipped. Any malformed line, bytes that are not UTF-8 included, raises
``ParseError`` naming ``path:line``. A byte that is not UTF-8 is reported
at its own line on any input, pipes included, and each file is checked
in file order, so the first fault in it is the one reported. Lines are
physical lines: a pairs.csv row is numbered by the line it ends on, even
when a quoted field spans several.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from enum import Enum
from json.decoder import JSONDecoder
from json.scanner import make_scanner
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    DimensionMismatchError,
    EmptyCorpusError,
    InsufficientPoolError,
    ParseError,
    input_lines,
    line_blocks,
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
        for line_no, line in enumerate(input_lines(fh), 1):
            if not line.strip():
                continue
            profile = parse_profile(line, path, line_no)
            key = (profile.platform, profile.user_id)
            if key in profiles:
                raise ParseError(path, line_no, f"duplicate profile {key[0].value}/{key[1]}")
            profiles[key] = profile
    return profiles


# posts.jsonl is read in blocks of this many lines
_BLOCK_LINES = 1 << 10

# A canonical post line is the text ``json.dumps(..., sort_keys=True)``
# writes for a platform, a whole-second timestamp as ``isoformat()`` writes
# it, and a user_id of printable ASCII other than '"' and '\\'; then a line
# end, or the end of the file. A line's row starts at its first byte for
# twitter and a byte earlier for flickr, so that every field after the
# platform sits in the same columns; its head is matched against the
# platform's template, in whole 8-byte words, where "?" marks a free byte.
_HEADS = (
    '{"platform": "twitter", "timestamp": "????-??-??T??:??:?????:??", "user_id": "??',
    '?{"platform": "flickr", "timestamp": "????-??-??T??:??:?????:??", "user_id": "??',
)
_HEAD_BYTES = np.frombuffer("".join(_HEADS).encode(), np.uint8)
_HEAD_WORDS = _HEAD_BYTES.view(np.uint64).reshape(2, -1)
_HEAD_MASKS = (np.where(_HEAD_BYTES == ord("?"), 0, 0xFF).astype(np.uint8)
               .view(np.uint64).reshape(2, -1))
_HEAD_LEN = len(_HEADS[0])
_FIRST_KEY = '{"platform": "'
_PLATFORM_COL = _HEADS[0].index("twitter")  # the platform's first column
_TS_COL = _HEADS[0].index("?")  # the timestamp's
_ID_COL = _HEAD_LEN - 2  # and the user_id's
_MAX_ID = 128  # a line with a longer user_id is read by itself
_PADDING = "\0" * (_HEAD_LEN + _MAX_ID)
_ID_BYTE = np.zeros(256, dtype=bool)
_ID_BYTE[0x20:0x7F] = True
_ID_BYTE[[ord('"'), ord("\\")]] = False

_STAMP = "0000-00-00T00:00:00+00:00"  # the timestamp's shape
_DIGIT_COLS = [i for i, c in enumerate(_STAMP) if c == "0"]
_SIGN_COL = _STAMP.index("+")
_FIELD_COLS = np.array(_DIGIT_COLS[::2])  # the tens digit of every two-digit field
_DAYS_IN_MONTH = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])
_DAYS_BEFORE_MONTH = np.cumsum(_DAYS_IN_MONTH) - _DAYS_IN_MONTH
_EPOCH_ORDINAL = datetime(1970, 1, 1).toordinal()


def _utc_seconds(stamps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(ok, seconds) of the ``(n, 25)`` uint8 rows of timestamps shaped
    ``YYYY-MM-DDTHH:MM:SS+HH:MM``, whose separators other than the sign the
    caller checks. ``ok`` says whether ``datetime.fromisoformat`` accepts
    the row, by its checks on each field, and where it does ``seconds`` is
    ``int(datetime.fromisoformat(row).timestamp())``, by civil-date
    arithmetic."""
    digits = stamps - np.uint8(ord("0"))  # a byte below "0" wraps past 9
    ok = (digits[:, _DIGIT_COLS] <= 9).all(axis=1)
    # valid digits make fields of at most 99, which uint8 holds
    fields = (digits[:, _FIELD_COLS] * np.uint8(10) + digits[:, _FIELD_COLS + 1]).T
    century, year, month, day, hour, minute, second, offset_h, offset_m = fields.astype(np.int32)
    year += century * 100
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    month_index = np.where((month >= 1) & (month <= 12), month, 0)
    ok &= (year >= 1) & (month_index > 0) & (day >= 1)
    ok &= day <= _DAYS_IN_MONTH[month_index] + (leap & (month == 2))
    offset = (offset_h * 60 + offset_m) * 60
    ok &= (hour <= 23) & (minute <= 59) & (second <= 59) & (offset < 86400)
    sign = stamps[:, _SIGN_COL]
    ok &= (sign == ord("+")) | (sign == ord("-"))
    y = year - 1
    days = (y * 365 + y // 4 - y // 100 + y // 400 + _DAYS_BEFORE_MONTH[month_index]
            + (leap & (month > 2)) + day - _EPOCH_ORDINAL)
    seconds = days.astype(np.int64) * 86400 + (hour * 3600 + minute * 60 + second)
    return ok, seconds - np.where(sign == ord("-"), -offset, offset)


def _decode_block(lines: list[str], latest: int, times: dict[tuple[Platform, str], list[int]]
                  ) -> bool:
    """Append the posts of ``lines`` to ``times`` and return True when the
    first line is a canonical post line (see ``_HEADS``) ended by \\n and
    every other line is one or a bare line end, each timed in
    1990..``latest``; else return False and leave ``times`` as it was.
    Each line is matched alone, at its own offset."""
    # a block of lines in another form is most often told by its first
    if lines and not (lines[0].startswith(_FIRST_KEY) and lines[0].endswith('"}\n')):
        return False
    # a byte for the row of a flickr line at offset 0 to start in, the
    # lines, and a row of padding
    try:
        data = "".join(["\0", *lines, _PADDING]).encode("ascii")
    except UnicodeEncodeError:
        return False
    buf = np.frombuffer(data, np.uint8)
    lengths = np.fromiter(map(len, lines), np.int64, len(lines))
    starts = np.cumsum(lengths) - lengths  # line i is buf[starts[i] + 1:][:lengths[i]]
    sizes = lengths - (buf[starts + lengths] == ord("\n"))  # without the line end
    starts, sizes = starts[sizes > 0], sizes[sizes > 0]
    if not len(starts):
        return True
    twitter = buf[starts + 1 + _PLATFORM_COL] == ord("t")
    row_starts = starts + twitter
    id_lens = sizes + ~twitter - _ID_COL - 2  # the row ends with the id, then '"}'
    if id_lens.min() < 1 or id_lens.max() > _MAX_ID:
        return False
    heads = sliding_window_view(buf, _HEAD_LEN)[row_starts]
    good_time, seconds = _utc_seconds(heads[:, _TS_COL:_TS_COL + len(_STAMP)])
    if not (good_time & (seconds >= _EARLIEST_SECONDS) & (seconds <= latest)).all():
        return False
    platform = np.where(twitter, 0, 1)
    words = heads.view(np.uint64)  # the heads are not read past this
    words ^= _HEAD_WORDS.take(platform, axis=0)
    words &= _HEAD_MASKS.take(platform, axis=0)
    if words.any():
        return False
    ends = row_starts + _ID_COL + id_lens
    if (buf[ends] != ord('"')).any() or (buf[ends + 1] != ord("}")).any():
        return False
    # each row's user_id, then zeros
    ids = sliding_window_view(buf, id_lens.max())[row_starts + _ID_COL]
    ids[np.arange(ids.shape[1]) >= id_lens[:, None]] = 0
    if np.count_nonzero(_ID_BYTE[ids]) != id_lens.sum():
        return False
    # the accounts, in runs of lines with the same platform and user_id
    same = (twitter[1:] == twitter[:-1]) & (ids[1:] == ids[:-1]).all(axis=1)
    bounds = np.flatnonzero(np.concatenate(([True], ~same, [True])))
    firsts = bounds[:-1]
    seconds = seconds.tolist()
    runs = zip(twitter[firsts].tolist(), (row_starts[firsts] + _ID_COL).tolist(),
               ends[firsts].tolist(), firsts.tolist(), bounds[1:].tolist())
    for is_twitter, id_start, id_end, first, end in runs:
        key = (Platform.TWITTER if is_twitter else Platform.FLICKR,
               data[id_start:id_end].decode("ascii"))
        times.setdefault(key, []).extend(seconds[first:end])
    return True


def _load_posts(path: str) -> dict[tuple[Platform, str], np.ndarray]:
    """Each account's post times as int64 UTC epoch seconds (floored), in
    file order. The file is read in blocks of whole lines. A block of
    canonical lines is decoded at once by ``_decode_block``; any other
    block runs a loop once per post, inlined past the decoder. A line
    with a byte that is not UTF-8 is reported after every line before it,
    so the first fault in the file is the one reported."""
    times: dict[tuple[Platform, str], list[int]] = {}
    decode = _decode_record
    fromisoformat = datetime.fromisoformat
    # float seconds compare as the instants do: they are whole microseconds,
    # and floats near 2**31 are spaced 2.4e-7 apart
    latest = (datetime.now(timezone.utc) + timedelta(hours=1)).timestamp()
    # a whole second is at most latest when it is at most its floor
    latest_second = math.floor(latest)
    with open_input(path) as fh:
        for block, lines in enumerate(line_blocks(fh, _BLOCK_LINES)):
            if not _decode_block(lines, latest_second, times):
                for line_no, line in enumerate(lines, block * _BLOCK_LINES + 1):
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
    pairs = []
    with open_input(path) as fh:
        reader = csv.reader(input_lines(fh))
        try:
            header = next(reader, None)
            if header is None or tuple(h.strip() for h in header) != PAIRS_HEADER:
                raise ParseError(path, 1, "header must be 'twitter_id,flickr_id'")
            for row in reader:
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if len(row) != 2:
                    raise ParseError(path, reader.line_num,
                                     f"expected 2 columns, got {len(row)}")
                pairs.append((row[0].strip(), row[1].strip()))
        except csv.Error as exc:  # e.g. a field over the csv module's size limit
            raise ParseError(path, reader.line_num, f"bad CSV: {exc}") from None
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
