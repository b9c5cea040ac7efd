"""Stacked word + character embeddings of profile text fields.

Vectors come either from word2vec-style text files or from a deterministic
hash-seeded fallback that can embed any token or character n-gram, so the
pipeline runs with no external model artifacts. Every table has a word half
and a character half; a field embedding concatenates its mean-pooled word
vectors and its mean-pooled character 3-gram vectors.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .dataset import PS_TEXT_FIELDS, Corpus
from .errors import ParseError, open_input
from .profile_features import FeatureMatrix, per_side

DEFAULT_DIM_WORD = 32
DEFAULT_DIM_CHAR = 32

CHAR_SECTION_MARKER = "#char-ngrams"

# Token boundaries for character 3-grams, so even 1-char tokens have one.
_PAD_LEFT = "^"
_PAD_RIGHT = "$"


def _hash_vector(kind: str, token: str, seed: int, dim: int) -> np.ndarray:
    """Unit-norm vector that is a pure function of (kind, token, seed, dim)."""
    digest = hashlib.sha256(f"{kind}\x00{seed}\x00{token}".encode("utf-8")).digest()
    rng = np.random.default_rng(np.frombuffer(digest[:16], dtype=np.uint64))
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


@dataclass
class EmbeddingTable:
    """Token and character-n-gram vectors plus their provenance.

    ``source`` is "file" or "hash-fallback". Both widths are positive.
    Hash-fallback tables generate (and memoize) a vector for any token;
    file tables skip out-of-vocabulary words. Every character n-gram has a
    vector: the ones a table does not hold are hashed from ``seed``.
    """

    dim_word: int
    dim_char: int
    source: str
    seed: int = 0
    word_vectors: dict[str, np.ndarray] = field(default_factory=dict)
    char_ngram_vectors: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.dim_word + self.dim_char

    def word_vector(self, token: str) -> np.ndarray | None:
        vec = self.word_vectors.get(token)
        if vec is None and self.source == "hash-fallback":
            vec = _hash_vector("word", token, self.seed, self.dim_word)
            self.word_vectors[token] = vec
        return vec

    def char_ngram_vector(self, ngram: str) -> np.ndarray:
        vec = self.char_ngram_vectors.get(ngram)
        if vec is None:
            vec = _hash_vector("char", ngram, self.seed, self.dim_char)
            self.char_ngram_vectors[ngram] = vec
        return vec


def hash_fallback_table(seed: int = 0) -> EmbeddingTable:
    """Table of the default widths whose every vector is derived from the seed."""
    return EmbeddingTable(DEFAULT_DIM_WORD, DEFAULT_DIM_CHAR, "hash-fallback", seed)


def _read_section(lines, path, start_line_no):
    """Parse one 'V D' header plus V vector lines; returns (dict, dim, next_line_no)."""
    line_no = start_line_no
    if line_no > len(lines):
        raise ParseError(path, line_no, "missing header line")
    header = lines[line_no - 1].split()
    if len(header) != 2:
        raise ParseError(path, line_no, "header must be 'V D'")
    try:
        count, dim = int(header[0]), int(header[1])
    except ValueError:
        raise ParseError(path, line_no, "header must be two integers") from None
    if count < 0 or dim <= 0:
        raise ParseError(path, line_no, f"invalid header counts: {count} {dim}")
    vectors: dict[str, np.ndarray] = {}
    for _ in range(count):
        line_no += 1
        if line_no > len(lines):
            raise ParseError(path, line_no, "fewer vector lines than declared")
        parts = lines[line_no - 1].split()
        if not parts:
            raise ParseError(path, line_no, "empty vector line")
        token, raw_values = parts[0], parts[1:]
        if len(raw_values) != dim:
            raise ParseError(path, line_no, f"{len(raw_values)} values for declared dim {dim}")
        try:
            vec = np.array([float(x) for x in raw_values], dtype=np.float64)
        except ValueError:
            raise ParseError(path, line_no, "non-numeric vector value") from None
        if not np.isfinite(vec).all():
            raise ParseError(path, line_no, "non-finite vector value")
        vectors[token] = vec  # duplicate tokens: last one wins
    return vectors, dim, line_no + 1


def _read_lines(path: str) -> list[str]:
    """The file's lines without their newlines, trailing blank lines dropped."""
    with open_input(path) as fh:
        lines = [ln.rstrip("\r\n") for ln in fh]
    while lines and not lines[-1].strip():
        lines.pop()
    return lines


def load_embedding_file(path: str, seed: int = 0) -> EmbeddingTable:
    """Load a word2vec-text table: header "V D" then V lines "token v1 .. vD".

    Character n-gram vectors may follow in the same format after a
    ``#char-ngrams`` marker line; without it the char width is DEFAULT_DIM_CHAR.
    The n-grams the file lacks are hashed from ``seed``. Values must be finite.
    """
    lines = _read_lines(path)
    words, dim_word, next_no = _read_section(lines, path, 1)
    char_vectors: dict[str, np.ndarray] = {}
    dim_char = DEFAULT_DIM_CHAR
    if next_no <= len(lines):
        if lines[next_no - 1].strip() != CHAR_SECTION_MARKER:
            raise ParseError(
                path, next_no, f"expected {CHAR_SECTION_MARKER!r} or end of file"
            )
        char_vectors, dim_char, next_no = _read_section(lines, path, next_no + 1)
        if next_no <= len(lines):
            raise ParseError(path, next_no, "trailing content after sections")
    return EmbeddingTable(
        dim_word=dim_word,
        dim_char=dim_char,
        source="file",
        seed=seed,
        word_vectors=words,
        char_ngram_vectors=char_vectors,
    )


def _token_ngrams(token: str, n: int = 3) -> list[str]:
    padded = _PAD_LEFT + token + _PAD_RIGHT
    return [padded[i : i + n] for i in range(len(padded) - n + 1)]


def embed_field(text: str, table: EmbeddingTable) -> np.ndarray:
    """Mean word vector of the field's tokens stacked with the mean vector
    of all their character 3-grams. Empty fields embed to the zero vector;
    pooling makes the result invariant to token order and duplication."""
    tokens = text.lower().split()
    word_part = np.zeros(table.dim_word)
    char_part = np.zeros(table.dim_char)
    if tokens:
        word_vecs = [v for v in (table.word_vector(t) for t in tokens) if v is not None]
        if word_vecs:
            word_part = np.mean(word_vecs, axis=0)
        grams = [g for t in tokens for g in _token_ngrams(t)]
        char_part = np.mean([table.char_ngram_vector(g) for g in grams], axis=0)
    return np.concatenate([word_part, char_part])


def _cosine(x: np.ndarray, y: np.ndarray) -> float:
    nx, ny = np.linalg.norm(x), np.linalg.norm(y)
    if nx == 0.0 and ny == 0.0:
        return 1.0
    if nx == 0.0 or ny == 0.0:
        return 0.0
    # rounding can push |cos| a hair past 1
    return float(np.clip(np.dot(x, y) / (nx * ny), -1.0, 1.0))


EMBEDDING_FIELDS = PS_TEXT_FIELDS[:2]  # the names; perfbench/tracer.py reads it
EMBEDDING_FIELDS_WITH_DESC = PS_TEXT_FIELDS[:3]  # and the description


def pair_embedding_features(
    corpus: Corpus,
    pairs: Sequence[tuple[str, str]],
    table: EmbeddingTable,
    include_description: bool = False,
) -> FeatureMatrix:
    """Per (twitter_id, flickr_id) pair and field: the element-wise
    absolute embedding difference mapped through 1/(1+|d|), then the
    embedding cosine mapped to [0, 1]. Each account's fields are embedded
    once."""
    fields = EMBEDDING_FIELDS_WITH_DESC if include_description else EMBEDDING_FIELDS
    dim = table.dim
    # one call embeds all of an account's fields; e_a[i, f] is field f of pair i
    e_a, e_b = (e.reshape(len(pairs), len(fields), dim) for e in per_side(
        pairs, len(fields) * dim,
        lambda platform, uid: np.concatenate([
            embed_field(getattr(corpus.profile(platform, uid), name), table)
            for name in fields
        ]),
    ))
    blocks: list[np.ndarray] = []
    schema: list[str] = []
    for f, name in enumerate(fields):
        a, b = e_a[:, f], e_b[:, f]
        # the cosine stays per pair: a batched dot product rounds differently
        cosine = np.array([_cosine(x, y) for x, y in zip(a, b)], dtype=np.float64)
        blocks += [1.0 / (1.0 + np.abs(a - b)), ((cosine + 1.0) / 2.0)[:, None]]
        schema += [f"{name}_d{i:03d}" for i in range(dim)] + [f"{name}_cosine"]
    return FeatureMatrix(np.hstack(blocks), schema)
