"""Embeddings, scalar lexicons, and the 7-slot targeted feature vector.

Every instance carries two token-level matrices (pre-trained word
embeddings and POS one-hots) plus one participant-level vector of seven
scalars in a fixed order: five lexicon means (age of acquisition,
concreteness, familiarity, imageability, sentiment valence), age / 100,
and gender coded Female=1.0, Male=0.0, Unknown=0.5.

Loading an embedding file checks every line but keeps only where each
word's line lies; a word's values are read from the file again the first
time a transcript uses it. So the table's matrix holds the rows of the
words a run uses, not the file's, and a file changed or removed between
the load and that first use is a ``DataError``. ``_EmbeddingFile`` does
both reads; ``_vector`` is the one rule for a line's values.

An encoded instance copies no vector: its embeddings are ``TableRows``,
its table and the row ids of the table's one shared matrix, and its POS
one-hots are ``bool``. ``stack_embeddings`` gathers each batch's
embeddings with one fancy index over that matrix as float64, and the model
casts the one-hots too, so it sees the same floats a dense copy would hold.
No other module reads a table's rows or ids.
"""

from __future__ import annotations

import math
import os
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .chat_corpus import (
    Corpus,
    ECHO,
    DataError,
    Demographics,
    Gender,
    Label,
    TranscriptRecord,
    extract_participant_text,
    reading_utf8,
)
from .text_pipeline import (
    PAD_TOKEN,
    PerceptronTaggerModel,
    TokenSequence,
    fix_length,
    one_hot,
    pad_mask,
    tag,
    tokenize,
)

# Slot order of the targeted feature vector. The five lexicon slots come
# first, then the two demographic slots.
LEXICON_SLOTS = ("aoa", "concreteness", "familiarity", "imageability", "sentiment")
FEATURE_NAMES = LEXICON_SLOTS + ("age", "gender")

# Index groups of the feature vector, used by the ablation harness and by
# model feature masking; this dict's order is the group order of both.
FEATURE_GROUPS = {
    "psych": (0, 1, 2, 3),
    "sent": (4,),
    "demo": (5, 6),
}


# ---------------------------------------------------------------------------
# embeddings

# the row id of OOV words and ``<pad>``: the matrix's last row, all zeros
OOV_ROW = -1


class EmbeddingTable:
    """Word -> row id of ``vectors``, a float64 ``[capacity, dim]`` matrix
    whose last row is zeros; OOV words and ``<pad>`` map to that zero row
    (``OOV_ROW``).

    A word's values are read from ``source`` (an object with ``in`` and
    ``read(words) -> [len(words), dim]``; an embedding file's lines in a
    run) the first time ``ids`` meets the word, so ``vectors`` holds only
    the ``used`` rows, numbered in first-use order. Words with no row are
    remembered too, so after its first use a word costs one dict lookup.
    The matrix grows by copying into one twice its size; a row id, once
    given, names the same values in every later matrix.
    """

    def __init__(self, dim: int, source):
        self.dim = dim
        self.source = source
        self.rows: dict[str, int] = {PAD_TOKEN: OOV_ROW}
        self.vectors = np.zeros((1, dim))
        self.used = 0                  # rows of vectors holding a word's values

    def __contains__(self, word: str):
        """Whether the source has a row for ``word``, used yet or not."""
        return word in self.source

    def ids(self, tokens) -> np.ndarray:
        """The row id of each token, first reading the rows of new words."""
        rows = self.rows
        try:
            return np.array([rows[tok] for tok in tokens], dtype=np.intp)
        except KeyError:
            self._add(tokens)
            return np.array([rows[tok] for tok in tokens], dtype=np.intp)

    def _add(self, tokens):
        new = [w for w in dict.fromkeys(tokens) if w not in self.rows]
        found = [w for w in new if w in self.source]
        if found:
            block = self.source.read(found)
            end = self.used + len(found)
            if end >= len(self.vectors):         # the last row stays the zero row
                grown = np.zeros((max(2 * len(self.vectors), end + 1), self.dim))
                grown[:self.used] = self.vectors[:self.used]
                self.vectors = grown
            # rows past used are named by no id yet, so a caller holding
            # this matrix sees no given row change
            self.vectors[self.used:end] = block
            self.rows.update(zip(found, range(self.used, end)))
            self.used = end
        for word in new:
            self.rows.setdefault(word, OOV_ROW)


def _vector(values: list[str]) -> np.ndarray:
    """A line's values by Python's float rules; a ValueError says what is
    wrong with them."""
    try:
        vec = np.array(values, dtype=np.float64)
    except ValueError:
        raise ValueError("non-numeric vector value") from None
    if not np.isfinite(vec).all():
        raise ValueError("non-finite vector value")
    return vec


# lines read per bulk parse: about 350 lines of a 300-d GloVe table
_CHUNK_BYTES = 1 << 20


class _EmbeddingFile:
    """An embedding file whose every line is checked when this is built:
    each chunk in bulk, or line by line by ``float``'s rules where the bulk
    parse rejects it. It keeps where each word's first line lies
    (``lines[word]`` is a line index; line ``i`` spans bytes
    ``starts[i]:starts[i + 1]``), not its values: ``read`` parses the lines
    again once the file's size and mtime match those seen at the build."""

    def __init__(self, path):
        self.path = path
        self.dim: int | None = None
        self.lines: dict[str, int] = {}
        sizes = array("q")             # each line's length in bytes
        # newline="" keeps each line's own end, so the sizes are the file's
        with open(path, encoding="utf-8", newline="") as fh, reading_utf8(path):
            self.stamp = _stamp(fh)
            while lines := fh.readlines(_CHUNK_BYTES):
                if not self._add_bulk(lines, len(sizes)):
                    self._add_exact(lines, len(sizes))
                sizes.extend([len(s) if s.isascii() else len(s.encode()) for s in lines])
        if self.dim is None:
            raise DataError(f"{path}: no embedding lines")
        # pads embed as zeros whatever the file says; a <pad> line is never read
        self.lines.pop(PAD_TOKEN, None)
        self.starts = np.zeros(len(sizes) + 1, dtype=np.int64)
        np.cumsum(np.frombuffer(sizes, dtype=np.int64), out=self.starts[1:])

    def _add_bulk(self, lines: list[str], first: int) -> bool:
        """Parse ``lines`` with numpy's C text reader. Returns False, having
        added nothing, on any chunk where that reader could differ from
        ``_add_exact``: a value it rejects (it takes no ``1_0`` or non-ASCII
        digits, which ``float`` takes), a width other than the table's, a
        non-finite value or a word with no values."""
        words, at, rests = [], [], []
        for i, line in enumerate(lines, start=first):
            parts = line.split(maxsplit=1)
            if len(parts) == 2:
                words.append(parts[0])
                at.append(i)
                rests.append(parts[1])
            elif parts:
                return False
        if not rests:
            return True
        try:
            block = np.loadtxt(rests, dtype=np.float64, comments=None, ndmin=2)
        except ValueError:
            return False
        if self.dim not in (None, block.shape[1]) or not np.isfinite(block).all():
            return False
        self.dim = block.shape[1]
        for word, i in zip(words, at):
            self.lines.setdefault(word, i)
        return True

    def _add_exact(self, lines: list[str], first: int):
        """Parse ``lines`` one at a time with ``_vector``, and raise the
        first error with its ``file:line``. A duplicate word's values are
        not read."""
        for i, line in enumerate(lines, start=first):
            parts = line.split()
            if not parts:
                continue
            word, values = parts[0], parts[1:]
            if self.dim is None:
                if not values:
                    raise DataError(f"{self.path}:{i + 1}: no vector values")
                self.dim = len(values)
            elif len(values) != self.dim:
                raise DataError(f"{self.path}:{i + 1}: expected {self.dim} values, "
                                f"got {len(values)}")
            if word not in self.lines:
                try:
                    _vector(values)
                except ValueError as exc:
                    raise DataError(f"{self.path}:{i + 1}: {exc}") from None
                self.lines[word] = i

    def __contains__(self, word: str):
        return word in self.lines

    def read(self, words: list[str]) -> np.ndarray:
        block = np.empty((len(words), self.dim))
        try:
            with open(self.path, "rb") as fh:
                if _stamp(fh) != self.stamp:
                    raise ValueError
                for k, word in enumerate(words):
                    i = self.lines[word]
                    fh.seek(self.starts[i])
                    parts = fh.read(self.starts[i + 1] - self.starts[i]).decode("utf-8").split()
                    # any mismatch with what was checked means the file changed
                    if parts[:1] != [word] or len(parts) != self.dim + 1:
                        raise ValueError
                    block[k] = _vector(parts[1:])
        except OSError as exc:
            raise DataError(f"{self.path}: cannot be read again: {exc.strerror}") from None
        except ValueError:             # UnicodeDecodeError is a ValueError
            raise DataError(f"{self.path}: changed since it was loaded") from None
        return block


def _stamp(fh) -> tuple[int, int]:
    st = os.fstat(fh.fileno())
    return st.st_size, st.st_mtime_ns


def load_embeddings(path: str | Path) -> EmbeddingTable:
    """The table of a ``word v1 v2 ... vD`` file, every line checked; the
    first line sets the width. A word's line is read again the first time
    ``EmbeddingTable.ids`` meets the word, and a file changed or removed by
    then is a ``DataError``."""
    source = _EmbeddingFile(path)
    return EmbeddingTable(source.dim, source)


class TableRows:
    """Rows ``ids`` of ``table.vectors``, holding the table, not a copy.

    numpy reads it as the ``[len(ids) x dim]`` array ``table.vectors[ids]``
    (``np.asarray``, ``np.stack``); ``stack_embeddings`` gathers a batch
    whose instances share one table with one fancy index instead. The
    table's matrix may have grown since the ids were given; their rows are
    the same.
    """

    __slots__ = ("table", "ids")

    def __init__(self, table, ids: np.ndarray):
        self.table = table
        self.ids = ids

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.ids), self.table.vectors.shape[1]

    def __array__(self, dtype=None, copy=None):
        if copy is False:
            raise ValueError("table rows are gathered into a new array, never viewed")
        return np.asarray(self.table.vectors[self.ids], dtype=dtype)


def embed(seq: TokenSequence, table: EmbeddingTable) -> TableRows:
    """Per-token rows of the table's matrix; read as an array, a
    [len(seq) x dim] matrix."""
    return TableRows(table, table.ids(seq.tokens))


def stack_embeddings(rows: list) -> np.ndarray:
    """Instances' ``[T, dim]`` embeddings as one float64 ``[B, T, dim]``
    array. Rows of one shared table, as every encoded corpus has, are
    gathered with one fancy index over the table's current matrix, which
    holds every row an earlier id names; anything else is stacked."""
    table = getattr(rows[0], "table", None)
    if all(type(r) is TableRows and r.table is table for r in rows):
        return np.asarray(table.vectors[np.stack([r.ids for r in rows])], dtype=np.float64)
    return np.stack(rows, dtype=np.float64)


# ---------------------------------------------------------------------------
# scalar lexicons

def load_lexicon(path: str | Path) -> dict[str, float]:
    """Word -> score from a ``word<TAB>score`` file headed by ``# range lo
    hi``; every score must lie in that (finite, non-empty) range."""
    with open(path, encoding="utf-8") as fh, reading_utf8(path):
        lines = fh.read().splitlines()
    if not lines:
        raise DataError(f"{path}: empty lexicon file")
    header = lines[0].split()
    if len(header) != 4 or header[0] != "#" or header[1] != "range":
        raise DataError(f"{path}: first line must be '# range lo hi'")
    try:
        lo, hi = float(header[2]), float(header[3])
    except ValueError as exc:
        raise DataError(f"{path}: bad range bounds") from exc
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DataError(f"{path}:1: non-finite range bound")
    if not lo < hi:
        raise DataError(f"{path}:1: range {lo} .. {hi} is empty")
    entries: dict[str, float] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise DataError(f"{path}:{lineno}: expected word<TAB>score")
        try:
            score = float(parts[1])
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: bad score {ECHO.repr(parts[1])}") from exc
        if not lo <= score <= hi:        # also catches nan and an overflow to inf
            raise DataError(f"{path}:{lineno}: score {ECHO.repr(parts[1])} for "
                            f"{ECHO.repr(parts[0])} outside [{lo}, {hi}]")
        entries[parts[0]] = score
    return entries


def load_lexicon_dir(root: str | Path) -> dict[str, dict[str, float]]:
    """Load the five named lexicons (``<slot>.tsv``) from one directory."""
    return {slot: load_lexicon(Path(root) / f"{slot}.tsv") for slot in LEXICON_SLOTS}


def lexicon_mean(tokens: tuple[str, ...], lex: dict[str, float]) -> tuple[float, float]:
    """Mean score over the tokens found in the lexicon, and the share of
    tokens found (its coverage).

    Tokens absent from the lexicon are excluded from both numerator and
    denominator; zero coverage gives mean 0.0.
    """
    scores = [lex[t] for t in tokens if t in lex]
    if not tokens or not scores:
        return 0.0, 0.0
    return sum(scores) / len(scores), len(scores) / len(tokens)


_GENDER_CODE = {Gender.FEMALE: 1.0, Gender.MALE: 0.0, Gender.UNKNOWN: 0.5}


def build_feature_vector(
    seq: TokenSequence,
    lexicons: dict[str, dict[str, float]],
    demo: Demographics,
) -> np.ndarray:
    """The 7-vector [5 lexicon means, age/100, gender code], in
    ``FEATURE_NAMES`` order."""
    tokens = seq.tokens[:seq.original_length]      # the real tokens, no pads
    means = [lexicon_mean(tokens, lexicons[slot])[0] for slot in LEXICON_SLOTS]
    age = 0.0 if demo.age is None else demo.age / 100.0
    return np.array(means + [age, _GENDER_CODE[demo.gender]])


# ---------------------------------------------------------------------------
# instance assembly

@dataclass(frozen=True)
class EncodedInstance:
    """One training example, fully numeric."""

    transcript_id: str
    participant_id: str
    embeddings: TableRows | np.ndarray   # [budget x dim]
    pos_onehot: np.ndarray   # [budget x |tagset|], bool
    features: np.ndarray     # [7]
    mask: np.ndarray         # [budget], 1.0 real / 0.0 pad
    label: int               # 1 = positive (dementia), 0 = control


def encode_record(
    record: TranscriptRecord,
    table: EmbeddingTable,
    lexicons: dict[str, dict[str, float]],
    tagger: PerceptronTaggerModel,
    budget: int,
) -> EncodedInstance:
    try:
        seq = fix_length(tokenize(extract_participant_text(record)), budget)
    except DataError:
        raise DataError(f"transcript {record.transcript_id}: no word tokens") from None
    tags = tag(tagger, seq)
    features = build_feature_vector(seq, lexicons, record.demographics)
    if not np.isfinite(features).all():
        slot = FEATURE_NAMES[int(np.argmin(np.isfinite(features)))]
        raise DataError(f"transcript {record.transcript_id}: the {slot} feature "
                        f"is not finite (its lexicon scores overflow their mean)")
    return EncodedInstance(
        transcript_id=record.transcript_id,
        participant_id=record.participant_id,
        embeddings=embed(seq, table),
        pos_onehot=one_hot(tags),
        features=features,
        mask=pad_mask(seq),
        label=1 if record.label is Label.AD else 0,
    )


def encode_corpus(
    corpus: Corpus,
    table: EmbeddingTable,
    lexicons: dict[str, dict[str, float]],
    tagger: PerceptronTaggerModel,
    budget: int,
) -> list[EncodedInstance]:
    return [encode_record(r, table, lexicons, tagger, budget) for r in corpus.records]
