"""Embeddings, scalar lexicons, and the 7-slot targeted feature vector.

Every instance carries two token-level matrices (pre-trained word
embeddings and POS one-hots) plus one participant-level vector of seven
scalars in a fixed order: five lexicon means (age of acquisition,
concreteness, familiarity, imageability, sentiment valence), age / 100,
and gender coded Female=1.0, Male=0.0, Unknown=0.5.

Loading an embedding file checks its UTF-8 and each line's width (fields
counted with numpy over the bytes of chunks of lines) and parses no value: it
keeps where each word's line lies. A word's values are read again, and parsed
and checked by the one rule ``_vector``, the first time a transcript uses it.
So the table's matrix holds the rows of the words a run uses, not the file's;
a bad value on a line no transcript uses is never seen; and a file changed or
removed between the load and that first use is a ``DataError``.

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


_CHUNK_BYTES = 1 << 18    # bytes of whole lines read at once at load; the buffer size, > 1
# the 19 non-ASCII characters str.split() splits on, in rising order, each as the
# big-endian number of its UTF-8 bytes: two or three, led by C2, E1, E2 or E3
_WIDE_SPACES = np.array(
    [int.from_bytes(chr(c).encode(), "big") for c in
     (0x85, 0xA0, 0x1680, *range(0x2000, 0x200B), 0x2028, 0x2029, 0x202F, 0x205F, 0x3000)],
    dtype=np.uint32)


class _EmbeddingFile:
    """An embedding file whose every line's width and UTF-8 are checked when
    this is built. It keeps where each word's first line lies (``lines[word]``
    is a line index; line ``i`` spans bytes ``starts[i]:starts[i + 1]``), not
    its values: ``read`` parses a word's line, by ``_vector``, once the
    file's size and mtime match those seen at the build. The build decodes
    each chunk of lines whole, so a UTF-8 fault wins over a width fault on
    an earlier line of its chunk, and counts a line's ``str.split()`` fields
    over the chunk's bytes (``_space_mask``) without building them."""

    def __init__(self, path):
        self.path = path
        self.dim: int | None = None
        self.lines: dict[str, int] = {}
        ends = []                      # each chunk's line ends, in file bytes
        first_line = 0                 # lines before the chunk
        with open(path, "rb", buffering=_CHUNK_BYTES) as fh, reading_utf8(path):
            self.stamp = _stamp(fh)
            while lines := fh.readlines(_CHUNK_BYTES):
                chunk = b"".join(lines)
                space = _space_mask(chunk)
                # each line's start, then the chunk's end: readlines ended lines
                # at \n, and a \r not before \n ends one too
                bounds = np.cumsum([0, *map(len, lines)])
                if b"\r" in chunk:
                    code = np.frombuffer(chunk, dtype=np.uint8)
                    lone_cr = (code[:-1] == np.uint8(13)) & (code[1:] != np.uint8(10))
                    bounds = np.union1d(bounds, np.flatnonzero(lone_cr) + 1)
                # a field starts at a non-space that starts the chunk or follows
                # a space; each line but the chunk's last ends in one (\n or \r)
                field_start = ~space
                field_start[1:] &= space[:-1]
                # a type that counts to the longest line's length holds its count
                fields = np.add.reduceat(field_start, bounds[:-1],
                                         dtype=np.min_scalar_type(np.diff(bounds).max()))
                marks = space.tobytes()
                rows = zip(bounds.tolist(), fields.tolist())
                for i, (start, n_fields) in enumerate(rows, start=first_line):
                    if not n_fields:
                        continue
                    width = n_fields - 1
                    if self.dim is None:
                        if not width:
                            raise DataError(f"{path}:{i + 1}: no vector values")
                        self.dim = width
                    elif width != self.dim:
                        raise DataError(f"{path}:{i + 1}: expected {self.dim} values, "
                                        f"got {width}")
                    # the word: from the line's first unmarked byte to its next marked one
                    word = marks.index(b"\0", start)
                    self.lines.setdefault(chunk[word:marks.index(b"\1", word)].decode(), i)
                ends.append(fh.tell() - len(chunk) + bounds[1:])
                first_line += len(bounds) - 1
        if self.dim is None:
            raise DataError(f"{path}: no embedding lines")
        # pads embed as zeros whatever the file says; a <pad> line is never read
        self.lines.pop(PAD_TOKEN, None)
        self.starts = np.concatenate([[0], *ends])

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
                    try:
                        block[k] = _vector(parts[1:])
                    except ValueError as exc:
                        raise DataError(f"{self.path}:{i + 1}: {exc}") from None
        except OSError as exc:
            raise DataError(f"{self.path}: cannot be read again: {exc.strerror}") from None
        except DataError:              # a bad value, named by its line
            raise
        except ValueError:             # UnicodeDecodeError is a ValueError
            raise DataError(f"{self.path}: changed since it was loaded") from None
        return block


def _stamp(fh) -> tuple[int, int]:
    st = os.fstat(fh.fileno())
    return st.st_size, st.st_mtime_ns


def _space_mask(chunk: bytes) -> np.ndarray:
    """Which bytes of ``chunk`` belong to a character ``str.split()`` splits
    on. Every byte of a wide space is marked; a 0x85 or 0xA0 that continues
    another character (as in U+00C5 and U+00E0) is not. The chunk's one
    decode is its UTF-8 check."""
    code = np.frombuffer(chunk, dtype=np.uint8)
    is_ascii = len(chunk.decode("utf-8")) == len(chunk)
    # 9-13 and 28-32: at most 4 above 9 or 28, a byte below wrapping to 255. Each
    # comparison overwrites the difference it reads, so two chunk-sized arrays
    # are made, not five
    space, above_28 = code - np.uint8(9), code - np.uint8(28)
    space = np.less_equal(space, np.uint8(4), out=space.view(np.bool_))
    space |= np.less_equal(above_28, np.uint8(4), out=above_28.view(np.bool_))
    if is_ascii:
        return space
    # each whole sequence led by C2-E3 as the number of its bytes: 2 after C2-DF, else 3
    lead = np.flatnonzero(code >= np.uint8(0xC2))
    lead = lead[code[lead] <= np.uint8(0xE3)]
    seq = code.take(lead[:, None] + np.arange(3), mode="clip")
    two = seq[:, 0] < np.uint8(0xE0)
    key = (seq @ np.array([1 << 16, 1 << 8, 1], dtype=np.uint32)) >> (np.uint32(8) * two)
    hit = _WIDE_SPACES.take(np.searchsorted(_WIDE_SPACES, key), mode="clip") == key
    lead, three = lead[hit], ~two[hit]
    space[lead] = space[lead + 1] = True
    space[lead[three] + 2] = True
    return space


def load_embeddings(path: str | Path) -> EmbeddingTable:
    """The table of a ``word v1 v2 ... vD`` file, its UTF-8 and every line's
    width checked at load, against the first line's. A word's line is read
    again, and its values parsed, the first time ``EmbeddingTable.ids`` meets
    the word; a bad value there, or a file changed or removed by then, is a
    ``DataError`` naming the file."""
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
        lines = fh.read().split("\n")      # text mode ends lines at \n, \r\n and \r alone
    if lines == [""]:
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
            # str.strip() drops every str.isspace() character; float() keeps \x1c-\x1f
            score = float(parts[1].strip())
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
    denominator; zero coverage gives mean 0.0. Scores add left to right from
    0.0, the same bits on every Python (``sum()`` rounds otherwise from 3.12).
    """
    total, found = 0.0, 0
    for t in tokens:
        score = lex.get(t)
        if score is not None:
            total += score
            found += 1
    if not found:
        return 0.0, 0.0
    return total / found, found / len(tokens)


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
