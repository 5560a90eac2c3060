"""Embeddings, scalar lexicons, and the 7-slot targeted feature vector.

Every instance carries two token-level matrices (pre-trained word
embeddings and POS one-hots) plus one participant-level vector of seven
scalars in a fixed order: five lexicon means (age of acquisition,
concreteness, familiarity, imageability, sentiment valence), age / 100,
and gender coded Female=1.0, Male=0.0, Unknown=0.5.

An encoded instance copies no vector: its embeddings are ``TableRows``,
the row ids of the table's one shared matrix, and its POS one-hots are
``bool``. The model gathers each batch's embeddings with one fancy index
over that matrix and casts both to float64, so it sees the same floats
a dense copy would hold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .chat_corpus import (
    Corpus,
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
    """Word -> row of one ``[V + 1, dim]`` matrix whose last row is zeros;
    OOV words and ``<pad>`` map to that zero row (``OOV_ROW``)."""

    def __init__(self, vectors: np.ndarray, rows: dict[str, int]):
        self.vectors = vectors
        self.rows = rows
        self.dim = vectors.shape[1]

    def __contains__(self, word: str):
        return word in self.rows


# lines read per bulk parse: about 350 lines of a 300-d GloVe table
_CHUNK_BYTES = 1 << 20


class _TableBuilder:
    """The rows of an embedding table as its lines arrive, chunk by chunk:
    each chunk's new rows are copied into ``vectors``, which grows in place
    and always ends in the zero row, so the values are never held twice."""

    def __init__(self, path):
        self.path = path
        self.dim: int | None = None
        self.rows: dict[str, int] = {}
        self.vectors = np.zeros((1, 0))

    def _append(self, words: list[str], block: np.ndarray):
        """Copy the rows of ``block`` whose word is new; the first occurrence wins."""
        at = len(self.rows)
        keep = []
        for i, word in enumerate(words):
            if word not in self.rows:
                self.rows[word] = len(self.rows)
                keep.append(i)
        # no view of vectors outlives a call, so it may grow in place; resize
        # zero-fills what it adds, so the last row stays the zero row
        self.vectors.resize((len(self.rows) + 1, self.dim), refcheck=False)
        self.vectors[at:-1] = block if len(keep) == len(words) else block[keep]

    def add_bulk(self, lines: list[str]) -> bool:
        """Parse ``lines`` with numpy's C text reader. Returns False, having
        added nothing, on any chunk where that reader could differ from
        ``add_exact``: a value it rejects (it takes no ``1_0`` or non-ASCII
        digits, which ``float`` takes), a width other than the table's, a
        non-finite value or a word with no values."""
        words, rests = [], []
        for line in lines:
            parts = line.split(maxsplit=1)
            if len(parts) == 2:
                words.append(parts[0])
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
        self._append(words, block)
        return True

    def add_exact(self, lines: list[str], first_lineno: int):
        """Parse ``lines`` one at a time with Python's float rules, and raise
        the first error with its ``file:line``. A duplicate word's values
        are not read."""
        for lineno, line in enumerate(lines, start=first_lineno):
            parts = line.split()
            if not parts:
                continue
            word, values = parts[0], parts[1:]
            if self.dim is None:
                if not values:
                    raise DataError(f"{self.path}:{lineno}: no vector values")
                self.dim = len(values)
            elif len(values) != self.dim:
                raise DataError(f"{self.path}:{lineno}: expected {self.dim} values, "
                                f"got {len(values)}")
            if word not in self.rows:
                try:
                    vec = np.array(values, dtype=np.float64)
                except ValueError:
                    raise DataError(f"{self.path}:{lineno}: non-numeric vector value") from None
                if not np.isfinite(vec).all():
                    raise DataError(f"{self.path}:{lineno}: non-finite vector value")
                self._append([word], vec[None])

    def table(self) -> EmbeddingTable:
        if self.dim is None:
            raise DataError(f"{self.path}: no embedding lines")
        # pads embed as zeros whatever the file says; a <pad> line's row is never read
        self.rows.pop(PAD_TOKEN, None)
        return EmbeddingTable(self.vectors, self.rows)


def load_embeddings(path: str | Path) -> EmbeddingTable:
    """Read ``word v1 v2 ... vD`` lines; width is set by the first line.

    Duplicate words keep their first occurrence. Each chunk of lines is
    parsed in bulk; a chunk the bulk parse rejects is parsed again line by
    line, which accepts what ``float`` accepts or names the bad line.
    """
    builder = _TableBuilder(path)
    lineno = 1
    with open(path, encoding="utf-8") as fh, reading_utf8(path):
        while lines := fh.readlines(_CHUNK_BYTES):
            if not builder.add_bulk(lines):
                builder.add_exact(lines, lineno)
            lineno += len(lines)
    return builder.table()


class TableRows:
    """Rows ``ids`` of ``matrix``, holding the matrix itself, not a copy.

    numpy reads it as the ``[len(ids) x dim]`` array ``matrix[ids]``
    (``np.asarray``, ``np.stack``); ``model`` gathers a batch whose
    instances share one matrix with one fancy index instead.
    """

    __slots__ = ("matrix", "ids")

    def __init__(self, matrix: np.ndarray, ids: np.ndarray):
        self.matrix = matrix
        self.ids = ids

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.ids), self.matrix.shape[1]

    def __array__(self, dtype=None, copy=None):
        if copy is False:
            raise ValueError("table rows are gathered into a new array, never viewed")
        return np.asarray(self.matrix[self.ids], dtype=dtype)


def embed(seq: TokenSequence, table: EmbeddingTable) -> TableRows:
    """Per-token rows of the table's matrix; read as an array, a
    [len(seq) x dim] matrix."""
    rows = table.rows
    ids = np.array([rows.get(tok, OOV_ROW) for tok in seq.tokens], dtype=np.intp)
    return TableRows(table.vectors, ids)


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
            raise DataError(f"{path}:{lineno}: bad score {parts[1]!r}") from exc
        if not lo <= score <= hi:        # also catches nan and an overflow to inf
            raise DataError(f"{path}:{lineno}: score {parts[1]!r} for {parts[0]!r} "
                            f"outside [{lo}, {hi}]")
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
