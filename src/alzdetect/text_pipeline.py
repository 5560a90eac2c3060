"""Token and POS-tag sequences of fixed length, ready for encoding.

Participant text is tokenized, lowercased, and cut or padded to a fixed
token budget, the model's ``seq_len``. POS tags come from a small
averaged-perceptron tagger, loaded from the shipped file
``fixtures/default_tagger.txt``; the test suite retrains it from its
hand-tagged corpus and checks that the bytes match. The tagset is frozen to
the 36 Penn Treebank word tags plus a PAD tag at index 0, which fixes the
one-hot width at 37.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .chat_corpus import DataError, reading_utf8

PAD_TOKEN = "<pad>"
PAD_TAG = "PAD"

# 36 Penn Treebank word tags; PAD occupies index 0.
PTB_TAGS = [
    "CC", "CD", "DT", "EX", "FW", "IN", "JJ", "JJR", "JJS", "LS", "MD",
    "NN", "NNP", "NNPS", "NNS", "PDT", "POS", "PRP", "PRP$", "RB", "RBR",
    "RBS", "RP", "SYM", "TO", "UH", "VB", "VBD", "VBG", "VBN", "VBP",
    "VBZ", "WDT", "WP", "WP$", "WRB",
]

# the averaged perceptron trained on tests/fixtures/tagged_sentences.txt
# (5 epochs, seed 0); tests/test_text_pipeline.py retrains it byte for byte
FIXTURE_TAGGER = Path(__file__).parent / "fixtures" / "default_tagger.txt"


class EmptyText(DataError):
    pass


class BadTaggerFile(DataError):
    """A saved tagger file has a bad header or a malformed line."""


@dataclass(frozen=True)
class TokenSequence:
    tokens: tuple[str, ...]
    original_length: int


# The fixed 37-tag inventory, PAD at 0: the columns of a one-hot row.
TAGSET = (PAD_TAG, *PTB_TAGS)
_TAG_INDEX = {t: i for i, t in enumerate(TAGSET)}
# the tagger's weight column of each word tag
_TAG_COLUMN = {t: j for j, t in enumerate(PTB_TAGS)}


def tokenize(text: str) -> TokenSequence:
    """Whitespace tokenization, lowercased, sentence punctuation dropped.

    Apostrophized forms stay single tokens. Terminal ``.`` ``?`` ``!``
    (standalone or stuck to a word) do not count as words.
    """
    tokens = []
    for piece in text.split():
        word = piece.lower().rstrip(".?!,;:")
        if word:
            tokens.append(word)
    if not tokens:
        raise EmptyText("no word tokens in input text")
    return TokenSequence(tokens=tuple(tokens), original_length=len(tokens))


def fix_length(seq: TokenSequence, budget: int) -> TokenSequence:
    """Truncate to the first ``budget`` tokens or pad with ``<pad>``."""
    if budget < 1:
        raise ValueError("budget must be >= 1")
    tokens = seq.tokens[:budget]
    if len(tokens) < budget:
        tokens = tokens + (PAD_TOKEN,) * (budget - len(tokens))
    return TokenSequence(tokens=tokens, original_length=seq.original_length)


def pad_mask(seq: TokenSequence) -> np.ndarray:
    """1.0 at real-token positions, 0.0 at pad positions."""
    n = min(seq.original_length, len(seq.tokens))
    mask = np.zeros(len(seq.tokens))
    mask[:n] = 1.0
    return mask


# ---------------------------------------------------------------------------
# averaged perceptron tagger

class PerceptronTaggerModel:
    """Greedy left-to-right averaged perceptron over a fixed tagset.

    Words that were unambiguous in training are looked up directly; all
    others are scored from ``weights``, a dense ``[features x 36]`` matrix
    whose columns follow ``PTB_TAGS`` and whose row for each feature string
    ``features`` gives. Ties break toward the earlier tag in tagset order,
    and a word whose every score is 0 defaults to NN.
    """

    def __init__(self, weights: np.ndarray, features: dict[str, int],
                 tagdict: dict[str, str]):
        self.weights = weights
        self.features = features
        self.tagdict = tagdict

    # feature templates: keep them cheap and purely local
    @staticmethod
    def _features(tokens: tuple[str, ...], i: int, prev: str, prev2: str) -> list[str]:
        word = tokens[i]
        before = tokens[i - 1] if i > 0 else "-START-"
        after = tokens[i + 1] if i + 1 < len(tokens) else "-END-"
        return [
            "bias",
            "w=" + word,
            "suf3=" + word[-3:],
            "pre1=" + word[:1],
            "p1t=" + prev,
            "p2t=" + prev2,
            "p1t+w=" + prev + "+" + word,
            "p1w=" + before,
            "n1w=" + after,
        ]

    def predict_word(self, tokens: tuple[str, ...], i: int,
                     prev: str, prev2: str) -> str:
        direct = self.tagdict.get(tokens[i])
        if direct is not None:
            return direct
        get = self.features.get
        rows = [r for f in self._features(tokens, i, prev, prev2)
                if (r := get(f)) is not None]
        if not rows:
            return "NN"
        # rows added one after another in template order: the same float
        # sums as one running total per tag
        scores = np.add.reduce(self.weights.take(rows, axis=0), axis=0)
        best = scores.argmax()      # the first maximum: ties go to the earlier tag
        if scores[best] == 0.0 and not scores.any():
            return "NN"
        return PTB_TAGS[best]

    @classmethod
    def load(cls, path: str | Path) -> "PerceptronTaggerModel":
        """Read a ``PTAG v1`` file: feature<TAB>tag<TAB>weight lines, with
        tag-dictionary entries under the feature prefix ``!tagdict``."""
        with open(path, encoding="utf-8") as fh, reading_utf8(path):
            header = fh.readline().rstrip("\n")
            if header != "PTAG v1":
                raise BadTaggerFile(f"{path}:1: unsupported tagger file header {header!r}")
            features: dict[str, int] = {}
            cells: dict[tuple[int, int], float] = {}   # a repeated line overrides
            tagdict: dict[str, str] = {}
            for lineno, line in enumerate(fh, start=2):
                line = line.rstrip("\n")
                if not line:
                    continue
                try:
                    feat, tag, w = line.split("\t")
                    weight = float(w)
                except ValueError:
                    raise BadTaggerFile(f"{path}:{lineno}: expected feature<TAB>tag<TAB>weight, "
                                        f"got {line!r}") from None
                if tag not in _TAG_COLUMN or not math.isfinite(weight):
                    raise BadTaggerFile(f"{path}:{lineno}: bad tag or weight in {line!r}")
                if feat.startswith("!tagdict "):
                    tagdict[feat[len("!tagdict "):]] = tag
                else:
                    cells[features.setdefault(feat, len(features)), _TAG_COLUMN[tag]] = weight
        weights = np.zeros((len(features), len(PTB_TAGS)))
        if cells:
            rows, cols = np.array(list(cells)).T
            weights[rows, cols] = list(cells.values())
        return cls(weights=weights, features=features, tagdict=tagdict)


def tag(model: PerceptronTaggerModel, seq: TokenSequence) -> tuple[str, ...]:
    """Tag every token; pad tokens always get PAD."""
    tags = []
    prev, prev2 = "-START-", "-START2-"
    for i, word in enumerate(seq.tokens):
        if word == PAD_TOKEN:
            tags.append(PAD_TAG)
            continue
        t = model.predict_word(seq.tokens, i, prev, prev2)
        tags.append(t)
        prev2, prev = prev, t
    return tuple(tags)


def one_hot(tags: tuple[str, ...]) -> np.ndarray:
    """[len(tags) x len(TAGSET)] matrix, one 1.0 per row."""
    n = len(tags)
    mat = np.zeros((n, len(TAGSET)))
    mat[np.arange(n), [_TAG_INDEX[t] for t in tags]] = 1.0
    return mat


def default_tagger() -> PerceptronTaggerModel:
    """The shipped tagger, read from ``FIXTURE_TAGGER``."""
    return PerceptronTaggerModel.load(FIXTURE_TAGGER)
