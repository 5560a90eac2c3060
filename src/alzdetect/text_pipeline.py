"""Token and POS-tag sequences of fixed length, ready for encoding.

Participant text is tokenized, lowercased, and cut or padded to a fixed
token budget, the model's ``seq_len``. POS tags come from a small
averaged-perceptron tagger, loaded from the shipped file
``fixtures/default_tagger.txt``; the test suite retrains it from its
hand-tagged corpus and checks that the bytes match. The tagset is frozen to
the 36 Penn Treebank word tags plus a PAD tag at index 0, which fixes the
one-hot width at 37.

``tag`` is the one scorer. It keeps what it has worked out on the model:
the weight rows of each feature template per word, per tag or per (tag,
word), and the tag chosen for each tuple of rows. These caches grow with
the distinct words and contexts tagged (one pass of 900 synthetic
transcripts leaves about 5.5k chosen tags, under 1 MiB) and are never
evicted, so a model must not change once it has tagged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .chat_corpus import ECHO, DataError, reading_utf8, words

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


@dataclass(frozen=True)
class TokenSequence:
    tokens: tuple[str, ...]
    original_length: int


# The fixed 37-tag inventory, PAD at 0: the columns of a one-hot row.
TAGSET = (PAD_TAG, *PTB_TAGS)
_TAG_INDEX = {t: i for i, t in enumerate(TAGSET)}
# row i is tag i's one-hot; read-only, only gathered from
_ONE_HOT = np.eye(len(TAGSET), dtype=bool)
_ONE_HOT.setflags(write=False)
# the tagger's weight column of each word tag
_TAG_COLUMN = {t: j for j, t in enumerate(PTB_TAGS)}


def tokenize(text: str) -> TokenSequence:
    """The text's words (``chat_corpus.words``) as a token sequence."""
    tokens = tuple(words(text))
    if not tokens:
        raise DataError("no word tokens in input text")
    return TokenSequence(tokens=tokens, original_length=len(tokens))


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

class _TemplateRows(dict):
    """Key -> the model rows, in template order, of the feature strings
    ``spell(key)`` names; a string the model lacks adds no row. Filled on
    first use, one entry per key ever looked up."""

    def __init__(self, features: dict[str, int], spell):
        super().__init__()
        self.features = features
        self.spell = spell

    def __missing__(self, key) -> tuple[int, ...]:
        get = self.features.get
        rows = self[key] = tuple(r for f in self.spell(key) if (r := get(f)) is not None)
        return rows


class PerceptronTaggerModel:
    """Greedy left-to-right averaged perceptron over a fixed tagset.

    Words that were unambiguous in training are looked up directly; all
    others are scored from ``weights``, a dense ``[features x 36]`` matrix
    whose columns follow ``PTB_TAGS`` and whose row for each feature string
    ``features`` gives. A word's nine feature templates are ``bias``, its
    form, 3-letter suffix and first letter, the two previous tags, the
    previous tag with the form, and the words either side. The scores are
    those templates' rows added in that order; ties break toward the
    earlier tag in tagset order, and a word whose every score is 0 defaults
    to NN.

    ``tag`` fills caches on the model as it goes: each template's rows per
    word, per tag or per (tag, word), bounded by the distinct words and
    tags tagged, and the tag chosen for each joined tuple of rows, bounded
    by the distinct contexts seen. Nothing evicts them. They assume the
    model is read-only once it has tagged: changing ``weights``,
    ``features`` or ``tagdict`` afterwards leaves stale entries.
    """

    def __init__(self, weights: np.ndarray, features: dict[str, int],
                 tagdict: dict[str, str]):
        self.weights = weights
        self.features = features
        self.tagdict = tagdict
        self._word_rows = _TemplateRows(
            features, lambda w: ("bias", "w=" + w, "suf3=" + w[-3:], "pre1=" + w[:1]))
        self._prev_rows = _TemplateRows(features, lambda t: ("p1t=" + t,))
        self._prev2_rows = _TemplateRows(features, lambda t: ("p2t=" + t,))
        self._prev_word_rows = _TemplateRows(features, lambda tw: ("p1t+w=" + tw[0] + "+" + tw[1],))
        self._before_rows = _TemplateRows(features, lambda w: ("p1w=" + w,))
        self._after_rows = _TemplateRows(features, lambda w: ("n1w=" + w,))
        self._decisions: dict[tuple[int, ...], str] = {}

    def _decide(self, rows: tuple[int, ...]) -> str:
        """The tag the summed ``rows`` score highest, memoised per tuple."""
        if not rows:
            best = "NN"
        else:
            # rows added one after another in template order: the same float
            # sums as one running total per tag
            scores = np.add.reduce(self.weights.take(rows, axis=0), axis=0)
            i = scores.argmax()     # the first maximum: ties go to the earlier tag
            best = "NN" if scores[i] == 0.0 and not scores.any() else PTB_TAGS[i]
        self._decisions[rows] = best
        return best

    @classmethod
    def load(cls, path: str | Path) -> "PerceptronTaggerModel":
        """Read a ``PTAG v1`` file: feature<TAB>tag<TAB>weight lines, with
        tag-dictionary entries under the feature prefix ``!tagdict``."""
        with open(path, encoding="utf-8") as fh, reading_utf8(path):
            header = fh.readline().rstrip("\n")
            if header != "PTAG v1":
                raise DataError(f"{path}:1: unsupported tagger file header {ECHO.repr(header)}")
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
                    raise DataError(f"{path}:{lineno}: expected feature<TAB>tag<TAB>weight, "
                                    f"got {ECHO.repr(line)}") from None
                if tag not in _TAG_COLUMN or not math.isfinite(weight):
                    raise DataError(f"{path}:{lineno}: bad tag or weight in {ECHO.repr(line)}")
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
    tokens = seq.tokens
    context = ("-START-", *tokens, "-END-")     # the words either side of tokens[i]
    direct = model.tagdict.get
    decided = model._decisions.get
    word_rows, prev_rows, prev2_rows = model._word_rows, model._prev_rows, model._prev2_rows
    prev_word_rows, before_rows, after_rows = (
        model._prev_word_rows, model._before_rows, model._after_rows)
    tags = []
    prev, prev2 = "-START-", "-START2-"
    for i, word in enumerate(tokens):
        if word == PAD_TOKEN:
            tags.append(PAD_TAG)
            continue
        t = direct(word)
        if t is None:
            rows = (word_rows[word] + prev_rows[prev] + prev2_rows[prev2]
                    + prev_word_rows[prev, word] + before_rows[context[i]]
                    + after_rows[context[i + 2]])
            t = decided(rows) or model._decide(rows)
        tags.append(t)
        prev2, prev = prev, t
    return tuple(tags)


def one_hot(tags: tuple[str, ...]) -> np.ndarray:
    """[len(tags) x len(TAGSET)] bool matrix, one True per row: a new array
    of rows gathered from ``_ONE_HOT``."""
    return _ONE_HOT.take([_TAG_INDEX[t] for t in tags], axis=0)


def default_tagger() -> PerceptronTaggerModel:
    """The shipped tagger, read from ``FIXTURE_TAGGER``."""
    return PerceptronTaggerModel.load(FIXTURE_TAGGER)
