"""Token and POS-tag sequences of fixed length, ready for encoding.

Participant text is tokenized, lowercased, and cut or padded to a fixed
token budget, the model's ``seq_len``. POS tags come from a small
averaged-perceptron tagger, trained at start-up on a packaged hand-tagged
fixture corpus or loaded from a file that ``PerceptronTaggerModel.save``
wrote. The tagset is frozen to the 36 Penn Treebank word tags plus a PAD
tag at index 0, which fixes the one-hot width at 37.
"""

from __future__ import annotations

import math
import random
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

FIXTURE_TAGGED = Path(__file__).parent / "fixtures" / "tagged_sentences.txt"
# the tagger train_tagger(read_tagged_file(FIXTURE_TAGGED), epochs=5, seed=0) saves
FIXTURE_TAGGER = Path(__file__).parent / "fixtures" / "default_tagger.txt"


class EmptyText(DataError):
    pass


class EmptyTagCorpus(ValueError):
    pass


class UnknownTag(ValueError):
    pass


class BadTaggerFile(DataError):
    """A saved tagger file has a bad header or a malformed line."""


@dataclass(frozen=True)
class TokenSequence:
    tokens: tuple[str, ...]
    original_length: int


@dataclass(frozen=True)
class PosTagSequence:
    tags: tuple[str, ...]


class TagSet:
    """The fixed 37-tag inventory with dense indices, PAD at 0."""

    def __init__(self):
        self.tags: tuple[str, ...] = (PAD_TAG, *PTB_TAGS)
        self._index = {t: i for i, t in enumerate(self.tags)}

    def __len__(self):
        return len(self.tags)

    def __contains__(self, tag: str):
        return tag in self._index

    def index(self, tag: str) -> int:
        try:
            return self._index[tag]
        except KeyError:
            raise UnknownTag(f"tag {tag!r} not in tagset") from None


TAGSET = TagSet()


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

    def __init__(self, weights: np.ndarray | None = None,
                 features: dict[str, int] | None = None,
                 tagdict: dict[str, str] | None = None):
        self.weights = weights if weights is not None else np.zeros((0, len(PTB_TAGS)))
        self.features = features if features is not None else {}
        self.tagdict = tagdict if tagdict is not None else {}

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

    def save(self, path: str | Path):
        """Versioned flat file: ``PTAG v1`` header, then
        feature<TAB>tag<TAB>weight lines for the nonzero weights, sorted.
        Tag-dictionary entries are stored under the reserved feature
        prefix ``!tagdict``."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("PTAG v1\n")
            for word in sorted(self.tagdict):
                fh.write(f"!tagdict {word}\t{self.tagdict[word]}\t1.0\n")
            for feat in sorted(self.features):
                # PTB_TAGS is in sorted order, so the tags of a feature are too
                for tag, w in zip(PTB_TAGS, self.weights[self.features[feat]].tolist()):
                    if w != 0.0:
                        fh.write(f"{feat}\t{tag}\t{w!r}\n")

    @classmethod
    def load(cls, path: str | Path) -> "PerceptronTaggerModel":
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


_TAG_COLUMN = {t: j for j, t in enumerate(PTB_TAGS)}


def train_tagger(tagged_corpus: list[list[tuple[str, str]]], epochs: int = 5,
                 seed: int = 0) -> PerceptronTaggerModel:
    """Train an averaged perceptron on (token, gold tag) sentences.

    Update order matters for exact reproducibility, so training is
    single-threaded with a seeded shuffle between epochs.
    """
    if not tagged_corpus:
        raise EmptyTagCorpus("no tagged sentences to train on")
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    for sent in tagged_corpus:
        for _, tag in sent:
            if tag not in TAGSET or tag == PAD_TAG:
                raise UnknownTag(f"gold tag {tag!r} not in tagset")

    # unambiguous frequent words go straight to the tag dictionary
    tag_counts: dict[str, dict[str, int]] = {}
    for sent in tagged_corpus:
        for word, gold in sent:
            counts = tag_counts.setdefault(word, {})
            counts[gold] = counts.get(gold, 0) + 1
    tagdict = {w: next(iter(c)) for w, c in tag_counts.items()
               if len(c) == 1 and sum(c.values()) >= 2}

    model = PerceptronTaggerModel(tagdict=tagdict)
    index = model.features
    # Averaging is lazy: a cell's running total catches up on the
    # instances since its last update (its stamp) only when it changes.
    # Rows are allocated by doubling; rows past len(index) stay zero.
    model.weights = np.zeros((256, len(PTB_TAGS)))
    totals = np.zeros_like(model.weights)
    stamps = np.zeros(model.weights.shape, dtype=np.int64)
    instance = 0

    rng = random.Random(seed)
    order = list(range(len(tagged_corpus)))
    for _ in range(epochs):
        rng.shuffle(order)
        for si in order:
            sent = tagged_corpus[si]
            tokens = tuple(w for w, _ in sent)
            prev, prev2 = "-START-", "-START2-"
            for i, (word, gold) in enumerate(sent):
                instance += 1
                if word in model.tagdict:
                    prev2, prev = prev, model.tagdict[word]
                    continue
                guess = model.predict_word(tokens, i, prev, prev2)
                if guess != gold:
                    # the nine templates never repeat a feature, so the rows differ
                    rows = [index.setdefault(f, len(index))
                            for f in model._features(tokens, i, prev, prev2)]
                    if len(index) > len(model.weights):
                        model.weights, totals, stamps = (
                            np.concatenate([a, np.zeros_like(a)]) for a in (model.weights, totals, stamps))
                    for col, delta in ((_TAG_COLUMN[gold], 1.0), (_TAG_COLUMN[guess], -1.0)):
                        cur = model.weights[rows, col]
                        totals[rows, col] += (instance - stamps[rows, col]) * cur
                        stamps[rows, col] = instance
                        model.weights[rows, col] = cur + delta
                prev2, prev = prev, guess

    # average the weights over all update timesteps
    n = len(index)
    model.weights = (totals[:n] + (instance - stamps[:n]) * model.weights[:n]) / instance
    return model


def tag(model: PerceptronTaggerModel, seq: TokenSequence) -> PosTagSequence:
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
    return PosTagSequence(tags=tuple(tags))


def one_hot(tags: PosTagSequence) -> np.ndarray:
    """[len(tags) x len(TAGSET)] matrix, one 1.0 per row."""
    n = len(tags.tags)
    mat = np.zeros((n, len(TAGSET)))
    mat[np.arange(n), [TAGSET.index(t) for t in tags.tags]] = 1.0
    return mat


# ---------------------------------------------------------------------------
# the hand-tagged training fixture

def read_tagged_file(path: str | Path) -> list[list[tuple[str, str]]]:
    """Read ``token<TAB>TAG`` lines; blank lines separate sentences. This
    is the format of the packaged corpus the default tagger is trained on."""
    groups: list[list[tuple[str, str]]] = []
    current: list[tuple[str, str]] = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.rstrip()
        if not line:
            if current:
                groups.append(current)
                current = []
            continue
        word, pos = line.split("\t")
        current.append((word, pos))
    if current:
        groups.append(current)
    return groups


def default_tagger() -> PerceptronTaggerModel:
    """The packaged tagger, trained on the packaged fixture corpus."""
    return PerceptronTaggerModel.load(FIXTURE_TAGGER)
