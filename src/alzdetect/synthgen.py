"""Synthetic labeled CHAT corpora with a controllable class signal.

The positive class stalls more (filler tokens at a higher per-token
rate), speaks in shorter transcripts, and skews older; those three
marginals are the learnable signal. Everything else (vocabulary,
gender, utterance segmentation) is identical between classes. Files are
written in the CHAT subset the parser reads, fillers in their ``&uh``
marker form, so generated corpora exercise the full ingestion path.

Alongside the transcripts the generator writes the support files a
training run needs: the five scalar lexicons covering the synthetic
vocabulary and a deterministic embedding table (one fixed Gaussian
vector per word, seeded from a word checksum, so separately generated
corpora share embeddings).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .chat_corpus import Corpus, load_corpus, write_manifest

EMBED_SCALE = 0.3

# Size bounds far above the paper's DementiaBank corpus (hundreds of
# participants, transcripts of about 100 words, 300-d vectors). Past them a
# run would not finish or would not fit in memory, so the config is refused.
MAX_TRANSCRIPTS = 100_000
MAX_WORDS = 10_000
MAX_EMBED_DIM = 10_000

LEXICON_RANGES = {
    "aoa": (1.0, 10.0),
    "concreteness": (1.0, 5.0),
    "familiarity": (1.0, 7.0),
    "imageability": (1.0, 7.0),
    "sentiment": (-1.0, 1.0),
}


@dataclass(frozen=True)
class VocabWord:
    word: str
    aoa: float
    concreteness: float
    familiarity: float
    imageability: float
    sentiment: float


# Picture-description content words, scores inside the declared ranges.
DEFAULT_VOCAB = (
    VocabWord("mother", 2.2, 4.8, 6.7, 6.5, 0.3),
    VocabWord("boy", 3.0, 4.9, 6.5, 6.6, 0.1),
    VocabWord("girl", 3.0, 4.9, 6.5, 6.6, 0.1),
    VocabWord("cookie", 3.1, 5.0, 6.2, 6.6, 0.4),
    VocabWord("jar", 4.4, 4.9, 5.8, 6.2, 0.0),
    VocabWord("stool", 5.1, 4.9, 5.2, 6.1, 0.0),
    VocabWord("sink", 4.3, 4.9, 5.9, 6.1, 0.0),
    VocabWord("water", 2.7, 4.9, 6.8, 6.6, 0.1),
    VocabWord("floor", 3.6, 4.7, 6.3, 5.8, 0.0),
    VocabWord("window", 3.5, 4.9, 6.4, 6.3, 0.0),
    VocabWord("curtain", 5.0, 4.8, 5.6, 6.0, 0.0),
    VocabWord("dish", 4.0, 4.8, 6.0, 6.0, 0.0),
    VocabWord("plate", 3.8, 4.9, 6.1, 6.2, 0.0),
    VocabWord("kitchen", 3.4, 4.8, 6.6, 6.4, 0.1),
    VocabWord("garden", 4.2, 4.7, 6.0, 6.2, 0.3),
    VocabWord("apron", 6.0, 4.8, 4.8, 5.9, 0.0),
    VocabWord("cabinet", 5.5, 4.8, 5.4, 5.9, 0.0),
    VocabWord("overflowing", 6.8, 3.4, 4.6, 4.8, -0.2),
    VocabWord("spilling", 5.2, 3.6, 5.2, 5.1, -0.3),
    VocabWord("falling", 3.9, 3.5, 6.0, 5.4, -0.3),
    VocabWord("reaching", 4.6, 3.3, 5.5, 4.9, 0.05),
    VocabWord("standing", 3.7, 3.4, 6.1, 5.2, 0.0),
    VocabWord("washing", 4.0, 3.7, 5.9, 5.5, 0.1),
    VocabWord("drying", 4.5, 3.5, 5.4, 4.8, 0.0),
    VocabWord("laughing", 3.6, 4.0, 6.1, 6.1, 0.6),
    VocabWord("climbing", 4.3, 3.8, 5.8, 5.6, 0.05),
    VocabWord("wobbling", 6.2, 3.2, 4.2, 4.6, -0.2),
    VocabWord("stealing", 5.4, 3.1, 5.5, 4.9, -0.5),
    VocabWord("running", 3.3, 3.9, 6.3, 6.0, 0.1),
    VocabWord("open", 3.2, 2.9, 6.4, 4.0, 0.1),
    VocabWord("broken", 4.1, 3.3, 5.9, 5.1, -0.45),
    VocabWord("little", 2.9, 2.6, 6.6, 3.9, 0.15),
    VocabWord("busy", 4.4, 2.2, 6.0, 3.2, -0.1),
    VocabWord("wet", 3.1, 3.6, 6.2, 5.0, -0.15),
    VocabWord("tall", 3.5, 2.8, 6.2, 4.3, 0.1),
    VocabWord("summer", 4.0, 3.6, 6.4, 5.7, 0.45),
    VocabWord("outside", 3.4, 3.4, 6.5, 5.4, 0.2),
    VocabWord("mess", 4.2, 3.7, 5.8, 5.0, -0.4),
    VocabWord("trouble", 4.8, 1.9, 6.1, 2.8, -0.5),
    VocabWord("quiet", 4.3, 2.0, 6.2, 3.0, 0.2),
)

# Hesitation tokens, written to files in their CHAT marker form.
FILLER_VOCAB = (
    VocabWord("uh", 4.0, 1.2, 5.0, 1.2, -0.05),
    VocabWord("um", 4.0, 1.2, 5.0, 1.2, -0.05),
    VocabWord("oh", 2.5, 1.3, 6.0, 1.5, 0.05),
)

_FILLER_MARKUP = {"uh": "&uh", "um": "&um", "oh": "&-oh"}


@dataclass(frozen=True)
class SynthConfig:
    n_participants: int = 300
    transcripts_per_participant: int = 1
    ad_fraction: float = 1049 / 1292
    filler_rate_ad: float = 0.15
    filler_rate_ct: float = 0.02
    mean_length_ad: float = 65.0
    mean_length_ct: float = 97.0
    length_sd: float = 12.0
    mean_age_ad: float = 72.0
    mean_age_ct: float = 64.0
    age_sd: float = 7.0
    embed_dim: int = 300
    vocab: tuple[VocabWord, ...] = DEFAULT_VOCAB
    seed: int = 0

    def __post_init__(self):
        if self.n_participants < 2 or self.transcripts_per_participant < 1:
            raise ValueError("need >= 2 participants and >= 1 transcript each")
        if self.n_participants * self.transcripts_per_participant > MAX_TRANSCRIPTS:
            raise ValueError(f"n_participants * transcripts_per_participant must be at most "
                             f"{MAX_TRANSCRIPTS:,}")
        if not 0.0 < self.ad_fraction < 1.0:
            raise ValueError("ad_fraction must be in (0, 1)")
        for rate in (self.filler_rate_ad, self.filler_rate_ct):
            if not 0.0 <= rate <= 1.0:
                raise ValueError("filler rates must be in [0, 1]")
        spreads = (self.length_sd, self.age_sd)
        if not np.all(np.isfinite((self.mean_length_ad, self.mean_length_ct,
                                   self.mean_age_ad, self.mean_age_ct, *spreads))):
            raise ValueError("mean lengths, mean ages and their spreads must be finite")
        if min(*spreads, self.seed) < 0:
            raise ValueError("length_sd, age_sd and seed must be >= 0")
        if min(self.mean_length_ad, self.mean_length_ct) < 5:
            raise ValueError("mean lengths must be >= 5")
        if max(self.mean_length_ad, self.mean_length_ct, self.length_sd) > MAX_WORDS:
            raise ValueError(f"mean lengths and length_sd must be at most {MAX_WORDS:,} words")
        if min(self.mean_age_ad, self.mean_age_ct) <= 0:
            raise ValueError("mean ages must be > 0")
        if not 1 <= self.embed_dim <= MAX_EMBED_DIM:
            raise ValueError(f"embed_dim must be in [1, {MAX_EMBED_DIM:,}]")
        if not self.vocab:
            raise ValueError("vocab must be non-empty")


def null_signal_config(n_participants: int = 300, seed: int = 0) -> SynthConfig:
    """Both classes drawn from one distribution: nothing to learn."""
    return SynthConfig(
        n_participants=n_participants,
        ad_fraction=0.5,
        filler_rate_ad=0.08, filler_rate_ct=0.08,
        mean_length_ad=81.0, mean_length_ct=81.0,
        mean_age_ad=68.0, mean_age_ct=68.0,
        seed=seed,
    )


def word_embedding(word: str, dim: int) -> np.ndarray:
    """Fixed Gaussian vector per word, seeded from a CRC of the word."""
    rng = np.random.default_rng(zlib.crc32(word.encode("utf-8")))
    return rng.normal(0.0, EMBED_SCALE, size=dim)


def write_embeddings(vocab: tuple[VocabWord, ...], dim: int, path: Path):
    with open(path, "w", encoding="utf-8") as fh:
        for entry in vocab:
            vec = word_embedding(entry.word, dim)
            fh.write(entry.word + " " + " ".join(f"{v:.6f}" for v in vec) + "\n")


def write_lexicons(vocab: tuple[VocabWord, ...], lex_dir: Path):
    lex_dir.mkdir(parents=True, exist_ok=True)
    for slot, (lo, hi) in LEXICON_RANGES.items():
        with open(lex_dir / f"{slot}.tsv", "w", encoding="utf-8") as fh:
            fh.write(f"# range {lo:g} {hi:g}\n")
            for entry in vocab:
                fh.write(f"{entry.word}\t{getattr(entry, slot):g}\n")


def _render_utterance(words: list[str], rng: np.random.Generator) -> str:
    pieces = []
    for w in words:
        pieces.append(_FILLER_MARKUP.get(w, w))
        if rng.random() < 0.04:
            pieces.append("(.)")
    if rng.random() < 0.02:
        pieces.append("&=laughs")
    pieces.append(".")
    # wrap long utterances onto a tab continuation line
    if len(pieces) > 10:
        return "*PAR:\t" + " ".join(pieces[:8]) + "\n\t" + " ".join(pieces[8:])
    return "*PAR:\t" + " ".join(pieces)


def _transcript_text(config: SynthConfig, label_ad: bool, age: int,
                     gender: str, rng: np.random.Generator) -> str:
    rate = config.filler_rate_ad if label_ad else config.filler_rate_ct
    mean_len = config.mean_length_ad if label_ad else config.mean_length_ct
    length = max(5, int(round(rng.normal(mean_len, config.length_sd))))

    content = [v.word for v in config.vocab]
    fillers = [v.word for v in FILLER_VOCAB]
    tokens = []
    for _ in range(length):
        if rng.random() < rate:
            tokens.append(fillers[rng.integers(len(fillers))])
        else:
            tokens.append(content[rng.integers(len(content))])

    group = "Dementia" if label_ad else "Control"
    lines = [
        "@UTF8",
        "@Begin",
        "@Languages:\teng",
        "@Participants:\tPAR Participant, INV Investigator",
        f"@ID:\teng|synth|PAR|{age};|{gender}|||{group}|||",
        "@ID:\teng|synth|INV|||||Investigator|||",
        "*INV:\twhat is happening in the picture ?",
    ]
    i = 0
    while i < len(tokens):
        n = int(rng.integers(6, 13))
        lines.append(_render_utterance(tokens[i:i + n], rng))
        i += n
    lines.append("@End")
    return "\n".join(lines) + "\n"


def generate(config: SynthConfig, out_dir: str | Path) -> Corpus:
    """Write a labeled corpus plus its lexicons, embeddings, and manifest.

    Returns the corpus as re-parsed from the written files, so what you
    get is exactly what ingestion sees.
    """
    out = Path(out_dir)
    (out / "ad").mkdir(parents=True, exist_ok=True)
    (out / "ct").mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(config.seed)

    n_ad = int(round(config.n_participants * config.ad_fraction))
    n_ad = min(max(n_ad, 1), config.n_participants - 1)

    for p in range(config.n_participants):
        label_ad = p < n_ad
        pid = f"{'A' if label_ad else 'C'}{p:04d}"
        mean_age = config.mean_age_ad if label_ad else config.mean_age_ct
        age = int(np.clip(round(rng.normal(mean_age, config.age_sd)), 30, 110))
        gender = "female" if rng.random() < 0.5 else "male"
        for k in range(config.transcripts_per_participant):
            text = _transcript_text(config, label_ad, age, gender, rng)
            sub = "ad" if label_ad else "ct"
            (out / sub / f"{pid}-{k}.cha").write_text(text, encoding="utf-8")

    full_vocab = config.vocab + FILLER_VOCAB
    write_lexicons(full_vocab, out / "lexicons")
    write_embeddings(full_vocab, config.embed_dim, out / "embeddings.txt")

    corpus = load_corpus(out)
    write_manifest(corpus, out / "manifest.jsonl")
    return corpus
