"""Synthetic corpus generator: determinism, parseability, signal rates."""

import numpy as np
import pytest

from alzdetect.chat_corpus import Gender, Label, extract_participant_text
from alzdetect.lexical_features import load_embeddings, load_lexicon_dir
from alzdetect.synthgen import (
    DEFAULT_VOCAB,
    FILLER_VOCAB,
    MAX_EMBED_DIM,
    MAX_TRANSCRIPTS,
    MAX_WORDS,
    SynthConfig,
    generate,
    null_signal_config,
    word_embedding,
)
from alzdetect.text_pipeline import tokenize

SMALL = SynthConfig(n_participants=12, embed_dim=8, seed=5)


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(n_participants=1)
    with pytest.raises(ValueError):
        SynthConfig(ad_fraction=0.0)
    with pytest.raises(ValueError):
        SynthConfig(filler_rate_ad=1.5)
    with pytest.raises(ValueError):
        SynthConfig(mean_length_ad=2.0)
    with pytest.raises(ValueError):
        SynthConfig(vocab=())


@pytest.mark.parametrize("sizes", [
    dict(mean_length_ct=1.0e300), dict(length_sd=1.0e300), dict(n_participants=10**20),
    dict(n_participants=MAX_TRANSCRIPTS // 2 + 1, transcripts_per_participant=2),
    dict(embed_dim=10**8)])
def test_sizes_past_their_bounds_are_refused(sizes):
    with pytest.raises(ValueError, match="at most|embed_dim must be in"):
        SynthConfig(**sizes)


def test_sizes_at_their_bounds_are_accepted():
    SynthConfig(n_participants=MAX_TRANSCRIPTS // 2, transcripts_per_participant=2,
                mean_length_ad=MAX_WORDS, mean_length_ct=MAX_WORDS, length_sd=MAX_WORDS,
                embed_dim=MAX_EMBED_DIM)


def test_null_config_has_no_class_signal():
    cfg = null_signal_config(n_participants=50, seed=3)
    assert cfg.ad_fraction == 0.5
    assert cfg.filler_rate_ad == cfg.filler_rate_ct
    assert cfg.mean_length_ad == cfg.mean_length_ct
    assert cfg.mean_age_ad == cfg.mean_age_ct
    assert cfg.n_participants == 50 and cfg.seed == 3


def test_word_embeddings_are_word_determined():
    a = word_embedding("boy", 16)
    b = word_embedding("boy", 16)
    c = word_embedding("girl", 16)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.shape == (16,)


def test_generate_is_bitwise_deterministic(tmp_path):
    generate(SMALL, tmp_path / "a")
    generate(SMALL, tmp_path / "b")
    files_a = sorted(p.relative_to(tmp_path / "a")
                     for p in (tmp_path / "a").rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(tmp_path / "b")
                     for p in (tmp_path / "b").rglob("*") if p.is_file())
    assert files_a == files_b
    for rel in files_a:
        assert (tmp_path / "a" / rel).read_bytes() == \
            (tmp_path / "b" / rel).read_bytes(), rel


def test_generated_corpus_reparses_without_warnings(tmp_path):
    corpus = generate(SMALL, tmp_path)
    assert all(rec.warnings == () for rec in corpus.records)


def test_generated_corpus_shape(tmp_path):
    cfg = SynthConfig(n_participants=10, transcripts_per_participant=2,
                      ad_fraction=0.6, embed_dim=8, seed=1)
    corpus = generate(cfg, tmp_path)
    assert len(corpus.records) == 20
    ad = [r for r in corpus.records if r.label is Label.AD]
    ct = [r for r in corpus.records if r.label is Label.CT]
    assert len({r.participant_id for r in ad}) == 6
    assert len({r.participant_id for r in ct}) == 4
    assert all(r.participant_id.startswith("A") for r in ad)
    assert all(r.participant_id.startswith("C") for r in ct)
    # both visits of a participant share one file-stem prefix
    visits = [r for r in corpus.records if r.participant_id == ad[0].participant_id]
    assert len(visits) == 2


def test_generated_demographics_are_complete(tmp_path):
    corpus = generate(SMALL, tmp_path)
    for rec in corpus.records:
        assert rec.demographics.age is not None
        assert 30 <= rec.demographics.age <= 110
        assert rec.demographics.gender in (Gender.FEMALE, Gender.MALE)


def test_support_files_load(tmp_path):
    corpus = generate(SMALL, tmp_path)
    lexicons = load_lexicon_dir(tmp_path / "lexicons")
    table = load_embeddings(tmp_path / "embeddings.txt")
    assert table.dim == SMALL.embed_dim
    for entry in DEFAULT_VOCAB + FILLER_VOCAB:
        assert entry.word in table
        assert lexicons.matrix[lexicons.rows[entry.word], 5:].all()   # in all five lexicons
    manifest = (tmp_path / "manifest.jsonl").read_text().splitlines()
    assert len(manifest) == len(corpus.records)


def test_embeddings_shared_across_differently_seeded_corpora(tmp_path):
    generate(SynthConfig(n_participants=4, embed_dim=8, seed=1), tmp_path / "a")
    generate(SynthConfig(n_participants=4, embed_dim=8, seed=2), tmp_path / "b")
    assert (tmp_path / "a" / "embeddings.txt").read_bytes() == \
        (tmp_path / "b" / "embeddings.txt").read_bytes()


def _filler_fraction(records):
    fillers = {v.word for v in FILLER_VOCAB}
    n_fill = n_tok = 0
    for rec in records:
        for tok in tokenize(extract_participant_text(rec)).tokens:
            n_tok += 1
            n_fill += tok in fillers
    assert n_tok >= 10_000
    return n_fill / n_tok


def test_filler_rates_recoverable_from_token_stream(tmp_path):
    cfg = SynthConfig(n_participants=240, ad_fraction=0.5,
                      mean_length_ad=100.0, mean_length_ct=100.0,
                      embed_dim=4, seed=9)
    corpus = generate(cfg, tmp_path)
    ad = [r for r in corpus.records if r.label is Label.AD]
    ct = [r for r in corpus.records if r.label is Label.CT]
    assert _filler_fraction(ad) == pytest.approx(cfg.filler_rate_ad, abs=0.02)
    assert _filler_fraction(ct) == pytest.approx(cfg.filler_rate_ct, abs=0.02)
