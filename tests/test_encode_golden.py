"""The exact bytes of ``encode_corpus`` on a seeded synthetic corpus.

``perfbench``'s digest compares the feature matrix only within a relative
tolerance; this golden pins every byte of every encoded instance: its ids
and label, its gathered embedding rows, POS one-hots, features and mask.
Long transcripts are cut at the 73-token budget and short ones padded, so
both paths are covered. Regenerate the golden only for a change that means
to move the encoding, and say so where the change is recorded."""

import hashlib
from pathlib import Path

import numpy as np

from alzdetect import synthgen
from alzdetect.chat_corpus import load_corpus
from alzdetect.lexical_features import encode_corpus, load_embeddings, load_lexicon_dir
from alzdetect.text_pipeline import default_tagger

GOLDEN = Path(__file__).resolve().parent / "golden" / "encode_corpus.txt"
CORPUS = synthgen.SynthConfig(n_participants=60, transcripts_per_participant=2,
                              embed_dim=16, seed=7)
BUDGET = 73


def encode_digest(instances) -> str:
    h = hashlib.sha256()
    for inst in instances:
        h.update(f"{inst.transcript_id}|{inst.participant_id}|{inst.label}|".encode())
        for arr in (np.asarray(inst.embeddings), inst.pos_onehot, inst.features, inst.mask):
            h.update(f"{arr.dtype.str}{arr.shape}|".encode())
            h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def test_encode_corpus_matches_its_golden_bytes(tmp_path):
    synthgen.generate(CORPUS, tmp_path)
    instances = encode_corpus(load_corpus(tmp_path), load_embeddings(tmp_path / "embeddings.txt"),
                              load_lexicon_dir(tmp_path / "lexicons"), default_tagger(), BUDGET)
    lengths = [int(inst.mask.sum()) for inst in instances]
    assert min(lengths) < BUDGET == max(lengths), "the corpus must pad some and cut some"
    assert encode_digest(instances) == GOLDEN.read_text().strip()
