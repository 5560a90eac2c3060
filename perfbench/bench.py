"""The three benchmark workloads: their inputs, set-up, one operation, and
the check of each operation's output against references recorded from the
seed commit.

  train   one researcher's compare/ablate loop: ``model.fit`` of OURS-Att-w
          on the README's 300-participant corpus. ``autodiff`` does the work.
  score   one screener in a closed loop: read -> parse -> encode -> predict,
          one transcript at a time (B=1). The forward pass runs on no tape.
  ingest  ``load_corpus`` + ``encode_corpus`` over 900 transcripts with a
          GloVe-shaped 300-d table. No model; the front half of every command.

All calls into the package go through module attributes (``model.fit``, not
a name imported from it), so the tracer in ``tracer.py`` sees them.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from alzdetect import autodiff, chat_corpus, evaluation, lexical_features, model, synthgen, text_pipeline
from alzdetect.model import ModelConfig
from alzdetect.synthgen import SynthConfig

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"

# References are recorded for input sets 0..INPUT_SETS-1; seed n runs set n % INPUT_SETS.
INPUT_SETS = 16
VARIANT = "OURS-Att-w"
README_CORPUS_SEED = 42        # synth.seed of configs/default.yaml
SPLIT_SEED = 0

# Tolerances against the references. A change that reorders float64 sums
# (fused kernels, another BLAS blocking) moves results by ~1e-13; a bug
# moves them by far more.
LOSS_RTOL = 1e-7
PROB_ATOL = 1e-9
FEATURE_RTOL = 1e-9


@dataclass(frozen=True)
class Scale:
    model: ModelConfig          # dims of the train and score models
    synth: SynthConfig          # corpus shape; participants and seed set per workload
    train_participants: int
    score_participants: int
    ingest_participants: int
    ingest_visits: int          # transcripts per ingest participant
    distractors: int            # extra words in the ingest embedding table


SCALES = {
    "full": Scale(model=ModelConfig(), synth=SynthConfig(),
                  train_participants=300, score_participants=100,
                  ingest_participants=300, ingest_visits=3, distractors=20_000),
    # seconds-scale, for the self-test; same shapes as configs/smoke.yaml
    "toy": Scale(model=ModelConfig(seq_len=20, embed_dim=8, conv_filters=2,
                                   lstm_hidden=3, attention_dim=3, dense_units=4,
                                   batch_size=16),
                 synth=SynthConfig(ad_fraction=0.5, embed_dim=8, mean_length_ad=14.0,
                                   mean_length_ct=22.0, length_sd=4.0),
                 train_participants=24, score_participants=6,
                 ingest_participants=8, ingest_visits=2, distractors=200),
}


def load_references(scale: str, workload: str, input_set: int) -> dict | None:
    if not REFERENCE_FILE.exists():
        return None
    refs = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
    return refs.get(scale, {}).get(workload, {}).get(str(input_set))


def _resources(embeddings: Path, lexicon_dir: Path):
    table = lexical_features.load_embeddings(embeddings)
    lexicons = lexical_features.load_lexicon_dir(lexicon_dir)
    return table, lexicons, text_pipeline.default_tagger()


def shape_counts(corpus, table, tagger, budget: int) -> dict:
    """Input-shape counts of a corpus as the encoder sees it; exact integers
    and ratios of integers, so they repeat exactly from run to run."""
    n = tokens = padded = truncated = oov = hits = warnings = 0
    for rec in corpus.records:
        seq = text_pipeline.tokenize(chat_corpus.extract_participant_text(rec))
        real = seq.tokens[:budget]
        n += 1
        tokens += len(real)
        padded += seq.original_length < budget
        truncated += seq.original_length > budget
        oov += sum(w not in table for w in real)
        hits += sum(w in tagger.tagdict for w in real)
        warnings += len(rec.warnings)
    return {"transcripts": n, "tokens_tagged": tokens,
            "padded_ratio": padded / n, "truncated_ratio": truncated / n,
            "oov_ratio": oov / tokens, "tagdict_hit_ratio": hits / tokens,
            "parser_warnings": warnings}


class Workload:
    name = ""
    checkpoints = ()           # (owner, attribute) pairs called often inside one operation

    def __init__(self, scale: str, input_set: int):
        self.scale = SCALES[scale]
        self.input_set = input_set
        # one full epoch per train operation, so early stopping never ends a fit early
        self.config = model.variant_config(VARIANT, replace(
            self.scale.model, max_epochs=1, patience=1, seed=input_set))

    def round_size(self, state) -> int:
        """Operations that cover the workload's input once."""
        return 1


class Train(Workload):
    name = "train"
    checkpoints = ((autodiff, "matmul"), (autodiff.Adam, "step"))

    def generate(self, root: Path):
        synthgen.generate(replace(self.scale.synth, n_participants=self.scale.train_participants,
                                  seed=README_CORPUS_SEED), root)

    def setup(self, root: Path):
        table, lexicons, tagger = _resources(root / "embeddings.txt", root / "lexicons")
        corpus = chat_corpus.load_corpus(root)
        instances = lexical_features.encode_corpus(corpus, table, lexicons, tagger,
                                                   budget=self.config.seq_len)
        train, val, _ = evaluation.split(instances, evaluation.SplitSpec(seed=SPLIT_SEED))
        return SimpleNamespace(table=table, tagger=tagger, train=train, val=val)

    def items(self, state) -> int:
        """Training examples one operation processes."""
        return len(state.train)

    def op(self, state, i: int):
        _, log = model.fit(self.config, state.train, state.val)
        return [[row.train_loss, row.val_loss] for row in log]

    def check(self, out, ref: dict, i: int) -> bool:
        want = np.array(ref["losses"])
        got = np.array(out)
        return got.shape == want.shape and bool(np.allclose(got, want, rtol=LOSS_RTOL, atol=0.0))

    def reference(self, outs: list) -> dict:
        return {"losses": outs[0]}


class Score(Workload):
    name = "score"

    def generate(self, root: Path):
        synthgen.generate(replace(self.scale.synth, n_participants=self.scale.score_participants,
                                  seed=self.input_set), root)
        params = model.init_params(self.config, np.random.default_rng(self.input_set))
        model.save(params, self.config, root / "model.bin")

    def setup(self, root: Path):
        table, lexicons, tagger = _resources(root / "embeddings.txt", root / "lexicons")
        params, config = model.load(root / "model.bin")
        paths = sorted((root / "ad").glob("*.cha")) + sorted((root / "ct").glob("*.cha"))
        return SimpleNamespace(table=table, lexicons=lexicons, tagger=tagger,
                               params=params, config=config, paths=paths)

    def round_size(self, state) -> int:
        return len(state.paths)

    def items(self, state) -> int:
        return 1

    def op(self, state, i: int) -> float:
        path = state.paths[i % len(state.paths)]
        # the label is a placeholder, as in `alzdetect predict`
        record = chat_corpus.parse_chat_file(
            path.read_text(encoding="utf-8"), chat_corpus.Label.CT,
            transcript_id=path.stem, participant_id=path.stem.split("-")[0])
        instance = lexical_features.encode_record(record, state.table, state.lexicons,
                                                  state.tagger, budget=state.config.seq_len)
        return float(model.predict(state.params, state.config, [instance])[0])

    def check(self, out, ref: dict, i: int) -> bool:
        want = ref["probabilities"]
        return abs(out - want[i % len(want)]) <= PROB_ATOL

    def reference(self, outs: list) -> dict:
        return {"probabilities": outs}


class Ingest(Workload):
    name = "ingest"
    checkpoints = ((chat_corpus, "parse_chat_file"), (lexical_features, "encode_record"))

    def generate(self, root: Path):
        synth = replace(self.scale.synth, n_participants=self.scale.ingest_participants,
                        transcripts_per_participant=self.scale.ingest_visits,
                        seed=self.input_set)
        synthgen.generate(synth, root)
        write_glove_table(synth, self.scale.distractors, self.input_set, root / "glove.txt")

    def setup(self, root: Path):
        table, lexicons, tagger = _resources(root / "glove.txt", root / "lexicons")
        n = len(list(root.glob("ad/*.cha"))) + len(list(root.glob("ct/*.cha")))
        return SimpleNamespace(root=root, table=table, lexicons=lexicons, tagger=tagger, n=n)

    def items(self, state) -> int:
        return state.n

    def op(self, state, i: int) -> dict:
        corpus = chat_corpus.load_corpus(state.root)
        return lexical_features.encode_corpus(corpus, state.table, state.lexicons,
                                              state.tagger, budget=self.config.seq_len)

    def check(self, out, ref: dict, i: int) -> bool:
        got = digest(out)
        return (got["arrays"] == ref["arrays"]
                and np.allclose(got["features"], ref["features"], rtol=FEATURE_RTOL, atol=0.0))

    def reference(self, outs: list) -> dict:
        return digest(outs[0])


WORKLOADS = {w.name: w for w in (Train, Score, Ingest)}


def digest(instances) -> dict:
    """Exact hash of ids, labels, embeddings, POS one-hots and masks, plus
    feature-matrix moments compared within FEATURE_RTOL (lexicon means are
    float sums whose order an optimisation may change)."""
    h = hashlib.blake2b(digest_size=16)
    for inst in instances:
        h.update(f"{inst.transcript_id}|{inst.participant_id}|{inst.label}|".encode())
        for arr in (inst.embeddings, inst.pos_onehot, inst.mask):
            h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    feats = np.stack([inst.features for inst in instances])
    weights = np.arange(1, len(instances) + 1, dtype=np.float64)[:, None]
    return {"arrays": h.hexdigest(),
            "features": np.concatenate([feats.sum(0), (feats * weights).sum(0)]).tolist()}


def write_glove_table(synth: SynthConfig, distractors: int, seed: int, path: Path):
    """GloVe-shaped text table: the synthetic vocabulary (synthgen's vectors)
    at seeded positions among seeded random distractor words."""
    rng = np.random.default_rng(seed)
    vocab = [v.word for v in synth.vocab + synthgen.FILLER_VOCAB]
    words: set[str] = set(vocab)
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
    extra: list[str] = []
    while len(extra) < distractors:
        word = "".join(letters[rng.integers(0, 26, size=int(rng.integers(4, 11)))])
        if word not in words:
            words.add(word)
            extra.append(word)
    order = extra + vocab
    positions = rng.permutation(len(order))
    vectors = rng.normal(0.0, synthgen.EMBED_SCALE, size=(len(order), synth.embed_dim))
    row = " ".join(["%.6f"] * synth.embed_dim)
    with open(path, "w", encoding="utf-8") as fh:
        for k in positions:
            word = order[k]
            vec = (synthgen.word_embedding(word, synth.embed_dim) if k >= distractors
                   else vectors[k])
            fh.write(word + " " + row % tuple(vec) + "\n")


def input_counts(workload: Workload, root: Path, state) -> dict:
    """Shape counts of the workload's input, computed once outside timing."""
    corpus = chat_corpus.load_corpus(root)
    return shape_counts(corpus, state.table, state.tagger, workload.config.seq_len)
