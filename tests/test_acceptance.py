"""Release gate: the eight must-hold behaviors, one verdict line each.

Run with ``-s`` to see the verdict lines on success; pytest shows them
anyway whenever a gate fails. The slow tests (synthetic benchmark,
class-weight comparison) stay within a couple of minutes combined.
"""

import dataclasses
import time

import numpy as np
import pytest
import yaml

from alzdetect import chat_corpus, lexical_features, model, synthgen, text_pipeline
from alzdetect.autodiff import Tape, backward
from alzdetect.cli import main
from alzdetect.evaluation import (
    ConfusionCounts,
    SplitSpec,
    ablate,
    auc_pair,
    compare_variants,
    metrics,
    run_experiment,
    split,
)
from helpers import auc_trapezoid, gradcheck, make_instances


def _verdict(tag: str, ok: bool, detail: str):
    print(f"acceptance[{tag}]: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{tag}: {detail}"


TINY = model.ModelConfig(
    seq_len=5, embed_dim=4, pos_dim=3, conv_filters=2, conv_kernel=3,
    lstm_hidden=3, attention_dim=3, dense_units=4, dropout_rate=0.0,
    batch_size=8, max_epochs=2, patience=1, seed=0,
)


@pytest.fixture(scope="module")
def tagger():
    return text_pipeline.default_tagger()


def _encode_dir(out_dir, corpus, tagger, budget):
    table = lexical_features.load_embeddings(out_dir / "embeddings.txt")
    lexicons = lexical_features.load_lexicon_dir(out_dir / "lexicons")
    return table, lexicons, lexical_features.encode_corpus(
        corpus, table, lexicons, tagger, budget=budget)


# 1 -------------------------------------------------------------------------


def test_gradients_match_finite_differences_on_full_graph():
    """Analytic gradients of forward + weighted BCE vs central differences."""
    weights = model.ClassWeights(0.7, 1.9)
    start = time.time()
    worst = 0.0
    failure = None
    for draw in range(100):
        rng = np.random.default_rng(1000 + draw)
        params = model.init_params(TINY, rng)
        emb, pos, feats, mask, labels = model._stack_instances(
            TINY, make_instances(TINY, 3, rng))

        def build():
            prob, _ = model._forward_graph(params, TINY, emb, pos, feats,
                                           mask, training=False, rng=None)
            return model.weighted_bce(prob, labels, weights)

        try:
            worst = max(worst, gradcheck(build, list(params.values()),
                                         coords_per_param=2, rng=rng,
                                         rtol=1e-4))
        except AssertionError as exc:
            failure = str(exc)
            break
    elapsed = time.time() - start
    ok = failure is None and worst < 1e-4 and elapsed < 60.0
    _verdict("gradients", ok,
             failure or f"worst rel err {worst:.2e} over 100 draws, "
                        f"{elapsed:.1f}s (bounds 1e-4, 60s)")


# 2 -------------------------------------------------------------------------


@pytest.mark.slow
def test_synthetic_benchmark_separates_classes_and_null_is_chance(
        tmp_path, tagger):
    """Default benchmark corpus is learnable; the null corpus is not."""
    start = time.time()
    out = tmp_path / "bench"
    corpus = synthgen.generate(synthgen.SynthConfig(seed=42), out)
    table, lexicons, instances = _encode_dir(out, corpus, tagger, 73)

    cfg = model.variant_config("OURS-Att-w", model.ModelConfig())
    result = run_experiment(instances, cfg, seeds=[42], variant="OURS-Att-w")
    f1, auc = result.mean.f1, result.mean.auc

    # Null corpus: train on one draw, score a larger fresh draw so the
    # chance-level band is tight enough to be meaningful.
    null_out = tmp_path / "null"
    null_corpus = synthgen.generate(synthgen.null_signal_config(300, seed=42),
                                    null_out)
    _, _, null_inst = _encode_dir(null_out, null_corpus, tagger, 73)
    train, val, _ = split(null_inst, SplitSpec(seed=42))
    null_cfg = model.variant_config("OURS-Att-w", model.ModelConfig(seed=42))
    params, _ = model.fit(null_cfg, train, val)

    fresh_out = tmp_path / "null_fresh"
    fresh = synthgen.generate(synthgen.null_signal_config(400, seed=1042),
                              fresh_out)
    fresh_inst = lexical_features.encode_corpus(fresh, table, lexicons,
                                                tagger, budget=73)
    scores = model.predict(params, null_cfg, fresh_inst)
    labels = np.array([i.label for i in fresh_inst])
    null_auc = auc_pair(labels, scores)

    elapsed = time.time() - start
    ok = f1 >= 0.95 and auc >= 0.97 and 0.4 <= null_auc <= 0.6 and elapsed < 600
    _verdict("benchmark", ok,
             f"f1 {f1:.4f} (>=0.95), auc {auc:.4f} (>=0.97), "
             f"null auc {null_auc:.4f} (0.5+-0.1), {elapsed:.0f}s (<600s)")


# 3 -------------------------------------------------------------------------


def test_metric_oracles_averaged_counts_and_auc_equality():
    """Frozen reference counts reproduce the expected scores; the two AUC
    estimators agree exactly on random score sets."""
    report = metrics(ConfusionCounts(tn=6.3, fp=15.6, fn=5.3, tp=102.6))
    acc_ok = abs(report.accuracy - 0.8384) <= 0.01
    prec_ok = abs(report.precision - 0.8683) <= 0.01

    rng = np.random.default_rng(33)
    mismatches = 0
    for trial in range(1000):
        n = int(rng.integers(2, 40))
        labels = rng.integers(0, 2, size=n)
        labels[0], labels[1] = 0, 1
        if trial % 2:
            scores = rng.uniform(size=n)
        else:
            scores = rng.integers(0, 5, size=n) / 4.0   # tie-heavy
        if auc_pair(labels, scores) != auc_trapezoid(labels, scores):
            mismatches += 1

    ok = acc_ok and prec_ok and mismatches == 0
    _verdict("metric-oracles", ok,
             f"accuracy {report.accuracy:.4f} vs 0.8384, precision "
             f"{report.precision:.4f} vs 0.8683 (+-0.01); "
             f"{mismatches}/1000 AUC mismatches")


# 4 -------------------------------------------------------------------------


def test_variant_grid_wiring():
    """Six variants, unused attention gets zero gradient, and disabling the
    feature vector makes the output bitwise independent of it."""
    rng = np.random.default_rng(4)
    instances = make_instances(TINY, 24, rng, separation=0.5)
    results = compare_variants(instances, seeds=[0], base=TINY)
    names = [r.variant for r in results]
    names_ok = names == ["C-LSTM", "C-LSTM-Att", "C-LSTM-Att-w",
                         "OURS", "OURS-Att", "OURS-Att-w"]
    dims_ok = [r.feature_dim for r in results] == [0, 0, 0, 7, 7, 7]

    plain_cfg = model.variant_config("C-LSTM", TINY)
    params = model.init_params(plain_cfg, np.random.default_rng(5))
    emb, pos, feats, mask, labels = model._stack_instances(plain_cfg,
                                                           instances[:6])
    for p in params.values():
        p.zero_grad()
    with Tape() as tape:
        prob, _ = model._forward_graph(params, plain_cfg, emb, pos, feats,
                                       mask, training=False, rng=None)
        backward(tape, model.weighted_bce(prob, labels))
    attn = [p for p in params.values() if p.name.startswith("attn")]
    attn_ok = bool(attn) and all(np.all(p.grad == 0.0) for p in attn)

    scores = model.predict(params, plain_cfg, instances[:6])
    shuffled = [dataclasses.replace(i, features=rng.uniform(size=7))
                for i in instances[:6]]
    invariant = np.array_equal(scores,
                               model.predict(params, plain_cfg, shuffled))

    ok = names_ok and dims_ok and attn_ok and invariant
    _verdict("variant-grid", ok,
             f"rows {names}, feature dims ok={dims_ok}, "
             f"zero attn grads={attn_ok}, feature-invariant={invariant}")


# 5 -------------------------------------------------------------------------


@pytest.mark.slow
def test_class_weighting_reduces_false_positives(tmp_path, tagger):
    """On an imbalanced, partly separable corpus the weighted run must make
    strictly fewer false positives than the unweighted run, same seeds."""
    weight_pair = model.compute_class_weights(1049, 243)
    values_ok = (abs(weight_pair.w_ad - 0.6158) < 1e-4
                 and abs(weight_pair.w_ct - 2.6584) < 1e-4)

    scfg = synthgen.SynthConfig(
        n_participants=260, ad_fraction=0.81,
        filler_rate_ad=0.11, filler_rate_ct=0.045,
        mean_length_ad=74.0, mean_length_ct=84.0, length_sd=14.0,
        mean_age_ad=69.0, mean_age_ct=66.0, age_sd=8.0,
        embed_dim=50, seed=7,
    )
    out = tmp_path / "imbalanced"
    corpus = synthgen.generate(scfg, out)
    _, _, instances = _encode_dir(out, corpus, tagger, 40)

    base = model.ModelConfig(seq_len=40, embed_dim=50, conv_filters=32,
                             lstm_hidden=32, attention_dim=32, dense_units=32,
                             batch_size=32, max_epochs=30, patience=5,
                             learning_rate=5e-4)
    seeds = [0, 1, 2]
    fp_sums = {}
    for name in ("C-LSTM-Att", "C-LSTM-Att-w"):
        cfg = model.variant_config(name, base)
        result = run_experiment(instances, cfg, seeds=seeds, variant=name)
        fp_sums[name] = sum(r.counts.fp for r in result.per_seed)

    fewer = fp_sums["C-LSTM-Att-w"] < fp_sums["C-LSTM-Att"]
    ok = values_ok and fewer
    _verdict("class-weights", ok,
             f"weights ({weight_pair.w_ad:.4f}, {weight_pair.w_ct:.4f}) vs "
             f"(0.6158, 2.6584); summed FP over seeds {seeds}: "
             f"unweighted {fp_sums['C-LSTM-Att']:.0f} -> "
             f"weighted {fp_sums['C-LSTM-Att-w']:.0f}")


# 6 -------------------------------------------------------------------------


def test_chat_round_trip_pos_rows_and_attention_mass(tmp_path, tagger):
    """Generated CHAT files parse back; every encoded instance is exactly
    73 tokens with stochastic POS rows and unit attention mass off-pad."""
    out = tmp_path / "small"
    corpus = synthgen.generate(synthgen.SynthConfig(
        n_participants=30, embed_dim=16, seed=3), out)
    lengths_ok = all(
        len(text_pipeline.fix_length(
            text_pipeline.tokenize(
                chat_corpus.extract_participant_text(r)), 73).tokens) == 73
        for r in corpus.records)

    _, _, instances = _encode_dir(out, corpus, tagger, 73)
    shapes_ok = all(i.embeddings.shape == (73, 16) for i in instances)
    pos_ok = all(np.allclose(i.pos_onehot.sum(axis=1), 1.0)
                 for i in instances)

    cfg = model.ModelConfig(seq_len=73, embed_dim=16, conv_filters=4,
                            lstm_hidden=4, attention_dim=4, dense_units=4,
                            dropout_rate=0.0)
    params = model.init_params(cfg, np.random.default_rng(6))
    mass_ok = zero_ok = True
    for inst in instances:
        alpha = model.score_instance(params, cfg, inst)[1]
        mass_ok &= abs(alpha.sum() - 1.0) <= 1e-9
        zero_ok &= bool(np.all(alpha[inst.mask == 0.0] == 0.0))

    ok = lengths_ok and shapes_ok and pos_ok and mass_ok and zero_ok
    _verdict("round-trip", ok,
             f"all 73 tokens={lengths_ok}, pos rows sum 1={pos_ok}, "
             f"attention mass 1+-1e-9={mass_ok}, zeros at pads={zero_ok}")


# 7 -------------------------------------------------------------------------


def test_comparison_report_byte_determinism(tmp_path):
    """`compare` twice with one config writes byte-identical CSVs."""
    corpus_dir = tmp_path / "corpus"
    synth_cfg = {
        "corpus_dir": str(corpus_dir), "output_dir": str(corpus_dir),
        "embeddings": str(corpus_dir / "embeddings.txt"),
        "lexicons": str(corpus_dir / "lexicons"),
        "synth": {"n_participants": 24, "ad_fraction": 0.5, "embed_dim": 8,
                  "seed": 0, "mean_length_ad": 14.0, "mean_length_ct": 22.0,
                  "length_sd": 4.0},
    }
    path = tmp_path / "synth.yaml"
    path.write_text(yaml.safe_dump(synth_cfg))
    assert main(["synth", str(path)]) == 0

    blobs = []
    for run in ("a", "b"):
        out_dir = tmp_path / run
        cfg = {
            "corpus_dir": str(corpus_dir), "output_dir": str(out_dir),
            "embeddings": str(corpus_dir / "embeddings.txt"),
            "lexicons": str(corpus_dir / "lexicons"),
            "seeds": [0],
            "model": {"seq_len": 20, "conv_filters": 2,
                      "lstm_hidden": 3, "attention_dim": 3, "dense_units": 4,
                      "dropout_rate": 0.0, "batch_size": 16, "max_epochs": 2},
        }
        run_path = tmp_path / f"{run}.yaml"
        run_path.write_text(yaml.safe_dump(cfg))
        assert main(["compare", str(run_path)]) == 0
        blobs.append((out_dir / "compare.csv").read_bytes())

    ok = blobs[0] == blobs[1] and len(blobs[0]) > 0
    _verdict("determinism", ok,
             f"two compare runs, {len(blobs[0])} bytes, identical={ok}")


# 8 -------------------------------------------------------------------------


def test_ablation_grid_labels_and_dimensions():
    """Dropping one feature group at a time yields the three expected rows
    with 3-, 6- and 5-dimensional feature vectors."""
    rng = np.random.default_rng(8)
    instances = make_instances(TINY, 24, rng, separation=0.5)
    results = ablate(instances, seeds=[0], base=TINY)
    labels = [r.variant for r in results]
    dims = [r.feature_dim for r in results]
    ok = labels == ["No Psych.", "No Sent.", "No Demo."] and dims == [3, 6, 5]
    _verdict("ablation", ok, f"rows {labels}, feature dims {dims}")
