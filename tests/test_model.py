"""Classifier graph: structure, gradients, training loop, serialization."""

import math
import os
import platform
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from alzdetect import model, synthgen
from alzdetect.autodiff import Adam, Parameter, Tape, backward
from alzdetect.chat_corpus import DataError
from alzdetect.lexical_features import (
    OOV_ROW,
    EncodedInstance,
    TableRows,
    encode_corpus,
    load_embeddings,
    load_lexicon_dir,
)
from alzdetect.model import (
    UNIT_WEIGHTS,
    VARIANTS,
    ClassWeights,
    Diverged,
    ModelConfig,
    active_feature_indices,
    classify,
    compute_class_weights,
    fit,
    init_params,
    load,
    predict,
    save,
    variant_config,
    weighted_bce,
)
from alzdetect.text_pipeline import TAGSET, default_tagger
from helpers import gradcheck, make_instances, rows_of_one_table, save_edited_model

TINY = ModelConfig(seq_len=5, embed_dim=4, pos_dim=3, conv_filters=2,
                   conv_kernel=3, lstm_hidden=3, attention_dim=3,
                   dense_units=4, dropout_rate=0.0, batch_size=4,
                   max_epochs=3, seed=0)


# ---------------------------------------------------------------------------
# config and variants


def test_default_pos_width_is_the_tagset():
    assert ModelConfig().pos_dim == len(TAGSET) == 37


def test_config_rejects_even_kernel():
    with pytest.raises(ValueError):
        ModelConfig(conv_kernel=2)


def test_config_rejects_bad_dropout_and_patience():
    with pytest.raises(ValueError):
        ModelConfig(dropout_rate=1.0)
    with pytest.raises(ValueError):
        ModelConfig(patience=-1)


def test_config_rejects_unknown_feature_group():
    with pytest.raises(ValueError):
        ModelConfig(feature_mask=("psych", "typo"))


def test_variant_table():
    assert list(VARIANTS) == ["C-LSTM", "C-LSTM-Att", "C-LSTM-Att-w",
                              "OURS", "OURS-Att", "OURS-Att-w"]
    base = variant_config("C-LSTM", TINY)
    assert not base.use_attention and not base.use_class_weights
    assert base.feature_mask == ()
    full = variant_config("OURS-Att-w", TINY)
    assert full.use_attention and full.use_class_weights
    assert full.feature_mask == TINY.feature_mask
    masked = replace(TINY, feature_mask=("sent",))
    assert variant_config("OURS", masked).feature_mask == ("sent",)
    assert variant_config("C-LSTM-Att", masked).feature_mask == ()
    with pytest.raises(KeyError):
        variant_config("nope", TINY)


def test_active_feature_indices():
    assert active_feature_indices(TINY) == (0, 1, 2, 3, 4, 5, 6)
    no_feat = variant_config("C-LSTM", TINY)
    assert active_feature_indices(no_feat) == ()
    masked = ModelConfig(feature_mask=("sent", "demo"))
    assert active_feature_indices(masked) == (4, 5, 6)
    no_demo = ModelConfig(feature_mask=("psych", "sent"))
    assert active_feature_indices(no_demo) == (0, 1, 2, 3, 4)


# ---------------------------------------------------------------------------
# parameter structure


def test_attention_params_exist_under_every_flag_setting():
    for name in VARIANTS:
        cfg = variant_config(name, TINY)
        params = init_params(cfg, np.random.default_rng(0))
        assert "attn_w" in params and "attn_u" in params, name


def test_backward_lstm_params_only_when_bidirectional():
    # attention reads a BiLSTM; without it there is one forward LSTM
    uni = init_params(variant_config("C-LSTM", TINY), np.random.default_rng(0))
    bi = init_params(TINY, np.random.default_rng(0))
    assert "lstm_bwd_wx" not in uni and "lstm_bwd_wx" in bi
    assert uni["attn_w"].shape == (TINY.lstm_hidden, TINY.attention_dim)


def test_dense_input_width_tracks_active_features():
    full = init_params(TINY, np.random.default_rng(0))
    bare = init_params(variant_config("C-LSTM-Att", TINY), np.random.default_rng(0))
    assert full["dense_w"].shape == (2 * TINY.lstm_hidden + 7, TINY.dense_units)
    assert bare["dense_w"].shape == (2 * TINY.lstm_hidden, TINY.dense_units)


def test_forget_gate_bias_starts_open():
    params = init_params(TINY, np.random.default_rng(0))
    h = TINY.lstm_hidden
    b = params["lstm_fwd_b"].data
    assert np.all(b[h:2 * h] == 1.0)
    assert np.all(b[:h] == 0.0)


def test_init_is_seed_deterministic():
    a = init_params(TINY, np.random.default_rng(5))
    b = init_params(TINY, np.random.default_rng(5))
    for name in a:
        assert np.array_equal(a[name].data, b[name].data)


# ---------------------------------------------------------------------------
# class weights and loss


def test_balanced_counts_give_unit_weights():
    assert compute_class_weights(10, 10) == ClassWeights(1.0, 1.0)


def test_imbalanced_weights_match_formula():
    w = compute_class_weights(1049, 243)
    assert w.w_ad == pytest.approx(0.6158, abs=1e-4)
    assert w.w_ct == pytest.approx(2.6584, abs=1e-4)


def test_zero_class_raises():
    with pytest.raises(DataError, match="need both classes present, got ad=0 ct=5"):
        compute_class_weights(0, 5)
    with pytest.raises(DataError, match="need both classes present, got ad=5 ct=0"):
        compute_class_weights(5, 0)


def test_bce_hand_values():
    assert weighted_bce([0.5], [1.0]).item() == pytest.approx(math.log(2))
    doubled = weighted_bce([0.5], [1.0], ClassWeights(2.0, 1.0))
    assert doubled.item() == pytest.approx(2 * math.log(2), abs=1e-5)
    negative = weighted_bce([0.5], [0.0], ClassWeights(1.0, 3.0))
    assert negative.item() == pytest.approx(3 * math.log(2))


def test_bce_is_a_mean_over_the_batch():
    loss = weighted_bce([0.9, 0.1], [1.0, 0.0])
    assert loss.item() == pytest.approx(-math.log(0.9))


def test_bce_clamps_probabilities():
    loss = weighted_bce([1.0], [0.0])
    assert loss.item() == pytest.approx(-math.log(1e-7))
    assert np.isfinite(weighted_bce([0.0], [1.0]).item())


def test_bce_grows_with_control_weight():
    losses = [weighted_bce([0.7], [0.0], ClassWeights(1.0, w)).item()
              for w in (1.0, 2.0, 4.0)]
    assert losses[0] < losses[1] < losses[2]


def test_bce_shape_mismatch_raises():
    with pytest.raises(ValueError, match=re.escape("labels (1,) vs probabilities (2,)")):
        weighted_bce([0.5, 0.5], [1.0])


# ---------------------------------------------------------------------------
# forward behavior


def test_forward_probability_in_open_interval():
    rng = np.random.default_rng(1)
    params = init_params(TINY, rng)
    for inst in make_instances(TINY, 6, rng):
        p = predict(params, TINY, [inst])[0]
        assert 0.0 < p < 1.0


def test_forward_is_deterministic():
    rng = np.random.default_rng(2)
    params = init_params(TINY, rng)
    inst = make_instances(TINY, 1, rng)[0]
    assert predict(params, TINY, [inst])[0] == predict(params, TINY, [inst])[0]


def test_all_masked_zero_feature_instance_scores_half():
    rng = np.random.default_rng(3)
    params = init_params(TINY, rng)
    [rows] = rows_of_one_table([np.zeros((TINY.seq_len, TINY.embed_dim))])
    inst = EncodedInstance("t", "p", rows,
                           np.zeros((TINY.seq_len, TINY.pos_dim)),
                           np.zeros(7), np.zeros(TINY.seq_len), 0)
    assert predict(params, TINY, [inst])[0] == 0.5


def test_stacking_rejects_wrong_shapes():
    rng = np.random.default_rng(4)
    params = init_params(TINY, rng)
    [rows] = rows_of_one_table([np.zeros((TINY.seq_len, TINY.embed_dim + 1))])
    bad = EncodedInstance("t", "p", rows,
                          np.zeros((TINY.seq_len, TINY.pos_dim)),
                          np.zeros(7), np.ones(TINY.seq_len), 0)
    with pytest.raises(ValueError, match=re.escape("embeddings (5, 5) vs config (5, 4)")):
        predict(params, TINY, [bad])


# ---------------------------------------------------------------------------
# attention


def test_attention_weights_mass_on_real_positions():
    rng = np.random.default_rng(5)
    params = init_params(TINY, rng)
    inst = make_instances(TINY, 1, rng)[0]
    alpha = model.score_instance(params, TINY, inst)[1]
    n_real = int(inst.mask.sum())
    assert alpha.shape == (TINY.seq_len,)
    assert np.all(alpha[n_real:] == 0.0)          # exact zeros at pads
    assert alpha[:n_real].sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(alpha[:n_real] > 0.0)


def test_identical_hidden_states_attend_uniformly():
    rng = np.random.default_rng(6)
    params = init_params(TINY, rng)
    for name in params:
        if name.startswith("lstm_"):
            params[name].data[...] = 0.0   # every timestep's state becomes 0
    inst = make_instances(TINY, 1, rng)[0]
    n_real = int(inst.mask.sum())
    alpha = model.score_instance(params, TINY, inst)[1]
    assert alpha[:n_real] == pytest.approx(np.full(n_real, 1.0 / n_real), abs=1e-15)
    assert np.all(alpha[n_real:] == 0.0)


@pytest.mark.parametrize("variant", ["C-LSTM", "OURS-Att-w"])
def test_score_instance_matches_predict_and_weighs_only_with_attention(variant):
    cfg = variant_config(variant, TINY)
    params = init_params(cfg, np.random.default_rng(0))
    inst = make_instances(cfg, 1, np.random.default_rng(0))[0]
    prob, alpha = model.score_instance(params, cfg, inst)
    assert prob.tobytes() == predict(params, cfg, [inst]).tobytes()
    assert (alpha is None) == (not cfg.use_attention)


# ---------------------------------------------------------------------------
# gradient correctness (finite-difference oracle over the whole graph)


def _graph_loss(params, cfg, instances, weights=UNIT_WEIGHTS):
    emb, pos, feats, mask, labels = model._stack_instances(cfg, instances)

    def build():
        prob, _ = model._forward_graph(params, cfg, emb, pos, feats, mask,
                                       training=False, rng=None)
        return weighted_bce(prob, labels, weights)

    return build


def test_full_graph_gradients_bidirectional_attention():
    rng = np.random.default_rng(7)
    params = init_params(TINY, rng)
    instances = make_instances(TINY, 3, rng)
    build = _graph_loss(params, TINY, instances, ClassWeights(0.7, 1.9))
    worst = gradcheck(build, list(params.values()))
    assert worst < 1e-4


def test_full_graph_gradients_plain_variant():
    cfg = variant_config("C-LSTM", TINY)
    rng = np.random.default_rng(8)
    params = init_params(cfg, rng)
    instances = make_instances(cfg, 3, rng)
    worst = gradcheck(_graph_loss(params, cfg, instances), list(params.values()))
    assert worst < 1e-4


def _step_bytes(cfg, batch, training):
    """Probabilities and parameter gradients of one class-weighted step, as bytes."""
    params = init_params(cfg, np.random.default_rng(21))
    emb, pos, feats, mask, labels = model._stack_instances(cfg, batch)
    with Tape() as tape:
        prob, _ = model._forward_graph(params, cfg, emb, pos, feats, mask,
                                       training=training, rng=np.random.default_rng(3))
        backward(tape, weighted_bce(prob, labels, ClassWeights(0.7, 1.9)))
    return {"probabilities": prob.data.tobytes(),
            **{p.name: p.grad.tobytes() for p in params.values()}}


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_constants_taking_no_gradient_change_no_parameter_gradient_bit(variant, monkeypatch):
    cfg = variant_config(variant, replace(TINY, seq_len=9, dropout_rate=0.5))
    batch = make_instances(cfg, 8, np.random.default_rng(22))
    gap = np.ones(cfg.seq_len)
    gap[3:6] = 0.0                                   # pads in mid-sequence
    batch[2] = replace(batch[2], mask=gap)
    cases = [(batch, True), (batch, False), (batch[:1], True), (batch[:1], False)]
    plain = [_step_bytes(cfg, b, training) for b, training in cases]
    # every constant of the graph differentiated as if it were trained
    monkeypatch.setattr(model, "constant",
                        lambda data, name=None: Parameter(data, name or "constant"))
    assert [_step_bytes(cfg, b, training) for b, training in cases] == plain


def _dense(batch):
    """The batch with each instance's rows copied out whole, pads as zero
    rows, into one new table."""
    rows = rows_of_one_table([np.asarray(i.embeddings) for i in batch])
    return [replace(i, embeddings=r) for i, r in zip(batch, rows)]


def test_taped_default_dims_step_holds_only_what_backward_reads():
    """A B=32 OURS-Att-w forward pass and its loss, taped, at the default
    dims. Holding every forward array until backward took 73.2 MiB; the
    conv outputs, the attention projection and the alpha-h product that no
    rule reads take 16.4 MiB of that."""
    cfg = variant_config("OURS-Att-w", ModelConfig())
    params = init_params(cfg, np.random.default_rng(29))
    batch = make_instances(cfg, 32, np.random.default_rng(30))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        emb, pos, feats, mask, labels = model._stack_instances(cfg, batch)
        with Tape() as tape:
            prob, _ = model._forward_graph(params, cfg, emb, pos, feats, mask,
                                           training=True, rng=np.random.default_rng(31))
            loss = weighted_bce(prob, labels)
        held = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert held < 62 * 2**20, held / 2**20
    backward(tape, loss)
    assert all(np.isfinite(p.grad).all() for p in params.values())


@pytest.mark.parametrize("training", [True, False])
@pytest.mark.parametrize("size", [1, 8, 32])
def test_table_rows_give_the_bytes_of_dense_copies(size, training):
    cfg = replace(TINY, seq_len=9, dropout_rate=0.5)
    batch = make_instances(cfg, size, np.random.default_rng(23))
    first = batch[0]
    ids = first.embeddings.ids.copy()
    ids[4:] = OOV_ROW                                # padding from mid-sequence on
    mask = np.where(np.arange(cfg.seq_len) < 4, 1.0, 0.0)
    batch[0] = replace(first, embeddings=TableRows(first.embeddings.table, ids), mask=mask)
    assert len({id(i.embeddings.table) for i in batch}) == 1
    assert _step_bytes(cfg, batch, training) == _step_bytes(cfg, _dense(batch), training)


def test_a_batch_of_rows_of_two_tables_is_rejected():
    cfg = replace(TINY, seq_len=9, batch_size=8)
    batch = (make_instances(cfg, 4, np.random.default_rng(24))
             + make_instances(cfg, 4, np.random.default_rng(25)))
    assert len({id(i.embeddings.table) for i in batch}) == 2
    params = init_params(cfg, np.random.default_rng(26))
    with pytest.raises(ValueError, match="rows of one table"):
        predict(params, cfg, batch)


def test_attention_gradient_is_exactly_zero_when_disabled():
    cfg = variant_config("C-LSTM", TINY)
    rng = np.random.default_rng(9)
    params = init_params(cfg, rng)
    instances = make_instances(cfg, 3, rng)
    with Tape() as tape:
        loss = _graph_loss(params, cfg, instances)()
        backward(tape, loss)
    for name in ("attn_w", "attn_b", "attn_u"):
        assert np.all(params[name].grad == 0.0)
    assert np.any(params["dense_w"].grad != 0.0)


def test_backward_leaves_unreached_parameters_without_a_gradient_buffer():
    cfg = variant_config("C-LSTM", TINY)
    rng = np.random.default_rng(9)
    params = init_params(cfg, rng)
    with Tape() as tape:
        backward(tape, _graph_loss(params, cfg, make_instances(cfg, 3, rng))())
    attn = [p for name, p in params.items() if name.startswith("attn")]
    assert len(attn) == 3 and all(p.slot.grad is None for p in attn)
    assert all(p.slot.grad is not None for name, p in params.items()
               if not name.startswith("attn"))
    assert all(np.array_equal(p.grad, np.zeros(p.shape)) for p in attn)


@pytest.mark.parametrize("variant", ["C-LSTM", "OURS-Att-w"])
def test_adam_step_over_lazy_gradients_gives_the_bytes_of_zero_buffers(variant):
    """Parameters whose gradient buffers backward makes step to the bytes of
    parameters that held zero buffers before backward ran."""
    cfg = variant_config(variant, TINY)
    instances = make_instances(cfg, 4, np.random.default_rng(11))

    def step(premade: bool) -> list[bytes]:
        params = init_params(cfg, np.random.default_rng(12))
        if premade:
            # reading a gradient makes its buffer, as zeros
            assert not any(p.grad.any() for p in params.values())
        with Tape() as tape:
            backward(tape, _graph_loss(params, cfg, instances)())
        grads = [p.grad.tobytes() for p in params.values()]
        Adam(cfg.learning_rate).step(list(params.values()))
        return grads + [p.data.tobytes() for p in params.values()]

    assert step(premade=False) == step(premade=True)


def test_disabled_features_leave_predictions_bitwise_unchanged():
    cfg = variant_config("C-LSTM-Att", TINY)   # targeted features off
    rng = np.random.default_rng(10)
    params = init_params(cfg, rng)
    inst = make_instances(cfg, 1, rng)[0]
    base = predict(params, cfg, [inst])[0]
    jittered = EncodedInstance(inst.transcript_id, inst.participant_id,
                               inst.embeddings, inst.pos_onehot,
                               inst.features + 100.0, inst.mask, inst.label)
    assert predict(params, cfg, [jittered])[0] == base


# ---------------------------------------------------------------------------
# training loop


def _fit_cfg(**kw):
    base = dict(seq_len=5, embed_dim=4, pos_dim=3, conv_filters=2,
                conv_kernel=3, lstm_hidden=3, attention_dim=3, dense_units=4,
                dropout_rate=0.0, batch_size=8, max_epochs=6, patience=2,
                learning_rate=0.01, seed=0)
    base.update(kw)
    return ModelConfig(**base)


def test_fit_rejects_empty_sets():
    cfg = _fit_cfg()
    rng = np.random.default_rng(0)
    data = make_instances(cfg, 8, rng)
    with pytest.raises(ValueError):
        fit(cfg, [], data)
    with pytest.raises(ValueError):
        fit(cfg, data, [])


def _expected_epochs(val_losses, patience, max_epochs):
    best, wait = np.inf, 0
    for i, v in enumerate(val_losses, start=1):
        if v < best:
            best, wait = v, 0
        else:
            wait += 1
            if wait > patience:
                return i
    return min(len(val_losses), max_epochs)


def test_early_stopping_matches_reference_walk():
    cfg = _fit_cfg(max_epochs=12, patience=1)
    rng = np.random.default_rng(11)
    train = make_instances(cfg, 16, rng)
    val = make_instances(cfg, 8, rng)
    _, log = fit(cfg, train, val)
    losses = [r.val_loss for r in log]
    assert [r.epoch for r in log] == list(range(1, len(log) + 1))
    assert len(log) == _expected_epochs(losses, cfg.patience, cfg.max_epochs)


def test_patience_zero_stops_after_first_non_improvement():
    cfg = _fit_cfg(max_epochs=20, patience=0)
    rng = np.random.default_rng(12)
    train = make_instances(cfg, 16, rng)
    val = make_instances(cfg, 8, rng)
    _, log = fit(cfg, train, val)
    losses = [r.val_loss for r in log]
    if len(log) < cfg.max_epochs:   # stopped early: last row did not improve
        assert losses[-1] >= min(losses[:-1])
        assert all(v < min([np.inf] + losses[:i]) for i, v in enumerate(losses[:-1]))


def test_fit_returns_best_epoch_params():
    cfg = _fit_cfg(max_epochs=8, patience=3)
    rng = np.random.default_rng(13)
    train = make_instances(cfg, 16, rng, separation=0.5)
    val = make_instances(cfg, 8, rng, separation=0.5)
    params, log = fit(cfg, train, val)
    weights = compute_class_weights(sum(i.label for i in train),
                                    sum(1 - i.label for i in train))
    val_labels = np.array([i.label for i in val], dtype=float)
    refit_loss = weighted_bce(predict(params, cfg, val), val_labels, weights).item()
    assert refit_loss == pytest.approx(min(r.val_loss for r in log), rel=1e-12)


def test_fit_same_seed_identical_logs():
    cfg = _fit_cfg(max_epochs=4, dropout_rate=0.3)
    rng = np.random.default_rng(14)
    train = make_instances(cfg, 16, rng)
    val = make_instances(cfg, 8, rng)
    params_a, log_a = fit(cfg, train, val)
    params_b, log_b = fit(cfg, train, val)
    assert log_a == log_b
    for name in params_a:
        assert np.array_equal(params_a[name].data, params_b[name].data)


def test_training_loss_decreases_on_separable_data():
    cfg = _fit_cfg(max_epochs=3, patience=3, learning_rate=0.02)
    rng = np.random.default_rng(15)
    train = make_instances(cfg, 24, rng, separation=1.5)
    val = make_instances(cfg, 8, rng, separation=1.5)
    _, log = fit(cfg, train, val)
    losses = [r.train_loss for r in log]
    assert len(losses) == 3
    assert losses[0] > losses[1] > losses[2]


def test_single_class_validation_logs_no_auc():
    """An AUC needs both classes, so none is logged rather than a made-up 0.5."""
    cfg = _fit_cfg(max_epochs=2, patience=5)
    rng = np.random.default_rng(16)
    train = make_instances(cfg, 12, rng)
    val = [i for i in make_instances(cfg, 8, rng) if i.label == 1]
    _, log = fit(cfg, train, val)
    assert len(log) == 2 and all(r.val_auc is None for r in log)


def test_exploding_update_raises_diverged():
    cfg = _fit_cfg(learning_rate=1e200, max_epochs=3)
    rng = np.random.default_rng(17)
    train = make_instances(cfg, 8, rng)
    with pytest.raises(Diverged):
        fit(cfg, train, train)


def test_lstm_overflow_inside_fit_raises_diverged(monkeypatch):
    real_init = model.init_params

    def exploding_init(config, rng):
        params = real_init(config, rng)
        params["lstm_fwd_wh"].data[...] = 1e308
        return params

    monkeypatch.setattr(model, "init_params", exploding_init)
    cfg = _fit_cfg(max_epochs=1)
    rng = np.random.default_rng(23)
    train = make_instances(cfg, 8, rng)
    with pytest.raises(Diverged, match="lstm produced a non-finite value"):
        fit(cfg, train, train)


# ---------------------------------------------------------------------------
# prediction


def test_predict_shapes_and_eval_mode():
    cfg = _fit_cfg(dropout_rate=0.5)
    rng = np.random.default_rng(18)
    params = init_params(cfg, rng)
    data = make_instances(cfg, 5, rng)
    a = predict(params, cfg, data)
    b = predict(params, cfg, data)
    assert a.shape == (5,)
    assert np.array_equal(a, b)    # dropout is off outside training
    assert predict(params, cfg, []).shape == (0,)


def test_predict_is_batch_size_invariant():
    rng = np.random.default_rng(19)
    params = init_params(TINY, rng)
    data = make_instances(TINY, 7, rng)
    small = predict(params, replace_batch(TINY, 2), data)
    big = predict(params, replace_batch(TINY, 64), data)
    assert small == pytest.approx(big, abs=1e-12)


def replace_batch(cfg, size):
    from dataclasses import replace
    return replace(cfg, batch_size=size)


# ---------------------------------------------------------------------------
# the padding contract at the default dims: how many pads follow a
# transcript, and which transcripts share its batch, leave its probability
# as it is

# the budgets of the pad-count test; no parameter's shape depends on seq_len
_BUDGETS = (ModelConfig().seq_len, 120)
# batched and B=1 probabilities differed by at most 3 ulps of the larger
# (1.7e-16) on 45 synthetic transcripts, six variants at the default dims
_BATCH_ULPS = 4


@pytest.fixture(scope="module")
def short_transcripts(tmp_path_factory):
    """Five synthetic transcripts of several lengths, none truncated at the
    default budget, encoded through a 300-d table at each budget."""
    root = tmp_path_factory.mktemp("pads")
    corpus = synthgen.generate(synthgen.SynthConfig(
        n_participants=5, mean_length_ad=30.0, mean_length_ct=45.0, seed=3), root)
    table = load_embeddings(root / "embeddings.txt")
    lexicons = load_lexicon_dir(root / "lexicons")
    encoded = {budget: encode_corpus(corpus, table, lexicons, default_tagger(), budget)
               for budget in _BUDGETS}
    lengths = [int(i.mask.sum()) for i in encoded[_BUDGETS[1]]]
    assert max(lengths) < _BUDGETS[0] and len(set(lengths)) > 1, lengths
    return encoded


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_pad_count_leaves_probabilities_bit_identical(short_transcripts, variant):
    cfg = variant_config(variant, ModelConfig())
    params = init_params(cfg, np.random.default_rng(41))
    short, long = (predict(params, replace(cfg, seq_len=budget), short_transcripts[budget])
                   for budget in _BUDGETS)
    assert short.tobytes() == long.tobytes()


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_batch_composition_moves_probabilities_by_a_few_ulps(short_transcripts, variant):
    """Scored alone, a transcript runs none of its pad steps; in a batch of
    longer ones they run, masked. The two differ only in BLAS rounding."""
    cfg = variant_config(variant, ModelConfig())
    params = init_params(cfg, np.random.default_rng(42))
    data = short_transcripts[cfg.seq_len]
    batched = predict(params, cfg, data)
    alone = np.array([predict(params, cfg, [inst])[0] for inst in data])
    ulps = np.abs(alone - batched) / np.spacing(np.maximum(alone, batched))
    assert ulps.max() <= _BATCH_ULPS, ulps


def test_classify_threshold_is_inclusive():
    assert classify(np.array([0.4999, 0.5, 0.5001])).tolist() == [0, 1, 1]


# ---------------------------------------------------------------------------
# serialization


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(20)
    params = init_params(TINY, rng)
    path = tmp_path / "model.bin"
    save(params, TINY, path)
    loaded_params, loaded_cfg = load(path)
    assert loaded_cfg == TINY
    assert list(loaded_params) == list(params)
    for name in params:
        assert np.array_equal(loaded_params[name].data, params[name].data)
    inst = make_instances(TINY, 1, rng)[0]
    assert predict(loaded_params, loaded_cfg, [inst])[0] == predict(params, TINY, [inst])[0]


def _params_bytes(params) -> int:
    return sum(p.data.nbytes for p in params.values())


def _traced(run):
    """What ``run()`` returns, and the bytes it leaves allocated and its
    peak, both above the start."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = run()
        now, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, now - start, peak - start


def test_init_params_allocates_the_parameters_once():
    """No gradient buffer is made beside the weights (3.9 MB at default dims)."""
    params, kept, peak = _traced(lambda: init_params(ModelConfig(), np.random.default_rng(0)))
    size = _params_bytes(params)
    assert size <= kept < 1.1 * size and peak < 1.1 * size, (size, kept, peak)


def test_loaded_model_holds_its_parameters_once(tmp_path):
    """No gradient buffer is made beside the weights. While it loads, one
    tensor's bytes at a time are read before they are copied into place."""
    path = tmp_path / "model.bin"
    save(init_params(ModelConfig(), np.random.default_rng(0)), ModelConfig(), path)
    (params, _), kept, peak = _traced(lambda: load(path))
    size = _params_bytes(params)
    largest = max(p.data.nbytes for p in params.values())
    assert size <= kept < 1.1 * size and peak < 1.1 * size + largest, (size, kept, peak)
    assert all(p.slot.grad is None for p in params.values())


# Loads a model, then reports the minor page faults per B=1 request, after
# warm-up, in a process whose heap nothing else has touched
_FAULTS_PER_REQUEST = """
import resource, sys
import numpy as np
from alzdetect import model
from helpers import make_instances

params, config = model.load(sys.argv[1])
instance = make_instances(config, 1, np.random.default_rng(0))
for _ in range(5):
    model.predict(params, config, instance)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(30):
    model.predict(params, config, instance)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 30)
"""


@pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                    reason="glibc's malloc thresholds")
def test_scoring_after_load_runs_on_a_warm_heap(tmp_path):
    """At default dims a B=1 request's largest temporaries pass glibc's
    default 128 KiB mmap threshold, so each would be mapped and unmapped
    per request (about 240 page faults) until a large block is freed, which
    raises the threshold. ``load`` frees each tensor's read buffer, which
    does it; a load that frees less slows every later request."""
    path = tmp_path / "model.bin"
    save(init_params(ModelConfig(), np.random.default_rng(0)), ModelConfig(), path)
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", _FAULTS_PER_REQUEST, str(path)], env=env,
                         capture_output=True, text=True, timeout=300, check=True)
    assert float(run.stdout) < 20, run.stdout


def test_model_file_holds_only_config_names_and_values(tmp_path):
    """Format 3 stores no count, rank or shape: its size is the header, the
    config block and each parameter's name and float64 values."""
    params = init_params(TINY, np.random.default_rng(23))
    path = tmp_path / "model.bin"
    save(params, TINY, path)
    cfg_len = int.from_bytes(path.read_bytes()[8:12], "little")
    assert path.stat().st_size == 4 + 8 + cfg_len + sum(
        len(name) + 8 * p.data.size for name, p in params.items())


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"XXXX" + b"\0" * 40)
    with pytest.raises(DataError, match=re.escape(f"{path}: not a model file (bad magic)")):
        load(path)


def test_load_rejects_future_version(tmp_path):
    rng = np.random.default_rng(21)
    path = tmp_path / "model.bin"
    save(init_params(TINY, rng), TINY, path)
    blob = bytearray(path.read_bytes())
    blob[4] = 99   # bump the little-endian version field
    path.write_bytes(bytes(blob))
    with pytest.raises(DataError, match=f"{path}: format version 99, expected 3"):
        load(path)


def test_load_rejects_truncation_and_trailing_bytes(tmp_path):
    rng = np.random.default_rng(22)
    path = tmp_path / "model.bin"
    save(init_params(TINY, rng), TINY, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-10])       # into the last tensor's name
    with pytest.raises(DataError, match=f"{path}: expected tensor 'out_b' at byte"):
        load(path)
    path.write_bytes(blob[:-4])        # into the last tensor's values
    with pytest.raises(DataError, match=re.escape(f"{path}: unexpected end of file "
                                                  f"(wanted 8 bytes, 4 left)")):
        load(path)
    path.write_bytes(blob + b"extra")
    with pytest.raises(DataError, match=f"{path}: trailing bytes after last tensor"):
        load(path)


@pytest.mark.parametrize("version", [1, 2])
def test_load_rejects_older_format(tmp_path, version):
    # format 1 files carry the config schema from before the variant switches
    # merged; format 2 files a tensor count and each tensor's rank and shape
    path = tmp_path / "model.bin"
    save(init_params(TINY, np.random.default_rng(0)), TINY, path)
    blob = bytearray(path.read_bytes())
    blob[4] = version
    path.write_bytes(bytes(blob))
    with pytest.raises(DataError, match=f"format version {version}, expected 3"):
        load(path)


def test_load_rejects_unknown_config_keys(tmp_path):
    import json
    import struct

    cfg = json.dumps({"bogus": 1}).encode()
    path = tmp_path / "model.bin"
    path.write_bytes(model.MAGIC + struct.pack("<II", model.FORMAT_VERSION, len(cfg)) + cfg)
    with pytest.raises(DataError, match=f"{path}: bad config block: unknown config keys: bogus"):
        load(path)


_FIRST = b"conv_embed_kernels"


@pytest.mark.parametrize("edit", [
    lambda raw: raw.replace(_FIRST, b"\xff" + _FIRST[1:], 1),
    lambda raw: raw.replace(_FIRST, b"conv_embed_kernelz", 1),
    lambda raw: raw[:raw.index(_FIRST) + 5],
], ids=["not-utf8", "renamed", "truncated"])
def test_load_rejects_wrong_tensor_name(tmp_path, edit):
    path = tmp_path / "model.bin"
    save(init_params(TINY, np.random.default_rng(0)), TINY, path)
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(DataError, match="expected tensor 'conv_embed_kernels'"):
        load(path)


@pytest.mark.parametrize("change, message", [
    (lambda t: t.pop("out_b"), "expected tensor 'out_b'"),
    (lambda t: t.update(lstm_fwd_wh=np.zeros((2, 12))), "expected tensor 'lstm_fwd_b'"),
    (lambda t: t.update(extra=np.zeros(3)), "trailing bytes after last tensor"),
    (lambda t: t["dense_b"].__setitem__(0, np.nan), "tensor 'dense_b' holds non-finite values"),
    # every tensor with its own size, but out of config order: only names tell
    (lambda t: t.update(attn_b=t.pop("attn_b")), "expected tensor 'attn_b'"),
], ids=["missing", "wrong-shape", "unexpected", "non-finite", "reordered"])
def test_load_checks_tensors_against_config(tmp_path, change, message):
    path = tmp_path / "model.bin"
    save_edited_model(TINY, path, change)
    with pytest.raises(DataError, match=f"{path}: {message}"):
        load(path)
