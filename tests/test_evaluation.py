"""Splitting, metrics, AUC agreement, and the experiment protocol."""

from dataclasses import dataclass, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alzdetect import evaluation, synthgen
from alzdetect.evaluation import (
    ABLATION_LABELS,
    ConfusionCounts,
    LengthMismatch,
    MetricsReport,
    SplitSpec,
    TooSmall,
    ablate,
    auc_pair,
    compare_variants,
    confusion,
    evaluate_scores,
    format_table,
    mean_report,
    metrics,
    results_csv,
    roc_csv,
    roc_points,
    run_experiment,
    split,
)
from alzdetect.model import VARIANTS, ModelConfig, ZeroClass
from helpers import auc_trapezoid, make_instances

# ---------------------------------------------------------------------------
# splitting


@dataclass(frozen=True, order=True)
class _Row:
    participant_id: str
    visit: int


def _speakers(n):
    """``n`` items, one per participant."""
    return [_Row(f"p{i:04d}", 0) for i in range(n)]


def test_split_sizes_100():
    train, val, test = split(_speakers(100), SplitSpec(seed=0))
    assert (len(train), len(val), len(test)) == (81, 9, 10)


def test_split_sizes_1229():
    train, val, test = split(_speakers(1229), SplitSpec(seed=0))
    assert (len(train), len(val), len(test)) == (995, 110, 124)


def test_split_is_seed_deterministic():
    items = _speakers(60)
    spec = SplitSpec(seed=4)
    assert split(items, spec) == split(items, spec)


def test_split_reshuffles_across_seeds():
    items = _speakers(100)
    trains = {tuple(split(items, SplitSpec(seed=s))[0]) for s in range(5)}
    assert len(trains) > 1


def test_split_too_small_raises():
    with pytest.raises(TooSmall):
        split(_speakers(11), SplitSpec())   # floor(0.09 * 11) = 0
    with pytest.raises(TooSmall):
        split([], SplitSpec())


@settings(max_examples=60)
@given(st.integers(min_value=12, max_value=400), st.integers(min_value=0, max_value=50))
def test_split_is_a_partition(n, seed):
    items = _speakers(n)
    train, val, test = split(items, SplitSpec(seed=seed))
    assert sorted(train + val + test) == items
    assert len(train) == int(np.floor(0.81 * n))
    assert len(val) == int(np.floor(0.09 * n))


def test_participant_split_keeps_participants_whole():
    rows = [_Row(f"p{i:02d}", v) for i in range(15) for v in range(3)]
    spec = SplitSpec()
    for seed in range(6):
        train, val, test = split(rows, replace(spec, seed=seed))
        sides = [{r.participant_id for r in part} for part in (train, val, test)]
        assert not (sides[0] & sides[1] or sides[0] & sides[2] or sides[1] & sides[2])
        assert len(train) + len(val) + len(test) == 45
        # slice sizes apply to participants: floor(.81*15)=12, floor(.09*15)=1
        assert (len(sides[0]), len(sides[1]), len(sides[2])) == (12, 1, 2)


@pytest.fixture(scope="module")
def repeat_visit_corpus(tmp_path_factory):
    config = synthgen.SynthConfig(n_participants=40, transcripts_per_participant=3,
                                  embed_dim=2, seed=9)
    return synthgen.generate(config, tmp_path_factory.mktemp("visits"))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_default_split_never_shares_a_participant(repeat_visit_corpus, seed):
    records = list(repeat_visit_corpus.records)
    train, val, test = split(records, SplitSpec(seed=seed))
    sides = [{r.participant_id for r in part} for part in (train, val, test)]
    assert not (sides[0] & sides[1] or sides[0] & sides[2] or sides[1] & sides[2])
    assert sorted(r.transcript_id for r in train + val + test) == \
        sorted(r.transcript_id for r in records)


def test_participant_split_too_few_participants():
    rows = [_Row(f"p{i}", v) for i in range(4) for v in range(10)]
    with pytest.raises(TooSmall):
        split(rows, SplitSpec())


def test_participant_split_of_items_without_participant_id_names_the_fix():
    with pytest.raises(ValueError, match="int items have no participant_id") as exc:
        split(list(range(100)), SplitSpec())
    assert not isinstance(exc.value, TooSmall)


@settings(max_examples=30)
@given(st.integers(min_value=12, max_value=200), st.integers(min_value=0, max_value=50))
def test_one_item_per_participant_splits_alike_under_both_units(n, seed):
    """With one item per participant, the split is what shuffling and slicing
    the items one by one (the former transcript unit) gives."""
    rows = _speakers(n)
    order = [rows[k] for k in np.random.default_rng(seed).permutation(n)]
    n_train, n_val = int(np.floor(0.81 * n)), int(np.floor(0.09 * n))
    assert split(rows, SplitSpec(seed=seed)) == (
        order[:n_train], order[n_train:n_train + n_val], order[n_train + n_val:])


def test_split_spec_validation():
    with pytest.raises(ValueError):
        SplitSpec(train_fraction=0.9, val_fraction=0.2)
    with pytest.raises(ValueError):
        SplitSpec(train_fraction=float("nan"))


# ---------------------------------------------------------------------------
# confusion and threshold metrics


def test_confusion_counts():
    counts = confusion([1, 1, 0, 0, 1, 0], [1, 0, 0, 1, 1, 0])
    assert counts == ConfusionCounts(tn=2.0, fp=1.0, fn=1.0, tp=2.0)
    assert counts.total() == 6.0


def test_confusion_length_mismatch():
    with pytest.raises(LengthMismatch):
        confusion([1, 0], [1])


def test_confusion_counts_reject_negatives():
    with pytest.raises(ValueError):
        ConfusionCounts(tn=-1.0, fp=0.0, fn=0.0, tp=0.0)


def test_metrics_hand_example():
    rep = metrics(ConfusionCounts(tn=5, fp=1, fn=2, tp=4))
    assert rep.accuracy == pytest.approx(9 / 12)
    assert rep.precision == pytest.approx(4 / 5)
    assert rep.recall == pytest.approx(4 / 6)
    assert rep.f1 == pytest.approx(2 * (4 / 5) * (4 / 6) / (4 / 5 + 4 / 6))
    assert rep.auc is None   # no scores supplied


def test_metrics_zero_denominators_are_zero():
    rep = metrics(ConfusionCounts(tn=5, fp=0, fn=0, tp=0))
    assert rep.accuracy == 1.0
    assert rep.precision == 0.0 and rep.recall == 0.0 and rep.f1 == 0.0
    assert rep.auc is None


def test_metrics_single_class_auc_is_none():
    rep = metrics(ConfusionCounts(tn=0, fp=0, fn=1, tp=1),
                  scores=[0.9, 0.8], labels=[1, 1])
    assert rep.auc is None


def test_evaluate_scores_end_to_end():
    rep = evaluate_scores([1, 0, 1, 0], [0.9, 0.2, 0.4, 0.6])
    assert rep.counts == ConfusionCounts(tn=1.0, fp=1.0, fn=1.0, tp=1.0)
    assert rep.accuracy == 0.5
    assert rep.auc == pytest.approx(6 / 8)


# ---------------------------------------------------------------------------
# AUC


def test_auc_pair_worked_example():
    # pos {0.8, 0.4} vs neg {0.6, 0.2}: 3 wins of 4 pairs
    assert auc_pair([1, 1, 0, 0], [0.8, 0.4, 0.6, 0.2]) == 3 / 4


def test_auc_extremes():
    assert auc_pair([1, 1, 0], [0.9, 0.8, 0.1]) == 1.0
    assert auc_pair([1, 0], [0.1, 0.9]) == 0.0


def test_auc_ties_count_half():
    assert auc_pair([1, 0], [0.5, 0.5]) == 0.5
    assert auc_pair([1, 1, 0, 0], [0.9, 0.5, 0.5, 0.1]) == 7 / 8


def test_auc_requires_both_classes():
    with pytest.raises(ValueError):
        auc_pair([1, 1], [0.5, 0.6])
    with pytest.raises(LengthMismatch):
        auc_pair([1, 0], [0.5])


def test_roc_points_shape_and_ends():
    pts = roc_points([1, 1, 0, 0], [0.8, 0.4, 0.6, 0.2])
    assert pts[0] == (0.0, 0.0)
    assert pts[-1] == (1.0, 1.0)
    for (f0, t0), (f1, t1) in zip(pts, pts[1:]):
        assert f1 >= f0 and t1 >= t0


def test_roc_points_group_tied_scores():
    assert roc_points([1, 0], [0.5, 0.5]) == [(0.0, 0.0), (1.0, 1.0)]


def test_trapezoid_matches_pair_count_on_example():
    labels = [1, 1, 0, 0]
    scores = [0.8, 0.4, 0.6, 0.2]
    assert auc_trapezoid(labels, scores) == auc_pair(labels, scores) == 3 / 4


@settings(max_examples=300)
@given(st.lists(st.tuples(st.integers(0, 1),
                          st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])),
                min_size=2, max_size=40))
def test_trapezoid_equals_pair_count_exactly(pairs):
    labels = np.array([l for l, _ in pairs])
    scores = np.array([s for _, s in pairs])
    if labels.sum() in (0, len(labels)):
        return
    a = auc_pair(labels, scores)
    b = auc_trapezoid(labels, scores)
    assert a == b          # identical integer numerators, identical division
    assert 0.0 <= a <= 1.0


# ---------------------------------------------------------------------------
# aggregation


def test_mean_report_averages_everything():
    r1 = metrics(ConfusionCounts(tn=4, fp=0, fn=1, tp=5), [0.9, 0.1], [1, 0])
    r2 = metrics(ConfusionCounts(tn=2, fp=2, fn=2, tp=4), [0.4, 0.6], [1, 0])
    mean = mean_report([r1, r2])
    assert mean.accuracy == pytest.approx((r1.accuracy + r2.accuracy) / 2)
    assert mean.auc == pytest.approx((1.0 + 0.0) / 2)
    assert mean.counts == ConfusionCounts(tn=3.0, fp=1.0, fn=1.5, tp=4.5)


def test_mean_report_of_a_missing_auc_is_none():
    """An AUC that was never computed is not averaged in as 0.0: the mean
    AUC is None, and every other column is still the plain mean."""
    r1 = metrics(ConfusionCounts(tn=5, fp=0, fn=0, tp=0))
    r2 = metrics(ConfusionCounts(tn=1, fp=1, fn=1, tp=1), [0.9, 0.1, 0.8, 0.2],
                 [1, 0, 1, 0])
    assert r1.auc is None and r2.auc == 1.0
    mean = mean_report([r1, r2])
    assert mean.auc is None
    assert mean.accuracy == (r1.accuracy + r2.accuracy) / 2
    assert mean.precision == (0.0 + 0.5) / 2


# ---------------------------------------------------------------------------
# experiment protocol (tiny but real end-to-end runs)


TINY = ModelConfig(seq_len=5, embed_dim=4, pos_dim=3, conv_filters=2,
                   conv_kernel=3, lstm_hidden=3, attention_dim=3,
                   dense_units=4, dropout_rate=0.0, batch_size=16,
                   max_epochs=2, patience=5, seed=0)


def _data(n=40, separation=1.0):
    return make_instances(TINY, n, np.random.default_rng(100), separation)


def test_run_experiment_structure():
    result = run_experiment(_data(), TINY, seeds=[0, 1], variant="OURS-Att-w")
    assert result.variant == "OURS-Att-w"
    assert result.seeds == (0, 1)
    assert len(result.per_seed) == 2
    assert result.mean == mean_report(list(result.per_seed))
    assert result.feature_dim == 7


def test_run_experiment_requires_seeds():
    with pytest.raises(ValueError):
        run_experiment(_data(), TINY, seeds=[])


def test_run_experiment_is_deterministic():
    a = run_experiment(_data(), TINY, seeds=[3], variant="x")
    b = run_experiment(_data(), TINY, seeds=[3], variant="x")
    assert results_csv([a]) == results_csv([b])


def test_compare_variants_rows_and_dims():
    results = compare_variants(_data(), seeds=[0], base=TINY)
    assert [r.variant for r in results] == ["C-LSTM", "C-LSTM-Att", "C-LSTM-Att-w",
                                            "OURS", "OURS-Att", "OURS-Att-w"]
    assert [r.feature_dim for r in results] == [0, 0, 0, 7, 7, 7]


def test_ablate_rows_and_dims():
    results = ablate(_data(), seeds=[0], base=TINY)
    assert [r.variant for r in results] == ["No Psych.", "No Sent.", "No Demo."]
    assert [r.feature_dim for r in results] == [3, 6, 5]


def test_run_experiment_checks_every_seed_before_any_fit():
    """One AD participant among twelve: some seed leaves it out of the train
    slice. C-LSTM uses no class weights, so nothing in fit would notice; the
    run stops before the first seed is trained."""
    data = [replace(inst, label=int(k == 0)) for k, inst in enumerate(_data(n=12))]
    train_has_ad = [any(i.label for i in split(data, SplitSpec(seed=s))[0]) for s in range(20)]
    good, bad = train_has_ad.index(True), train_has_ad.index(False)
    spy = mock.Mock(wraps=evaluation.fit)
    with mock.patch.object(evaluation, "fit", spy), \
            pytest.raises(ZeroClass, match=f"seed {bad}: the train slice needs both classes, "
                                           f"got ad=0 ct=9"):
        run_experiment(data, replace(TINY, **VARIANTS["C-LSTM"]), seeds=[good, bad])
    assert spy.call_count == 0


def test_ablation_labels_cover_groups():
    assert ABLATION_LABELS == {"psych": "No Psych.", "sent": "No Sent.",
                               "demo": "No Demo."}


# ---------------------------------------------------------------------------
# rendering


def _fake_result():
    rep1 = metrics(ConfusionCounts(tn=4, fp=1, fn=1, tp=4),
                   [0.9, 0.4, 0.8, 0.2], [1, 0, 1, 0])
    rep2 = metrics(ConfusionCounts(tn=3, fp=2, fn=0, tp=5),
                   [0.7, 0.6, 0.9, 0.1], [1, 0, 1, 0])
    from alzdetect.evaluation import ExperimentResult

    return ExperimentResult(variant="OURS", seeds=(0, 1),
                            per_seed=(rep1, rep2),
                            mean=mean_report([rep1, rep2]), feature_dim=7)


def test_results_csv_layout():
    text = results_csv([_fake_result()])
    lines = text.splitlines()
    assert lines[0] == ("variant,seed,accuracy,precision,recall,f1,auc,"
                        "tn,fp,fn,tp,feature_dim")
    assert len(lines) == 4            # header + 2 seeds + mean
    assert lines[1].startswith("OURS,0,")
    assert lines[3].startswith("OURS,mean,")
    assert text.endswith("\n")
    assert results_csv([_fake_result()]) == text   # byte-stable


def test_roc_csv_layout():
    text = roc_csv([1, 0, 1, 0], [0.9, 0.4, 0.8, 0.2])
    lines = text.splitlines()
    assert lines[0] == "fpr,tpr"
    assert len(lines) == 1 + len(roc_points([1, 0, 1, 0], [0.9, 0.4, 0.8, 0.2]))


def test_format_table_is_aligned():
    text = format_table([_fake_result()])
    lines = text.splitlines()
    assert lines[0].startswith("Variant")
    assert "OURS" in lines[1]
    assert len({len(line) for line in lines}) == 1
