"""Dataset splitting, metrics, the multi-seed protocol, variant
comparison, and the feature-ablation harness.

Each seed's corpus is split once (``seed_splits``), and every seed's
train slice is checked for both classes before any model is fitted; the
variants of a comparison and the rows of an ablation all train on those
same slices. AUC is counted over positive/negative score pairs, ties
counting half, as an integer numerator over 2·P·N; it is None, printed as
an empty CSV cell and ``n/a`` in tables, when the scores are missing or
hold one class. Metrics are averaged metric-by-metric across seeds (a
mean over any None is None); confusion counts are averaged the same way,
which is why they are reals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import reduce
from operator import add

import numpy as np

from .chat_corpus import DataError
from .lexical_features import FEATURE_GROUPS, EncodedInstance
from .model import (
    ModelConfig,
    VARIANTS,
    active_feature_indices,
    classify,
    fit,
    predict,
    variant_config,
)

# the ablation row of each feature group: "No Psych.", "No Sent.", "No Demo."
ABLATION_LABELS = {group: f"No {group.capitalize()}." for group in FEATURE_GROUPS}


# ---------------------------------------------------------------------------
# splitting

@dataclass(frozen=True)
class SplitSpec:
    """Train and validation fractions; the test slice takes the rest."""

    train_fraction: float = 0.81
    val_fraction: float = 0.09
    seed: int = 0

    def __post_init__(self):
        t, v = self.train_fraction, self.val_fraction
        if not (t > 0 and v > 0 and t + v < 1):     # also rejects nan
            raise ValueError(f"train_fraction {t} and val_fraction {v} must be "
                             f"> 0 and sum to less than 1")


def split(items: list, spec: SplitSpec) -> tuple[list, list, list]:
    """Seeded shuffle of participants, then contiguous slices: floor(train·N),
    floor(val·N), remainder to test, N counting participants.

    All of a participant's items (by ``.participant_id``) land in one
    slice, so no speaker is on both sides of the split.
    """
    if not items:
        raise DataError("nothing to split")
    units: dict = {}
    try:
        for item in items:
            units.setdefault(item.participant_id, []).append(item)
    except AttributeError:
        raise ValueError(f"{type(item).__name__} items have no participant_id") from None
    groups = list(units.values())
    n = len(groups)
    n_train = math.floor(spec.train_fraction * n)
    n_val = math.floor(spec.val_fraction * n)
    if min(n_train, n_val, n - n_train - n_val) < 1:
        raise DataError(f"{n} participants leave an empty slice")
    shuffled = [groups[k] for k in np.random.default_rng(spec.seed).permutation(n)]
    return tuple([x for group in part for x in group]
                 for part in (shuffled[:n_train], shuffled[n_train:n_train + n_val],
                              shuffled[n_train + n_val:]))


def seed_splits(instances: list[EncodedInstance], spec: SplitSpec,
                seeds: list[int]) -> list[tuple[int, list, list, list]]:
    """``(seed, train, val, test)`` for every seed, each seed split once.
    Every train slice is checked for both classes before this returns, so
    no fit starts on a corpus that some seed cannot train on."""
    if not seeds:
        raise ValueError("need at least one seed")
    splits = []
    for seed in seeds:
        train, val, test = split(instances, replace(spec, seed=seed))
        n_ad = sum(i.label for i in train)
        if n_ad in (0, len(train)):
            raise DataError(f"seed {seed}: the train slice needs both classes, "
                            f"got ad={n_ad} ct={len(train) - n_ad}")
        splits.append((seed, train, val, test))
    return splits


# ---------------------------------------------------------------------------
# metrics

@dataclass(frozen=True)
class ConfusionCounts:
    tn: float
    fp: float
    fn: float
    tp: float

    def __post_init__(self):
        if min(self.tn, self.fp, self.fn, self.tp) < 0:
            raise ValueError("confusion counts must be >= 0")

    def total(self) -> float:
        return self.tn + self.fp + self.fn + self.tp


@dataclass(frozen=True)
class MetricsReport:
    accuracy: float
    precision: float
    recall: float
    f1: float
    auc: float | None   # None: no scores, or scores of one class
    counts: ConfusionCounts


def confusion(labels, predictions) -> ConfusionCounts:
    """Counts with 1 as the positive class."""
    y = np.asarray(labels)
    p = np.asarray(predictions)
    if y.shape != p.shape:
        raise ValueError(f"{y.shape} labels vs {p.shape} predictions")
    return ConfusionCounts(
        tn=float(np.sum((y == 0) & (p == 0))),
        fp=float(np.sum((y == 0) & (p == 1))),
        fn=float(np.sum((y == 1) & (p == 0))),
        tp=float(np.sum((y == 1) & (p == 1))),
    )


def auc_pair(labels, scores) -> float | None:
    """AUC by brute-force pair counting; ties count half. None when the
    labels hold one class."""
    y = np.asarray(labels)
    s = np.asarray(scores, dtype=np.float64)
    if y.shape != s.shape:
        raise ValueError(f"{y.shape} labels vs {s.shape} scores")
    pos, neg = s[y == 1], s[y == 0]
    if len(pos) == 0 or len(neg) == 0:
        return None
    num = 0  # 2·(wins) + 1·(ties) over all positive/negative score pairs
    for p in pos:
        num += 2 * int(np.sum(p > neg)) + int(np.sum(p == neg))
    return num / (2 * len(pos) * len(neg))


def roc_points(labels, scores) -> list[tuple[float, float]]:
    """(FPR, TPR) points from (0,0) to (1,1), one per distinct score."""
    y = np.asarray(labels)
    s = np.asarray(scores, dtype=np.float64)
    n_pos = int(np.sum(y == 1))
    n_neg = int(np.sum(y == 0))
    if n_pos == 0 or n_neg == 0:
        raise ValueError("ROC needs both classes present")
    order = np.argsort(-s, kind="stable")
    points = [(0.0, 0.0)]
    tp = fp = 0
    i = 0
    while i < len(order):
        j = i
        while j < len(order) and s[order[j]] == s[order[i]]:
            tp += int(y[order[j]] == 1)
            fp += int(y[order[j]] == 0)
            j += 1
        points.append((fp / n_neg, tp / n_pos))
        i = j
    return points


def metrics(counts: ConfusionCounts, scores=None, labels=None) -> MetricsReport:
    """Threshold metrics from counts plus AUC from raw scores.

    Zero-denominator metrics come back 0.0; AUC is None without scores or
    on a single-class score set.
    """
    def ratio(num, den):
        return num / den if den else 0.0

    accuracy = ratio(counts.tp + counts.tn, counts.total())
    precision = ratio(counts.tp, counts.tp + counts.fp)
    recall = ratio(counts.tp, counts.tp + counts.fn)
    f1 = ratio(2 * precision * recall, precision + recall)
    auc = None if scores is None or labels is None else auc_pair(labels, scores)
    return MetricsReport(accuracy=accuracy, precision=precision, recall=recall,
                         f1=f1, auc=auc, counts=counts)


def evaluate_scores(labels, scores) -> MetricsReport:
    """Metrics of hard 0.5-threshold predictions plus score-based AUC."""
    counts = confusion(labels, classify(scores))
    return metrics(counts, scores, labels)


# ---------------------------------------------------------------------------
# experiment protocol

@dataclass(frozen=True)
class ExperimentResult:
    variant: str
    seeds: tuple[int, ...]
    per_seed: tuple[MetricsReport, ...]
    mean: MetricsReport
    feature_dim: int


def report_values(r: MetricsReport) -> tuple[float | None, ...]:
    """The nine report columns in CSV order: accuracy, precision, recall,
    f1, auc, tn, fp, fn, tp."""
    c = r.counts
    return (r.accuracy, r.precision, r.recall, r.f1, r.auc, c.tn, c.fp, c.fn, c.tp)


def mean_report(reports: list[MetricsReport]) -> MetricsReport:
    """Arithmetic mean of every metric and every confusion count: each
    column summed left to right from 0.0 (``sum()`` rounds otherwise from 3.12)
    and divided by their number; a None (an AUC not computed) gives None."""
    n = len(reports)
    means = [None if None in column else reduce(add, column, 0.0) / n
             for column in zip(*map(report_values, reports))]
    return MetricsReport(*means[:5], counts=ConfusionCounts(*means[5:]))


def _run(splits: list[tuple[int, list, list, list]], config: ModelConfig,
         variant: str) -> ExperimentResult:
    """fit -> evaluate-on-test once per seed's slices, then average. Each
    seed also reseeds the model (init, batch order, dropout)."""
    reports = []
    for seed, train, val, test in splits:
        cfg = replace(config, seed=seed)
        params, _ = fit(cfg, train, val)
        reports.append(evaluate_scores(np.array([i.label for i in test]),
                                       predict(params, cfg, test)))
    return ExperimentResult(
        variant=variant,
        seeds=tuple(seed for seed, *_ in splits),
        per_seed=tuple(reports),
        mean=mean_report(reports),
        feature_dim=len(active_feature_indices(config)),
    )


def run_experiment(instances: list[EncodedInstance], config: ModelConfig,
                   seeds: list[int], variant: str = "",
                   split_spec: SplitSpec | None = None) -> ExperimentResult:
    """split -> fit -> evaluate-on-test once per seed, then average."""
    return _run(seed_splits(instances, split_spec or SplitSpec(), seeds), config, variant)


def compare_variants(instances: list[EncodedInstance], seeds: list[int],
                     base: ModelConfig | None = None,
                     split_spec: SplitSpec | None = None) -> list[ExperimentResult]:
    """The six-variant comparison, rows in VARIANTS order."""
    splits = seed_splits(instances, split_spec or SplitSpec(), seeds)
    base = base or ModelConfig()
    return [_run(splits, variant_config(name, base), name) for name in VARIANTS]


def ablate(instances: list[EncodedInstance], seeds: list[int],
           base: ModelConfig | None = None,
           split_spec: SplitSpec | None = None) -> list[ExperimentResult]:
    """Rerun the full model with one targeted-feature group removed per row."""
    splits = seed_splits(instances, split_spec or SplitSpec(), seeds)
    full = variant_config("OURS-Att-w", base or ModelConfig())
    results = []
    for group, label in ABLATION_LABELS.items():
        kept = tuple(g for g in FEATURE_GROUPS if g != group)
        results.append(_run(splits, replace(full, feature_mask=kept), label))
    return results


# ---------------------------------------------------------------------------
# report rendering

_CSV_HEADER = "variant,seed,accuracy,precision,recall,f1,auc,tn,fp,fn,tp,feature_dim"


def _csv_row(variant: str, seed: str, r: MetricsReport, feature_dim: int) -> str:
    """The AUC cell is empty where none was computed."""
    return ",".join([variant, seed, *("" if v is None else f"{v:.6f}" for v in report_values(r)),
                     str(feature_dim)])


def results_csv(results: list[ExperimentResult]) -> str:
    """One mean row per variant plus one row per seed, byte-stable."""
    lines = [_CSV_HEADER]
    for res in results:
        for seed, rep in zip(res.seeds, res.per_seed):
            lines.append(_csv_row(res.variant, str(seed), rep, res.feature_dim))
        lines.append(_csv_row(res.variant, "mean", res.mean, res.feature_dim))
    return "\n".join(lines) + "\n"


def roc_csv(labels, scores) -> str:
    lines = ["fpr,tpr"]
    lines += [f"{fpr:.6f},{tpr:.6f}" for fpr, tpr in roc_points(labels, scores)]
    return "\n".join(lines) + "\n"


def align(rows: list[list[str]]) -> str:
    """Rows as text columns two spaces apart: the first column
    left-aligned, the others right-aligned."""
    widths = [max(map(len, column)) for column in zip(*rows)]
    return "\n".join("  ".join(cell.ljust(w) if i == 0 else cell.rjust(w)
                               for i, (cell, w) in enumerate(zip(row, widths)))
                     for row in rows)


def format_table(results: list[ExperimentResult]) -> str:
    """Aligned human-readable summary of the mean rows."""
    rows = [["Variant", "Acc", "Prec", "Rec", "F1", "AUC", "TN", "FP", "FN", "TP"]]
    for res in results:
        values = report_values(res.mean)
        rows.append([res.variant] + ["n/a" if v is None else f"{v:.4f}" for v in values[:5]] +
                    [f"{c:.1f}" for c in values[5:]])
    return align(rows) + "\n"
