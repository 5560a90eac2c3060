"""Command-line entry point.

One YAML config file carries the experiment knobs (paths, seeds, split
fractions, model hyperparameters, synthetic-corpus settings); each
subcommand reads the sections it needs. Unknown config keys are errors.
Every run is deterministic given the config, down to byte-identical CSV
artifacts.

Exit codes: 0 success, and one exception type for each failure: 1 for a
``UsageError`` (bad arguments or config), 2 for a ``DataError`` or an
``OSError`` (bad or missing input data), 3 for ``Diverged`` (training
produced a non-finite value). Any other exception is a bug.
"""

from __future__ import annotations

import argparse
import os
import sys
import textwrap
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import yaml

from . import chat_corpus, evaluation, lexical_features, model, synthgen
from .autodiff import NonFiniteValue
from .chat_corpus import DataError, Label, StatsReport, reading_utf8
from .evaluation import SplitSpec
from .model import Diverged, ModelConfig
from .synthgen import SynthConfig
from .text_pipeline import default_tagger, fix_length, tokenize

OUTPUT_DIR_ENV = "ALZDETECT_OUTPUT_DIR"


class UsageError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    corpus_dir: str | None = None
    embeddings: str | None = None
    lexicons: str | None = None
    output_dir: str | None = None
    variant: str = "OURS-Att-w"
    seeds: tuple[int, ...] = (0, 1, 2)
    split: SplitSpec = SplitSpec()
    model: ModelConfig = ModelConfig()
    synth: SynthConfig = SynthConfig()

    def __post_init__(self):
        if not self.seeds or min(self.seeds) < 0:
            raise ValueError(f"seeds must be a non-empty list of non-negative integers, "
                             f"got {model.ECHO.repr(list(self.seeds))}")
        if self.variant not in model.VARIANTS:
            raise ValueError(f"unknown variant {model.ECHO.repr(self.variant)}; "
                             f"expected one of {', '.join(model.VARIANTS)}")


# Config fields the YAML may not set: every run takes its split and model
# seed from seeds, the tagset fixes the POS one-hot width, the embedding
# file the model's width, variant the model's switches, and synth keeps its
# built-in vocabulary.
_NOT_IN_YAML = ("split.seed", "model.seed", "model.pos_dim", "model.embed_dim",
                "model.use_attention", "model.use_class_weights", "model.feature_mask",
                "synth.vocab")


def load_run_config(path: str | Path) -> RunConfig:
    with reading_utf8(path):
        text = Path(path).read_text(encoding="utf-8")
    try:
        raw = yaml.safe_load(text)
    # ValueError: an int of over 4300 digits; RecursionError: lists nested too deep
    except (yaml.YAMLError, ValueError, RecursionError) as exc:
        # a YAML message spans lines and quotes tags and aliases whole: keep
        # where it is and the problem, shortened to a line
        mark = getattr(exc, "problem_mark", None)
        where = f"{path}:{mark.line + 1}:{mark.column + 1}" if mark else path
        problem = textwrap.shorten(getattr(exc, "problem", None) or str(exc), 150)
        raise UsageError(f"cannot parse config {where}: {problem}") from exc
    try:
        return model.typed_value(raw, RunConfig, skip=_NOT_IN_YAML)
    except (TypeError, ValueError) as exc:
        raise UsageError(str(exc)) from None


def _output_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.output_dir or os.environ.get(OUTPUT_DIR_ENV, "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _require_paths(cfg: RunConfig, *names: str):
    """Fail fast if the config leaves an input unset."""
    unset = [name for name in names if getattr(cfg, name) is None]
    if unset:
        raise DataError(f"not set in config: {', '.join(unset)}")


def _load_resources(cfg: RunConfig, saved: ModelConfig | None = None):
    """Embedding table, lexicons and the shipped tagger. A saved model's
    config, if given, must be as wide as the table. A lexicon with no
    entries is allowed, but gets a warning: its feature is 0 everywhere."""
    table = lexical_features.load_embeddings(cfg.embeddings)
    if saved is not None and table.dim != saved.embed_dim:
        raise DataError(f"embedding file is {table.dim}-dimensional but the model expects "
                        f"{saved.embed_dim}")
    lexicons = lexical_features.load_lexicon_dir(cfg.lexicons)
    for slot, size in lexicons.sizes.items():
        if not size:
            print(f"warning: {Path(cfg.lexicons) / f'{slot}.tsv'}: no entries, so the "
                  f"{slot} feature is 0 for every transcript", file=sys.stderr)
    return table, lexicons, default_tagger()


def _forward(model_path, fn, *args):
    """``fn(*args)``, a forward pass of the model at ``model_path``; an
    overflow is bad data in the model file."""
    try:
        return fn(*args)
    except NonFiniteValue as exc:
        raise DataError(f"{model_path}: the forward pass overflows: {exc}") from None


def _encode(cfg: RunConfig, mcfg: ModelConfig, saved: bool = False):
    """The corpus encoded at ``mcfg.seq_len``, and ``mcfg`` as wide as the
    embedding table: the embedding file fixes a new model's width, and a
    ``saved`` model's width must match the table's."""
    corpus = chat_corpus.load_corpus(cfg.corpus_dir)
    table, lexicons, tagger = _load_resources(cfg, mcfg if saved else None)
    instances = lexical_features.encode_corpus(corpus, table, lexicons, tagger,
                                               budget=mcfg.seq_len)
    try:
        mcfg = replace(mcfg, embed_dim=table.dim)
    except ValueError as exc:          # a table too wide for model.MAX_PARAMS
        raise DataError(f"embedding file is {table.dim}-dimensional: {exc}") from None
    if not table.used:
        print(f"warning: {cfg.embeddings}: no word of the corpus has a vector, so "
              f"every token embeds as zeros", file=sys.stderr)
    return instances, mcfg


def _stats_table(report: StatsReport) -> str:
    keys = ("total", "ad", "ct")
    return evaluation.align([["", *keys]] + [
        [name, *(str(counts[k]) for k in keys)]
        for name, counts in (("participants", report.n_participants),
                             ("transcripts", report.n_transcripts),
                             ("median words", report.median_words))])


def _log_csv(log: list[model.TrainLogRow]) -> str:
    """One row per epoch; the val_auc cell is empty where none was measured."""
    lines = ["epoch,train_loss,val_loss,val_auc"]
    lines += [f"{r.epoch},{r.train_loss:.6f},{r.val_loss:.6f},"
              + ("" if r.val_auc is None else f"{r.val_auc:.6f}") for r in log]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# commands

def _cmd_stats(args) -> int:
    corpus = chat_corpus.load_corpus(args.corpus_dir)
    print(_stats_table(chat_corpus.corpus_stats(corpus)))
    return 0


def _cmd_ingest(args) -> int:
    cfg = RunConfig(output_dir=args.output_dir)
    corpus = chat_corpus.load_corpus(args.corpus_dir)
    out = _output_dir(cfg)
    manifest = out / "manifest.jsonl"
    chat_corpus.write_manifest(corpus, manifest)
    print(_stats_table(chat_corpus.corpus_stats(corpus)))
    print(f"manifest -> {manifest}")
    return 0


def _cmd_synth(args) -> int:
    cfg = load_run_config(args.config)
    out = _output_dir(cfg)
    corpus = synthgen.generate(cfg.synth, out)
    print(_stats_table(chat_corpus.corpus_stats(corpus)))
    print(f"corpus -> {out}")
    return 0


def _cmd_train(args) -> int:
    cfg = load_run_config(args.config)
    _require_paths(cfg, "corpus_dir", "embeddings", "lexicons")
    out = _output_dir(cfg)
    mcfg = replace(model.variant_config(cfg.variant, cfg.model), seed=cfg.seeds[0])
    instances, mcfg = _encode(cfg, mcfg)
    [(_, train, val, _)] = evaluation.seed_splits(instances, cfg.split, cfg.seeds[:1])
    params, log = model.fit(mcfg, train, val)
    model_path = out / "model.bin"
    model.save(params, mcfg, model_path)
    (out / "training_log.csv").write_text(_log_csv(log), encoding="utf-8")
    best = min(log, key=lambda r: r.val_loss)
    auc = "n/a" if best.val_auc is None else f"{best.val_auc:.4f}"
    print(f"trained {len(log)} epochs; best epoch {best.epoch} "
          f"(val loss {best.val_loss:.4f}, val auc {auc})")
    print(f"model -> {model_path}")
    return 0


def _cmd_eval(args) -> int:
    cfg = load_run_config(args.config)
    _require_paths(cfg, "corpus_dir", "embeddings", "lexicons")
    out = _output_dir(cfg)
    params, mcfg = model.load(args.model)
    instances, _ = _encode(cfg, mcfg, saved=True)
    [(_, _, _, test)] = evaluation.seed_splits(instances, cfg.split, cfg.seeds[:1])
    scores = _forward(args.model, model.predict, params, mcfg, test)
    labels = np.array([i.label for i in test])
    report = evaluation.evaluate_scores(labels, scores)
    # the row is named after the model file's switches, not the YAML variant
    name = next((v for v in model.VARIANTS if model.variant_config(v, mcfg) == mcfg), "model")
    result = evaluation.ExperimentResult(
        variant=name, seeds=(cfg.seeds[0],),
        per_seed=(report,), mean=report,
        feature_dim=len(model.active_feature_indices(mcfg)))
    (out / "eval.csv").write_text(evaluation.results_csv([result]),
                                  encoding="utf-8")
    if report.auc is not None:
        (out / "roc.csv").write_text(evaluation.roc_csv(labels, scores),
                                     encoding="utf-8")
    print(evaluation.format_table([result]), end="")
    print(f"reports -> {out}")
    return 0


_REPORTS = {"compare": evaluation.compare_variants, "ablate": evaluation.ablate}


def _cmd_report(args) -> int:
    """``compare`` or ``ablate``: run the experiment grid, write <command>.csv."""
    cfg = load_run_config(args.config)
    _require_paths(cfg, "corpus_dir", "embeddings", "lexicons")
    out = _output_dir(cfg)
    instances, base = _encode(cfg, cfg.model)
    results = _REPORTS[args.command](instances, list(cfg.seeds), base=base,
                                     split_spec=cfg.split)
    path = out / f"{args.command}.csv"
    path.write_text(evaluation.results_csv(results), encoding="utf-8")
    print(evaluation.format_table(results), end="")
    print(f"report -> {path}")
    return 0


def _cmd_predict(args) -> int:
    if args.top is not None and args.top < 1:
        raise UsageError(f"--top must be at least 1, got {args.top}")
    cfg = load_run_config(args.config)
    _require_paths(cfg, "embeddings", "lexicons")
    params, mcfg = model.load(args.model)
    if args.top is not None and not mcfg.use_attention:
        raise UsageError(f"--top needs attention, but {args.model} was trained without it")
    table, lexicons, tagger = _load_resources(cfg, mcfg)
    # the label on the record is a placeholder; prediction ignores it
    record = chat_corpus.read_transcript(args.transcript, Label.CT)
    instance = lexical_features.encode_record(record, table, lexicons, tagger,
                                              budget=mcfg.seq_len)
    # one forward pass gives the probability and, with attention, the weights
    prob, alpha = _forward(args.model, model.score_instance, params, mcfg, instance)
    label = "AD" if model.classify(prob) else "CT"
    print(f"{record.transcript_id}\t{prob:.4f}\t{label}")
    if args.top is not None:
        tokens = fix_length(tokenize(chat_corpus.extract_participant_text(record)),
                            mcfg.seq_len).tokens
        real = np.flatnonzero(instance.mask)
        for i in real[np.argsort(-alpha[real], kind="stable")[:args.top]]:
            print(f"  {alpha[i]:.4f}  [{i:3d}] {tokens[i]}")
    return 0


# ---------------------------------------------------------------------------
# parser and entry point

class _ArgumentParser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this project reserves 2 for
    data errors, so remap to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="alzdetect",
        description="Transcript-based dementia classification experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="corpus statistics per label")
    p.add_argument("corpus_dir", help="directory with ad/ and ct/ transcript folders")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("ingest", help="parse a corpus and write its manifest")
    p.add_argument("corpus_dir", help="directory with ad/ and ct/ transcript folders")
    p.add_argument("--output-dir", default=None,
                   help=f"artifact directory (default ${OUTPUT_DIR_ENV} or .)")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("synth", help="generate a synthetic labeled corpus")
    p.add_argument("config", help="YAML config with a synth section")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", help="train one model on the first seed's split")
    p.add_argument("config", help="YAML config")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a saved model on the test split")
    p.add_argument("config", help="YAML config")
    p.add_argument("--model", required=True, help="model file from train")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("compare", help="run the six-variant comparison")
    p.add_argument("config", help="YAML config")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("ablate", help="run the feature-group ablations")
    p.add_argument("config", help="YAML config")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("predict", help="classify a single transcript file")
    p.add_argument("config", help="YAML config")
    p.add_argument("--model", required=True, help="model file from train")
    p.add_argument("transcript", help="CHAT transcript file")
    p.add_argument("--top", type=int, default=None, metavar="N",
                   help="also print the N most-attended tokens (attention models only)")
    p.set_defaults(func=_cmd_predict)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command, its errors printed as one ``error:`` line and
    mapped to an exit code: 1 usage or config, 2 bad or missing data (a
    DataError or any OSError), 3 training divergence. numpy's floating-point
    warnings are muted, since every op checks its own output."""
    args = _build_parser().parse_args(argv)
    try:
        with np.errstate(all="ignore"):
            return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Diverged as exc:
        print(f"error: training diverged: {exc}", file=sys.stderr)
        return 3
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
