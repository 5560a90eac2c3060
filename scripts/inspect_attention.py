#!/usr/bin/env python3
"""Print the most-attended tokens of a transcript under a trained model.

Usage:
    python3 scripts/inspect_attention.py CONFIG MODEL TRANSCRIPT [--top N]

Train a model first, e.g. `alzdetect train configs/default.yaml`, then point
this at any .cha file to see where the attention mass sits. Exit codes are
the CLI's: 1 for a usage or config error, 2 for bad or missing data.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from alzdetect import chat_corpus, lexical_features, model, text_pipeline
from alzdetect.chat_corpus import Label
from alzdetect.cli import _ArgumentParser, _check_width, _load_resources, load_run_config, run


def main(argv=None):
    parser = _ArgumentParser(description=__doc__)
    parser.add_argument("config")
    parser.add_argument("model")
    parser.add_argument("transcript")
    parser.add_argument("--top", type=int, default=10)
    return run(_inspect, parser, parser.parse_args(argv))


def _inspect(parser, args) -> int:
    if args.top < 1:
        parser.error(f"--top must be at least 1, got {args.top}")
    cfg = load_run_config(args.config)
    params, mcfg = model.load(args.model)
    if not mcfg.use_attention:
        parser.error("that model was trained without attention")
    table, lexicons, tagger = _load_resources(cfg)
    _check_width(table.dim, mcfg)

    record = chat_corpus.read_transcript(args.transcript, Label.CT)
    instance = lexical_features.encode_record(record, table, lexicons, tagger,
                                              budget=mcfg.seq_len)

    tokens = text_pipeline.fix_length(
        text_pipeline.tokenize(chat_corpus.extract_participant_text(record)),
        mcfg.seq_len).tokens
    alpha = model.attention_weights(params, mcfg, instance)
    prob = model.predict(params, mcfg, [instance])[0]

    print(f"{record.transcript_id}: p(positive) = {prob:.4f}")
    for i in np.argsort(alpha)[::-1][:args.top]:
        if instance.mask[i]:
            print(f"  {alpha[i]:.4f}  [{i:3d}] {tokens[i]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
