#!/usr/bin/env python3
"""Run the six-variant comparison or the feature ablation end to end.

Generates the synthetic corpus on first use (skipped if corpus_dir already
has transcripts), then runs the chosen subcommand over the configured
seeds: `compare` trains and evaluates every variant and writes
<output_dir>/compare.csv; `ablate` retrains the full model with one
targeted-feature group dropped per row and writes <output_dir>/ablate.csv.

    python3 scripts/run_experiment.py compare --config configs/smoke.yaml
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from alzdetect.cli import load_run_config, main


def run(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", choices=("compare", "ablate"))
    parser.add_argument("--config", default="configs/default.yaml")
    args = parser.parse_args(argv)

    cfg = load_run_config(args.config)
    corpus_dir = Path(cfg.corpus_dir or ".")
    if not any(corpus_dir.glob("*/*.cha")):
        code = main(["synth", args.config])
        if code:
            return code
    return main([args.command, args.config])


if __name__ == "__main__":
    sys.exit(run())
