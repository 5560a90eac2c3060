"""Command-line flows: config parsing, exit codes, artifact round trips."""

import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from alzdetect.cli import UsageError, load_run_config, main
from alzdetect.model import ModelConfig
from helpers import edit_model_config, save_edited_model

REPO = Path(__file__).resolve().parent.parent

MODEL_SECTION = {
    "seq_len": 20, "embed_dim": 8, "pos_dim": 37, "conv_filters": 2,
    "conv_kernel": 3, "lstm_hidden": 3, "attention_dim": 3, "dense_units": 4,
    "dropout_rate": 0.0, "batch_size": 16, "max_epochs": 2, "patience": 5,
}

SYNTH_SECTION = {
    "n_participants": 24, "ad_fraction": 0.5, "embed_dim": 8, "seed": 0,
    "mean_length_ad": 14.0, "mean_length_ct": 22.0, "length_sd": 4.0,
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One synth-generated corpus shared by the flow tests."""
    root = tmp_path_factory.mktemp("cli")
    config = {
        "corpus_dir": str(root),
        "embeddings": str(root / "embeddings.txt"),
        "lexicons": str(root / "lexicons"),
        "output_dir": str(root),
        "seeds": [0],
        "model": MODEL_SECTION,
        "synth": SYNTH_SECTION,
    }
    cfg_path = root / "run.yaml"
    cfg_path.write_text(yaml.safe_dump(config))
    assert main(["synth", str(cfg_path)]) == 0
    return root, cfg_path


def _write_config(path, **overrides):
    config = {
        "corpus_dir": ".", "embeddings": "e.txt", "lexicons": "lex",
        "seeds": [0], "model": dict(MODEL_SECTION), "synth": dict(SYNTH_SECTION),
    }
    config.update(overrides)
    path.write_text(yaml.safe_dump(config))
    return path


# ---------------------------------------------------------------------------
# config loading


def test_load_run_config_round_trip(tmp_path, workspace):
    _, cfg_path = workspace
    cfg = load_run_config(cfg_path)
    assert cfg.seeds == (0,)
    assert cfg.model.seq_len == 20
    assert cfg.synth.n_participants == 24


def test_unknown_top_level_key_rejected(tmp_path):
    path = tmp_path / "c.yaml"
    path.write_text("corpus_dir: x\nbogus: 1\n")
    with pytest.raises(UsageError):
        load_run_config(path)


def test_unknown_model_key_rejected(tmp_path):
    path = tmp_path / "c.yaml"
    path.write_text("model:\n  hidden_size: 9\n")
    with pytest.raises(UsageError):
        load_run_config(path)


def test_unknown_split_and_synth_keys_rejected(tmp_path):
    path = tmp_path / "c.yaml"
    path.write_text("split:\n  ratio: 0.8\n")
    with pytest.raises(UsageError):
        load_run_config(path)
    path.write_text("synth:\n  n_speakers: 5\n")
    with pytest.raises(UsageError):
        load_run_config(path)


def test_bad_model_value_rejected(tmp_path):
    path = tmp_path / "c.yaml"
    path.write_text("model:\n  conv_kernel: 2\n")
    with pytest.raises(UsageError):
        load_run_config(path)


def test_empty_seed_list_rejected(tmp_path):
    path = tmp_path / "c.yaml"
    path.write_text("seeds: []\n")
    with pytest.raises(UsageError):
        load_run_config(path)


@pytest.mark.parametrize("seeds", ["5", "[a]", "[1.5]", "[-1]", "[true]"])
def test_mistyped_seeds_are_usage_errors(tmp_path, capsys, seeds):
    path = tmp_path / "c.yaml"
    path.write_text(f"seeds: {seeds}\n")
    with pytest.raises(UsageError, match="seeds"):
        load_run_config(path)
    assert main(["train", str(path)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err and "seeds" in err


@pytest.mark.parametrize("section, key, value", [
    ("variant", None, "[a]"),
    ("model", None, "[1]"),
    ("model", "seq_len", "20.5"),
    ("model", "batch_size", "true"),
    ("model", "learning_rate", "1e-3"),      # YAML 1.1 reads this as a string
    ("model", "feature_mask", "sent"),
    ("model", "bidirectional", "true"),
    ("model", "use_targeted_features", "true"),
    ("model", "optimizer", "adam"),
    ("model", "seed", "0"),
    ("split", "seed", "0"),
], ids=lambda v: str(v))
def test_mistyped_or_removed_config_value_is_usage_error(tmp_path, workspace, capsys,
                                                         section, key, value):
    """Each value is the YAML text a user wrote; the run stops with exit 1,
    one error line naming the key, and no training."""
    value = yaml.safe_load(value)
    if key is None:
        cfg = _bad_input_config(tmp_path, workspace, **{section: value})
    else:
        cfg = _bad_input_config(tmp_path, workspace,
                                **{section: {**MODEL_SECTION, key: value}
                                   if section == "model" else {key: value}})
    assert main(["train", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error:") and err.count("\n") == 1
    assert (key or section) in err
    assert not (tmp_path / "model.bin").exists()


@pytest.mark.parametrize("name", ["default.yaml", "smoke.yaml"])
def test_shipped_configs_load(name):
    cfg = load_run_config(REPO / "configs" / name)
    assert cfg.seeds and cfg.model.seq_len >= 1


def test_unknown_variant_rejected(tmp_path):
    path = tmp_path / "c.yaml"
    path.write_text("variant: SUPER-LSTM\n")
    with pytest.raises(UsageError):
        load_run_config(path)


def test_empty_config_uses_defaults(tmp_path):
    path = tmp_path / "c.yaml"
    path.write_text("")
    cfg = load_run_config(path)
    assert cfg.seeds == (0, 1, 2)
    assert cfg.model.seq_len == 73


# ---------------------------------------------------------------------------
# exit codes


def test_no_arguments_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


def test_help_exits_zero():
    for command in ("stats", "ingest", "synth", "train", "eval",
                    "compare", "ablate", "predict"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0


def test_config_error_exits_one(tmp_path, capsys):
    path = tmp_path / "c.yaml"
    path.write_text("bogus: 1\n")
    assert main(["train", str(path)]) == 1
    assert "bogus" in capsys.readouterr().err


def test_missing_corpus_is_data_error(tmp_path, capsys):
    assert main(["stats", str(tmp_path / "nowhere")]) == 2
    assert "error:" in capsys.readouterr().err


def test_missing_embeddings_fails_fast(tmp_path, workspace):
    root, _ = workspace
    path = _write_config(tmp_path / "c.yaml",
                         corpus_dir=str(root),
                         embeddings=str(tmp_path / "missing.txt"),
                         lexicons=str(root / "lexicons"),
                         output_dir=str(tmp_path))
    assert main(["train", str(path)]) == 2
    assert not (tmp_path / "model.bin").exists()


def test_corrupt_model_file_is_data_error(tmp_path, workspace):
    root, cfg_path = workspace
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"not a model")
    assert main(["eval", str(cfg_path), "--model", str(bad)]) == 2


def test_divergent_training_exits_three(tmp_path, workspace):
    root, _ = workspace
    model = dict(MODEL_SECTION, learning_rate=1e200)
    path = _write_config(tmp_path / "c.yaml",
                         corpus_dir=str(root),
                         embeddings=str(root / "embeddings.txt"),
                         lexicons=str(root / "lexicons"),
                         output_dir=str(tmp_path), model=model)
    assert main(["train", str(path)]) == 3


def _bad_input_config(tmp_path, workspace, **overrides):
    root, _ = workspace
    paths = dict(corpus_dir=str(root), embeddings=str(root / "embeddings.txt"),
                 lexicons=str(root / "lexicons"), output_dir=str(tmp_path))
    return _write_config(tmp_path / "c.yaml", **{**paths, **overrides})


def _assert_data_error(argv, capsys, needle):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error:") and err.count("\n") == 1
    assert needle in err


@pytest.mark.parametrize("change, needle", [
    (lambda t: t.pop("out_b"), "out_b"),
    (lambda t: t.update(lstm_fwd_wh=np.zeros((2, 12))), "lstm_fwd_wh"),
], ids=["missing-tensor", "wrong-shape"])
def test_model_file_not_matching_its_config_is_data_error(tmp_path, workspace, capsys,
                                                          change, needle):
    root, _ = workspace
    path = tmp_path / "model.bin"
    save_edited_model(ModelConfig(**MODEL_SECTION), path, change)
    transcript = sorted((root / "ct").glob("*.cha"))[0]
    cfg = _bad_input_config(tmp_path, workspace)
    _assert_data_error(["predict", str(cfg), "--model", str(path), str(transcript)],
                       capsys, needle)


@pytest.mark.parametrize("key, value", [
    ("seq_len", 20.0), ("use_attention", 1), ("feature_mask", "sent"),
    ("learning_rate", "0.001"),
])
def test_mistyped_model_file_config_is_data_error(tmp_path, workspace, capsys, key, value):
    root, _ = workspace
    path = tmp_path / "model.bin"
    save_edited_model(ModelConfig(**MODEL_SECTION), path, lambda t: None)
    edit_model_config(path, lambda c: c.update({key: value}))
    transcript = sorted((root / "ct").glob("*.cha"))[0]
    cfg = _bad_input_config(tmp_path, workspace)
    _assert_data_error(["predict", str(cfg), "--model", str(path), str(transcript)],
                       capsys, f"{key} must be")


def test_overflowing_lexicon_mean_is_data_error(tmp_path, workspace, capsys):
    root, _ = workspace
    lexicons = tmp_path / "lexicons"
    shutil.copytree(root / "lexicons", lexicons)
    aoa = lexicons / "aoa.tsv"
    words = [line.split("\t")[0] for line in aoa.read_text().splitlines()[1:]]
    aoa.write_text("# range 0 1.7e308\n" + "".join(f"{w}\t1e308\n" for w in words))
    cfg = _bad_input_config(tmp_path, workspace, lexicons=str(lexicons))
    _assert_data_error(["train", str(cfg)], capsys, "the aoa feature is not finite")


@pytest.mark.parametrize("value", ["nan", "inf", "0.1x"])
def test_bad_embedding_value_is_data_error(tmp_path, workspace, capsys, value):
    root, _ = workspace
    lines = (root / "embeddings.txt").read_text().splitlines()
    word, *vec = lines[2].split()
    vec[1] = value
    lines[2] = " ".join([word, *vec])
    bad = tmp_path / "embeddings.txt"
    bad.write_text("\n".join(lines) + "\n")
    cfg = _bad_input_config(tmp_path, workspace, embeddings=str(bad))
    _assert_data_error(["train", str(cfg)], capsys, f"{bad}:3:")


@pytest.mark.parametrize("text, needle", [
    ("PTAG v9\n", ":1:"),
    ("PTAG v1\nbias NN 0.5\n", ":2:"),
    ("PTAG v1\nbias\tNN\tlots\n", ":2:"),
    ("PTAG v1\nbias\tXX\t0.5\n", ":2:"),
], ids=["header", "no-tabs", "bad-weight", "unknown-tag"])
def test_bad_tagger_file_is_data_error(tmp_path, workspace, capsys, text, needle):
    tagger = tmp_path / "tagger.txt"
    tagger.write_text(text)
    cfg = _bad_input_config(tmp_path, workspace, tagger=str(tagger))
    _assert_data_error(["train", str(cfg)], capsys, needle)


def test_non_finite_lexicon_is_data_error(tmp_path, workspace, capsys):
    root, _ = workspace
    lexicons = tmp_path / "lexicons"
    shutil.copytree(root / "lexicons", lexicons)
    bad = lexicons / "sentiment.tsv"
    bad.write_text("# range 0 inf\nhello\t1e400\n")
    cfg = _bad_input_config(tmp_path, workspace, lexicons=str(lexicons))
    _assert_data_error(["train", str(cfg)], capsys, f"{bad}:1:")


def _not_utf8(path, source=None):
    """``path`` holding ``source``'s bytes (or nothing) plus a byte UTF-8 never uses."""
    path.write_bytes((source.read_bytes() if source else b"") + b"caf\xff\n")
    return path


def _non_utf8_transcript_predict(tmp_path, workspace):
    root, _ = workspace
    model_path = tmp_path / "model.bin"
    save_edited_model(ModelConfig(**MODEL_SECTION), model_path, lambda tensors: None)
    bad = _not_utf8(tmp_path / "p1-1.cha", sorted((root / "ct").glob("*.cha"))[0])
    cfg = _bad_input_config(tmp_path, workspace)
    return ["predict", str(cfg), "--model", str(model_path), str(bad)], bad


def _non_utf8_transcript_corpus(tmp_path, workspace):
    root, _ = workspace
    (tmp_path / "ad").mkdir()
    bad = _not_utf8(tmp_path / "ad" / "p1-1.cha", sorted((root / "ad").glob("*.cha"))[0])
    return ["stats", str(tmp_path)], bad


def _non_utf8_lexicon(tmp_path, workspace):
    root, _ = workspace
    lexicons = tmp_path / "lexicons"
    shutil.copytree(root / "lexicons", lexicons)
    bad = _not_utf8(lexicons / "aoa.tsv", root / "lexicons" / "aoa.tsv")
    return ["train", str(_bad_input_config(tmp_path, workspace, lexicons=str(lexicons)))], bad


def _non_utf8_embeddings(tmp_path, workspace):
    root, _ = workspace
    bad = _not_utf8(tmp_path / "embeddings.txt", root / "embeddings.txt")
    return ["train", str(_bad_input_config(tmp_path, workspace, embeddings=str(bad)))], bad


def _non_utf8_tagger(tmp_path, workspace):
    tagger = tmp_path / "tagger.txt"
    tagger.write_text("PTAG v1\nbias\tNN\t0.5\n")
    bad = _not_utf8(tagger, tagger)
    return ["train", str(_bad_input_config(tmp_path, workspace, tagger=str(bad)))], bad


def _non_utf8_config(tmp_path, workspace):
    cfg = _bad_input_config(tmp_path, workspace)
    return ["train", str(_not_utf8(cfg, cfg))], cfg


@pytest.mark.parametrize("make", [
    _non_utf8_transcript_predict, _non_utf8_transcript_corpus, _non_utf8_lexicon,
    _non_utf8_embeddings, _non_utf8_tagger, _non_utf8_config,
], ids=["transcript-predict", "transcript-corpus", "lexicon", "embeddings", "tagger",
        "config"])
def test_non_utf8_input_is_data_error(tmp_path, workspace, capsys, make):
    argv, bad = make(tmp_path, workspace)
    _assert_data_error(argv, capsys, f"{bad}: not UTF-8 text")


@pytest.fixture
def narrow_embeddings_config(tmp_path, workspace):
    """The workspace config (8-d model) pointed at a 5-d embeddings file."""
    root, _ = workspace
    narrow = tmp_path / "embeddings5.txt"
    narrow.write_text("".join(" ".join(line.split()[:6]) + "\n"
                              for line in (root / "embeddings.txt").read_text().splitlines()))
    return _bad_input_config(tmp_path, workspace, embeddings=str(narrow))


def test_train_with_narrower_embeddings_is_data_error(narrow_embeddings_config, capsys):
    _assert_data_error(["train", str(narrow_embeddings_config)], capsys, "dimensional")


def test_predict_with_narrower_embeddings_is_data_error(tmp_path, workspace,
                                                         narrow_embeddings_config, capsys):
    root, _ = workspace
    path = tmp_path / "model.bin"
    save_edited_model(ModelConfig(**MODEL_SECTION), path, lambda tensors: None)
    transcript = sorted((root / "ct").glob("*.cha"))[0]
    _assert_data_error(["predict", str(narrow_embeddings_config), "--model", str(path),
                        str(transcript)], capsys, "dimensional")


def _run_inspect_attention(*args):
    return subprocess.run([sys.executable, str(REPO / "scripts" / "inspect_attention.py"),
                           *map(str, args)], capture_output=True, text=True)


def _assert_one_line_data_error(proc, needle):
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("error:") == 1
    assert needle in proc.stderr


def test_inspect_attention_missing_model_is_data_error(tmp_path, workspace):
    root, cfg_path = workspace
    transcript = sorted((root / "ct").glob("*.cha"))[0]
    missing = tmp_path / "no-such-model.bin"
    _assert_one_line_data_error(_run_inspect_attention(cfg_path, missing, transcript),
                                "no-such-model.bin")


def test_inspect_attention_non_utf8_transcript_is_data_error(tmp_path, workspace):
    root, cfg_path = workspace
    path = tmp_path / "model.bin"
    save_edited_model(ModelConfig(**MODEL_SECTION), path, lambda tensors: None)
    bad = _not_utf8(tmp_path / "p1-1.cha", sorted((root / "ct").glob("*.cha"))[0])
    _assert_one_line_data_error(_run_inspect_attention(cfg_path, path, bad),
                                f"{bad}: not UTF-8 text")


def test_inspect_attention_narrower_embeddings_is_data_error(tmp_path, workspace,
                                                             narrow_embeddings_config):
    root, _ = workspace
    path = tmp_path / "model.bin"
    save_edited_model(ModelConfig(**MODEL_SECTION), path, lambda tensors: None)
    transcript = sorted((root / "ct").glob("*.cha"))[0]
    _assert_one_line_data_error(
        _run_inspect_attention(narrow_embeddings_config, path, transcript), "dimensional")


# ---------------------------------------------------------------------------
# command flows on the shared synthetic corpus


def test_synth_wrote_parseable_corpus(workspace, capsys):
    root, _ = workspace
    assert (root / "ad").is_dir() and (root / "ct").is_dir()
    assert main(["stats", str(root)]) == 0
    out = capsys.readouterr().out
    assert "participants" in out and "median words" in out


def test_ingest_writes_manifest(tmp_path, workspace, capsys):
    root, _ = workspace
    assert main(["ingest", str(root), "--output-dir", str(tmp_path)]) == 0
    manifest = tmp_path / "manifest.jsonl"
    assert manifest.exists()
    assert len(manifest.read_text().splitlines()) == 24


def test_output_dir_env_var_is_honored(tmp_path, workspace, monkeypatch, capsys):
    root, _ = workspace
    target = tmp_path / "from_env"
    monkeypatch.setenv("ALZDETECT_OUTPUT_DIR", str(target))
    assert main(["ingest", str(root)]) == 0
    assert (target / "manifest.jsonl").exists()


def test_train_eval_predict_flow(workspace, capsys):
    root, cfg_path = workspace
    assert main(["train", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "model ->" in out

    model_path = root / "model.bin"
    log_path = root / "training_log.csv"
    assert model_path.exists() and log_path.exists()
    log_lines = log_path.read_text().splitlines()
    assert log_lines[0] == "epoch,train_loss,val_loss,val_auc"
    assert 2 <= len(log_lines) <= MODEL_SECTION["max_epochs"] + 1

    assert main(["eval", str(cfg_path), "--model", str(model_path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("Variant")
    assert (root / "eval.csv").exists()

    transcript = sorted((root / "ct").glob("*.cha"))[0]
    assert main(["predict", str(cfg_path), "--model", str(model_path),
                 str(transcript)]) == 0
    line = capsys.readouterr().out.strip()
    assert re.fullmatch(rf"{transcript.stem}\t0\.\d{{4}}\t(AD|CT)", line)


def test_compare_is_byte_deterministic(tmp_path, workspace, capsys):
    root, _ = workspace
    texts = []
    for run in ("x", "y"):
        out_dir = tmp_path / run
        path = _write_config(tmp_path / f"{run}.yaml",
                             corpus_dir=str(root),
                             embeddings=str(root / "embeddings.txt"),
                             lexicons=str(root / "lexicons"),
                             output_dir=str(out_dir))
        assert main(["compare", str(path)]) == 0
        texts.append((out_dir / "compare.csv").read_bytes())
    capsys.readouterr()
    assert texts[0] == texts[1]
    header = texts[0].decode().splitlines()[0]
    assert header.startswith("variant,seed,accuracy")
    rows = texts[0].decode().splitlines()
    assert len(rows) == 1 + 6 * 2   # header + (1 seed + mean) per variant


def test_ablate_writes_three_rows(tmp_path, workspace, capsys):
    root, _ = workspace
    out_dir = tmp_path / "ab"
    path = _write_config(tmp_path / "ab.yaml",
                         corpus_dir=str(root),
                         embeddings=str(root / "embeddings.txt"),
                         lexicons=str(root / "lexicons"),
                         output_dir=str(out_dir))
    assert main(["ablate", str(path)]) == 0
    capsys.readouterr()
    rows = (out_dir / "ablate.csv").read_text().splitlines()
    assert len(rows) == 1 + 3 * 2
    assert rows[1].startswith("No Psych.,")


def test_smoke_reports_match_golden_files(tmp_path, capsys):
    """configs/smoke.yaml, run end to end, writes the committed reports byte
    for byte; a refactor that moves any reported number fails here."""
    config = yaml.safe_load((REPO / "configs" / "smoke.yaml").read_text())
    config.update(corpus_dir=str(tmp_path), embeddings=str(tmp_path / "embeddings.txt"),
                  lexicons=str(tmp_path / "lexicons"), output_dir=str(tmp_path))
    path = tmp_path / "smoke.yaml"
    path.write_text(yaml.safe_dump(config))
    for command in ("synth", "compare", "ablate"):
        assert main([command, str(path)]) == 0
    capsys.readouterr()
    for report in ("compare", "ablate"):
        golden = REPO / "tests" / "golden" / f"smoke_{report}.csv"
        assert (tmp_path / f"{report}.csv").read_bytes() == golden.read_bytes(), report
