"""Command-line flows: config parsing, exit codes, artifact round trips."""

import contextlib
import errno
import io
import os
import re
import shutil
import struct
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from alzdetect import chat_corpus, evaluation, lexical_features, model, text_pipeline
from alzdetect.chat_corpus import Label
from alzdetect.cli import _NOT_IN_YAML, UsageError, load_run_config, main
from alzdetect.model import ModelConfig
from alzdetect.text_pipeline import default_tagger
from helpers import edit_model_config, save_edited_model

REPO = Path(__file__).resolve().parent.parent

MODEL_SECTION = {
    "seq_len": 20, "conv_filters": 2,
    "conv_kernel": 3, "lstm_hidden": 3, "attention_dim": 3, "dense_units": 4,
    "dropout_rate": 0.0, "batch_size": 16, "max_epochs": 2, "patience": 5,
}
# a saved model as `train` writes it from the workspace's 8-d embeddings
SAVED = ModelConfig(**MODEL_SECTION, embed_dim=8)

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
    ("variant", None, "null"),
    ("tagger", None, "tagger.txt"),
    ("model", None, "[1]"),
    ("model", "seq_len", "20.5"),
    ("model", "batch_size", "true"),
    ("model", "learning_rate", "1e-3"),      # YAML 1.1 reads this as a string
    ("model", "feature_mask", "sent"),
    ("model", "feature_mask", "[sent]"),
    ("model", "use_attention", "false"),
    ("model", "use_class_weights", "false"),
    ("model", "bidirectional", "true"),
    ("model", "use_targeted_features", "true"),
    ("model", "optimizer", "adam"),
    ("model", "seed", "0"),
    ("model", "pos_dim", "36"),
    ("model", "embed_dim", "8"),
    ("split", "seed", "0"),
    ("split", "test_fraction", "0.1"),
    ("split", "unit", "transcript"),
    # fractions that leave a slice empty for every corpus; the default
    # train_fraction is 0.81, so 0.19 leaves the test slice nothing
    ("split", "train_fraction", "0.0"),
    ("split", "val_fraction", "0.0"),
    ("split", "val_fraction", "0.19"),
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
    assert cfg.variant == "OURS-Att-w"
    assert model.variant_config(cfg.variant, cfg.model) == cfg.model


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


def test_integer_too_long_to_parse_is_usage_error(tmp_path, capsys):
    path = tmp_path / "c.yaml"
    path.write_text("model: {learning_rate: " + "9" * 5000 + "}\n")
    assert main(["train", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot parse config") and err.count("\n") == 1


# lists nested past the YAML and JSON decoders' recursion limits; each once
# ended in a RecursionError traceback
_NESTED_YAML = "model: " + "[" * 5000 + "]" * 5000 + "\n"
_NESTED_JSON = b"[" * 100_000


def _write_nested_model_file(path):
    path.write_bytes(model.MAGIC + struct.pack("<II", model.FORMAT_VERSION, len(_NESTED_JSON))
                     + _NESTED_JSON)


def test_nested_config_is_usage_error(tmp_path, capsys):
    path = tmp_path / "c.yaml"
    path.write_text(_NESTED_YAML)
    assert main(["train", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot parse config") and err.count("\n") == 1


@pytest.mark.parametrize("text, message", [
    ('a: "\\q"\n', "1:6: found unknown escape character 'q'"),
    ("model: !" + "x" * 200_000 + " 1\n", "1:8: could not determine a constructor for "
                                          "the tag [...]"),
    ("seeds: *" + "x" * 200_000 + "\n", "1:8: found undefined alias [...]"),
], ids=["bad-escape", "long-tag", "long-alias"])
def test_yaml_error_is_one_short_line(tmp_path, capsys, text, message):
    """The YAML parser's message spans seven lines for a bad escape and quotes
    a tag or an alias whole; the error keeps its place and problem."""
    path = tmp_path / "c.yaml"
    path.write_text(text)
    assert main(["train", str(path)]) == 1
    assert capsys.readouterr().err == f"error: cannot parse config {path}:{message}\n"


def test_missing_corpus_is_data_error(tmp_path, capsys):
    assert main(["stats", str(tmp_path / "nowhere")]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.skipif(sys.platform == "win32", reason="opening a directory is EACCES there")
def test_directory_named_like_a_transcript_is_data_error(tmp_path, capsys):
    """A directory that ``*.cha`` matches is opened like a file, and the
    OSError names it by its path."""
    (tmp_path / "ad" / "x.cha").mkdir(parents=True)
    assert main(["stats", str(tmp_path)]) == 2
    path = tmp_path / "ad" / "x.cha"
    assert capsys.readouterr().err == (
        f"error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: '{path}'\n")


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


@pytest.mark.filterwarnings("error")       # numpy's overflow warnings are stray lines too
@pytest.mark.parametrize("learning_rate", [1e200, 1e308], ids=["1e200", "1e308"])
def test_divergent_training_exits_three(tmp_path, workspace, capsys, learning_rate):
    """1e200 overflows in the LSTM first, 1e308 already in the optimizer step
    and a matmul; either way the one stderr line is the error."""
    root, _ = workspace
    model = dict(MODEL_SECTION, learning_rate=learning_rate)
    path = _write_config(tmp_path / "c.yaml",
                         corpus_dir=str(root),
                         embeddings=str(root / "embeddings.txt"),
                         lexicons=str(root / "lexicons"),
                         output_dir=str(tmp_path), model=model)
    assert main(["train", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: training diverged") and err.count("\n") == 1, err


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


@pytest.mark.parametrize("command", ["train", "synth"])
def test_output_dir_that_is_a_file_is_data_error(tmp_path, workspace, capsys, command):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    cfg = _bad_input_config(tmp_path, workspace, output_dir=str(taken))
    _assert_data_error([command, str(cfg)], capsys, str(taken))


@pytest.mark.parametrize("key, value", [
    ("mean_length_ct", 1.0e300), ("length_sd", 1.0e300), ("n_participants", 10**20),
    ("transcripts_per_participant", 10**20), ("embed_dim", 10**8)])
def test_synth_sizes_past_their_bounds_stop_before_anything_is_written(
        tmp_path, workspace, capsys, key, value):
    out = tmp_path / "out"
    cfg = _bad_input_config(tmp_path, workspace, output_dir=str(out),
                            synth={**SYNTH_SECTION, key: value})
    assert main(["synth", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert "at most" in err or "embed_dim must be in" in err
    assert not out.exists()


def test_lexicons_path_that_is_a_file_names_the_lexicon_it_opened(tmp_path, workspace,
                                                                  capsys):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    cfg = _bad_input_config(tmp_path, workspace, lexicons=str(taken))
    _assert_data_error(["train", str(cfg)], capsys, str(taken / "aoa.tsv"))


def _corrupt(data: bytes, edit) -> bytes:
    """``data`` after one edit: ``("truncate", at)``, ``("overwrite", at,
    new)``, ``("insert", at, new)`` or ``("nan", k)``. An int ``at`` is a
    byte offset, taken modulo the length; a bytes ``at`` is the offset just
    after its first occurrence. ``nan`` replaces the k-th number of a text
    file, or the last float of a model file, with a NaN."""
    kind, *rest = edit
    if kind == "nan":
        if data.startswith(b"ADNM"):
            return data[:-8] + struct.pack("<d", float("nan"))
        numbers = list(re.finditer(rb"\d+(?:\.\d+)?(?:e[-+]?\d+)?", data))
        if not numbers:
            return data
        m = numbers[rest[0] % len(numbers)]
        return data[:m.start()] + b"nan" + data[m.end():]
    at = rest[0]
    at = data.index(at) + len(at) if isinstance(at, bytes) else at % (len(data) + 1)
    if kind == "truncate":
        return data[:at]
    new = rest[1]
    return data[:at] + new + data[at + len(new) * (kind == "overwrite"):]


# edits of the first tensor of a saved model, which is its name (the only
# header a tensor has) and then its float64 values
_FIRST_TENSOR = b"conv_embed_kernels"
_TENSOR_EDITS = {
    "renamed": ("overwrite", _FIRST_TENSOR[:-1], b"z"),
    "inserted-byte": ("insert", _FIRST_TENSOR, b"\xff"),
    "truncated-name": ("truncate", _FIRST_TENSOR[:-4]),
}


@pytest.mark.parametrize("edit", _TENSOR_EDITS.values(), ids=_TENSOR_EDITS.keys())
def test_corrupt_tensor_header_is_data_error(tmp_path, workspace, capsys, edit):
    root, _ = workspace
    path = tmp_path / "model.bin"
    save_edited_model(SAVED, path, lambda t: None)
    path.write_bytes(_corrupt(path.read_bytes(), edit))
    transcript = sorted((root / "ct").glob("*.cha"))[0]
    cfg = _bad_input_config(tmp_path, workspace)
    _assert_data_error(["predict", str(cfg), "--model", str(path), str(transcript)],
                       capsys, str(path))


# edits of the first control transcript, which opens with one *INV: line
# ending "picture ?" and then its *PAR: tiers
_TRANSCRIPT_EDITS = {
    "no-par-tier": (("truncate", b"picture ?\n"), "{path}: no *PAR: tier in file"),
    "no-words": (("truncate", b"*PAR:\t"), "transcript {id}: no word tokens"),
    "bad-tier": (("insert", b"picture ?\n", b"*PA:\thi\n"),
                 "{path}: bad tier line: '*PA:\\thi'"),
    # 5,000 nines before the age, past what int() parses; shown shortened
    "long-age": (("insert", b"|PAR|", b"9" * 5000),
                 "{path}: age '999999999999...99999999999"),
}


@pytest.mark.parametrize("edit, message", _TRANSCRIPT_EDITS.values(),
                         ids=_TRANSCRIPT_EDITS.keys())
def test_bad_transcript_error_names_it(tmp_path, workspace, capsys, edit, message):
    root, _ = workspace
    for label in ("ad", "ct"):
        shutil.copytree(root / label, tmp_path / "corpus" / label)
    bad = sorted((tmp_path / "corpus" / "ct").glob("*.cha"))[0]
    bad.write_bytes(_corrupt(bad.read_bytes(), edit))
    cfg = _bad_input_config(tmp_path, workspace, corpus_dir=str(tmp_path / "corpus"))
    _assert_data_error(["train", str(cfg)], capsys,
                       message.format(path=bad, id=bad.stem))


@pytest.mark.parametrize("change, needle", [
    (lambda t: t.pop("out_b"), "out_b"),
    # too few values: the file stops matching at the next tensor's name
    (lambda t: t.update(lstm_fwd_wh=np.zeros((2, 12))), "expected tensor 'lstm_fwd_b'"),
], ids=["missing-tensor", "wrong-shape"])
def test_model_file_not_matching_its_config_is_data_error(tmp_path, workspace, capsys,
                                                          change, needle):
    root, _ = workspace
    path = tmp_path / "model.bin"
    save_edited_model(SAVED, path, change)
    transcript = sorted((root / "ct").glob("*.cha"))[0]
    cfg = _bad_input_config(tmp_path, workspace)
    _assert_data_error(["predict", str(cfg), "--model", str(path), str(transcript)],
                       capsys, needle)


def test_nested_model_file_config_is_data_error(tmp_path, workspace, capsys):
    path = tmp_path / "deep.bin"
    _write_nested_model_file(path)
    cfg = _bad_input_config(tmp_path, workspace)
    _assert_data_error(["eval", str(cfg), "--model", str(path)], capsys,
                       f"{path}: bad config block")


@pytest.mark.parametrize("key, value", [
    ("seq_len", 20.0), ("use_attention", 1), ("feature_mask", "sent"),
    ("learning_rate", "0.001"),
])
def test_mistyped_model_file_config_is_data_error(tmp_path, workspace, capsys, key, value):
    root, _ = workspace
    path = tmp_path / "model.bin"
    save_edited_model(SAVED, path, lambda t: None)
    edit_model_config(path, lambda c: c.update({key: value}))
    transcript = sorted((root / "ct").glob("*.cha"))[0]
    cfg = _bad_input_config(tmp_path, workspace)
    _assert_data_error(["predict", str(cfg), "--model", str(path), str(transcript)],
                       capsys, f"{key} must be")


@pytest.mark.filterwarnings("error")       # numpy's overflow warnings are stray lines too
@pytest.mark.parametrize("command", ["eval", "predict", "predict-top"])
def test_model_whose_forward_pass_overflows_is_data_error(tmp_path, workspace, capsys,
                                                          command):
    """Finite weights so large that the forward pass overflows are bad data
    in the model file, not a bug: one error line names the file, exit 2."""
    path = tmp_path / "model.bin"
    save_edited_model(SAVED, path, lambda t: [t[name].fill(1e308) for name in
                                              ("conv_embed_kernels", "lstm_fwd_wx")])
    cfg = _bad_input_config(tmp_path, workspace)
    top = ["--top", "3"] if command == "predict-top" else []
    argv = (["eval", str(cfg), "--model", str(path)] if command == "eval"
            else _predict_argv(cfg, path, workspace, *top))
    _assert_data_error(argv, capsys, f"error: {path}: the forward pass overflows: "
                                     f"conv1d produced a non-finite value")
    assert not (tmp_path / "eval.csv").exists()


_LONG = 10_000       # items in a bad config value: echoed whole, its error line is 50 KB


@pytest.mark.parametrize("seeds", [["x"] * _LONG, [-1] * _LONG], ids=["strings", "negative"])
def test_long_bad_config_value_is_echoed_short(tmp_path, workspace, capsys, seeds):
    cfg = _bad_input_config(tmp_path, workspace, seeds=seeds)
    assert main(["train", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: seeds must be ") and err.count("\n") == 1
    assert len(err) < 200, len(err)


def test_long_bad_model_file_config_value_is_echoed_short(tmp_path, workspace, capsys):
    path = tmp_path / "model.bin"
    save_edited_model(SAVED, path, lambda t: None)
    edit_model_config(path, lambda c: c.update(seq_len=["x"] * _LONG))
    cfg = _bad_input_config(tmp_path, workspace)
    assert main(["eval", str(cfg), "--model", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == (f"error: {path}: bad config block: seq_len must be an integer, "
                   f"got ['x', 'x', 'x', 'x', 'x', 'x', ...] (list)\n")


@pytest.mark.parametrize("key, value, needle", [
    ("feature_mask", ["x" * 200_000], "unknown feature groups ['xxxxxxxxxxxx...xxxxxxxxxxxxx']"),
    ("conv_filters", int("9" * 4000), "conv_filters = 999999999999999999...9999999999999999999"),
], ids=["feature-group", "size"])
def test_long_model_file_config_value_is_echoed_shortened(tmp_path, workspace, capsys,
                                                          key, value, needle):
    path = tmp_path / "model.bin"
    save_edited_model(SAVED, path, lambda t: None)
    edit_model_config(path, lambda c: c.update({key: value}))
    cfg = _bad_input_config(tmp_path, workspace)
    assert main(["eval", str(cfg), "--model", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: bad config block: ") and needle in err
    assert len(err.replace(str(path), "")) <= _ERROR_BYTES, len(err)


_HUGE = 200_000      # characters in one config name: echoed whole, a 200 KB line


def test_long_unknown_config_key_is_named_short(tmp_path, workspace, capsys):
    cfg = _bad_input_config(tmp_path, workspace, model={**MODEL_SECTION, "k" * _HUGE: 1})
    assert main(["train", str(cfg)]) == 1
    assert capsys.readouterr().err == ("error: unknown model keys: "
                                       "kkkkkkkkkkkk...kkkkkkkkkkkkk\n")


def test_long_unknown_variant_is_echoed_short(tmp_path, workspace, capsys):
    cfg = _bad_input_config(tmp_path, workspace, variant="v" * _HUGE)
    assert main(["train", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: unknown variant 'vvvvvvvvvvvv...vvvvvvvvvvvvv'; "
                          "expected one of C-LSTM, ") and err.count("\n") == 1, err[:200]
    assert len(err) < 200, len(err)


_MANY_KEYS = {f"k{i}": 1 for i in range(2_000)}    # named whole, the error line is 13 KB
_FIRST_KEYS = "k0, k1, k10, k100, k1000, ... (2,000 in all)"


@pytest.mark.parametrize("section, overrides", [
    ("config", _MANY_KEYS),
    ("model", {"model": {**MODEL_SECTION, **_MANY_KEYS}}),
    ("synth", {"synth": {**SYNTH_SECTION, **_MANY_KEYS}}),
], ids=["top", "model", "synth"])
def test_many_unknown_config_keys_are_named_short(tmp_path, workspace, capsys,
                                                  section, overrides):
    cfg = _bad_input_config(tmp_path, workspace, **overrides)
    assert main(["train", str(cfg)]) == 1
    assert capsys.readouterr().err == f"error: unknown {section} keys: {_FIRST_KEYS}\n"


def test_many_unknown_model_file_config_keys_are_named_short(tmp_path, workspace, capsys):
    path = tmp_path / "model.bin"
    save_edited_model(SAVED, path, lambda t: None)
    edit_model_config(path, lambda c: c.update(_MANY_KEYS))
    cfg = _bad_input_config(tmp_path, workspace)
    assert main(["eval", str(cfg), "--model", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {path}: bad config block: unknown config keys: {_FIRST_KEYS}\n"


@pytest.mark.parametrize("switches, name, feature_dim", [
    (model.VARIANTS["C-LSTM"], "C-LSTM", 0),
    (dict(model.VARIANTS["OURS"], feature_mask=("sent",)), "OURS", 1),
    (dict(use_attention=False, use_class_weights=True), "model", 7),
], ids=["C-LSTM", "OURS", "no-variant"])
def test_eval_names_its_row_after_the_model_file(tmp_path, workspace, capsys,
                                                 switches, name, feature_dim):
    path = tmp_path / "model.bin"
    save_edited_model(replace(SAVED, **switches), path, lambda t: None)
    cfg = _bad_input_config(tmp_path, workspace, variant="OURS-Att-w")
    assert main(["eval", str(cfg), "--model", str(path)]) == 0
    capsys.readouterr()
    row = (tmp_path / "eval.csv").read_text().splitlines()[1].split(",")
    assert (row[0], row[-1]) == (name, str(feature_dim))


@pytest.mark.parametrize("key, value", [
    ("seq_len", 10**30), ("seq_len", model.MAX_SEQ_LEN + 1), ("conv_filters", 10**30),
    ("lstm_hidden", 10**10), ("conv_kernel", 10**9 + 1), ("learning_rate", 10**400),
    ("learning_rate", float("inf")),
])
def test_oversize_config_value_is_refused(tmp_path, workspace, capsys, key, value):
    """Too large in the YAML: exit 1; in a model file's config block: exit 2.
    Either way one error line names the key."""
    cfg = _bad_input_config(tmp_path, workspace, model={**MODEL_SECTION, key: value})
    assert main(["train", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and key in err
    root, _ = workspace
    path = tmp_path / "model.bin"
    save_edited_model(SAVED, path, lambda t: None)
    edit_model_config(path, lambda c: c.update({key: value}))
    transcript = sorted((root / "ct").glob("*.cha"))[0]
    _assert_data_error(["predict", str(_bad_input_config(tmp_path, workspace)),
                        "--model", str(path), str(transcript)], capsys, key)


def test_too_wide_embeddings_are_data_error(tmp_path, workspace, capsys):
    """The embedding file sets a new model's width, so a table too wide for
    model.MAX_PARAMS is bad data, though the config alone is within it."""
    wide = tmp_path / "wide.txt"
    wide.write_text("the " + " ".join(["0.5"] * 1000) + "\n")
    cfg = _bad_input_config(tmp_path, workspace, embeddings=str(wide),
                            model={**MODEL_SECTION, "conv_filters": 50_000})
    _assert_data_error(["train", str(cfg)], capsys, "1000-dimensional")


_PROBES = [0, 1, 3, -1, 10**30, 0.5, 2.5, float("nan"), True, "x", None, [],
           ["sent"], [1], {"a": 1}]


def test_yaml_and_model_file_decode_model_values_alike(tmp_path, workspace):
    """For every ModelConfig field, the YAML model section and a model file's
    config block accept and refuse the same values, and decode them alike;
    the fields the YAML does not take are refused there whatever the value."""
    path = tmp_path / "model.bin"
    for key in ModelConfig.__dataclass_fields__:
        for value in _PROBES:
            try:
                yaml_cfg = load_run_config(_write_config(
                    tmp_path / "c.yaml", model={**MODEL_SECTION, key: value})).model
            except UsageError:
                yaml_cfg = None
            save_edited_model(SAVED, path, lambda t: None)
            edit_model_config(path, lambda c: c.update({key: value}))
            file_cfg, file_ok = None, True
            try:
                file_cfg = model.load(path)[1]
            except chat_corpus.DataError as exc:     # the config, or the tensors it implies
                file_ok = "bad config block" not in str(exc)
            if f"model.{key}" in _NOT_IN_YAML:
                assert yaml_cfg is None, (key, value)
                continue
            assert (yaml_cfg is not None) == file_ok, (key, value)
            if yaml_cfg is not None and file_cfg is not None:
                assert getattr(yaml_cfg, key) == getattr(file_cfg, key), (key, value)


def test_overflowing_lexicon_mean_is_data_error(tmp_path, workspace, capsys):
    root, _ = workspace
    lexicons = tmp_path / "lexicons"
    shutil.copytree(root / "lexicons", lexicons)
    aoa = lexicons / "aoa.tsv"
    words = [line.split("\t")[0] for line in aoa.read_text().splitlines()[1:]]
    aoa.write_text("# range 0 1.7e308\n" + "".join(f"{w}\t1e308\n" for w in words))
    cfg = _bad_input_config(tmp_path, workspace, lexicons=str(lexicons))
    _assert_data_error(["train", str(cfg)], capsys, "the aoa feature is not finite")


def _edited_embeddings(tmp_path, workspace, edit):
    """The workspace's embedding file after ``edit`` has changed its list of lines."""
    root, _ = workspace
    lines = (root / "embeddings.txt").read_text().splitlines()
    edit(lines)
    path = tmp_path / "embeddings.txt"
    path.write_text("".join(f"{line}\n" for line in lines))
    return path


@pytest.mark.parametrize("value, problem", [
    ("nan", "non-finite"), ("inf", "non-finite"), ("0.1x", "non-numeric")],
    ids=["nan", "inf", "0.1x"])
def test_bad_embedding_value_is_data_error(tmp_path, workspace, capsys, value, problem):
    """The table loads; `train` stops when a transcript first uses the word,
    with one error line naming the file's line."""
    def edit(lines):
        word, *vec = lines[2].split()
        vec[1] = value
        lines[2] = " ".join([word, *vec])

    bad = _edited_embeddings(tmp_path, workspace, edit)
    lexical_features.load_embeddings(bad)
    cfg = _bad_input_config(tmp_path, workspace, embeddings=str(bad))
    assert main(["train", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: {bad}:3: {problem} vector value\n"


@pytest.mark.parametrize("value", ["nan", "0.1x"])
def test_bad_value_on_a_line_no_transcript_uses_is_never_read(tmp_path, workspace, capsys,
                                                               value):
    """A word's values are parsed when a transcript first uses it, so a bad
    value on the line of a word the corpus lacks is never seen."""
    bad = _edited_embeddings(tmp_path, workspace,
                             lambda lines: lines.insert(4, "zyzzyva" + f" {value}" * 8))
    cfg = _bad_input_config(tmp_path, workspace, embeddings=str(bad))
    assert main(["train", str(cfg)]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("edit, message", [
    (lambda lines: lines.insert(4, "zyzzyva 0.5"), ":5: expected 8 values, got 1"),
    (lambda lines: lines.insert(0, "zyzzyva"), ":1: no vector values"),
    (lambda lines: lines.clear(), ": no embedding lines"),
], ids=["width", "no-values", "empty"])
def test_embedding_file_layout_is_checked_at_load(tmp_path, workspace, capsys, edit, message):
    """A line's width is checked at load, even for a word the corpus lacks:
    one error line, and no transcript is encoded."""
    bad = _edited_embeddings(tmp_path, workspace, edit)
    cfg = _bad_input_config(tmp_path, workspace, embeddings=str(bad))
    with mock.patch.object(lexical_features, "encode_corpus", side_effect=AssertionError):
        assert main(["train", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: {bad}{message}\n"


def test_non_finite_lexicon_is_data_error(tmp_path, workspace, capsys):
    root, _ = workspace
    lexicons = tmp_path / "lexicons"
    shutil.copytree(root / "lexicons", lexicons)
    bad = lexicons / "sentiment.tsv"
    bad.write_text("# range 0 inf\nhello\t1e400\n")
    cfg = _bad_input_config(tmp_path, workspace, lexicons=str(lexicons))
    _assert_data_error(["train", str(cfg)], capsys, f"{bad}:1:")


def test_lexicon_word_that_is_not_one_token_is_data_error(tmp_path, workspace, capsys):
    root, _ = workspace
    lexicons = tmp_path / "lexicons"
    shutil.copytree(root / "lexicons", lexicons)
    bad = lexicons / "familiarity.tsv"
    bad.write_text(bad.read_text() + "the boy\t2.0\n")
    lineno = len(bad.read_text().splitlines())
    cfg = _bad_input_config(tmp_path, workspace, lexicons=str(lexicons))
    _assert_data_error(["train", str(cfg)], capsys,
                       f"{bad}:{lineno}: word 'the boy' is not one token")


def test_embeddings_that_miss_every_word_warn_once(tmp_path, workspace, capsys):
    pad_only = tmp_path / "embeddings.txt"
    pad_only.write_text("<pad>" + " 0.5" * 8 + "\n")
    cfg = _bad_input_config(tmp_path, workspace, embeddings=str(pad_only))
    assert main(["train", str(cfg)]) == 0
    warnings = [line for line in capsys.readouterr().err.splitlines()
                if line.startswith("warning:")]
    assert warnings == [f"warning: {pad_only}: no word of the corpus has a vector, "
                        f"so every token embeds as zeros"]


@pytest.mark.parametrize("fillers, warned", [
    (MODEL_SECTION["seq_len"] - 1, False), (MODEL_SECTION["seq_len"], True)],
    ids=["last-token-of-the-budget", "first-token-past-it"])
def test_a_word_with_a_vector_past_the_budget_still_warns(tmp_path, workspace, capsys,
                                                         fillers, warned):
    """The corpus's one word with a vector follows ``fillers`` words that have
    none, in one transcript: once truncation drops it, no token has a vector."""
    root, _ = workspace
    for label in ("ad", "ct"):
        shutil.copytree(root / label, tmp_path / "corpus" / label)
    first = sorted((tmp_path / "corpus" / "ct").glob("*.cha"))[0]
    tier = b"*PAR:\t" + b"cat " * fillers + b"zyzzyva .\n"   # the first *PAR: tier
    first.write_bytes(_corrupt(first.read_bytes(), ("insert", b"picture ?\n", tier)))
    embeddings = tmp_path / "embeddings.txt"
    embeddings.write_text("zyzzyva" + " 0.5" * 8 + "\n")
    cfg = _bad_input_config(tmp_path, workspace, corpus_dir=str(tmp_path / "corpus"),
                            embeddings=str(embeddings))
    with mock.patch.object(model, "fit", side_effect=_FitEntered), \
            pytest.raises(_FitEntered):
        main(["train", str(cfg)])
    warning = (f"warning: {embeddings}: no word of the corpus has a vector, so every "
               f"token embeds as zeros\n")
    assert capsys.readouterr().err == (warning if warned else "")


def test_each_lexicon_without_entries_warns(tmp_path, workspace, capsys):
    root, _ = workspace
    lexicons = tmp_path / "lexicons"
    shutil.copytree(root / "lexicons", lexicons)
    for slot in ("aoa", "sentiment"):
        path = lexicons / f"{slot}.tsv"
        path.write_text(path.read_text().splitlines()[0] + "\n")    # the range header alone
    cfg = _bad_input_config(tmp_path, workspace, lexicons=str(lexicons))
    assert main(["train", str(cfg)]) == 0
    err = capsys.readouterr().err
    assert err.splitlines() == [
        f"warning: {lexicons / slot}.tsv: no entries, so the {slot} feature is 0 "
        f"for every transcript" for slot in ("aoa", "sentiment")]


def _not_utf8(path, source=None):
    """``path`` holding ``source``'s bytes (or nothing) plus a byte UTF-8 never uses."""
    path.write_bytes((source.read_bytes() if source else b"") + b"caf\xff\n")
    return path


def _non_utf8_transcript_predict(tmp_path, workspace):
    root, _ = workspace
    model_path = tmp_path / "model.bin"
    save_edited_model(SAVED, model_path, lambda tensors: None)
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


def _non_utf8_config(tmp_path, workspace):
    cfg = _bad_input_config(tmp_path, workspace)
    return ["train", str(_not_utf8(cfg, cfg))], cfg


@pytest.mark.parametrize("make", [
    _non_utf8_transcript_predict, _non_utf8_transcript_corpus, _non_utf8_lexicon,
    _non_utf8_embeddings, _non_utf8_config,
], ids=["transcript-predict", "transcript-corpus", "lexicon", "embeddings", "config"])
def test_non_utf8_input_is_data_error(tmp_path, workspace, capsys, make):
    argv, bad = make(tmp_path, workspace)
    _assert_data_error(argv, capsys, f"{bad}: not UTF-8 text")


@pytest.fixture
def narrow_embeddings_config(tmp_path, workspace):
    """The workspace config (whose saved models are 8-d) pointed at a 5-d
    embeddings file."""
    root, _ = workspace
    narrow = tmp_path / "embeddings5.txt"
    narrow.write_text("".join(" ".join(line.split()[:6]) + "\n"
                              for line in (root / "embeddings.txt").read_text().splitlines()))
    return _bad_input_config(tmp_path, workspace, embeddings=str(narrow))


def test_train_takes_its_width_from_the_embeddings(narrow_embeddings_config, capsys):
    assert main(["train", str(narrow_embeddings_config)]) == 0
    capsys.readouterr()
    _, mcfg = model.load(narrow_embeddings_config.parent / "model.bin")
    assert mcfg.embed_dim == 5


def test_predict_with_narrower_embeddings_is_data_error(tmp_path, workspace,
                                                         narrow_embeddings_config, capsys):
    root, _ = workspace
    path = tmp_path / "model.bin"
    save_edited_model(SAVED, path, lambda tensors: None)
    transcript = sorted((root / "ct").glob("*.cha"))[0]
    _assert_data_error(["predict", str(narrow_embeddings_config), "--model", str(path),
                        str(transcript)], capsys, "dimensional")


@pytest.mark.parametrize("command", ["eval", "predict"])
def test_model_width_is_checked_before_encoding(tmp_path, workspace, capsys, command):
    """An 8-d model and a 4-d table that holds none of the corpus's words: the
    width error is the one stderr line, and no transcript is encoded."""
    narrow = tmp_path / "embeddings4.txt"
    narrow.write_text("zyzzyva 0.1 0.2 0.3 0.4\n")
    path = tmp_path / "model.bin"
    save_edited_model(SAVED, path, lambda tensors: None)
    cfg = _bad_input_config(tmp_path, workspace, embeddings=str(narrow))
    argv = (["eval", str(cfg), "--model", str(path)] if command == "eval"
            else _predict_argv(cfg, path, workspace))
    with (mock.patch.object(lexical_features, "encode_corpus", side_effect=AssertionError),
          mock.patch.object(lexical_features, "encode_record", side_effect=AssertionError)):
        assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: embedding file is 4-dimensional but the model expects 8\n")


def _predict_argv(cfg, model_path, workspace, *extra):
    root, _ = workspace
    transcript = sorted((root / "ct").glob("*.cha"))[0]
    return ["predict", str(cfg), "--model", str(model_path), str(transcript), *extra]


def test_predict_top_prints_the_most_attended_real_tokens(tmp_path, workspace, capsys):
    """`predict --top 3` prints its usual line, then the three real tokens
    that the model's attention weighs most, largest first."""
    root, cfg_path = workspace
    path = tmp_path / "model.bin"
    save_edited_model(SAVED, path, lambda tensors: None)
    assert main(_predict_argv(cfg_path, path, workspace)) == 0
    plain = capsys.readouterr().out
    assert main(_predict_argv(cfg_path, path, workspace, "--top", "3")) == 0
    first, *top = capsys.readouterr().out.splitlines()
    assert first + "\n" == plain

    params, mcfg = model.load(path)
    record = chat_corpus.read_transcript(_predict_argv(cfg_path, path, workspace)[-1],
                                         Label.CT)
    instance = lexical_features.encode_record(
        record, lexical_features.load_embeddings(root / "embeddings.txt"),
        lexical_features.load_lexicon_dir(root / "lexicons"), default_tagger(),
        budget=mcfg.seq_len)
    alpha = model.score_instance(params, mcfg, instance)[1]
    tokens = text_pipeline.fix_length(text_pipeline.tokenize(record.participant_text),
                                      mcfg.seq_len).tokens
    real = [i for i in range(mcfg.seq_len) if instance.mask[i]]
    assert len(real) > 3
    expected = sorted(real, key=lambda i: -alpha[i])[:3]
    assert top == [f"  {alpha[i]:.4f}  [{i:3d}] {tokens[i]}" for i in expected]


@pytest.mark.parametrize("top", [[], ["--top", "3"]], ids=["plain", "top"])
def test_predict_runs_the_model_once(tmp_path, workspace, capsys, top):
    """The probability and the attention weights come from one forward pass."""
    _, cfg_path = workspace
    path = tmp_path / "model.bin"
    save_edited_model(SAVED, path, lambda tensors: None)
    spy = mock.Mock(wraps=model._forward_graph)
    with mock.patch.object(model, "_forward_graph", spy):
        assert main(_predict_argv(cfg_path, path, workspace, *top)) == 0
    assert spy.call_count == 1
    assert len(capsys.readouterr().out.splitlines()) == 1 + (3 if top else 0)


@pytest.mark.parametrize("top", ["0", "-3"])
def test_predict_top_below_one_is_usage_error(tmp_path, workspace, capsys, top):
    _, cfg_path = workspace
    path = tmp_path / "model.bin"
    save_edited_model(SAVED, path, lambda tensors: None)
    assert main(_predict_argv(cfg_path, path, workspace, "--top", top)) == 1
    err = capsys.readouterr().err
    assert err == f"error: --top must be at least 1, got {top}\n"


def test_predict_of_a_missing_model_is_data_error(tmp_path, workspace, capsys):
    _, cfg_path = workspace
    argv = _predict_argv(cfg_path, tmp_path / "no-such-model.bin", workspace, "--top", "3")
    _assert_data_error(argv, capsys, "no-such-model.bin")


def test_predict_top_of_a_model_without_attention_is_usage_error(tmp_path, workspace,
                                                                 capsys):
    _, cfg_path = workspace
    path = tmp_path / "model.bin"
    save_edited_model(replace(SAVED, **model.VARIANTS["C-LSTM"]), path, lambda t: None)
    assert main(_predict_argv(cfg_path, path, workspace, "--top", "3")) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: --top needs attention") and err.count("\n") == 1


def _one_class_corpus(tmp, workspace, dropped):
    """A copy of the workspace corpus without its ``dropped`` directory."""
    root, _ = workspace
    kept = "ct" if dropped == "ad" else "ad"
    shutil.copytree(root / kept, tmp / "corpus" / kept)
    return str(tmp / "corpus")


@pytest.mark.parametrize("command", ["train", "eval", "compare", "ablate"])
def test_one_class_corpus_stops_before_any_fit(tmp_path, workspace, capsys, command):
    """Without ct/, each command that splits the corpus exits 2 naming the
    seed, the slice and the class counts, and trains nothing. Unchecked,
    `train` of a variant without class weights and `eval` exit 0 with a
    degenerate model or report, and `compare` fails only inside a later fit."""
    model_path = tmp_path / "saved.bin"
    save_edited_model(SAVED, model_path, lambda tensors: None)
    cfg = _bad_input_config(tmp_path, workspace, seeds=[0, 1], variant="C-LSTM",
                            corpus_dir=_one_class_corpus(tmp_path, workspace, "ct"))
    argv = [command, str(cfg)] + (["--model", str(model_path)] if command == "eval" else [])
    spy = mock.Mock(wraps=model.fit)
    with mock.patch.object(model, "fit", spy), mock.patch.object(evaluation, "fit", spy):
        _assert_data_error(argv, capsys, "seed 0: the train slice needs both classes, got ad=")
    assert spy.call_count == 0


@pytest.mark.parametrize("command, seeds_used", [
    ("train", [0]), ("eval", [0]), ("compare", [0, 1]), ("ablate", [0, 1])],
    ids=["train", "eval", "compare", "ablate"])
def test_each_seed_is_split_once(tmp_path, workspace, capsys, command, seeds_used):
    """train and eval use the first seed, compare and ablate every seed; each
    seed's corpus is split once, and every variant or ablation row trains on
    those slices."""
    model_path = tmp_path / "saved.bin"
    save_edited_model(SAVED, model_path, lambda tensors: None)
    cfg = _bad_input_config(tmp_path, workspace, seeds=[0, 1])
    argv = [command, str(cfg)] + (["--model", str(model_path)] if command == "eval" else [])
    spy = mock.Mock(wraps=evaluation.split)
    with mock.patch.object(evaluation, "split", spy):
        assert main(argv) == 0
    capsys.readouterr()
    assert [call.args[1].seed for call in spy.call_args_list] == seeds_used


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


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """configs/smoke.yaml pointed at a fresh directory, its corpus synthesized."""
    root = tmp_path_factory.mktemp("smoke")
    config = yaml.safe_load((REPO / "configs" / "smoke.yaml").read_text())
    config.update(corpus_dir=str(root), embeddings=str(root / "embeddings.txt"),
                  lexicons=str(root / "lexicons"), output_dir=str(root))
    path = root / "smoke.yaml"
    path.write_text(yaml.safe_dump(config))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth", str(path)]) == 0
    return root, path


def test_smoke_tables_match_golden_files(smoke, capsys):
    """The printed stats and compare tables, byte for byte."""
    root, path = smoke
    golden = REPO / "tests" / "golden"
    assert main(["stats", str(root)]) == 0
    assert capsys.readouterr().out == (golden / "smoke_stats.txt").read_text()
    assert main(["compare", str(path)]) == 0
    assert capsys.readouterr().out == ((golden / "smoke_compare_table.txt").read_text()
                                       + f"report -> {root / 'compare.csv'}\n")


def test_smoke_train_logs_no_auc_for_a_one_class_validation_slice(smoke, capsys):
    """The smoke validation slice is two participants of one class, so there
    is no validation AUC: the log leaves its cells empty and the summary says n/a."""
    root, path = smoke
    assert main(["train", str(path)]) == 0
    assert "val auc n/a)" in capsys.readouterr().out
    rows = (root / "training_log.csv").read_text().splitlines()
    assert rows[0] == "epoch,train_loss,val_loss,val_auc" and len(rows) > 1
    assert all(row.count(",") == 3 and row.endswith(",") for row in rows[1:])


def _smoke_config(smoke, tmp_path, seeds):
    """The smoke config with its own ``seeds`` and output directory."""
    _, path = smoke
    config = {**yaml.safe_load(path.read_text()), "seeds": seeds, "output_dir": str(tmp_path)}
    path = tmp_path / "smoke.yaml"
    path.write_text(yaml.safe_dump(config))
    return path


@pytest.mark.parametrize("threads", ["1", "2"])
def test_smoke_reports_match_golden_files_at_each_blas_thread_count(smoke, tmp_path, threads):
    """The smoke reports are the same bytes under one and two OpenBLAS
    threads. Each command runs in a fresh process, because OpenBLAS reads
    its thread count when numpy loads."""
    path = _smoke_config(smoke, tmp_path, [0])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
           "PYTHONPATH": os.pathsep.join([str(REPO / "src"), os.environ.get("PYTHONPATH", "")])}
    for report in ("compare", "ablate"):
        proc = subprocess.run([sys.executable, "-m", "alzdetect.cli", report, str(path)],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        golden = REPO / "tests" / "golden" / f"smoke_{report}.csv"
        assert (tmp_path / f"{report}.csv").read_bytes() == golden.read_bytes(), report


def test_smoke_compare_reports_no_auc_for_a_one_class_test_slice(smoke, tmp_path, capsys):
    """Seed 2's smoke test slice holds one class, so it has no AUC: its rows
    and the mean rows leave the AUC cell empty and the table prints n/a,
    where seed 0's rows still carry a number."""
    assert main(["compare", str(_smoke_config(smoke, tmp_path, [0, 2]))]) == 0
    table = capsys.readouterr().out.splitlines()
    rows = [row.split(",") for row in (tmp_path / "compare.csv").read_text().splitlines()]
    auc = rows[0].index("auc")
    by_seed = {seed: [row[auc] for row in rows[1:] if row[1] == seed]
               for seed in ("0", "2", "mean")}
    assert all(by_seed["0"]) and len(by_seed["0"]) == len(model.VARIANTS)
    assert by_seed["2"] == by_seed["mean"] == [""] * len(model.VARIANTS)
    assert all(line.split()[5] == "n/a" for line in table[1:1 + len(model.VARIANTS)])


def test_smoke_eval_of_a_one_class_test_slice_writes_no_auc_and_no_roc(smoke, tmp_path,
                                                                       capsys):
    """Seed 2's test slice is all AD: `eval` leaves the AUC cells empty and
    writes no ROC curve."""
    model_path = tmp_path / "model.bin"
    save_edited_model(SAVED, model_path, lambda t: None)    # 8-d, as the smoke embeddings
    assert main(["eval", str(_smoke_config(smoke, tmp_path, [2])),
                 "--model", str(model_path)]) == 0
    assert " n/a " in capsys.readouterr().out
    rows = [row.split(",") for row in (tmp_path / "eval.csv").read_text().splitlines()]
    auc = rows[0].index("auc")
    assert [row[auc] for row in rows[1:]] == ["", ""]
    assert not (tmp_path / "roc.csv").exists()


# ---------------------------------------------------------------------------
# property: no bad config value or corrupt input file ends in a traceback


class _FitEntered(Exception):
    """Raised by the patched ``model.fit``: the run got past its input checks."""


_NOT_UTF8 = b"caf\xff"
_WRONG_KIND = "<an existing path of the wrong kind>"


_ANY_VALUE = {
    bool: st.booleans(), int: st.integers(), float: st.floats(), str: st.text(max_size=4),
    list: st.lists(st.integers(), min_size=1, max_size=2),
    dict: st.dictionaries(st.text(max_size=2), st.integers(), min_size=1, max_size=1),
}


def _wrong_type(*kinds):
    """YAML values of none of the types ``kinds`` (a bool is not an int)."""
    return st.one_of(*[values for kind, values in _ANY_VALUE.items() if kind not in kinds])


_SIZES = ("seq_len", "conv_filters", "lstm_hidden", "attention_dim", "dense_units")
_NOT_A_FLOAT = 10**400     # an integer no float can hold
_BAD_VALUES = {
    **{("top", k): st.one_of(_wrong_type(str), st.just(_WRONG_KIND))
       for k in ("corpus_dir", "embeddings", "lexicons", "output_dir")},
    ("top", "variant"): st.one_of(_wrong_type(str), st.sampled_from(["OURS-Att-x", ""])),
    ("top", "seeds"): st.one_of(
        st.integers(), st.just([]), st.lists(st.integers(max_value=-1), min_size=1, max_size=2),
        st.lists(st.one_of(st.booleans(), st.floats(), st.text(max_size=2)), min_size=1,
                 max_size=2)),
    **{("model", k): st.one_of(_wrong_type(int), st.sampled_from([0, -1, 10**10, 10**30]))
       for k in _SIZES},
    **{("model", k): st.one_of(_wrong_type(int), st.sampled_from([0, -1]))
       for k in ("batch_size", "max_epochs")},
    ("model", "conv_kernel"): st.one_of(_wrong_type(int),
                                        st.sampled_from([0, 2, -1, 10**10 + 1])),
    ("model", "patience"): st.one_of(_wrong_type(int), st.just(-1)),
    ("model", "dropout_rate"): st.one_of(_wrong_type(int, float), st.sampled_from(
        [-0.01, 1.0, float("nan"), _NOT_A_FLOAT])),
    ("model", "learning_rate"): st.one_of(_wrong_type(int, float), st.sampled_from(
        [0.0, -0.001, float("nan"), float("inf"), _NOT_A_FLOAT])),
    **{(section, k): st.integers(0, 64)          # keys the config does not take
       for section, k in (("top", "tagger"), ("model", "seed"), ("model", "pos_dim"),
                          ("model", "embed_dim"), ("model", "use_attention"),
                          ("model", "use_class_weights"), ("model", "feature_mask"),
                          ("split", "seed"), ("split", "test_fraction"), ("split", "unit"))},
    # with the other fraction at its default, 0.91 and 0.19 sum to exactly 1
    ("split", "train_fraction"): st.one_of(_wrong_type(int, float), st.sampled_from(
        [-0.01, 0.0, 0.91, 0.92, float("nan"), _NOT_A_FLOAT])),
    ("split", "val_fraction"): st.one_of(_wrong_type(int, float), st.sampled_from(
        [-0.01, 0.0, 0.19, 0.2, float("nan"), _NOT_A_FLOAT])),
    **{("synth", k): st.one_of(_wrong_type(int, float), st.sampled_from(
        [float("nan"), float("inf"), -float("inf"), -1.0, _NOT_A_FLOAT]))
       for k in ("mean_length_ad", "mean_length_ct", "length_sd",
                 "mean_age_ad", "mean_age_ct", "age_sd")},
    **{("synth", k): st.one_of(_wrong_type(int, float), st.sampled_from(
        [-0.1, 1.5, float("nan"), _NOT_A_FLOAT]))
       for k in ("ad_fraction", "filler_rate_ad", "filler_rate_ct")},
    **{("synth", k): st.one_of(_wrong_type(int), st.sampled_from([-1, 0]))
       for k in ("n_participants", "transcripts_per_participant", "embed_dim")},
    ("synth", "seed"): st.one_of(_wrong_type(int), st.sampled_from([-1, -(10**30)])),
    ("synth", "vocab"): st.integers(0, 64),
}
_CONFIG_CASES = st.sampled_from(sorted(_BAD_VALUES)).flatmap(
    lambda key: st.tuples(st.just("config"), st.just(key[0]), st.just(key[1]),
                          st.one_of(_BAD_VALUES[key], st.just(_NOT_UTF8))))

_EDITS = st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, 10**6)),
    st.tuples(st.sampled_from(["overwrite", "insert"]), st.integers(0, 10**6),
              st.one_of(st.binary(min_size=1, max_size=3),
                        st.sampled_from([b"\xff", b"\x00", b"nan", b"\t", b"\n"]))),
    st.tuples(st.just("nan"), st.integers(0, 50)),
)
_LAYOUT_CASES = st.tuples(st.just("layout"), st.sampled_from(["ad", "ct"]))
_FILE_CASES = st.tuples(
    st.sampled_from([(target, command) for target in ("transcript", "lexicon", "embeddings")
                     for command in ("train", "predict")] + [("model", "predict")]),
    _EDITS,
).map(lambda c: ("file", *c[0], c[1]))

# one piece of input, in each place an error quotes
_LONG_TEXT = "x" * _HUGE
_LONG_VALUES = [
    ("config", "model", _LONG_TEXT, 1),                            # a key name
    ("config", "top", "variant", _LONG_TEXT),
    ("config", "model", "conv_filters", int("9" * 4000)),      # under int()'s 4,300 digits
    ("file", "transcript", "train",
     ("insert", b"picture ?\n", b"*" + _LONG_TEXT.encode() + b"\n")),    # a tier header
    *[("file", "lexicon", "train", ("insert", b"\n", line.encode() + b"\n"))
      for line in (f"w\t{'9' * len(_LONG_TEXT)}", f"w\t{_LONG_TEXT}", f"{_LONG_TEXT}\t7e9")],
]
# what an error line may hold beyond the paths it names
_ERROR_BYTES = 200

_PINNED = [
    ("config", "top", "output_dir", _WRONG_KIND),
    ("config", "top", "lexicons", _WRONG_KIND),
    ("config", "model", "pos_dim", 36),
    ("config", "model", "embed_dim", 8),
    ("config", "model", "seq_len", 10**30),
    ("config", "model", "conv_filters", 10**30),
    ("config", "model", "learning_rate", _NOT_A_FLOAT),
    ("config", "model", "learning_rate", float("inf")),
    ("config", "split", "test_fraction", 0.1),
    ("config", "split", "unit", "transcript"),
    ("config", "synth", "length_sd", -1.0),
    ("config", "synth", "age_sd", -2.0),
    ("config", "synth", "mean_length_ct", float("nan")),
    ("config", "synth", "mean_length_ad", float("inf")),
    ("config", "synth", "seed", -1),
    *[("file", "model", "predict", edit) for edit in _TENSOR_EDITS.values()],
    *[("file", "transcript", "train", edit) for edit, _ in _TRANSCRIPT_EDITS.values()],
    ("layout", "ad"),
    ("layout", "ct"),
    ("nested", "config"),
    ("nested", "model"),
    *_LONG_VALUES,
]


def _config_case_argv(tmp, workspace, section, key, value):
    if value == _WRONG_KIND:     # a file where a directory belongs, or the reverse
        value = str(tmp if key == "embeddings" else tmp / "c.yaml")
    written = "NOT-UTF8" if value == _NOT_UTF8 else value
    overrides = ({key: written} if section == "top" else
                 {"model": {**MODEL_SECTION, key: written}} if section == "model" else
                 {"synth": {**SYNTH_SECTION, key: written}} if section == "synth" else
                 {"split": {key: written}})
    cfg = _bad_input_config(tmp, workspace, **overrides)
    if value == _NOT_UTF8:
        cfg.write_bytes(cfg.read_bytes().replace(b"NOT-UTF8", _NOT_UTF8))
    return ["synth" if section == "synth" else "train", str(cfg)]


def _nested_case_argv(tmp, workspace, target):
    cfg = _bad_input_config(tmp, workspace)
    if target == "config":
        cfg.write_text(_NESTED_YAML)
        return ["train", str(cfg)]
    _write_nested_model_file(tmp / "model.bin")
    return ["eval", str(cfg), "--model", str(tmp / "model.bin")]


def _layout_case_argv(tmp, workspace, dropped):
    return ["train", str(_bad_input_config(
        tmp, workspace, corpus_dir=_one_class_corpus(tmp, workspace, dropped)))]


def _file_case_argv(tmp, workspace, target, command, edit):
    root, _ = workspace
    transcript = sorted((root / "ct").glob("*.cha"))[0]
    paths = {}
    if target == "transcript" and command == "train":
        for label in ("ad", "ct"):
            shutil.copytree(root / label, tmp / "corpus" / label)
        paths["corpus_dir"] = str(tmp / "corpus")
        victim = tmp / "corpus" / "ct" / transcript.name
    elif target == "transcript":
        victim = tmp / transcript.name
        shutil.copy(transcript, victim)
    elif target == "lexicon":
        shutil.copytree(root / "lexicons", tmp / "lexicons")
        paths["lexicons"] = str(tmp / "lexicons")
        victim = tmp / "lexicons" / "aoa.tsv"
    elif target == "embeddings":
        victim = tmp / "embeddings.txt"
        shutil.copy(root / "embeddings.txt", victim)
        paths["embeddings"] = str(victim)
    model_path = tmp / "model.bin"
    save_edited_model(SAVED, model_path, lambda t: None)
    if target == "model":
        victim = model_path
    victim.write_bytes(_corrupt(victim.read_bytes(), edit))
    cfg = str(_bad_input_config(tmp, workspace, **paths))
    if command == "train":
        return ["train", cfg]
    return ["predict", cfg, "--model", str(model_path),
            str(victim if target == "transcript" else transcript)]


def _with_examples(cases):
    def pin(test):
        for case in cases:
            test = example(case=case)(test)
        return test
    return pin


@_with_examples(_PINNED)
@settings(derandomize=True, max_examples=300, deadline=None)
@given(case=st.one_of(_CONFIG_CASES, _FILE_CASES, _LAYOUT_CASES))
def test_bad_input_never_ends_in_a_traceback(workspace, case):
    """(a) One invalid config value stops `train` before training, or `synth`
    before it writes a transcript, with exit 1 or 2 and one error line.
    (b) One corrupt input file does the same, or leaves the file valid:
    `train` then reaches `model.fit`, `predict` exits 0.
    (c) A corpus without its ad/ or its ct/ directory stops `train` with exit 2.
    (d) Lists nested past the decoder's recursion limit, in the YAML config
    or in a model file's config block, stop `train` or `eval` the same way.
    Whatever the input, stderr holds at most ``_ERROR_BYTES`` beyond the
    paths it names."""
    make_argv = {"config": _config_case_argv, "file": _file_case_argv,
                 "layout": _layout_case_argv, "nested": _nested_case_argv}[case[0]]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        argv = make_argv(tmp, workspace, *case[1:])
        err = io.StringIO()
        with (mock.patch.object(model, "fit", side_effect=_FitEntered),
              contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err)):
            try:
                code = main(argv)
            except _FitEntered:
                assert case[0] == "file" and argv[0] == "train", "training started"
                code = None
    err = err.getvalue()
    unnamed = err.replace(str(tmp), "").replace(str(workspace[0]), "")
    assert len(unnamed.encode()) <= _ERROR_BYTES, (len(unnamed.encode()), err[:300])
    if code is None or (case[0] == "file" and argv[0] == "predict" and code == 0):
        return
    assert code in ((2,) if case[0] == "layout" else (1, 2)), (code, err)
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert "Traceback" not in err
