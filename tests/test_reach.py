"""Every line of a function body in the package runs in one pass of the CLI.

The flow below runs each command in-process under a line tracer limited to
the package, on the synthetic corpus plus the hand-written CHAT fixture, so
a branch inside a function that only the tests reach fails here: the tests
build what they need in ``tests/helpers.py`` instead. ``test_package_surface``
checks names; this checks lines.

Not checked: lines at module or class level; ``except`` bodies; every line
of a ``raise`` statement; and any block whose last statement is a ``raise``
(an ``if`` that builds its message first, say). ``ALLOWED`` names the other
lines that may stay unreached, each keyed by the qualified name of its
function and the source text of the statement's first line, never by line
number, and each with the reader that keeps it. An entry that names no
statement, or one that ran, fails the test too.
"""

import ast
import sys
from pathlib import Path

import yaml

import alzdetect
from alzdetect.cli import main

PACKAGE = Path(alzdetect.__file__).parent    # as the code objects name their files
CHAT_FORMS = Path(__file__).parent / "fixtures" / "chat_forms.cha"

_ROADMAP_ITEM_2 = "ROADMAP item 2 deletes the sub and mean primitives"
_CONV_INPUT_GRADIENT = ("the input gradient is the reference of test_model's "
                        "test_constants_taking_no_gradient_change_no_parameter_gradient_bit")
_ACCEPTANCE = "the acceptance gates run it (EXCEPTIONS in test_package_surface)"

# (qualified function name, source text of the statement's first line) -> its reader;
# a compound statement's entry covers the block inside it
ALLOWED = {
    ("autodiff.Tensor.grad", "return None if self.slot is None else self.slot.grad"):
        "tests of the tape read op outputs' gradients; Parameter overrides it",
    ("autodiff.Tape.__len__", "return len(self.records)"):
        "perfbench's tracer counts the tape's entries",
    ("autodiff._sub_bw", "_accum(sa, _unbroadcast(g, sa.shape))"): _ROADMAP_ITEM_2,
    ("autodiff.mean.bw", "return"): _ROADMAP_ITEM_2,
    ("autodiff.mean.bw",
     "_accum(sx, np.broadcast_to(np.expand_dims(g / n, axis), sx.shape))"): _ROADMAP_ITEM_2,
    ("autodiff.slice_axis.bw", "return"):
        "the rule writes sx.grad itself, so it cannot leave a constant input to _accum",
    ("autodiff.conv1d.bw", "dcols = (gflat @ kmat.T).reshape(b, t, w * c)"):
        _CONV_INPUT_GRADIENT,
    ("autodiff.conv1d.bw", "dpad = np.zeros((b, t + 2 * half, c))"): _CONV_INPUT_GRADIENT,
    ("autodiff.conv1d.bw", "for j in range(w):"): _CONV_INPUT_GRADIENT,
    ("autodiff.conv1d.bw", "_accum(sx, dpad[:, half:half + t, :])"): _CONV_INPUT_GRADIENT,
    ("autodiff.backward", "continue"):
        "runs for any graph with an output that the loss does not read",
    ("cli._load_resources",
     """print(f"warning: {Path(cfg.lexicons) / f'{slot}.tsv'}: no entries, so the \""""):
        "test_cli's empty-lexicon warning test; ROADMAP item 1a replaces the warning",
    ("cli._encode",
     'print(f"warning: {cfg.embeddings}: no word of the corpus has a vector, so "'):
        "test_cli's no-vector warning test; ROADMAP item 1a replaces the warning",
    ("evaluation.run_experiment",
     "return _run(seed_splits(instances, split_spec or SplitSpec(), seeds), config, variant)"):
        _ACCEPTANCE,
    ("synthgen.null_signal_config", "return SynthConfig("): _ACCEPTANCE,
    ("lexical_features.EmbeddingTable.__contains__", "return word in self.source"):
        "perfbench's shape_counts counts OOV words with it",
    ("lexical_features.TableRows.shape", "return len(self.ids), self.table.vectors.shape[1]"):
        "perfbench's shape_counts and acceptance gate 6 read it",
    ("lexical_features.TableRows.__array__", "if copy is False:"):
        "perfbench's digest reads the rows as an array",
    ("lexical_features.TableRows.__array__",
     "return np.asarray(self.table.vectors[self.ids], dtype=dtype)"):
        "perfbench's digest reads the rows as an array",
    ("text_pipeline.PerceptronTaggerModel._decide", 'best = "NN"'):
        "a tagger file from outside with no bias feature gives a word no row",
    ("text_pipeline.PerceptronTaggerModel.load", "continue"):
        "a tagger file from outside may hold blank lines",
}


def _checked(tree: ast.Module, module: str):
    """(qualified function name, statement) for every statement in a function
    body that the test checks."""

    def block(stmts, qual, in_function):
        if in_function and stmts and isinstance(stmts[-1], ast.Raise):
            return
        for i, stmt in enumerate(stmts):
            yield from statement(stmt, qual, in_function, docstring_slot=i == 0)

    def statement(stmt, qual, in_function, docstring_slot):
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if in_function:
                yield qual, stmt
            yield from block(stmt.body, f"{qual}.{stmt.name}",
                             in_function or not isinstance(stmt, ast.ClassDef))
            return
        docstring = (docstring_slot and isinstance(stmt, ast.Expr)
                     and isinstance(stmt.value, ast.Constant)
                     and isinstance(stmt.value.value, str))
        if in_function and not (isinstance(stmt, (ast.Raise, ast.Try)) or docstring):
            yield qual, stmt
        if not isinstance(stmt, ast.Raise):          # a Try's handlers are not checked
            for field in ("body", "orelse", "finalbody"):
                yield from block(getattr(stmt, field, []), qual, in_function)

    yield from block(tree.body, module, False)


def _own_lines(stmt: ast.stmt) -> range:
    """The lines of a statement outside the blocks nested in it: any line
    event among them means it ran."""
    nested = [s.lineno for field in ("body", "orelse", "finalbody", "handlers")
              for s in getattr(stmt, field, ())]
    end = min(nested, default=stmt.end_lineno + 1)
    return range(stmt.lineno, max(end, stmt.lineno + 1))       # `if x: return` is one line


def _unreached(hits: set[tuple[str, int]]):
    """``file:line: source`` of each checked statement that did not run, and
    each allow-list entry that names no statement or one that ran."""
    missed, named, stale = [], set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        allowed_blocks: list[range] = []
        for qual, stmt in _checked(ast.parse(source, filename=str(path)), path.stem):
            if any(stmt.lineno in r for r in allowed_blocks):
                continue
            ran = any((str(path), n) in hits for n in _own_lines(stmt))
            key = (qual, lines[stmt.lineno - 1].strip())
            if key in ALLOWED:
                named.add(key)
                if ran:
                    stale.add(key)
                allowed_blocks.append(range(stmt.lineno, stmt.end_lineno + 1))
            elif not ran:
                missed.append(f"{path}:{stmt.lineno}: {key[1]}")
    return missed, sorted(stale | (ALLOWED.keys() - named))


def _write_config(path: Path, root: Path, embeddings: Path, **model) -> str:
    section = {"seq_len": 20, "conv_filters": 2, "lstm_hidden": 3, "attention_dim": 3,
               "dense_units": 4, "dropout_rate": 0.0, "batch_size": 16, "max_epochs": 2,
               **model}
    path.write_text(yaml.safe_dump({
        "corpus_dir": str(root), "embeddings": str(embeddings),
        "lexicons": str(root / "lexicons"), "output_dir": str(root), "seeds": [0],
        "model": section,
        "synth": {"n_participants": 24, "ad_fraction": 0.5, "embed_dim": 8, "seed": 0,
                  "mean_length_ad": 14.0, "mean_length_ct": 22.0, "length_sd": 4.0},
    }))
    return str(path)


def _flow(root: Path):
    """The commands of the traced run; between two of them the inputs of
    the next are written."""
    ascii_table, wide_table = root / "embeddings.txt", root / "embeddings_wide.txt"
    # dropout, and a learning rate at which the validation loss rises by the
    # third epoch, so patience 0 stops the run early; seq_len 48 is longer
    # than every transcript, so a batch ends in steps that are pads in every row
    train = _write_config(root / "train.yaml", root, ascii_table, seq_len=48,
                          dropout_rate=0.3, max_epochs=8, patience=0, learning_rate=0.1)
    yield ["synth", train]
    # CRLF line ends, and a copy of the table with a non-ASCII word, a CRLF and
    # a blank line: the parsers' CR, blank-line and non-ASCII branches. The
    # untouched table takes the ASCII branch
    chat = root / "ad" / "chat_forms.cha"
    chat.write_bytes(CHAT_FORMS.read_bytes().replace(b"\n", b"\r\n"))
    wide_table.write_bytes(ascii_table.read_bytes()
                           + ("naïve" + " 0.5" * 8 + "\r\n\n").encode("utf-8"))
    only_ad = root / "only_ad" / "ad"
    only_ad.mkdir(parents=True)
    (only_ad / chat.name).write_bytes(chat.read_bytes())
    yield ["stats", str(root)]
    yield ["stats", str(only_ad.parent)]
    yield ["ingest", str(root), "--output-dir", str(root / "ingest")]
    yield ["train", train]
    yield ["eval", train, "--model", str(root / "model.bin")]
    cfg = _write_config(root / "run.yaml", root, wide_table)
    yield ["compare", cfg]
    yield ["ablate", cfg]
    yield ["predict", cfg, "--model", str(root / "model.bin"), str(chat), "--top", "3"]


def test_every_function_line_runs_in_the_cli_flow(tmp_path, capsys):
    hits: set[tuple[str, int]] = set()
    prefix = str(PACKAGE)

    def trace_lines(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return trace_lines

    def trace_calls(frame, event, arg):
        return trace_lines if frame.f_code.co_filename.startswith(prefix) else None

    before = sys.gettrace()        # a coverage or debugger tracer gets its place back
    sys.settrace(trace_calls)
    try:
        codes = [(argv[0], main(argv)) for argv in _flow(tmp_path)]
    finally:
        sys.settrace(before)
    assert all(code == 0 for _, code in codes), (codes, capsys.readouterr().err)
    missed, stale = _unreached(hits)
    assert not stale, f"allow-list entries naming no unreached statement: {stale}"
    assert not missed, "lines that no command of the flow ran:\n" + "\n".join(missed)
