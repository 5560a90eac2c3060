"""Shared test utilities: the finite-difference gradient oracle, the
per-timestep LSTM composition the fused ``lstm`` primitive must match, the
trapezoidal AUC that checks ``evaluation.auc_pair``, the training and saving
of the shipped tagger with its hand-tagged corpus and tagger accuracy, the
norm lexicons of the feature tests, the per-lexicon feature means and the
per-piece word splitter that the table encoder and ``words`` must match,
the string-feature and dict-of-dicts tagger scorers that the cached tagger
must match, the unguarded fixpoint CHAT normalizer that the guarded
early-exit one must match, the line-by-line embedding loader that the bulk
loader must match, an embedding table built in memory, dense rows wrapped
as the rows of one table, the sum of every element as a scalar loss, and
the minor page faults of code run in a fresh process."""

from __future__ import annotations

import json
import random
import struct
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from alzdetect import autodiff as ad
from alzdetect.autodiff import Parameter, Tape, Tensor, backward, constant

FD_STEP = 1e-5
FD_RTOL = 1e-4


def rel_error(a: float, n: float) -> float:
    return abs(a - n) / max(abs(a), abs(n), 1e-5)


def gradcheck(build_loss, params: list[Parameter], coords_per_param: int | None = None,
              rng: np.random.Generator | None = None,
              step: float = FD_STEP, rtol: float = FD_RTOL) -> float:
    """Compare taped gradients against central finite differences.

    ``build_loss`` runs the forward pass (deterministically) and returns
    the scalar loss Tensor. Checks every coordinate of every parameter,
    or ``coords_per_param`` sampled coordinates when given. Returns the
    worst relative error seen; raises AssertionError past ``rtol``.
    """
    for p in params:
        p.zero_grad()
    with Tape() as tape:
        loss = build_loss()
        backward(tape, loss)
    analytic = {p.name: p.grad.copy() for p in params}

    worst = 0.0
    for p in params:
        flat = p.data.reshape(-1)
        n = flat.size
        if coords_per_param is None or coords_per_param >= n:
            idxs = range(n)
        else:
            idxs = (rng or np.random.default_rng(0)).choice(
                n, size=coords_per_param, replace=False)
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + step
            hi = build_loss().item()
            flat[i] = orig - step
            lo = build_loss().item()
            flat[i] = orig
            numeric = (hi - lo) / (2 * step)
            a = analytic[p.name].reshape(-1)[i]
            err = rel_error(a, numeric)
            worst = max(worst, err)
            assert err < rtol, (
                f"{p.name}[{i}]: analytic {a:.10g} vs numeric {numeric:.10g} "
                f"(rel err {err:.3g})")
    return worst


def make_instances(cfg, n, rng, separation=0.0):
    """Random instances shaped for ``cfg``; optional label-correlated shift.

    Labels alternate 1/0; with ``separation`` > 0 the embeddings are
    mean-shifted by label and feature slot 0 carries the label outright,
    which makes the set linearly separable.
    """
    from alzdetect.lexical_features import OOV_ROW, EncodedInstance, TableRows

    # the embeddings are rows of one matrix, as an encoded corpus's are:
    # instance i owns rows i*T .. i*T + T-1, and its pads read the zero row
    matrix = np.zeros((n * cfg.seq_len + 1, cfg.embed_dim))
    table = SimpleNamespace(vectors=matrix)
    out = []
    for i in range(n):
        label = i % 2
        length = int(rng.integers(2, cfg.seq_len + 1))
        emb = matrix[i * cfg.seq_len:(i + 1) * cfg.seq_len]
        emb[...] = rng.normal(size=(cfg.seq_len, cfg.embed_dim))
        if separation:
            emb += separation * (1.0 if label else -1.0)
        ids = np.arange(i * cfg.seq_len, (i + 1) * cfg.seq_len)
        ids[length:] = OOV_ROW
        pos = np.zeros((cfg.seq_len, cfg.pos_dim))
        pos[np.arange(cfg.seq_len),
            rng.integers(1, cfg.pos_dim, size=cfg.seq_len)] = 1.0
        pos[length:] = 0.0
        pos[length:, 0] = 1.0
        feats = rng.uniform(0.0, 1.0, size=7)
        if separation:
            feats[0] = float(label)
        mask = np.zeros(cfg.seq_len)
        mask[:length] = 1.0
        out.append(EncodedInstance(f"t{i}", f"p{i}", TableRows(table, ids), pos, feats,
                                   mask, label))
    return out


def rows_of_one_table(arrays) -> list:
    """Each ``[T, dim]`` array as ``TableRows`` of one new table whose matrix
    holds them in order, so a batch of them is one gather, as an encoded
    corpus's is."""
    from alzdetect.lexical_features import TableRows

    matrix = np.concatenate([np.asarray(a, dtype=np.float64) for a in arrays])
    table = SimpleNamespace(vectors=matrix)
    ends = np.cumsum([len(a) for a in arrays])
    return [TableRows(table, np.arange(end - len(a), end)) for a, end in zip(arrays, ends)]


def total(x: Tensor) -> Tensor:
    """The sum of every element of ``x``: a scalar loss."""
    return ad.sum_(ad.reshape(x, (x.data.size,)), axis=0)


def lstm_direction(seq: Tensor, wx: Tensor, wh: Tensor, b: Tensor,
                   mask: np.ndarray, reverse: bool) -> list[Tensor]:
    """One LSTM direction over [B, T, C] built from elementwise primitives;
    returns per-timestep h in time order.

    Pad positions keep the previous state, so the entry at the last real
    timestep is the direction's final state. The input projection of all
    timesteps is one matmul, as in the fused op: a one-row product takes
    BLAS's matrix-vector path, which can round the last bit differently.
    """
    b_, t, c = seq.shape
    hidden = wh.shape[0]
    xw = ad.reshape(ad.matmul(ad.reshape(seq, (b_ * t, c)), wx), (b_, t, 4 * hidden))
    h = constant(np.zeros((b_, hidden)))
    cell = constant(np.zeros((b_, hidden)))
    outs: list[Tensor] = [None] * t  # type: ignore[list-item]
    steps = range(t - 1, -1, -1) if reverse else range(t)
    for ti in steps:
        x_w = ad.reshape(ad.slice_axis(xw, 1, ti, ti + 1), (b_, 4 * hidden))
        gates = ad.add(ad.add(x_w, ad.matmul(h, wh)), b)
        i_g = ad.sigmoid(ad.slice_axis(gates, 1, 0, hidden))
        f_g = ad.sigmoid(ad.slice_axis(gates, 1, hidden, 2 * hidden))
        g_g = ad.tanh(ad.slice_axis(gates, 1, 2 * hidden, 3 * hidden))
        o_g = ad.sigmoid(ad.slice_axis(gates, 1, 3 * hidden, 4 * hidden))
        cell_new = ad.add(ad.mul(f_g, cell), ad.mul(i_g, g_g))
        h_new = ad.mul(o_g, ad.tanh(cell_new))
        m = mask[:, ti:ti + 1]
        if np.all(m == 1.0):
            h, cell = h_new, cell_new
        else:
            keep = constant(m)
            hold = constant(1.0 - m)
            h = ad.add(ad.mul(keep, h_new), ad.mul(hold, h))
            cell = ad.add(ad.mul(keep, cell_new), ad.mul(hold, cell))
        outs[ti] = h
    return outs


def save_edited_model(config, path, change):
    """Save freshly initialised parameters for ``config`` after ``change``
    has edited their name -> array dict (drop, add or reshape a tensor)."""
    from alzdetect import model

    params = model.init_params(config, np.random.default_rng(0))
    tensors = {n: p.data for n, p in params.items()}
    change(tensors)
    model.save({n: Parameter(a, n) for n, a in tensors.items()}, config, path)


def edit_model_config(path, change):
    """Rewrite the JSON config block of the model file at ``path`` after
    ``change`` has edited it as a dict."""
    data = path.read_bytes()
    version, cfg_len = struct.unpack("<II", data[4:12])
    config = json.loads(data[12:12 + cfg_len])
    change(config)
    cfg = json.dumps(config, sort_keys=True).encode("utf-8")
    path.write_bytes(data[:4] + struct.pack("<II", version, len(cfg)) + cfg
                     + data[12 + cfg_len:])


def auc_trapezoid(labels, scores) -> float:
    """AUC by trapezoidal integration of the ROC curve.

    The area accumulates as an integer numerator over 2·P·N, the same
    denominator the pair count uses, so both routes agree bit-for-bit.
    """
    y = np.asarray(labels)
    s = np.asarray(scores, dtype=np.float64)
    if y.shape != s.shape:
        raise ValueError(f"{y.shape} labels vs {s.shape} scores")
    n_pos = int(np.sum(y == 1))
    n_neg = int(np.sum(y == 0))
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs both classes present")
    order = np.argsort(-s, kind="stable")
    num = 0
    tp = fp = 0
    i = 0
    while i < len(order):
        j = i
        prev_tp, prev_fp = tp, fp
        while j < len(order) and s[order[j]] == s[order[i]]:
            tp += int(y[order[j]] == 1)
            fp += int(y[order[j]] == 0)
            j += 1
        num += (fp - prev_fp) * (tp + prev_tp)
        i = j
    return num / (2 * n_pos * n_neg)


# ---------------------------------------------------------------------------
# the shipped tagger: its training set, trainer and file writer

FIXTURES = Path(__file__).parent / "fixtures"
FIXTURE_TAGGED = FIXTURES / "tagged_sentences.txt"
FIXTURE_LEXICON_DIR = FIXTURES / "lexicons"


def fixture_lexicons():
    """The fixture lexicons as the one table the encoder reads."""
    from alzdetect.lexical_features import load_lexicon_dir

    return load_lexicon_dir(FIXTURE_LEXICON_DIR)


def fixture_entries() -> dict[str, dict[str, float]]:
    """The fixture lexicons, slot -> (word -> score), each file read alone."""
    from alzdetect.lexical_features import LEXICON_SLOTS, load_lexicon

    return {slot: load_lexicon(FIXTURE_LEXICON_DIR / f"{slot}.tsv") for slot in LEXICON_SLOTS}


# ---------------------------------------------------------------------------
# reference feature vector and word splitter: one pass per lexicon, one piece
# lowered at a time


def lexicon_mean(tokens: tuple[str, ...], lex: dict[str, float]) -> float:
    """Mean score over the tokens found in the lexicon. Tokens absent from
    the lexicon are in neither numerator nor denominator; a lexicon that
    has none of them gives 0.0. Scores add left to right from 0.0, the same
    bits on every Python."""
    total, found = 0.0, 0
    for t in tokens:
        score = lex.get(t)
        if score is not None:
            total += score
            found += 1
    return total / found if found else 0.0


def reference_feature_vector(seq, entries: dict[str, dict[str, float]], demo) -> np.ndarray:
    """``build_feature_vector`` with one ``lexicon_mean`` pass per slot over
    ``entries``, slot -> (word -> score)."""
    from alzdetect.lexical_features import _GENDER_CODE, LEXICON_SLOTS

    tokens = seq.tokens[:seq.original_length]
    means = [lexicon_mean(tokens, entries[slot]) for slot in LEXICON_SLOTS]
    age = 0.0 if demo.age is None else demo.age / 100.0
    return np.array(means + [age, _GENDER_CODE[demo.gender]])


def reference_words(text: str) -> list[str]:
    """``chat_corpus.words`` lowering each whitespace piece on its own."""
    return [word for piece in text.split() if (word := piece.lower().rstrip(".?!,;:"))]


def read_tagged_file(path) -> list[list[tuple[str, str]]]:
    """Read ``token<TAB>TAG`` lines; blank lines separate sentences. This
    is the format of the corpus the shipped tagger is trained on."""
    groups: list[list[tuple[str, str]]] = []
    current: list[tuple[str, str]] = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.rstrip()
        if not line:
            if current:
                groups.append(current)
                current = []
            continue
        word, pos = line.split("\t")
        current.append((word, pos))
    if current:
        groups.append(current)
    return groups


def tagger_features(tokens: tuple[str, ...], i: int, prev: str, prev2: str) -> list[str]:
    """The nine feature strings of ``tokens[i]``, in template order."""
    word = tokens[i]
    before = tokens[i - 1] if i > 0 else "-START-"
    after = tokens[i + 1] if i + 1 < len(tokens) else "-END-"
    return [
        "bias",
        "w=" + word,
        "suf3=" + word[-3:],
        "pre1=" + word[:1],
        "p1t=" + prev,
        "p2t=" + prev2,
        "p1t+w=" + prev + "+" + word,
        "p1w=" + before,
        "n1w=" + after,
    ]


def predict_word(model, tokens: tuple[str, ...], i: int, prev: str, prev2: str) -> str:
    """The tag of ``tokens[i]`` scored from its feature strings, with no
    cache: ``train_tagger`` scores with it while the model changes, and the
    cached ``tag`` must agree with it."""
    from alzdetect.text_pipeline import PTB_TAGS

    direct = model.tagdict.get(tokens[i])
    if direct is not None:
        return direct
    get = model.features.get
    rows = [r for f in tagger_features(tokens, i, prev, prev2) if (r := get(f)) is not None]
    if not rows:
        return "NN"
    scores = np.add.reduce(model.weights.take(rows, axis=0), axis=0)
    best = scores.argmax()
    if scores[best] == 0.0 and not scores.any():
        return "NN"
    return PTB_TAGS[best]


def train_tagger(tagged_corpus: list[list[tuple[str, str]]], epochs: int = 5,
                 seed: int = 0):
    """Train an averaged perceptron on (token, gold tag) sentences.

    Update order matters for exact reproducibility, so training is
    single-threaded with a seeded shuffle between epochs.
    """
    from alzdetect.text_pipeline import _TAG_COLUMN, PTB_TAGS, PerceptronTaggerModel

    # unambiguous frequent words go straight to the tag dictionary
    tag_counts: dict[str, dict[str, int]] = {}
    for sent in tagged_corpus:
        for word, gold in sent:
            counts = tag_counts.setdefault(word, {})
            counts[gold] = counts.get(gold, 0) + 1
    tagdict = {w: next(iter(c)) for w, c in tag_counts.items()
               if len(c) == 1 and sum(c.values()) >= 2}

    # Averaging is lazy: a cell's running total catches up on the
    # instances since its last update (its stamp) only when it changes.
    # Rows are allocated by doubling; rows past len(index) stay zero.
    model = PerceptronTaggerModel(np.zeros((256, len(PTB_TAGS))), {}, tagdict)
    index = model.features
    totals = np.zeros_like(model.weights)
    stamps = np.zeros(model.weights.shape, dtype=np.int64)
    instance = 0

    rng = random.Random(seed)
    order = list(range(len(tagged_corpus)))
    for _ in range(epochs):
        rng.shuffle(order)
        for si in order:
            sent = tagged_corpus[si]
            tokens = tuple(w for w, _ in sent)
            prev, prev2 = "-START-", "-START2-"
            for i, (word, gold) in enumerate(sent):
                instance += 1
                if word in model.tagdict:
                    prev2, prev = prev, model.tagdict[word]
                    continue
                guess = predict_word(model, tokens, i, prev, prev2)
                if guess != gold:
                    # the nine templates never repeat a feature, so the rows differ
                    rows = [index.setdefault(f, len(index))
                            for f in tagger_features(tokens, i, prev, prev2)]
                    if len(index) > len(model.weights):
                        model.weights, totals, stamps = (
                            np.concatenate([a, np.zeros_like(a)]) for a in (model.weights, totals, stamps))
                    for col, delta in ((_TAG_COLUMN[gold], 1.0), (_TAG_COLUMN[guess], -1.0)):
                        cur = model.weights[rows, col]
                        totals[rows, col] += (instance - stamps[rows, col]) * cur
                        stamps[rows, col] = instance
                        model.weights[rows, col] = cur + delta
                prev2, prev = prev, guess

    # average the weights over all update timesteps
    n = len(index)
    model.weights = (totals[:n] + (instance - stamps[:n]) * model.weights[:n]) / instance
    return model


def save_tagger(model, path):
    """Write ``model`` as ``PerceptronTaggerModel.load`` reads it: a ``PTAG
    v1`` header, then feature<TAB>tag<TAB>weight lines for the nonzero
    weights, sorted. Tag-dictionary entries are stored under the reserved
    feature prefix ``!tagdict``."""
    from alzdetect.text_pipeline import PTB_TAGS

    with open(path, "w", encoding="utf-8") as fh:
        fh.write("PTAG v1\n")
        for word in sorted(model.tagdict):
            fh.write(f"!tagdict {word}\t{model.tagdict[word]}\t1.0\n")
        for feat in sorted(model.features):
            # PTB_TAGS is in sorted order, so the tags of a feature are too
            for tag, w in zip(PTB_TAGS, model.weights[model.features[feat]].tolist()):
                if w != 0.0:
                    fh.write(f"{feat}\t{tag}\t{w!r}\n")


def tagger_accuracy(model, tagged_corpus: list[list[tuple[str, str]]]) -> float:
    """Share of tokens whose predicted tag equals the gold tag."""
    from alzdetect.text_pipeline import TokenSequence, tag

    correct = total = 0
    for sent in tagged_corpus:
        seq = TokenSequence(tokens=tuple(w for w, _ in sent),
                            original_length=len(sent))
        predicted = tag(model, seq)
        for (_, gold), guess in zip(sent, predicted):
            correct += guess == gold
            total += 1
    return correct / total if total else 0.0


# ---------------------------------------------------------------------------
# reference POS scorer: nested ``weights[feature][tag]`` dicts


def dense_tagger(table: dict[str, dict[str, float]], tagdict: dict[str, str] | None = None):
    """A ``PerceptronTaggerModel`` holding ``table`` as its dense matrix."""
    from alzdetect.text_pipeline import PTB_TAGS, PerceptronTaggerModel

    features = {f: i for i, f in enumerate(table)}
    weights = np.zeros((len(features), len(PTB_TAGS)))
    for f, per_tag in table.items():
        for t, w in per_tag.items():
            weights[features[f], PTB_TAGS.index(t)] = w
    return PerceptronTaggerModel(weights=weights, features=features, tagdict=tagdict or {})


def reference_tag(table: dict[str, dict[str, float]], tagdict: dict[str, str],
                  tokens: tuple[str, ...]) -> tuple[str, ...]:
    """Greedy tagging with one accumulator per tag over ``table``; a tag a
    feature does not name adds nothing, and ties go to the earlier tag."""
    from alzdetect.text_pipeline import PAD_TAG, PAD_TOKEN, PTB_TAGS

    tags = []
    prev, prev2 = "-START-", "-START2-"
    for i, word in enumerate(tokens):
        if word == PAD_TOKEN:
            tags.append(PAD_TAG)
            continue
        t = tagdict.get(word)
        if t is None:
            scores: dict[str, float] = {}
            for f in tagger_features(tokens, i, prev, prev2):
                for tag, w in (table.get(f) or {}).items():
                    scores[tag] = scores.get(tag, 0.0) + w
            if not scores or all(v == 0.0 for v in scores.values()):
                t = "NN"
            else:
                t = max(PTB_TAGS, key=lambda t: scores.get(t, 0.0))
        tags.append(t)
        prev2, prev = prev, t
    return tuple(tags)


# ---------------------------------------------------------------------------
# reference CHAT normalizer: strip passes until the text stops changing


# bracket codes the CHAT manual defines: these whole, an overlap marker with a
# number, or a code led by one of DEFINED_LEADS
DEFINED_CODES = {"[<]", "[>]", "[?]", "[!]", "[!!]", "[*]", "[/?]", "[/-]"}
DEFINED_LEADS = ("[* ", "[= ", "[=! ", "[=? ", "[% ", "[^ ")


def _defined_code(code: str) -> bool:
    number = code[2:-1]
    return (code in DEFINED_CODES or code.startswith(DEFINED_LEADS)
            or (code[1] in "<>" and number.isdecimal()))


def reference_strip_codes_once(text: str, warnings: list[str] | None) -> str:
    """One pass of every CHAT cleanup pattern, each run whether or not its
    marker occurs."""
    from alzdetect import chat_corpus as cc

    def _unknown(m):
        if warnings is not None and not _defined_code(m.group(0)):
            warnings.append(m.group(0))
        return " "

    text = cc._RE_BULLET.sub(" ", text)
    text = cc._RE_EVENT.sub(" ", text)
    text = cc._RE_FRAGMENT.sub(" ", text)
    text = cc._RE_FILLER.sub(
        lambda m: cc._FILLER_WORDS.get(m.group(1).lower(), m.group(1).lower()), text)
    text = cc._RE_RETRACE.sub(" ", text)
    text = cc._RE_REPLACE.sub(lambda m: m.group(2), text)
    text = cc._RE_POSTCODE.sub(" ", text)
    text = cc._RE_BRACKET.sub(_unknown, text)
    text = text.replace("<", " ").replace(">", " ")
    text = cc._RE_PAUSE.sub(" ", text)
    text = cc._RE_UNINTELLIGIBLE.sub(" ", text)
    text = cc._RE_OMITTED.sub(r"\1", text)
    text = text.replace("+...", " ").replace("+//", " ")
    return " ".join(text.split())


def reference_normalize_utterance(raw_text: str, warnings: list[str] | None = None) -> str:
    text = " ".join(raw_text.split())
    while True:
        stripped = reference_strip_codes_once(text, warnings)
        if stripped == text:
            return text
        text = stripped


# ---------------------------------------------------------------------------
# embedding tables


class InMemoryRows(dict):
    """word -> vector, as an ``EmbeddingTable`` source: ``in`` and ``read``."""

    def read(self, words: list[str]) -> np.ndarray:
        return np.array([self[w] for w in words], dtype=np.float64)


def embedding_table(dim: int, entries: dict[str, np.ndarray]):
    """An ``EmbeddingTable`` built in memory, whose rows are ``entries``."""
    from alzdetect.lexical_features import EmbeddingTable

    return EmbeddingTable(dim, InMemoryRows(entries))


def reference_load_embeddings(path) -> tuple[int, dict[str, tuple[int, list[str]]]]:
    """(dim, word -> (line number, values as text)) read one line at a time;
    the width is set by the first line and checked on every line, and the
    first occurrence of a word wins. No value is parsed here: the loader
    checks values when a word is first read (``reference_vector``)."""
    from alzdetect.chat_corpus import DataError, reading_utf8

    entries: dict[str, tuple[int, list[str]]] = {}
    dim = None
    with open(path, encoding="utf-8") as fh, reading_utf8(path):
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            word, values = parts[0], parts[1:]
            if dim is None:
                dim = len(values)
                if dim == 0:
                    raise DataError(f"{path}:{lineno}: no vector values")
            elif len(values) != dim:
                raise DataError(
                    f"{path}:{lineno}: expected {dim} values, got {len(values)}"
                )
            entries.setdefault(word, (lineno, values))
    if dim is None:
        raise DataError(f"{path}: no embedding lines")
    return dim, entries


def reference_vector(path, lineno: int, values: list[str]) -> np.ndarray:
    """One line's values by ``float``'s rules, or the error naming the line."""
    from alzdetect.chat_corpus import DataError

    try:
        vec = np.array([float(v) for v in values])
    except ValueError:
        raise DataError(f"{path}:{lineno}: non-numeric vector value") from None
    if not np.isfinite(vec).all():
        raise DataError(f"{path}:{lineno}: non-finite vector value")
    return vec


# ---------------------------------------------------------------------------
# page faults of a fresh process


def fresh_process_faults(setup: str, measured: str, *args: str) -> int:
    """The minor page faults that ``measured`` takes, run after ``setup``
    in a new Python process whose heap nothing else has touched. Both are
    source text; the process has ``args`` as ``sys.argv[1:]``, ``sys``
    imported, and the package and these helpers importable. ``os`` and
    ``subprocess`` are imported here, not at the top: the measured process
    may import this module, and whatever it allocates first can change
    which of its later blocks glibc's malloc maps, and so which faults."""
    import os
    import subprocess
    import sys

    tests = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH", "")]))
    script = "\n".join([
        "import resource, sys", setup,
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt", measured,
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)"])
    run = subprocess.run([sys.executable, "-c", script, *args], env=env,
                         capture_output=True, text=True, timeout=300, check=True)
    return int(run.stdout)
