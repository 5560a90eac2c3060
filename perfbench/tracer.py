"""Outside-in tracing of alzdetect: spans around the module-level callables
at each layer boundary, installed from the benchmark's own files. No file of
the package changes, and nothing is wrapped unless a Tracer is installed.

A span is [name, start, end, parent index, count]. ``count`` carries the
tape length for ``autodiff.backward`` and the non-pad tokens for
``text_pipeline.tag``. Training steps have no call boundary of their own,
so a synthetic ``model.step`` span opens when ``model.fit`` calls the
forward graph and closes when the optimizer step returns. Spans stay in
memory until the run ends.

Backward cannot be split by op from outside: its rules are closures made
inside each primitive.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from contextlib import contextmanager
from pathlib import Path

from alzdetect import autodiff, chat_corpus, evaluation, lexical_features, model, text_pipeline

OPS = ("matmul", "add", "sub", "mul", "sigmoid", "tanh", "relu", "log", "clip",
       "reshape", "concat", "slice_axis", "sum_", "mean", "softmax", "conv1d")

STEP = "model.step"
UNIT_SPANS = (STEP, "score.op")      # one id per training step or scoring request

# (owner, attribute, span name). lexical_features imports tokenize and tag
# by name, so they are wrapped where encode_record looks them up.
BOUNDARIES = (
    (chat_corpus, "load_corpus", "chat_corpus.load_corpus"),
    (chat_corpus, "parse_chat_file", "chat_corpus.parse_chat_file"),
    (text_pipeline, "default_tagger", "text_pipeline.default_tagger"),
    (lexical_features, "tokenize", "text_pipeline.tokenize"),
    (lexical_features, "tag", "text_pipeline.tag"),
    (lexical_features, "load_embeddings", "lexical_features.load_embeddings"),
    (lexical_features, "load_lexicon_dir", "lexical_features.load_lexicon_dir"),
    (lexical_features, "encode_corpus", "lexical_features.encode_corpus"),
    (lexical_features, "encode_record", "lexical_features.encode_record"),
    (model, "load", "model.load"),
    (model, "fit", "model.fit"),
    (model, "predict", "model.predict"),
    (model, "_forward_graph", "model.forward"),
    (model, "weighted_bce", "model.loss"),
    (autodiff, "backward", "autodiff.backward"),
    (autodiff.Adam, "step", "autodiff.optimizer"),
    (evaluation, "split", "evaluation.split"),
    (evaluation, "auc_pair", "evaluation.auc_pair"),
) + tuple((autodiff, op, "autodiff." + op) for op in OPS)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._step: int | None = None
        self._saved: list[tuple] = []

    def open(self, name: str) -> int:
        i = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1, 0])
        self._stack.append(i)
        return i

    def close(self, i: int):
        self.spans[i][2] = time.perf_counter()
        while self._stack and self._stack.pop() != i:
            pass                       # spans an exception left open

    @contextmanager
    def span(self, name: str):
        i = self.open(name)
        try:
            yield
        finally:
            self._step = None
            self.close(i)

    # hooks that add counts and the synthetic step span
    def _enter_forward(self, args):
        if self._stack and self.spans[self._stack[-1]][0] == "model.fit":
            self._step = self.open(STEP)

    def _exit_optimizer(self, span, args, result):
        if self._step is not None:
            self.close(self._step)
            self._step = None

    @staticmethod
    def _count_tape(span, args, result):
        span[4] = len(args[0])

    @staticmethod
    def _count_tokens(span, args, result):
        seq = args[1]
        span[4] = min(seq.original_length, len(seq.tokens))

    def _wrap(self, owner, attr: str, name: str, enter=None, leave=None):
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if enter is not None:
                enter(args)
            i = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(i)
            if leave is not None:
                leave(tracer.spans[i], args, result)
            return result

        self._saved.append((owner, attr, original))
        setattr(owner, attr, traced)

    @contextmanager
    def installed(self):
        enter = {"model.forward": self._enter_forward}
        leave = {"autodiff.optimizer": self._exit_optimizer,
                 "autodiff.backward": self._count_tape,
                 "text_pipeline.tag": self._count_tokens}
        for owner, attr, name in BOUNDARIES:
            self._wrap(owner, attr, name, enter.get(name), leave.get(name))
        try:
            yield self
        finally:
            while self._saved:
                owner, attr, original = self._saved.pop()
                setattr(owner, attr, original)

    def write(self, path: Path):
        """Spans as gzipped JSON lines; ``unit`` is the step or request id."""
        units = _units(self.spans)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i, (name, start, end, parent, count) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "unit": units[i],
                                     "count": count}) + "\n")


def _units(spans) -> list:
    units: list = []
    for i, (name, _, _, parent, _) in enumerate(spans):
        units.append(i if name in UNIT_SPANS else (units[parent] if parent >= 0 else None))
    return units


def summarize(spans, lo: int = 0, hi: int | None = None) -> dict:
    """Per-layer metrics over spans[lo:hi]. Per-step figures average over
    training steps, per-request figures over scoring requests; a layer that
    did no work reads 0."""
    hi = len(spans) if hi is None else hi
    units = _units(spans[:hi])
    dur = [end - start if end else 0.0 for _, start, end, _, _ in spans[:hi]]
    child = [0.0] * hi
    for i in range(hi):
        parent = spans[i][3]
        if parent >= 0:
            child[parent] += dur[i]

    total: dict = {}        # (name, unit kind) -> [calls, seconds, self seconds, count]
    for i in range(lo, hi):
        name = spans[i][0]
        kind = spans[units[i]][0] if units[i] is not None else None
        acc = total.setdefault((name, kind), [0, 0.0, 0.0, 0])
        acc[0] += 1
        acc[1] += dur[i]
        acc[2] += dur[i] - child[i]
        acc[3] += spans[i][4]

    def agg(name, kind="any"):
        rows = [v for (n, k), v in total.items() if n == name and (kind == "any" or k == kind)]
        return [sum(r[j] for r in rows) for j in range(4)] if rows else [0, 0.0, 0.0, 0]

    def mean(name, field=1, kind="any"):
        calls, *rest = agg(name, kind)
        return rest[field - 1] / calls if calls else 0.0

    def per(n, x):
        return x / n if n else 0.0

    steps = agg(STEP)[0]
    requests = agg("score.op")[0]
    unit_kind, units_n = (STEP, steps) if steps else ("score.op", requests)
    tag = agg("text_pipeline.tag")
    backward = agg("autodiff.backward")
    out = {
        "chat_corpus.parse_us_per_file": mean("chat_corpus.parse_chat_file") * 1e6,
        "text_pipeline.tag_us_per_token": per(tag[3], tag[1]) * 1e6,
        "text_pipeline.default_tagger_ms": mean("text_pipeline.default_tagger") * 1e3,
        "lexical_features.load_embeddings_s": mean("lexical_features.load_embeddings"),
        "lexical_features.encode_us_per_transcript":
            mean("lexical_features.encode_record", field=2) * 1e6,
        "model.forward_ms_per_step": per(steps, agg("model.forward", STEP)[1]) * 1e3,
        "model.forward_ms_per_request":
            per(requests, agg("model.forward", "score.op")[1]) * 1e3,
        "model.loss_ms_per_step": per(steps, agg("model.loss", STEP)[1]) * 1e3,
        # predict outside a request is fit's validation pass, once per epoch
        "model.val_predict_ms_per_epoch": mean("model.predict", kind=None) * 1e3,
        "model.load_ms": mean("model.load") * 1e3,
        "autodiff.backward_ms_per_step": per(steps, agg("autodiff.backward", STEP)[1]) * 1e3,
        "autodiff.tape_entries_per_step": per(backward[0], backward[3]),
        "autodiff.optimizer_ms_per_step": per(steps, agg("autodiff.optimizer", STEP)[1]) * 1e3,
        "evaluation.auc_ms_per_epoch": mean("evaluation.auc_pair") * 1e3,
        "evaluation.split_ms": mean("evaluation.split") * 1e3,
    }
    for op in OPS:
        calls, seconds, _, _ = agg("autodiff." + op, unit_kind)
        out["autodiff.calls." + op] = per(units_n, calls)
        out["autodiff.op_us." + op] = per(units_n, seconds) * 1e6
    return out


def tape_range(spans) -> tuple[int, int]:
    sizes = [s[4] for s in spans if s[0] == "autodiff.backward"]
    return (min(sizes), max(sizes)) if sizes else (0, 0)
