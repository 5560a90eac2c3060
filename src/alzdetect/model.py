"""The classifier: two 1-D CNN branches, (bi)LSTM, additive attention,
dense head fused with targeted features, sigmoid output.

Three switches on one config reproduce the six reported variants (see
VARIANTS): ``use_attention`` (a BiLSTM read by attention, or one forward
LSTM read at its final state), ``feature_mask`` (the targeted feature
groups the dense layer sees; empty for none) and ``use_class_weights``.
Attention parameters exist under every setting, because initialisation
draws them from the generator in creation order; with attention off they
get exactly-zero gradients. Backward-direction LSTM parameters exist only
with attention.

Training is mini-batch Adam on class-weighted binary
cross-entropy with early stopping on validation loss. All randomness
(init, shuffling, dropout) comes from one seeded generator consumed in
a fixed order, so identical seeds give identical runs.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import struct
import typing
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import NonFiniteValue, Parameter, Tape, Tensor, constant
from .chat_corpus import ECHO, DataError
from .lexical_features import FEATURE_GROUPS, FEATURE_NAMES, EncodedInstance, stack_embeddings
from .text_pipeline import TAGSET

EPS = 1e-7

MAGIC = b"ADNM"
FORMAT_VERSION = 3

# Sanity bounds on a config's sizes, far above the paper's (73 tokens,
# about 0.5M parameters): past them a run would overflow or fail to
# allocate, so the config is refused instead.
MAX_SEQ_LEN = 10_000
MAX_PARAMS = 10**8
# the sizes the parameter count grows with
_SIZES = ("embed_dim", "pos_dim", "conv_filters", "conv_kernel", "lstm_hidden",
          "attention_dim", "dense_units")


class Diverged(FloatingPointError):
    pass


@dataclass(frozen=True)
class ModelConfig:
    seq_len: int = 73
    embed_dim: int = 300
    pos_dim: int = len(TAGSET)
    conv_filters: int = 100
    conv_kernel: int = 3
    lstm_hidden: int = 128
    attention_dim: int = 128
    dense_units: int = 64
    dropout_rate: float = 0.5
    use_attention: bool = True
    use_class_weights: bool = True
    feature_mask: tuple[str, ...] = tuple(FEATURE_GROUPS)
    learning_rate: float = 1e-3
    batch_size: int = 32
    max_epochs: int = 50
    patience: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.conv_kernel % 2 == 0 or self.conv_kernel < 1:
            raise ValueError("conv_kernel must be a positive odd width")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must be in [0, 1)")
        for dim in ("seq_len",) + _SIZES:
            if getattr(self, dim) < 1:
                raise ValueError(f"{dim} must be >= 1")
        if self.seq_len > MAX_SEQ_LEN:
            raise ValueError(f"seq_len must be at most {MAX_SEQ_LEN}")
        unknown = set(self.feature_mask) - set(FEATURE_GROUPS)
        if unknown:
            raise ValueError(f"unknown feature groups {ECHO.repr(sorted(unknown))}")
        if not 0 < self.learning_rate < math.inf:        # also rejects nan
            raise ValueError("learning_rate must be finite and > 0")
        if self.batch_size < 1 or self.max_epochs < 1:
            raise ValueError("batch_size and max_epochs must be >= 1")
        if self.patience < 0:
            raise ValueError("patience must be >= 0")
        if sum(math.prod(s) for s in param_shapes(self).values()) > MAX_PARAMS:
            widest = max(_SIZES, key=lambda k: getattr(self, k))
            raise ValueError(f"the model would have more than {MAX_PARAMS:,} parameters; "
                             f"its largest size is {widest} = {ECHO.repr(getattr(self, widest))}")


# Switch settings for the six reported variants, in report order. The
# C-LSTM ones give the dense layer no targeted features; the OURS ones keep
# the base config's feature mask.
VARIANTS: dict[str, dict] = {
    "C-LSTM": dict(use_attention=False, feature_mask=(), use_class_weights=False),
    "C-LSTM-Att": dict(use_attention=True, feature_mask=(), use_class_weights=False),
    "C-LSTM-Att-w": dict(use_attention=True, feature_mask=(), use_class_weights=True),
    "OURS": dict(use_attention=False, use_class_weights=False),
    "OURS-Att": dict(use_attention=True, use_class_weights=False),
    "OURS-Att-w": dict(use_attention=True, use_class_weights=True),
}


def variant_config(name: str, base: ModelConfig) -> ModelConfig:
    if name not in VARIANTS:
        raise KeyError(f"unknown variant {ECHO.repr(name)}")
    return replace(base, **VARIANTS[name])


def active_feature_indices(config: ModelConfig) -> tuple[int, ...]:
    """Feature-vector columns the dense layer actually sees."""
    return tuple(i for group, idx in FEATURE_GROUPS.items()
                 if group in config.feature_mask for i in idx)


# ---------------------------------------------------------------------------
# parameters

def _readout_dim(config: ModelConfig) -> int:
    return config.lstm_hidden * (2 if config.use_attention else 1)


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every parameter the config has, in creation order."""
    f, k, h = config.conv_filters, config.conv_kernel, config.lstm_hidden
    c = 2 * f                      # LSTM input width after branch concat
    d = _readout_dim(config)       # LSTM output width per timestep
    a = config.attention_dim
    dense_in = d + len(active_feature_indices(config))
    units = config.dense_units

    shapes = {"conv_embed_kernels": (f, k, config.embed_dim), "conv_embed_bias": (f,),
              "conv_pos_kernels": (f, k, config.pos_dim), "conv_pos_bias": (f,)}
    directions = ["lstm_fwd"] + (["lstm_bwd"] if config.use_attention else [])
    for prefix in directions:
        shapes.update({prefix + "_wx": (c, 4 * h), prefix + "_wh": (h, 4 * h),
                       prefix + "_b": (4 * h,)})
    # attention parameters exist under every setting (see the module docstring)
    shapes.update(attn_w=(d, a), attn_b=(a,), attn_u=(a, 1),
                  dense_w=(dense_in, units), dense_b=(units,),
                  out_w=(units, 1), out_b=(1,))
    return shapes


def init_params(config: ModelConfig, rng: np.random.Generator) -> dict[str, Parameter]:
    """Fan-scaled uniform init, zero biases, LSTM forget bias 1.0.

    Creation order is fixed; it doubles as the generator consumption
    order, so a given seed always produces the same weights. The returned
    dict iterates in that order.
    """
    h = config.lstm_hidden
    p: dict[str, Parameter] = {}
    for name, shape in param_shapes(config).items():
        if len(shape) == 1:
            data = np.zeros(shape)
            if name.startswith("lstm_"):
                data[h:2 * h] = 1.0        # forget gate opens at init
        else:
            # conv kernels are [F, w, C]; every other weight is [in, out]
            fan_in, fan_out = (shape[1] * shape[2], shape[0]) if len(shape) == 3 else shape
            lim = np.sqrt(6.0 / (fan_in + fan_out))
            data = rng.uniform(-lim, lim, size=shape)
        p[name] = Parameter(data, name)
    return p


# ---------------------------------------------------------------------------
# forward graph

def _stack_instances(config: ModelConfig, instances) -> tuple[np.ndarray, ...]:
    emb = stack_embeddings([i.embeddings for i in instances])
    pos = np.stack([i.pos_onehot for i in instances], dtype=np.float64)
    feats = np.stack([i.features for i in instances], dtype=np.float64)
    mask = np.stack([i.mask for i in instances], dtype=np.float64)
    labels = np.array([i.label for i in instances], dtype=np.float64)
    if emb.shape[1:] != (config.seq_len, config.embed_dim):
        raise ValueError(f"embeddings {emb.shape[1:]} vs config "
                         f"({config.seq_len}, {config.embed_dim})")
    if pos.shape[1:] != (config.seq_len, config.pos_dim):
        raise ValueError(f"pos one-hots {pos.shape[1:]} vs config "
                         f"({config.seq_len}, {config.pos_dim})")
    if feats.shape[1] != len(FEATURE_NAMES):
        raise ValueError(f"feature vectors must have {len(FEATURE_NAMES)} slots")
    return emb, pos, feats, mask, labels


def _forward_graph(params: dict[str, Parameter], config: ModelConfig,
                   emb: np.ndarray, pos: np.ndarray, feats: np.ndarray,
                   mask: np.ndarray, training: bool,
                   rng: np.random.Generator | None) -> tuple[Tensor, Tensor | None]:
    """Build the graph for one batch; returns (probabilities [B], attention [B, T] or None)."""
    b, t = emb.shape[0], config.seq_len
    h = config.lstm_hidden
    d = _readout_dim(config)

    conv_e = ad.relu(ad.add(ad.conv1d(constant(emb), params["conv_embed_kernels"]),
                            params["conv_embed_bias"]))
    conv_p = ad.relu(ad.add(ad.conv1d(constant(pos), params["conv_pos_kernels"]),
                            params["conv_pos_bias"]))
    seq = ad.concat([conv_e, conv_p], axis=2)  # [B, T, 2·filters]

    h_fwd = ad.lstm(seq, params["lstm_fwd_wx"], params["lstm_fwd_wh"], params["lstm_fwd_b"],
                    mask)                                    # [B, T, H]

    alpha = None
    if config.use_attention:
        h_bwd = ad.lstm(seq, params["lstm_bwd_wx"], params["lstm_bwd_wh"], params["lstm_bwd_b"],
                        mask, reverse=True)
        h_all = ad.concat([h_fwd, h_bwd], axis=2)            # [B, T, D]
        flat = ad.reshape(h_all, (b * t, d))
        proj = ad.tanh(ad.add(ad.matmul(flat, params["attn_w"]), params["attn_b"]))
        scores = ad.reshape(ad.matmul(proj, params["attn_u"]), (b, t))
        alpha = ad.softmax(scores, axis=1, mask=mask)        # [B, T]
        weighted = ad.mul(ad.reshape(alpha, (b, t, 1)), h_all)
        readout = ad.sum_(weighted, axis=1)                  # [B, D]
    else:
        # the forward LSTM's final state (pads carry the last real one)
        readout = ad.reshape(ad.slice_axis(h_fwd, 1, t - 1, t), (b, h))

    active = active_feature_indices(config)
    fused = readout if not active else ad.concat(
        [readout, constant(feats[:, list(active)])], axis=1)

    dense = ad.relu(ad.add(ad.matmul(fused, params["dense_w"]), params["dense_b"]))
    if training and config.dropout_rate > 0.0:
        if rng is None:
            raise ValueError("training mode needs a generator for dropout")
        keep = 1.0 - config.dropout_rate
        drop = (rng.random(size=(b, config.dense_units)) < keep) / keep
        dense = ad.mul(dense, constant(drop))
    logit = ad.add(ad.matmul(dense, params["out_w"]), params["out_b"])
    prob = ad.sigmoid(ad.reshape(logit, (b,)))
    return prob, alpha


def score_instance(params: dict[str, Parameter], config: ModelConfig,
                   instance: EncodedInstance) -> tuple[np.float64, np.ndarray | None]:
    """One instance's probability, as ``predict`` gives it, and its
    per-timestep attention weights (None without attention), from one
    forward pass."""
    emb, pos, feats, mask, _ = _stack_instances(config, [instance])
    prob, alpha = _forward_graph(params, config, emb, pos, feats, mask,
                                 training=False, rng=None)
    return prob.data[0], None if alpha is None else alpha.data[0].copy()


# ---------------------------------------------------------------------------
# loss

@dataclass(frozen=True)
class ClassWeights:
    w_ad: float
    w_ct: float

    def __post_init__(self):
        if self.w_ad <= 0 or self.w_ct <= 0:
            raise ValueError("class weights must be > 0")


UNIT_WEIGHTS = ClassWeights(1.0, 1.0)


def compute_class_weights(n_ad: int, n_ct: int) -> ClassWeights:
    """Balanced inverse-frequency weights w_c = (n_ad + n_ct) / (2 n_c)."""
    if n_ad < 1 or n_ct < 1:
        raise DataError(f"need both classes present, got ad={n_ad} ct={n_ct}")
    total = n_ad + n_ct
    return ClassWeights(w_ad=total / (2 * n_ad), w_ct=total / (2 * n_ct))


def weighted_bce(p, y, weights: ClassWeights = UNIT_WEIGHTS) -> Tensor:
    """Mean of -[w_ad·y·log p + w_ct·(1-y)·log(1-p)] with p clamped to [eps, 1-eps].

    ``p`` may be a graph Tensor or plain values; ``y`` is 0/1 per element.
    """
    pt = p if isinstance(p, Tensor) else constant(np.asarray(p, dtype=np.float64))
    ya = np.asarray(y, dtype=np.float64)
    if ya.shape != pt.shape:
        raise ValueError(f"labels {ya.shape} vs probabilities {pt.shape}")
    pc = ad.clip(pt, EPS, 1.0 - EPS)
    pos_coef = constant(-weights.w_ad * ya)
    neg_coef = constant(-weights.w_ct * (1.0 - ya))
    terms = ad.add(ad.mul(pos_coef, ad.log(pc)),
                   ad.mul(neg_coef, ad.log(ad.sub(constant(1.0), pc))))
    return ad.mean(terms)


# ---------------------------------------------------------------------------
# training

@dataclass(frozen=True)
class TrainLogRow:
    epoch: int
    train_loss: float
    val_loss: float
    val_auc: float | None      # None: the validation slice holds one class


def _batches(n: int, size: int, order: np.ndarray):
    for lo in range(0, n, size):
        yield order[lo:lo + size]


def fit(config: ModelConfig, train: list[EncodedInstance],
        val: list[EncodedInstance]) -> tuple[dict[str, Parameter], list[TrainLogRow]]:
    """Train with early stopping; returns best-validation-epoch parameters.

    The log has one row per epoch actually run, including the epochs
    that exhausted the patience counter.
    """
    from .evaluation import auc_pair   # deferred: evaluation imports this module

    if not train or not val:
        raise ValueError("train and validation sets must be non-empty")
    rng = np.random.default_rng(config.seed)
    params = init_params(config, rng)

    n_ad = sum(i.label for i in train)
    weights = (compute_class_weights(n_ad, len(train) - n_ad)
               if config.use_class_weights else UNIT_WEIGHTS)
    opt = ad.Adam(config.learning_rate)

    val_labels = np.array([i.label for i in val], dtype=np.float64)
    best_val = np.inf
    best_values = {}           # set at epoch 1: a finite val loss beats inf
    wait = 0
    log: list[TrainLogRow] = []

    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(len(train))
        total = 0.0
        # every op output is checked as it is made, so both losses are finite
        try:
            for chunk in _batches(len(train), config.batch_size, order):
                batch = [train[i] for i in chunk]
                emb, pos, feats, mask, labels = _stack_instances(config, batch)
                with Tape() as tape:
                    prob, _ = _forward_graph(params, config, emb, pos, feats,
                                             mask, training=True, rng=rng)
                    loss = weighted_bce(prob, labels, weights)
                    ad.backward(tape, loss)
                opt.step(list(params.values()))
                for p in params.values():
                    p.zero_grad()
                total += loss.item() * len(chunk)
            val_scores = predict(params, config, val)
            val_loss = weighted_bce(val_scores, val_labels, weights).item()
        except NonFiniteValue as exc:
            raise Diverged(f"epoch {epoch}: {exc}") from exc
        log.append(TrainLogRow(epoch, total / len(train), val_loss,
                               auc_pair(val_labels, val_scores)))

        if val_loss < best_val:
            best_val = val_loss
            best_values = {n: p.data.copy() for n, p in params.items()}
            wait = 0
        else:
            wait += 1
            if wait > config.patience:
                break
    return {n: Parameter(v, n) for n, v in best_values.items()}, log


def predict(params: dict[str, Parameter], config: ModelConfig,
            instances: list[EncodedInstance]) -> np.ndarray:
    """Evaluation-mode probabilities, batched; dropout off."""
    out = np.empty(len(instances))
    for lo in range(0, len(instances), config.batch_size):
        batch = instances[lo:lo + config.batch_size]
        emb, pos, feats, mask, _ = _stack_instances(config, batch)
        prob, _ = _forward_graph(params, config, emb, pos, feats, mask,
                                 training=False, rng=None)
        out[lo:lo + len(batch)] = prob.data
    return out


def classify(probabilities: np.ndarray) -> np.ndarray:
    """Hard labels at the inclusive 0.5 threshold (1 = positive)."""
    return (np.asarray(probabilities) >= 0.5).astype(int)


# ---------------------------------------------------------------------------
# serialization

UNKNOWN_KEYS_SHOWN = 5     # unknown keys an error names; the rest it counts

_TYPE_NAMES = {int: "an integer", float: "a number", bool: "true or false",
               str: "a string", str | None: "a string", tuple[str, ...]: "a list of strings",
               tuple[int, ...]: "a list of integers"}


def typed_value(value, kind, key: str = "", skip: tuple[str, ...] = ()):
    """``value`` (as YAML or JSON decodes it) as the config type ``kind``: a
    config dataclass from a mapping (or None) of its fields less the dotted
    keys in ``skip``, an int widened to float, a list of str or of int as a
    tuple; a bool is not a number. Raises TypeError or ValueError naming the key."""
    if dataclasses.is_dataclass(kind):
        name, value = key or "config", {} if value is None else value
        if type(value) is not dict:
            raise TypeError(f"{name} must be a mapping, got {ECHO.repr(value)}")
        kinds = {k: t for k, t in typing.get_type_hints(kind).items()
                 if f"{key}.{k}".lstrip(".") not in skip}
        unknown = sorted(set(map(str, value)) - set(kinds))
        if unknown:
            more = (f", ... ({len(unknown):,} in all)"
                    if len(unknown) > UNKNOWN_KEYS_SHOWN else "")
            # each name as ECHO shortens and escapes a string, less its quotes
            shown = ", ".join(ECHO.repr(k)[1:-1] for k in unknown[:UNKNOWN_KEYS_SHOWN])
            raise TypeError(f"unknown {name} keys: {shown}{more}")
        fields = {k: typed_value(v, kinds[k], f"{key}.{k}".lstrip("."), skip)
                  for k, v in value.items()}
        try:
            return kind(**fields)
        except ValueError as exc:
            raise ValueError(f"{key}: {exc}" if key else exc) from None
    if kind is float and type(value) in (int, float):
        try:
            return float(value)
        except OverflowError:
            raise ValueError(f"{key} is out of range") from None
    if kind in (int, bool, str) and type(value) is kind:
        return value
    if kind == str | None and (value is None or type(value) is str):
        return value
    if (kind in (tuple[str, ...], tuple[int, ...]) and type(value) is list
            and all(type(v) is kind.__args__[0] for v in value)):
        return tuple(value)
    raise TypeError(f"{key} must be {_TYPE_NAMES[kind]}, "
                    f"got {ECHO.repr(value)} ({type(value).__name__})")


def save(params: dict[str, Parameter], config: ModelConfig, path: str | Path):
    """Format 3: magic, version, the config as JSON, then each parameter's
    UTF-8 name and its ``<f8`` values. The config fixes every shape and the
    order (``param_shapes``), so nothing else is stored."""
    cfg = json.dumps(dataclasses.asdict(config), sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", FORMAT_VERSION, len(cfg)))
        fh.write(cfg)
        for name, p in params.items():
            fh.write(name.encode("utf-8"))
            fh.write(np.ascontiguousarray(p.data, dtype="<f8").tobytes())


def _read_exact(fh, n: int) -> bytes:
    """The next ``n`` bytes; a length below zero or past the end of the
    file is rejected before anything is read."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if not 0 <= n <= left:
        raise DataError(f"{fh.name}: unexpected end of file (wanted {n} bytes, {left} left)")
    return fh.read(n)


def load(path: str | Path) -> tuple[dict[str, Parameter], ModelConfig]:
    """The parameters and config of a ``save``d model. Every check runs
    before its part is used: magic, version, the config block, then each
    tensor's name, its length (before it is read) and its values (finite),
    and last that nothing follows. A loaded Parameter holds its data and
    no gradient buffer."""
    with open(path, "rb") as fh:
        if _read_exact(fh, 4) != MAGIC:
            raise DataError(f"{path}: not a model file (bad magic)")
        version, cfg_len = struct.unpack("<II", _read_exact(fh, 8))
        if version != FORMAT_VERSION:
            raise DataError(f"{path}: format version {version}, expected {FORMAT_VERSION}")
        try:
            config = typed_value(json.loads(_read_exact(fh, cfg_len)), ModelConfig)
        except DataError:
            raise
        except (TypeError, ValueError, RecursionError) as exc:
            raise DataError(f"{path}: bad config block: {exc}") from exc
        # the config is the file's only schema: the graph reads exactly the
        # parameters it would create, so they follow in that order, each its
        # name (which catches a reordered or renamed parameter) and then as
        # many values as its shape holds
        tensors: dict[str, Parameter] = {}
        for name, shape in param_shapes(config).items():
            at, stored = fh.tell(), name.encode("utf-8")
            if fh.read(len(stored)) != stored:
                raise DataError(f"{path}: expected tensor {name!r} at byte {at}")
            data = np.frombuffer(_read_exact(fh, 8 * math.prod(shape)), dtype="<f8")
            if not np.all(np.isfinite(data)):
                raise DataError(f"{path}: tensor {name!r} holds non-finite values")
            tensors[name] = Parameter(data.reshape(shape).copy(), name)
        if fh.read(1):
            raise DataError(f"{path}: trailing bytes after last tensor")
    return tensors, config
