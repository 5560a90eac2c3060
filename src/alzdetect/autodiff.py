"""Dense float64 tensor engine with reverse-mode automatic differentiation.

Every primitive computes its forward value with numpy, checks the result
for NaN/Inf, and (when a Tape is active) records a backward rule. Calling
``backward`` replays the records in reverse order, accumulating gradients
into the ``grad`` field of every leaf tensor that contributed to the loss.
Constants (data such as the inputs) take no gradient, and an op output's
gradient is dropped as soon as its own rule has read it.

Backward rules may spend what their op saved: ``lstm`` writes its gate
gradients over its saved gate activations, so a tape can be replayed once
only. Intermediates that are cheap to rebuild are rebuilt in backward
instead of being kept from the forward pass (``conv1d``'s im2col matrix).

The operation set is intentionally small: exactly what a conv / LSTM /
attention / dense classifier graph needs. Broadcasting is supported only
to the extent numpy allows it for add/mul (bias vectors, scalar factors,
attention-weight columns); anything fancier is out of scope.
"""

from __future__ import annotations

import numpy as np


class ShapeMismatch(ValueError):
    """Operands cannot be combined under the primitive's shape rules."""


class NonFiniteValue(FloatingPointError):
    """An operation produced NaN or Inf."""


class NotScalarLoss(ValueError):
    """backward() was asked to differentiate a non-scalar tensor."""


class SpentTape(RuntimeError):
    """backward() was asked to replay a tape it has already run."""


class Tensor:
    """Dense n-dimensional float64 array plus an accumulated gradient.

    ``grad`` is lazily allocated the first time a backward rule touches
    the tensor; it always matches ``data`` in shape.
    """

    __slots__ = ("data", "grad", "name")

    def __init__(self, data, name: str | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        label = f" {self.name!r}" if self.name else ""
        return f"Tensor{label}(shape={self.data.shape})"


class Parameter(Tensor):
    """A named, trainable tensor. Its gradient buffer always exists."""

    def __init__(self, data, name: str):
        super().__init__(data, name)
        self.grad = np.zeros_like(self.data)

    def zero_grad(self):
        self.grad[...] = 0.0


class Constant(Tensor):
    """A tensor that is data, not a function of anything trained: backward
    computes and stores no gradient for it."""

    __slots__ = ()


class Tape:
    """Ordered record of primitive applications.

    Recording order is a topological order of the computation DAG, so
    backward simply walks the records in reverse.
    """

    def __init__(self):
        self.records: list[tuple[Tensor, object]] = []
        self.spent = False           # set by backward: the rules may overwrite their saves

    def __enter__(self):
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc):
        _TAPE_STACK.pop()
        return False

    def __len__(self):
        return len(self.records)


_TAPE_STACK: list[Tape] = []


def _check_finite(arr: np.ndarray, op: str) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise NonFiniteValue(f"{op} produced a non-finite value")
    return arr


def _out(arr: np.ndarray, op: str, backward) -> Tensor:
    t = Tensor(_check_finite(arr, op))
    if _TAPE_STACK:
        _TAPE_STACK[-1].records.append((t, backward))
    return t


def _accum(t: Tensor, g: np.ndarray):
    if isinstance(t, Constant):
        return
    if t.grad is None:
        # one pass; adding 0.0 turns -0.0 into 0.0 exactly as zeros + g did
        t.grad = np.add(g, 0.0, out=np.empty_like(t.data))
    else:
        t.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back down to the operand's shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def constant(data, name: str | None = None) -> Tensor:
    """A tensor that participates in the graph but is never differentiated
    through: no gradient is computed for it or stored on it."""
    return Constant(data, name)


# ---------------------------------------------------------------------------
# elementwise and linear-algebra primitives


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data + b.data
    except ValueError as e:
        raise ShapeMismatch(f"add: {a.shape} vs {b.shape}") from e

    def bw(g):
        _accum(a, _unbroadcast(g, a.shape))
        _accum(b, _unbroadcast(g, b.shape))

    return _out(data, "add", bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data - b.data
    except ValueError as e:
        raise ShapeMismatch(f"sub: {a.shape} vs {b.shape}") from e

    def bw(g):
        _accum(a, _unbroadcast(g, a.shape))
        _accum(b, _unbroadcast(-g, b.shape))

    return _out(data, "sub", bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data * b.data
    except ValueError as e:
        raise ShapeMismatch(f"mul: {a.shape} vs {b.shape}") from e

    def bw(g):
        _accum(a, _unbroadcast(g * b.data, a.shape))
        _accum(b, _unbroadcast(g * a.data, b.shape))

    return _out(data, "mul", bw)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeMismatch("matmul expects rank-2 operands")
    if a.shape[1] != b.shape[0]:
        raise ShapeMismatch(f"matmul: {a.shape} @ {b.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        data = a.data @ b.data

    def bw(g):
        _accum(a, g @ b.data.T)
        _accum(b, a.data.T @ g)

    return _out(data, "matmul", bw)


def tanh(x: Tensor) -> Tensor:
    data = np.tanh(x.data)

    def bw(g):
        _accum(x, g * (1.0 - data * data))

    return _out(data, "tanh", bw)


def _sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # numerically symmetric, branch-free: exp(min(x, 0)) / (1 + exp(-|x|)).
    # Both exps take arguments <= 0, so neither overflows; for x >= 0 the
    # numerator is exactly 1, and for x < 0 both exps are the same float.
    denom = np.exp(-np.abs(x))
    denom += 1.0
    out = np.exp(np.minimum(x, 0.0), out=out)
    out /= denom
    return out


def sigmoid(x: Tensor) -> Tensor:
    data = _sigmoid(x.data)

    def bw(g):
        _accum(x, g * data * (1.0 - data))

    return _out(data, "sigmoid", bw)


def relu(x: Tensor) -> Tensor:
    data = np.maximum(x.data, 0.0)

    def bw(g):
        _accum(x, g * (x.data > 0))

    return _out(data, "relu", bw)


def log(x: Tensor) -> Tensor:
    with np.errstate(divide="ignore", invalid="ignore"):
        data = np.log(x.data)

    def bw(g):
        _accum(x, g / x.data)

    return _out(data, "log", bw)


def clip(x: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp values to [lo, hi]; the gradient is zero where the clamp binds."""
    data = np.clip(x.data, lo, hi)
    inside = (x.data >= lo) & (x.data <= hi)

    def bw(g):
        _accum(x, g * inside)

    return _out(data, "clip", bw)


# ---------------------------------------------------------------------------
# shape plumbing


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    try:
        data = x.data.reshape(shape)
    except ValueError as e:
        raise ShapeMismatch(f"reshape {x.shape} -> {shape}") from e

    def bw(g):
        _accum(x, g.reshape(x.shape))

    return _out(data, "reshape", bw)


def concat(tensors: list[Tensor], axis: int) -> Tensor:
    if not tensors:
        raise ShapeMismatch("concat of zero tensors")
    try:
        data = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError as e:
        raise ShapeMismatch("concat: incompatible shapes") from e
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            _accum(t, g[tuple(idx)])

    return _out(data, "concat", bw)


def slice_axis(x: Tensor, axis: int, start: int, stop: int) -> Tensor:
    """Contiguous slice along one axis, rank preserved."""
    if not (0 <= start < stop <= x.shape[axis]):
        raise ShapeMismatch(f"slice [{start}:{stop}] out of range on axis {axis} of {x.shape}")
    idx = [slice(None)] * x.data.ndim
    idx[axis] = slice(start, stop)
    idx = tuple(idx)
    data = x.data[idx]

    def bw(g):
        if isinstance(x, Constant):
            return
        if x.grad is None:
            x.grad = np.zeros_like(x.data)
        x.grad[idx] += g

    return _out(data, "slice", bw)


# ---------------------------------------------------------------------------
# reductions and softmax


def sum_(x: Tensor, axis: int | None = None) -> Tensor:
    data = x.data.sum(axis=axis)

    def bw(g):
        if axis is None:
            _accum(x, np.broadcast_to(g, x.shape).copy())
        else:
            _accum(x, np.broadcast_to(np.expand_dims(g, axis), x.shape).copy())

    return _out(data, "sum", bw)


def mean(x: Tensor, axis: int | None = None) -> Tensor:
    n = x.data.size if axis is None else x.shape[axis]
    data = x.data.mean(axis=axis)

    def bw(g):
        if axis is None:
            _accum(x, np.broadcast_to(g / n, x.shape).copy())
        else:
            _accum(x, np.broadcast_to(np.expand_dims(g / n, axis), x.shape).copy())

    return _out(data, "mean", bw)


def softmax(x: Tensor, axis: int, mask: np.ndarray) -> Tensor:
    """Softmax along one axis, restricted by a 0/1 mask of ``x``'s shape.

    Masked positions get weight exactly 0 and pass no gradient. If every
    position along the axis is masked the whole row is 0 (a degenerate
    all-pad row rather than an error). A mask of ones gives the plain
    softmax.
    """
    mask = np.asarray(mask, dtype=np.float64)
    if mask.shape != x.shape:
        raise ShapeMismatch(f"softmax mask {mask.shape} vs input {x.shape}")
    neg = np.where(mask > 0, x.data, -np.inf)
    shift = np.max(neg, axis=axis, keepdims=True)
    shift = np.where(np.isfinite(shift), shift, 0.0)
    e = np.exp(x.data - shift) * mask
    denom = e.sum(axis=axis, keepdims=True)
    data = np.divide(e, denom, out=np.zeros_like(e), where=denom > 0)

    def bw(g):
        dot = (g * data).sum(axis=axis, keepdims=True)
        _accum(x, data * (g - dot))

    return _out(data, "softmax", bw)


# ---------------------------------------------------------------------------
# sequence primitives


def _im2col(x: np.ndarray, w: int) -> np.ndarray:
    """[B, T, C] -> [B·T, w·C]: row (b, t) holds x[b, t - w//2 : t + w//2 + 1],
    zeros past either end of the sequence, so the convolution is one matmul."""
    b, t, c = x.shape
    cols = np.empty((b, t, w, c))
    for j in range(w):
        shift = j - w // 2
        # output steps lo..hi-1 read x[lo + shift : hi + shift]; the rest are zeros
        lo = min(max(0, -shift), t)
        hi = max(min(t, t - shift), lo)
        cols[:, :lo, j] = 0.0
        cols[:, hi:, j] = 0.0
        cols[:, lo:hi, j] = x[:, lo + shift:hi + shift]
    return cols.reshape(b * t, w * c)


def conv1d(x: Tensor, kernels: Tensor) -> Tensor:
    """1-D convolution over the time axis with same-zero-padding.

    ``x`` is [B, T, C]; ``kernels`` is [F, w, C] with odd width ``w``. The
    output [B, T, F] has the same time length as the input. The [B·T, w·C]
    im2col matrix is built without a padded copy of ``x``, and backward
    rebuilds it from ``x`` rather than keeping it alive across the tape.
    """
    if kernels.data.ndim != 3:
        raise ShapeMismatch("conv1d kernels must be [F, w, C]")
    nf, w, c = kernels.shape
    if w % 2 == 0:
        raise ShapeMismatch("conv1d kernel width must be odd")
    if x.data.ndim != 3 or x.shape[-1] != c:
        raise ShapeMismatch(f"conv1d input {x.shape} vs kernels {kernels.shape}")

    b, t, _ = x.shape
    half = w // 2
    kmat = kernels.data.reshape(nf, w * c).T  # [w*C, F]
    out = (_im2col(x.data, w) @ kmat).reshape(b, t, nf)

    def bw(g):
        gflat = g.reshape(b * t, nf)
        _accum(kernels, (gflat.T @ _im2col(x.data, w)).reshape(nf, w, c))
        if isinstance(x, Constant):
            return
        dcols = (gflat @ kmat.T).reshape(b, t, w * c)
        dpad = np.zeros((b, t + 2 * half, c))
        for j in range(w):
            dpad[:, j:j + t, :] += dcols[:, :, j * c:(j + 1) * c]
        _accum(x, dpad[:, half:half + t, :])

    return _out(out, "conv1d", bw)


def lstm(seq: Tensor, wx: Tensor, wh: Tensor, b: Tensor, mask: np.ndarray,
         reverse: bool = False) -> Tensor:
    """One LSTM direction over ``seq`` [B, T, C]; returns every h as [B, T, H].

    Gates are laid out [input | forget | cell | output] along the 4H axis of
    ``wx`` [C, 4H], ``wh`` [H, 4H] and ``b`` [4H]. The input projection of
    all timesteps is one GEMM; only ``h @ wh`` runs per step. Where ``mask``
    [B, T] is 0 the row keeps its previous h and cell, so the h at the last
    real timestep is the direction's final state. A timestep that is a pad
    in every row computes nothing in either pass; the state and its gradient
    carry over it. The output is a [B, T, H] view of the saved states, not
    a copy. Backward is hand-written BPTT: one reverse pass over the saved
    gates, writing each step's four gate gradients over that step's spent
    activations, then one GEMM each for the weight and input gradients.
    """
    if seq.data.ndim != 3 or wx.data.ndim != 2 or wh.data.ndim != 2:
        raise ShapeMismatch("lstm expects seq [B, T, C], wx [C, 4H], wh [H, 4H]")
    nb, nt, c = seq.shape
    hidden = wh.shape[0]
    if (wx.shape != (c, 4 * hidden) or wh.shape != (hidden, 4 * hidden)
            or b.shape != (4 * hidden,) or np.shape(mask) != (nb, nt)):
        raise ShapeMismatch(f"lstm: seq {seq.shape}, wx {wx.shape}, wh {wh.shape}, "
                            f"b {b.shape}, mask {np.shape(mask)}")
    h2, h3 = 2 * hidden, 3 * hidden
    steps = range(nt - 1, -1, -1) if reverse else range(nt)
    keeps = mask[:, ::-1] if reverse else mask   # [B, T] in processing order
    holds = 1.0 - keeps
    # each step is classified once: every row real, every row a pad, or mixed
    full = np.all(keeps == 1.0, axis=0).tolist()
    empty = np.all(keeps == 0.0, axis=0).tolist()
    # per processing step k: state before the step at [k], after it at [k + 1]
    hs = np.zeros((nt + 1, nb, hidden))
    cs = np.zeros((nt + 1, nb, hidden))
    acts = np.empty((nt, nb, 4 * hidden))        # i, f, g, o; unset at all-pad steps
    tanh_c = np.empty((nt, nb, hidden))
    z = np.empty((nb, 4 * hidden))
    with np.errstate(over="ignore", invalid="ignore"):
        xw = (seq.data.reshape(nb * nt, c) @ wx.data).reshape(nb, nt, 4 * hidden)
        for k, ti in enumerate(steps):
            h, cell = hs[k + 1], cs[k + 1]
            if empty[k]:                         # nothing to compute: the state carries over
                h[...] = hs[k]
                cell[...] = cs[k]
                continue
            np.matmul(hs[k], wh.data, out=z)
            z += xw[:, ti]
            z += b.data
            _check_finite(z, "lstm")
            a = acts[k]
            _sigmoid(z, out=a)
            np.tanh(z[:, h2:h3], out=a[:, h2:h3])
            np.multiply(a[:, hidden:h2], cs[k], out=cell)
            cell += a[:, :hidden] * a[:, h2:h3]
            np.tanh(cell, out=tanh_c[k])
            np.multiply(a[:, h3:], tanh_c[k], out=h)
            if not full[k]:                      # pad rows keep their previous state
                keep, hold = keeps[:, k:k + 1], holds[:, k:k + 1]
                h *= keep
                h += hold * hs[k]
                cell *= keep
                cell += hold * cs[k]
    _check_finite(cs, "lstm")
    data = (hs[:0:-1] if reverse else hs[1:]).transpose(1, 0, 2)

    def bw(g):
        g_steps = g[:, ::-1] if reverse else g
        dz = acts                                # step k's gate gradients replace its gates
        dh = np.zeros((nb, hidden))
        dc = np.zeros((nb, hidden))
        for k in range(nt - 1, -1, -1):
            dh = dh + g_steps[:, k]
            if empty[k]:                         # pads pass their gradient straight back
                dz[k] = 0.0
                continue
            a = acts[k]
            i_g, f_g, c_g, o_g = (a[:, :hidden], a[:, hidden:h2],
                                  a[:, h2:h3], a[:, h3:])
            if full[k]:
                dh_new, dc_new, dh, dc = dh, dc, 0.0, 0.0
            else:
                keep, hold = keeps[:, k:k + 1], holds[:, k:k + 1]
                dh_new, dc_new, dh, dc = keep * dh, keep * dc, hold * dh, hold * dc
            dc_new = dc_new + dh_new * o_g * (1.0 - tanh_c[k] * tanh_c[k])
            # every read of the gates comes before the first write over them
            d_i = dc_new * c_g * i_g * (1.0 - i_g)
            d_f = dc_new * cs[k] * f_g * (1.0 - f_g)
            d_c = dc_new * i_g * (1.0 - c_g * c_g)
            d_o = dh_new * tanh_c[k] * o_g * (1.0 - o_g)
            dc = dc + dc_new * f_g
            a[:, :hidden], a[:, hidden:h2], a[:, h2:h3], a[:, h3:] = d_i, d_f, d_c, d_o
            dh = dh + a @ wh.data.T
        dz_flat = dz.reshape(nt * nb, 4 * hidden)
        _accum(wh, hs[:-1].reshape(nt * nb, hidden).T @ dz_flat)
        _accum(b, dz_flat.sum(axis=0))
        dz_time = (dz[::-1] if reverse else dz).transpose(1, 0, 2).reshape(nb * nt, 4 * hidden)
        _accum(wx, seq.data.reshape(nb * nt, c).T @ dz_time)
        _accum(seq, (dz_time @ wx.data.T).reshape(nb, nt, c))

    return _out(data, "lstm", bw)


# ---------------------------------------------------------------------------
# backward pass and optimizer


def backward(tape: Tape, loss: Tensor):
    """Accumulate the gradient of ``loss`` into every tensor that feeds it.

    Parameters and non-constant leaves keep their gradients. An op
    output's gradient is dropped (set to None) once its own rule has run:
    every consumer was recorded later, so nothing reads it again. The
    records themselves stay on the tape, but a tape runs backward once:
    rules may overwrite what their op saved (``lstm`` its gates), so a
    second pass raises ``SpentTape`` instead of giving wrong gradients.
    Tensors the loss never touched keep whatever gradient they already had
    (zeros, for freshly created or zeroed Parameters).
    """
    if loss.data.shape != ():
        raise NotScalarLoss(f"loss has shape {loss.data.shape}, expected scalar")
    if tape.spent:
        raise SpentTape("this tape has already run backward; record the forward pass again")
    tape.spent = True
    loss.grad = np.ones(())
    for out_t, bw in reversed(tape.records):
        if out_t.grad is None:
            continue
        bw(out_t.grad)
        out_t.grad = None            # op outputs are plain Tensors, never Parameters


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adam with bias correction (beta1=0.9, beta2=0.999, eps=1e-8)."""

    def __init__(self, learning_rate: float):
        if learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        self.learning_rate = learning_rate
        self.t = 0
        self._moments: dict[str, tuple[np.ndarray, np.ndarray]] = {}   # name -> (m, v)

    def step(self, params: list[Parameter]):
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        for p in params:
            if p.name not in self._moments:
                self._moments[p.name] = (np.zeros_like(p.data), np.zeros_like(p.data))
            m, v = self._moments[p.name]
            m[...] = b1 * m + (1 - b1) * p.grad
            v[...] = b2 * v + (1 - b2) * p.grad * p.grad
            mhat = m / (1 - b1 ** self.t)
            vhat = v / (1 - b2 ** self.t)
            p.data -= self.learning_rate * mhat / (np.sqrt(vhat) + ADAM_EPS)
