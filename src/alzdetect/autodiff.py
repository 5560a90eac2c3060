"""Dense float64 tensor engine with reverse-mode automatic differentiation.

Every primitive computes its forward value with numpy and checks the result
for NaN/Inf. While a Tape is open it also records a backward rule. A
tensor's value and its gradient live apart: the gradient sits in a small
``GradSlot`` (the gradient and the shape), and a rule holds its inputs'
slots plus only the arrays that it reads (``tanh`` its own output, ``matmul``
its operands, ``add`` nothing but shapes). So an op output that no rule
reads is freed as soon as the forward code drops it. Calling ``backward``
replays the records in reverse order, accumulating gradients into the slot
of every leaf tensor that contributed to the loss. Constants (data such as
the inputs) have no slot and take no gradient; neither does an op output
made with no tape open. An op output's gradient is dropped as soon as its
own rule has read it.

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


class NonFiniteValue(FloatingPointError):
    """An operation produced NaN or Inf."""


class GradSlot:
    """Where backward accumulates one tensor's gradient; a rule that only
    routes a gradient to an input needs nothing else of it."""

    __slots__ = ("grad", "shape")

    def __init__(self, shape: tuple[int, ...]):
        self.grad: np.ndarray | None = None
        self.shape = shape


class Tensor:
    """Dense n-dimensional float64 array plus the slot its gradient goes to.

    ``grad`` is allocated the first time a backward rule touches the
    tensor (or, on a Parameter, the first time it is read); it always
    matches ``data`` in shape.
    """

    __slots__ = ("data", "slot", "name")

    def __init__(self, data, name: str | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.slot = GradSlot(self.data.shape)
        self.name = name

    @property
    def grad(self) -> np.ndarray | None:
        return None if self.slot is None else self.slot.grad

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        label = f" {self.name!r}" if self.name else ""
        return f"Tensor{label}(shape={self.data.shape})"


class Parameter(Tensor):
    """A named, trainable tensor. It holds only its data until a gradient is
    first written: backward makes the buffer, as for any other tensor, so a
    Parameter that is only run forward (a loaded model, say) holds no
    gradient memory. Reading ``grad`` before then makes the buffer as
    zeros, so a Parameter that backward never reached reads as zeros, and
    a write through ``grad`` sticks."""

    __slots__ = ()

    @property
    def grad(self) -> np.ndarray:
        if self.slot.grad is None:
            self.slot.grad = np.zeros(self.slot.shape)
        return self.slot.grad

    def zero_grad(self):
        """Zero the buffer in place; with none, the gradient reads as zeros already."""
        if self.slot.grad is not None:
            self.slot.grad[...] = 0.0


class Constant(Tensor):
    """A tensor that is data, not a function of anything trained: it has no
    gradient slot, so backward computes and stores no gradient for it."""

    __slots__ = ()

    def __init__(self, data, name: str | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.slot = None
        self.name = name


class Tape:
    """Ordered record of primitive applications.

    Each record is the output's gradient slot, the backward rule and the
    inputs' slots; the rule holds whatever arrays it reads, and nothing on
    the tape holds an output's value. Recording order is a topological
    order of the computation DAG, so backward simply walks the records in
    reverse.
    """

    def __init__(self):
        self.records: list[tuple[GradSlot, object, tuple]] = []
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


def _out(arr: np.ndarray, op: str, backward, *inputs: Tensor) -> Tensor:
    """The op's output. With a tape open it gets a slot, and the tape records
    ``backward(g, *input_slots)``; with none it is data, like a constant."""
    _check_finite(arr, op)
    if not _TAPE_STACK:
        return Constant(arr)
    t = Tensor(arr)
    _TAPE_STACK[-1].records.append((t.slot, backward, tuple(x.slot for x in inputs)))
    return t


def _accum(slot: GradSlot | None, g: np.ndarray):
    if slot is None:
        return
    if slot.grad is None:
        # one pass, in C order; adding 0.0 turns -0.0 into 0.0 exactly as zeros + g did
        slot.grad = np.add(g, 0.0, out=np.empty(slot.shape))
    else:
        slot.grad += g


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
    return _out(a.data + b.data, "add", _add_bw, a, b)


def _add_bw(g, sa, sb):
    if sa is not None:
        _accum(sa, _unbroadcast(g, sa.shape))
    if sb is not None:
        _accum(sb, _unbroadcast(g, sb.shape))


def sub(a: Tensor, b: Tensor) -> Tensor:
    return _out(a.data - b.data, "sub", _sub_bw, a, b)


def _sub_bw(g, sa, sb):
    if sa is not None:
        _accum(sa, _unbroadcast(g, sa.shape))
    if sb is not None:
        _accum(sb, _unbroadcast(-g, sb.shape))


def mul(a: Tensor, b: Tensor) -> Tensor:
    x, y = a.data, b.data

    def bw(g, sa, sb):
        if sa is not None:
            _accum(sa, _unbroadcast(g * y, sa.shape))
        if sb is not None:
            _accum(sb, _unbroadcast(g * x, sb.shape))

    return _out(x * y, "mul", bw, a, b)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError("matmul expects rank-2 operands")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul: {a.shape} @ {b.shape}")
    x, y = a.data, b.data
    with np.errstate(over="ignore", invalid="ignore"):
        data = x @ y

    def bw(g, sa, sb):
        if sa is not None:
            _accum(sa, g @ y.T)
        if sb is not None:
            _accum(sb, x.T @ g)

    return _out(data, "matmul", bw, a, b)


def tanh(x: Tensor) -> Tensor:
    data = np.tanh(x.data)

    def bw(g, sx):
        _accum(sx, g * (1.0 - data * data))

    return _out(data, "tanh", bw, x)


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

    def bw(g, sx):
        _accum(sx, g * data * (1.0 - data))

    return _out(data, "sigmoid", bw, x)


def relu(x: Tensor) -> Tensor:
    data = np.maximum(x.data, 0.0)

    def bw(g, sx):
        _accum(sx, g * (data > 0))             # the mask of x > 0, read off the output

    return _out(data, "relu", bw, x)


def log(x: Tensor) -> Tensor:
    xd = x.data
    with np.errstate(divide="ignore", invalid="ignore"):
        data = np.log(xd)

    def bw(g, sx):
        _accum(sx, g / xd)

    return _out(data, "log", bw, x)


def clip(x: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp values to [lo, hi]; the gradient is zero where the clamp binds."""
    data = np.clip(x.data, lo, hi)
    inside = (x.data >= lo) & (x.data <= hi)

    def bw(g, sx):
        _accum(sx, g * inside)

    return _out(data, "clip", bw, x)


# ---------------------------------------------------------------------------
# shape plumbing


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    return _out(x.data.reshape(shape), "reshape", _reshape_bw, x)


def _reshape_bw(g, sx):
    if sx is not None:
        _accum(sx, g.reshape(sx.shape))


def concat(tensors: list[Tensor], axis: int) -> Tensor:
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bw(g, *slots):
        for s, lo, hi in zip(slots, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            _accum(s, g[tuple(idx)])

    return _out(data, "concat", bw, *tensors)


def slice_axis(x: Tensor, axis: int, start: int, stop: int) -> Tensor:
    """Contiguous slice along one axis, rank preserved."""
    if not (0 <= start < stop <= x.shape[axis]):
        raise ValueError(f"slice [{start}:{stop}] out of range on axis {axis} of {x.shape}")
    idx = [slice(None)] * x.data.ndim
    idx[axis] = slice(start, stop)
    idx = tuple(idx)

    def bw(g, sx):
        if sx is None:
            return
        if sx.grad is None:
            sx.grad = np.zeros(sx.shape)
        sx.grad[idx] += g

    return _out(x.data[idx], "slice", bw, x)


# ---------------------------------------------------------------------------
# reductions and softmax


def sum_(x: Tensor, axis: int | None = None) -> Tensor:
    def bw(g, sx):
        if sx is None:
            return
        if axis is None:
            _accum(sx, np.broadcast_to(g, sx.shape))
        else:
            _accum(sx, np.broadcast_to(np.expand_dims(g, axis), sx.shape))

    return _out(x.data.sum(axis=axis), "sum", bw, x)


def mean(x: Tensor, axis: int | None = None) -> Tensor:
    n = x.data.size if axis is None else x.shape[axis]

    def bw(g, sx):
        if sx is None:
            return
        if axis is None:
            _accum(sx, np.broadcast_to(g / n, sx.shape))
        else:
            _accum(sx, np.broadcast_to(np.expand_dims(g / n, axis), sx.shape))

    return _out(x.data.mean(axis=axis), "mean", bw, x)


def softmax(x: Tensor, axis: int, mask: np.ndarray) -> Tensor:
    """Softmax along one axis, restricted by a 0/1 mask of ``x``'s shape.

    Masked positions get weight exactly 0 and pass no gradient. If every
    position along the axis is masked the whole row is 0 (a degenerate
    all-pad row rather than an error). A mask of ones gives the plain
    softmax.
    """
    mask = np.asarray(mask, dtype=np.float64)
    if mask.shape != x.shape:
        raise ValueError(f"softmax mask {mask.shape} vs input {x.shape}")
    neg = np.where(mask > 0, x.data, -np.inf)
    shift = np.max(neg, axis=axis, keepdims=True)
    shift = np.where(np.isfinite(shift), shift, 0.0)
    e = np.exp(x.data - shift) * mask
    denom = e.sum(axis=axis, keepdims=True)
    data = np.divide(e, denom, out=np.zeros_like(e), where=denom > 0)

    def bw(g, sx):
        dot = (g * data).sum(axis=axis, keepdims=True)
        _accum(sx, data * (g - dot))

    return _out(data, "softmax", bw, x)


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
        raise ValueError("conv1d kernels must be [F, w, C]")
    nf, w, c = kernels.shape
    if w % 2 == 0:
        raise ValueError("conv1d kernel width must be odd")
    if x.data.ndim != 3 or x.shape[-1] != c:
        raise ValueError(f"conv1d input {x.shape} vs kernels {kernels.shape}")

    b, t, _ = x.shape
    half = w // 2
    xd = x.data
    kmat = kernels.data.reshape(nf, w * c).T  # [w*C, F]
    out = (_im2col(xd, w) @ kmat).reshape(b, t, nf)

    def bw(g, sx, sk):
        gflat = g.reshape(b * t, nf)
        _accum(sk, (gflat.T @ _im2col(xd, w)).reshape(nf, w, c))
        if sx is None:
            return
        dcols = (gflat @ kmat.T).reshape(b, t, w * c)
        dpad = np.zeros((b, t + 2 * half, c))
        for j in range(w):
            dpad[:, j:j + t, :] += dcols[:, :, j * c:(j + 1) * c]
        _accum(sx, dpad[:, half:half + t, :])

    return _out(out, "conv1d", bw, x, kernels)


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
        raise ValueError("lstm expects seq [B, T, C], wx [C, 4H], wh [H, 4H]")
    nb, nt, c = seq.shape
    hidden = wh.shape[0]
    if (wx.shape != (c, 4 * hidden) or wh.shape != (hidden, 4 * hidden)
            or b.shape != (4 * hidden,) or np.shape(mask) != (nb, nt)):
        raise ValueError(f"lstm: seq {seq.shape}, wx {wx.shape}, wh {wh.shape}, "
                         f"b {b.shape}, mask {np.shape(mask)}")
    h2, h3 = 2 * hidden, 3 * hidden
    xs, wxd, whd = seq.data, wx.data, wh.data
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
        xw = (xs.reshape(nb * nt, c) @ wxd).reshape(nb, nt, 4 * hidden)
        for k, ti in enumerate(steps):
            h, cell = hs[k + 1], cs[k + 1]
            if empty[k]:                         # nothing to compute: the state carries over
                h[...] = hs[k]
                cell[...] = cs[k]
                continue
            np.matmul(hs[k], whd, out=z)
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

    def bw(g, s_seq, s_wx, s_wh, s_b):
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
            dh = dh + a @ whd.T
        dz_flat = dz.reshape(nt * nb, 4 * hidden)
        _accum(s_wh, hs[:-1].reshape(nt * nb, hidden).T @ dz_flat)
        _accum(s_b, dz_flat.sum(axis=0))
        dz_time = (dz[::-1] if reverse else dz).transpose(1, 0, 2).reshape(nb * nt, 4 * hidden)
        _accum(s_wx, xs.reshape(nb * nt, c).T @ dz_time)
        _accum(s_seq, (dz_time @ wxd.T).reshape(nb, nt, c))

    return _out(data, "lstm", bw, seq, wx, wh, b)


# ---------------------------------------------------------------------------
# backward pass and optimizer


def backward(tape: Tape, loss: Tensor):
    """Accumulate the gradient of ``loss`` into every tensor that feeds it.

    Each record's rule gets its output slot's gradient and its inputs'
    slots, and reads only the arrays it kept from the forward pass.
    Parameters and non-constant leaves keep their gradients. An op
    output's gradient is dropped (set to None) once its own rule has run:
    every consumer was recorded later, so nothing reads it again. The
    records themselves stay on the tape, but a tape runs backward once:
    rules may overwrite what their op saved (``lstm`` its gates), so a
    second pass raises ``RuntimeError`` instead of giving wrong gradients.
    Tensors the loss never touched keep whatever gradient they already had;
    a Parameter that has none yet gets no buffer, and reads as zeros.
    A Parameter's first gradient is written to a new buffer, with the bits
    that adding it to zeros gives.
    """
    if loss.data.shape != ():
        raise ValueError(f"loss has shape {loss.data.shape}, expected scalar")
    if tape.spent:
        raise RuntimeError("this tape has already run backward; record the forward pass again")
    tape.spent = True
    loss.slot.grad = np.ones(())
    for slot, bw, inputs in reversed(tape.records):
        if slot.grad is None:
            continue
        bw(slot.grad, *inputs)
        slot.grad = None             # an op output's slot, never a Parameter's


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
