"""Engine tests: forward values against hand-worked examples, backward
values against the finite-difference oracle."""

import re
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alzdetect import autodiff as ad
from alzdetect.autodiff import (
    Adam,
    NonFiniteValue,
    Parameter,
    Tape,
    Tensor,
    backward,
    constant,
)
from helpers import gradcheck, lstm_direction


def _param(rng, *shape, name):
    return Parameter(rng.standard_normal(shape), name)


# ---------------------------------------------------------------------------
# forward values

def test_conv1d_identity_kernel():
    x = constant(np.array([[[1.0], [2.0], [3.0], [4.0]]]))
    k = constant(np.array([[[1.0]]]))  # one filter, width 1
    out = ad.conv1d(x, k)
    np.testing.assert_array_equal(out.data, [[[1.0], [2.0], [3.0], [4.0]]])


def test_conv1d_box_kernel_same_padding():
    x = constant(np.array([[[1.0], [2.0], [3.0], [4.0]]]))
    k = constant(np.ones((1, 3, 1)))
    out = ad.conv1d(x, k)
    np.testing.assert_allclose(out.data[0, :, 0], [3.0, 6.0, 9.0, 7.0])


def test_conv1d_preserves_time_length_any_odd_width():
    rng = np.random.default_rng(0)
    for w in (1, 3, 5, 7):
        x = constant(rng.standard_normal((1, 9, 2)))
        k = constant(rng.standard_normal((4, w, 2)))
        assert ad.conv1d(x, k).shape == (1, 9, 4)


@pytest.mark.parametrize("t", [1, 2, 5])
@pytest.mark.parametrize("w", [1, 3, 5, 7, 9])
def test_conv1d_matches_zero_padded_im2col_bitwise(t, w):
    """Also where the kernel is wider than the sequence."""
    rng = np.random.default_rng(t * 10 + w)
    x = rng.standard_normal((3, t, 2))
    k = rng.standard_normal((4, w, 2))
    half = w // 2
    pad = np.pad(x, ((0, 0), (half, half), (0, 0)))
    cols = np.concatenate([pad[:, j:j + t] for j in range(w)], axis=2).reshape(3 * t, w * 2)
    expected = (cols @ k.reshape(4, w * 2).T).reshape(3, t, 4)
    np.testing.assert_array_equal(ad.conv1d(constant(x), constant(k)).data, expected)


def test_conv1d_rejects_even_width():
    with pytest.raises(ValueError, match="conv1d kernel width must be odd"):
        ad.conv1d(constant(np.zeros((1, 4, 1))), constant(np.zeros((1, 2, 1))))


def test_conv1d_rejects_unbatched_input():
    with pytest.raises(ValueError, match=re.escape("conv1d input (4, 1) vs kernels (1, 3, 1)")):
        ad.conv1d(constant(np.zeros((4, 1))), constant(np.zeros((1, 3, 1))))


def test_softmax_equal_logits_uniform():
    out = ad.softmax(constant(np.array([2.5, 2.5, 2.5])), axis=-1, mask=np.ones(3))
    np.testing.assert_allclose(out.data, [1 / 3] * 3)


def test_masked_softmax_zeros_and_sum():
    x = constant(np.array([[1.0, 2.0, 3.0, 4.0]]))
    mask = np.array([[1.0, 0.0, 1.0, 0.0]])
    out = ad.softmax(x, axis=1, mask=mask)
    assert out.data[0, 1] == 0.0 and out.data[0, 3] == 0.0
    np.testing.assert_allclose(out.data.sum(), 1.0)


def test_masked_softmax_all_masked_row_is_zero():
    x = constant(np.array([[1.0, 2.0], [3.0, 4.0]]))
    mask = np.array([[0.0, 0.0], [1.0, 1.0]])
    out = ad.softmax(x, axis=1, mask=mask)
    np.testing.assert_array_equal(out.data[0], [0.0, 0.0])
    np.testing.assert_allclose(out.data[1].sum(), 1.0)


def test_sigmoid_gradient_at_zero():
    x = Parameter(np.zeros(()), "x")
    with Tape() as tape:
        backward(tape, ad.sigmoid(x))
    np.testing.assert_allclose(x.grad, 0.25)


def test_sigmoid_matches_two_branch_form_bitwise():
    # the clipped two-exp form the engine used before sharing one exp(-|x|)
    def two_branch(x):
        return np.where(x >= 0,
                        1.0 / (1.0 + np.exp(-np.clip(x, 0, None))),
                        np.exp(np.clip(x, None, 0)) / (1.0 + np.exp(np.clip(x, None, 0))))

    rng = np.random.default_rng(18)
    x = np.concatenate([rng.standard_normal(20000) * scale
                        for scale in (1e-300, 1e-8, 1.0, 8.0, 50.0, 800.0)]
                       + [[0.0, -0.0, 5e-324, -5e-324, 709.8, -709.8, 745.2, -745.2,
                           1e308, -1e308, np.inf, -np.inf]])
    np.testing.assert_array_equal(ad.sigmoid(constant(x)).data, two_branch(x))


def test_sum_gradient_is_ones():
    p = Parameter(np.arange(6.0).reshape(2, 3), "p")
    with Tape() as tape:
        backward(tape, ad.sum_(p))
    np.testing.assert_array_equal(p.grad, np.ones((2, 3)))


def test_unreached_parameter_keeps_zero_gradient():
    used = Parameter(np.ones(3), "used")
    unused = Parameter(np.ones(3), "unused")
    with Tape() as tape:
        backward(tape, ad.sum_(ad.mul(used, used)))
    np.testing.assert_array_equal(unused.grad, np.zeros(3))
    np.testing.assert_array_equal(used.grad, 2 * np.ones(3))


def test_backward_keeps_gradients_only_on_parameters():
    data = np.random.default_rng(19).standard_normal((2, 5, 3))

    def step(x):
        rng = np.random.default_rng(20)
        k = _param(rng, 4, 3, 3, name="k")
        w = _param(rng, 4, 1, name="w")
        scale = constant(2.0)
        with Tape() as tape:
            conv = ad.conv1d(x, k)                                   # [2, 5, 4]
            flat = ad.reshape(ad.relu(conv), (10, 4))
            prod = ad.matmul(flat, w)
            scaled = ad.mul(prod, scale)
            loss = ad.mean(scaled)
            recorded = len(tape)
            backward(tape, loss)
        assert len(tape) == recorded == 6
        assert scale.grad is None
        assert all(t.grad is None for t in (conv, flat, prod, scaled, loss))
        assert np.any(k.grad != 0.0) and np.any(w.grad != 0.0)
        return k.grad.tobytes() + w.grad.tobytes()

    x = constant(data)
    grads = step(x)
    assert x.grad is None
    # the conv input taking no gradient changes no bit of the parameter gradients
    x_param = Parameter(data, "x")
    assert step(x_param) == grads
    assert np.any(x_param.grad != 0.0)


def test_backward_refuses_a_spent_tape():
    rng = np.random.default_rng(23)
    seq = constant(rng.standard_normal((3, 7, 4)))
    wx, wh, b = _lstm_params(rng)
    with Tape() as tape:
        loss = ad.sum_(ad.lstm(seq, wx, wh, b, LSTM_PAD_MASK))
        backward(tape, loss)
        grads = [p.grad.copy() for p in (wx, wh, b)]
        recorded = len(tape)
        with pytest.raises(RuntimeError, match="this tape has already run backward"):
            backward(tape, loss)
    assert len(tape) == recorded == 2
    for p, g in zip((wx, wh, b), grads):
        np.testing.assert_array_equal(p.grad, g)


def test_clip_zero_gradient_outside_bounds():
    p = Parameter(np.array([-2.0, 0.5, 3.0]), "p")
    with Tape() as tape:
        backward(tape, ad.sum_(ad.clip(p, 0.0, 1.0)))
    np.testing.assert_array_equal(p.grad, [0.0, 1.0, 0.0])


def test_non_finite_forward_raises():
    with pytest.raises(NonFiniteValue):
        ad.log(constant(np.array([0.0])))


def test_backward_requires_scalar_loss():
    p = Parameter(np.ones(3), "p")
    with pytest.raises(ValueError, match=re.escape("loss has shape (3,), expected scalar")):
        with Tape() as tape:
            backward(tape, ad.mul(p, p))


def test_matmul_shape_mismatch():
    with pytest.raises(ValueError, match=re.escape("matmul: (2, 3) @ (2, 3)")):
        ad.matmul(constant(np.zeros((2, 3))), constant(np.zeros((2, 3))))


def test_forward_determinism_bitwise():
    def run():
        rng = np.random.default_rng(11)
        x = constant(rng.standard_normal((1, 5, 4)))
        k = constant(rng.standard_normal((3, 3, 4)))
        return ad.tanh(ad.conv1d(x, k)).data
    np.testing.assert_array_equal(run(), run())


# ---------------------------------------------------------------------------
# optimizer

def test_adam_first_step_magnitude_is_lr():
    for g in (0.001, 1.0, 250.0):
        p = Parameter(np.zeros(()), "p")
        p.grad[...] = g
        Adam(0.01).step([p])
        np.testing.assert_allclose(-p.data, 0.01, rtol=1e-3)


def test_adam_bias_correction_second_step():
    # two equal gradients: m-hat = g, v-hat = g^2 at every step, so each
    # update is exactly lr (up to eps) regardless of |g|
    p = Parameter(np.zeros(()), "p")
    opt = Adam(0.01)
    for _ in range(2):
        p.grad[...] = 3.0
        opt.step([p])
        p.zero_grad()
    np.testing.assert_allclose(-p.data, 0.02, rtol=1e-3)


def test_adam_allocates_its_moments_once_per_parameter():
    params = [Parameter(np.zeros((2, 3)), "w"), Parameter(np.zeros(3), "b")]
    for p in params:
        p.grad[...] = 1.0            # the gradient buffers are made before the count
    opt = Adam(0.01)
    with mock.patch.object(np, "zeros_like", wraps=np.zeros_like) as zeros_like:
        for _ in range(3):
            opt.step(params)
    assert zeros_like.call_count == 2 * len(params)     # m and v, on the first step


def test_parameter_holds_only_its_data_until_a_gradient_is_written():
    data = np.random.default_rng(41).standard_normal((256, 512))
    kept, peak = _traced_bytes(lambda: Parameter(data, "w"))
    assert kept < data.nbytes // 100 and peak < data.nbytes // 100, (kept, peak)
    p = Parameter(data, "w")
    assert p.slot.grad is None
    p.zero_grad()
    assert p.slot.grad is None
    assert np.array_equal(p.grad, np.zeros(data.shape))   # reading it makes the zeros
    p.grad[0, 0] = 2.0
    assert p.grad[0, 0] == 2.0 and p.grad is p.slot.grad
    p.zero_grad()
    assert p.slot.grad is not None and not p.grad.any()


def test_first_gradient_of_a_parameter_turns_negative_zero_to_zero():
    """The first write makes the buffer with the bits of zeros + g."""
    p = Parameter(np.array([1.0, 2.0]), "p")
    with Tape() as tape:
        backward(tape, ad.sum_(ad.mul(p, constant(np.array([-0.0, -3.0])))))
    assert p.grad.tolist() == [0.0, -3.0] and not np.signbit(p.grad[0])


# ---------------------------------------------------------------------------
# gradient checks against finite differences

def test_gradcheck_matmul_add_tanh():
    rng = np.random.default_rng(1)
    a = _param(rng, 3, 4, name="a")
    b = _param(rng, 4, 2, name="b")
    c = _param(rng, 2, name="c")
    gradcheck(lambda: ad.mean(ad.tanh(ad.add(ad.matmul(a, b), c))), [a, b, c])


def test_gradcheck_mul_broadcast():
    rng = np.random.default_rng(2)
    a = _param(rng, 4, 3, name="a")
    b = _param(rng, 3, name="b")
    gradcheck(lambda: ad.sum_(ad.mul(a, b)), [a, b])


def test_gradcheck_sub_log():
    rng = np.random.default_rng(3)
    a = Parameter(rng.uniform(1.5, 2.0, (3, 3)), "a")
    b = Parameter(rng.uniform(-1.0, 1.0, (3, 3)), "b")   # a - b > 0.5
    gradcheck(lambda: ad.mean(ad.log(ad.sub(a, b))), [a, b])


def test_gradcheck_sigmoid_relu_chain():
    rng = np.random.default_rng(4)
    a = _param(rng, 5, name="a")
    gradcheck(lambda: ad.sum_(ad.relu(ad.sigmoid(a))), [a])


def test_gradcheck_softmax_masked():
    rng = np.random.default_rng(5)
    a = _param(rng, 2, 6, name="a")
    mask = np.array([[1, 1, 1, 0, 0, 0], [1, 1, 1, 1, 1, 0]], dtype=float)
    w = _param(rng, 2, 6, name="w")
    gradcheck(lambda: ad.sum_(ad.mul(ad.softmax(a, axis=1, mask=mask), w)), [a, w])


def test_gradcheck_concat_slice_reshape():
    rng = np.random.default_rng(6)
    a = _param(rng, 2, 3, name="a")
    b = _param(rng, 2, 2, name="b")

    def loss():
        cat = ad.concat([a, b], axis=1)          # [2, 5]
        piece = ad.slice_axis(cat, 1, 1, 4)      # [2, 3]
        return ad.mean(ad.tanh(ad.reshape(piece, (6,))))

    gradcheck(loss, [a, b])


def test_gradcheck_conv1d():
    rng = np.random.default_rng(7)
    k = _param(rng, 2, 3, 2, name="k")
    x1 = _param(rng, 1, 6, 2, name="x1")
    gradcheck(lambda: ad.mean(ad.conv1d(x1, k)), [x1, k])
    x2 = _param(rng, 2, 6, 2, name="x2")
    gradcheck(lambda: ad.mean(ad.tanh(ad.conv1d(x2, k))), [x2, k])


def test_gradcheck_mean_sum_axes():
    rng = np.random.default_rng(9)
    x = _param(rng, 3, 4, name="x")
    gradcheck(lambda: ad.sum_(ad.mean(x, axis=0)), [x])
    gradcheck(lambda: ad.mean(ad.sum_(x, axis=1)), [x])


def test_gradcheck_clip_interior():
    rng = np.random.default_rng(10)
    x = Parameter(rng.uniform(0.2, 0.8, (4,)), "x")
    gradcheck(lambda: ad.sum_(ad.clip(x, 0.0, 1.0)), [x])


def test_gradcheck_composed_graph():
    rng = np.random.default_rng(12)
    k = _param(rng, 3, 3, 2, name="k")
    w = _param(rng, 3, 4, name="w")
    u = _param(rng, 4, 1, name="u")
    x = constant(rng.standard_normal((2, 5, 2)))
    mask = np.array([[1, 1, 1, 0, 0], [1, 1, 1, 1, 1]], dtype=float)

    def loss():
        h = ad.relu(ad.conv1d(x, k))                      # [2, 5, 3]
        flat = ad.reshape(h, (10, 3))
        s = ad.reshape(ad.matmul(ad.tanh(ad.matmul(flat, w)), u), (2, 5))
        alpha = ad.softmax(s, axis=1, mask=mask)
        ctx = ad.sum_(ad.mul(ad.reshape(alpha, (2, 5, 1)), h), axis=1)
        return ad.mean(ad.sigmoid(ctx))

    gradcheck(loss, [k, w, u])


# ---------------------------------------------------------------------------
# fused LSTM primitive

# row 0 has pads mid-sequence and at the end; row 2 is all pads
LSTM_PAD_MASK = np.array([[1, 1, 0, 0, 1, 1, 0],
                          [1, 1, 1, 1, 1, 1, 1],
                          [0, 0, 0, 0, 0, 0, 0]], dtype=float)
# no fully padded row, so the pad-free steps skip the keep/hold blend
LSTM_MIXED_MASK = np.array([[1, 1, 0, 0, 1, 1, 1],
                            [1, 1, 1, 1, 1, 1, 1],
                            [1, 1, 1, 1, 1, 1, 0]], dtype=float)
# timesteps 0, 3 and 6 are pads in every row, so both passes skip them
LSTM_GAP_MASK = np.array([[0, 1, 1, 0, 1, 0, 0],
                          [0, 1, 0, 0, 1, 1, 0],
                          [0, 1, 1, 0, 1, 1, 0]], dtype=float)
# one transcript padded at the end, as a scoring request sees it
LSTM_SUFFIX_MASK = np.array([[1, 1, 1, 1, 0, 0, 0]], dtype=float)


def _lstm_params(rng, c=4, hidden=3):
    return (_param(rng, c, 4 * hidden, name="wx"), _param(rng, hidden, 4 * hidden, name="wh"),
            _param(rng, 4 * hidden, name="b"))


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("mask", [LSTM_PAD_MASK, LSTM_MIXED_MASK, LSTM_GAP_MASK, LSTM_SUFFIX_MASK],
                         ids=["pads", "mixed", "gaps", "suffix-b1"])
def test_lstm_forward_matches_per_timestep_composition_bitwise(reverse, mask):
    rng = np.random.default_rng(13)
    seq = constant(rng.standard_normal((*mask.shape, 4)))
    wx, wh, b = _lstm_params(rng)
    out = ad.lstm(seq, wx, wh, b, mask, reverse=reverse)
    oracle = lstm_direction(seq, wx, wh, b, mask, reverse=reverse)
    assert out.shape == (*mask.shape, 3)
    for t, h in enumerate(oracle):
        np.testing.assert_array_equal(out.data[:, t], h.data)


def _default_width_mask(lengths, seq_len=73):
    return (np.arange(seq_len)[None, :] < np.array(lengths)[:, None]).astype(float)


# one transcript padded at the end, as a scoring request sees it
LSTM_WIDE_SUFFIX_MASK = _default_width_mask([51])
# mixed lengths, a row with mid-sequence gaps, and step 40 a pad in every row
LSTM_WIDE_MIXED_MASK = _default_width_mask([73, 60, 45, 73, 12, 68, 73, 30])
LSTM_WIDE_MIXED_MASK[:, 40] = 0.0
LSTM_WIDE_MIXED_MASK[3, 10:14] = 0.0


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("mask", [LSTM_WIDE_SUFFIX_MASK, LSTM_WIDE_MIXED_MASK],
                         ids=["suffix-b1", "mixed-b8"])
def test_lstm_forward_matches_per_timestep_composition_bitwise_at_default_widths(reverse, mask):
    """C=200, H=128, T=73: every step's recurrent product is 512 wide."""
    c, hidden = 200, 128
    rng = np.random.default_rng(18)
    seq = constant(rng.standard_normal((*mask.shape, c)))
    lim_x, lim_h = np.sqrt(6.0 / (c + 4 * hidden)), np.sqrt(6.0 / (5 * hidden))
    wx = Parameter(rng.uniform(-lim_x, lim_x, (c, 4 * hidden)), "wx")
    wh = Parameter(rng.uniform(-lim_h, lim_h, (hidden, 4 * hidden)), "wh")
    b = Parameter(rng.uniform(-0.5, 0.5, 4 * hidden), "b")
    out = ad.lstm(seq, wx, wh, b, mask, reverse=reverse)
    oracle = lstm_direction(seq, wx, wh, b, mask, reverse=reverse)
    assert out.shape == (*mask.shape, hidden)
    for t, h in enumerate(oracle):
        np.testing.assert_array_equal(out.data[:, t], h.data)


def test_lstm_pads_keep_state_and_all_pad_row_stays_zero():
    rng = np.random.default_rng(14)
    seq = constant(rng.standard_normal((3, 7, 4)))
    fwd = ad.lstm(seq, *_lstm_params(rng), LSTM_PAD_MASK).data
    np.testing.assert_array_equal(fwd[0, 2], fwd[0, 1])
    np.testing.assert_array_equal(fwd[0, 6], fwd[0, 5])
    np.testing.assert_array_equal(fwd[2], 0.0)


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("mask", [LSTM_PAD_MASK, LSTM_MIXED_MASK, LSTM_GAP_MASK],
                         ids=["pads", "mixed", "gaps"])
def test_gradcheck_lstm(reverse, mask):
    rng = np.random.default_rng(15)
    seq = _param(rng, 3, 7, 4, name="seq")
    wx, wh, b = _lstm_params(rng)
    weights = constant(rng.standard_normal((3, 7, 3)))
    gradcheck(lambda: ad.sum_(ad.mul(ad.lstm(seq, wx, wh, b, mask, reverse=reverse), weights)),
              [seq, wx, wh, b])


def test_lstm_rejects_mismatched_shapes():
    rng = np.random.default_rng(16)
    seq = constant(rng.standard_normal((3, 7, 4)))
    wx, wh, b = _lstm_params(rng)
    with pytest.raises(ValueError, match=re.escape("mask (3, 5)")):
        ad.lstm(seq, wx, wh, b, LSTM_PAD_MASK[:, :5])
    with pytest.raises(ValueError, match=re.escape("lstm: seq (3, 7, 4), wx (3, 12), wh (3, 12)")):
        ad.lstm(seq, wh, wh, b, LSTM_PAD_MASK)


LSTM_NON_FINITE = f"^{re.escape('lstm produced a non-finite value')}$"


def test_lstm_non_finite_preactivation_raises():
    rng = np.random.default_rng(17)
    seq = constant(rng.standard_normal((3, 7, 4)))
    wx, wh, b = _lstm_params(rng)
    wh.data[...] = 1e308     # h is 0 at the first step, so the overflow comes later
    with pytest.raises(NonFiniteValue, match=LSTM_NON_FINITE):
        ad.lstm(seq, wx, wh, b, LSTM_PAD_MASK)


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("nb", [1, 3])
@pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
def test_lstm_non_finite_preactivation_at_one_middle_step_raises(bad, nb, reverse):
    """An infinite pre-activation saturates every gate (sigmoid to 0 or 1,
    tanh to ±1), so the state stays finite and only the test of the
    pre-activations catches it; a NaN one is caught there too."""
    rng = np.random.default_rng(19)
    seq = rng.standard_normal((nb, 7, 4))
    seq[nb - 1, 3] = 0.0
    seq[nb - 1, 3, 1] = bad     # times a wx row with no zero: every gate of the step is ±inf or NaN
    wx, wh, b = _lstm_params(rng)
    with pytest.raises(NonFiniteValue, match=LSTM_NON_FINITE):
        ad.lstm(constant(seq), wx, wh, b, np.ones((nb, 7)), reverse=reverse)


# ---------------------------------------------------------------------------
# memory: what a taped op keeps for backward, and what its backward allocates

F64 = 8


def _traced_bytes(run):
    """Bytes that ``run()`` leaves allocated, and its peak above the start."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        kept = run()
        now, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del kept
    return now - start, peak - start


def test_taped_conv1d_keeps_no_im2col_matrix():
    b, t, c, w, nf = 4, 50, 40, 5, 2
    rng = np.random.default_rng(24)
    x = constant(rng.standard_normal((b, t, c)))
    k = _param(rng, nf, w, c, name="k")

    def run():
        with Tape() as tape:
            out = ad.conv1d(x, k)
        return tape, out

    kept, _ = _traced_bytes(run)
    im2col = b * t * w * c * F64
    assert kept < b * t * nf * F64 + im2col // 4, (kept, im2col)


@pytest.mark.parametrize("reverse", [False, True])
def test_taped_lstm_output_is_a_view_of_its_saved_states(reverse):
    nb, nt, c, hidden = 4, 30, 3, 32
    rng = np.random.default_rng(25)
    seq = constant(rng.standard_normal((nb, nt, c)))
    params = _lstm_params(rng, c=c, hidden=hidden)
    mask = np.ones((nb, nt))
    mask[1, 10:14] = 0.0

    def run():
        with Tape() as tape:
            out = ad.lstm(seq, *params, mask, reverse=reverse)
        return tape, out

    kept, _ = _traced_bytes(run)
    # h and c for T + 1 states, four gates and tanh(c) for T steps
    saved = (2 * (nt + 1) + 4 * nt + nt) * nb * hidden * F64
    output = nb * nt * hidden * F64
    assert kept < saved + output // 2, (kept, saved, output)


@pytest.mark.parametrize("reverse", [False, True])
def test_lstm_backward_allocates_no_gate_gradient_array(reverse):
    nb, nt, c, hidden = 8, 40, 2, 16
    rng = np.random.default_rng(26)
    seq = constant(rng.standard_normal((nb, nt, c)))
    params = _lstm_params(rng, c=c, hidden=hidden)
    mask = np.ones((nb, nt))
    mask[2, 5:9] = 0.0
    with Tape() as tape:
        loss = ad.sum_(ad.lstm(seq, *params, mask, reverse=reverse))
        _, peak = _traced_bytes(lambda: backward(tape, loss))
    gates = nt * nb * 4 * hidden * F64
    # one batch-major copy of the gate gradients feeds the wx and input
    # GEMMs; half of one more covers the output gradient and the weights'
    assert peak < gates + gates // 2, (peak, gates)


def _lstm_op(seq, wx, wh, b):
    return ad.lstm(seq, wx, wh, b, LSTM_PAD_MASK[:2, :5])


# each op, its input shapes, and the arrays its rule keeps: input positions, "out" its output
@pytest.mark.parametrize("op, shapes, kept", [
    (ad.add, [(3, 4), (4,)], set()),
    (ad.sub, [(3, 4), (3, 4)], set()),
    (ad.mul, [(3, 4), (3, 1)], {0, 1}),
    (ad.matmul, [(3, 4), (4, 2)], {0, 1}),
    (ad.tanh, [(3, 4)], {"out"}),
    (ad.sigmoid, [(3, 4)], {"out"}),
    (ad.relu, [(3, 4)], {"out"}),
    (ad.log, [(3, 4)], {0}),
    (lambda x: ad.clip(x, 1.2, 1.8), [(3, 4)], set()),
    (lambda x: ad.reshape(x, (12,)), [(3, 4)], set()),
    (lambda a, b: ad.concat([a, b], axis=1), [(3, 4), (3, 2)], set()),
    (lambda x: ad.slice_axis(x, 1, 1, 3), [(3, 4)], set()),
    (lambda x: ad.sum_(x, axis=0), [(3, 4)], set()),
    (ad.mean, [(3, 4)], set()),
    (lambda x: ad.softmax(x, axis=1, mask=np.ones((3, 4))), [(3, 4)], {"out"}),
    (ad.conv1d, [(2, 5, 3), (4, 3, 3)], {0, 1}),
    (_lstm_op, [(2, 5, 4), (4, 12), (3, 12), (12,)], {0, 1, 2}),    # out: a view of its saves
], ids=["add", "sub", "mul", "matmul", "tanh", "sigmoid", "relu", "log", "clip", "reshape",
        "concat", "slice", "sum", "mean", "softmax", "conv1d", "lstm"])
def test_taped_op_keeps_only_the_arrays_its_rule_reads(op, shapes, kept):
    rng = np.random.default_rng(27)
    with Tape() as tape:
        # op outputs in [1, 2) that only this test holds: ``add`` keeps nothing of its output
        inputs = [ad.add(Parameter(rng.uniform(0.0, 1.0, shape), f"p{i}"), constant(1.0))
                  for i, shape in enumerate(shapes)]
        out = op(*inputs)
        refs = {i: weakref.ref(t.data) for i, t in enumerate(inputs)}
        refs["out"] = weakref.ref(out.data)
        del inputs, out
        alive = {name for name, ref in refs.items() if ref() is not None}
    assert alive == kept
    assert len(tape) == len(shapes) + 1


def test_op_output_made_with_no_tape_open_takes_no_gradient():
    rng = np.random.default_rng(28)
    p = _param(rng, 3, name="p")
    leaf = Tensor(rng.standard_normal(3))
    early = ad.tanh(p)                 # as in predict: no tape, so data like a constant
    assert early.slot is None and early.grad is None
    with Tape() as tape:
        backward(tape, ad.sum_(ad.mul(early, leaf)))
    assert len(tape) == 2 and early.grad is None
    np.testing.assert_array_equal(leaf.grad, early.data)
    np.testing.assert_array_equal(p.grad, 0.0)


# ---------------------------------------------------------------------------
# properties

@given(st.lists(st.floats(min_value=-30, max_value=30), min_size=2, max_size=8))
@settings(max_examples=50, deadline=None)
def test_softmax_rows_sum_to_one(logits):
    out = ad.softmax(constant(np.array(logits)), axis=-1, mask=np.ones(len(logits)))
    assert abs(out.data.sum() - 1.0) < 1e-9
    assert (out.data >= 0).all()


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_gradient_accumulates_across_reuse(seed):
    rng = np.random.default_rng(seed)
    p = Parameter(rng.standard_normal(3), "p")
    with Tape() as tape:
        # p used twice: d/dp sum(p + p) = 2
        backward(tape, ad.sum_(ad.add(p, p)))
    np.testing.assert_allclose(p.grad, 2.0)


@given(st.integers(1, 5), st.integers(1, 5))
@settings(max_examples=25, deadline=None)
def test_unbroadcast_add_shapes(rows, cols):
    rng = np.random.default_rng(rows * 7 + cols)
    a = Parameter(rng.standard_normal((rows, cols)), "a")
    b = Parameter(rng.standard_normal(cols), "b")
    with Tape() as tape:
        backward(tape, ad.sum_(ad.add(a, b)))
    assert a.grad.shape == (rows, cols) and b.grad.shape == (cols,)
    np.testing.assert_allclose(b.grad, rows)
