"""Numeric core: op correctness against independent oracles, tape semantics."""

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import masa_kit as mk
from masa_kit import (ConfigurationError, DimensionError, Tensor, UsageError, backward,
                      conv2d, count_macs, depthwise_conv2d, gelu, hadamard, matmul,
                      softmax_last, sum_all)
from masa_kit.train import finite_diff_gradcheck


# ---------------------------------------------------------------------------
# Oracles


def matmul_oracle(a, b):
    m, k = a.shape
    _, n = b.shape
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            for l in range(k):
                out[i, j] += a[i, l] * b[l, j]
    return out


def softmax_oracle_50dps(row):
    with mp.workdps(50):
        exps = [mp.exp(mp.mpf(float(v))) for v in row]
        total = mp.fsum(exps)
        return np.array([float(e / total) for e in exps])


def dwconv_oracle(x, k):
    c, h, w = x.shape
    _, kh, kw = k.shape
    pad = kh // 2
    out = np.zeros_like(x)
    for ch in range(c):
        for i in range(h):
            for j in range(w):
                for di in range(kh):
                    for dj in range(kw):
                        ii, jj = i + di - pad, j + dj - pad
                        if 0 <= ii < h and 0 <= jj < w:
                            out[ch, i, j] += k[ch, di, dj] * x[ch, ii, jj]
    return out


def conv2d_oracle(x, w, b, stride, pad):
    cin, h, wd = x.shape
    cout, _, k, _ = w.shape
    ho = (h + 2 * pad - k) // stride + 1
    wo = (wd + 2 * pad - k) // stride + 1
    out = np.zeros((cout, ho, wo))
    for co in range(cout):
        for i in range(ho):
            for j in range(wo):
                acc = 0.0
                for ci in range(cin):
                    for di in range(k):
                        for dj in range(k):
                            ii, jj = i * stride + di - pad, j * stride + dj - pad
                            if 0 <= ii < h and 0 <= jj < wd:
                                acc += w[co, ci, di, dj] * x[ci, ii, jj]
                out[co, i, j] = acc + (0.0 if b is None else b[co])
    return out


def hwc(a):
    """A [C, H, W] oracle array in the channels-last [H, W, C] layout the conv ops take."""
    return np.moveaxis(a, 0, -1)


def chw(a):
    """A channels-last conv output back in the [C, H, W] layout of the oracles."""
    return np.moveaxis(a, -1, 0)


# ---------------------------------------------------------------------------
# matmul


class TestMatmul:
    def test_identity(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = matmul(Tensor(np.eye(2)), Tensor(a))
        np.testing.assert_array_equal(out.data, a)

    def test_hand_expansion(self):
        a = Tensor([[1.0, 0.0], [0.0, 0.0]])
        b = Tensor([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_array_equal(matmul(a, b).data, [[0.0, 1.0], [0.0, 0.0]])

    def test_against_triple_loop_oracle(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 5))
        out = matmul(Tensor(a), Tensor(b))
        assert np.max(np.abs(out.data - matmul_oracle(a, b))) < 1e-12

    def test_leading_batch_broadcast(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((3, 2, 4))
        b = rng.standard_normal((4, 5))
        out = matmul(Tensor(a), Tensor(b))
        for i in range(3):
            np.testing.assert_allclose(out.data[i], a[i] @ b, atol=1e-14)

    def test_inner_dim_mismatch_names_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 2\)"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))

    @settings(max_examples=30, deadline=None)
    @given(m=st.integers(1, 16), k=st.integers(1, 16), n=st.integers(1, 16),
           p=st.integers(1, 16), seed=st.integers(0, 10_000))
    def test_associativity(self, m, k, n, p, seed):
        rng = np.random.default_rng(seed)
        a = rng.uniform(-1, 1, (m, k))
        b = rng.uniform(-1, 1, (k, n))
        c = rng.uniform(-1, 1, (n, p))
        left = matmul(matmul(Tensor(a), Tensor(b)), Tensor(c)).data
        right = matmul(Tensor(a), matmul(Tensor(b), Tensor(c))).data
        assert np.max(np.abs(left - right)) < 1e-10


# ---------------------------------------------------------------------------
# softmax


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(softmax_last(Tensor([0.0, 0.0])).data, [0.5, 0.5], atol=1e-15)

    def test_large_inputs_do_not_overflow(self):
        out = softmax_last(Tensor([1000.0, 1000.0, 1000.0]))
        np.testing.assert_allclose(out.data, [1 / 3] * 3, atol=1e-15)

    def test_against_extended_precision_oracle(self):
        row = [1.0, 2.0, 3.0]
        out = softmax_last(Tensor(row))
        assert np.max(np.abs(out.data - softmax_oracle_50dps(row))) < 1e-14

    def test_empty_last_axis_rejected(self):
        with pytest.raises(DimensionError):
            softmax_last(Tensor(np.zeros((3, 0))))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=12))
    def test_rows_sum_to_one(self, row):
        out = softmax_last(Tensor(row))
        assert abs(out.data.sum() - 1.0) < 1e-12
        assert (out.data >= 0).all()

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=12), st.floats(-100, 100))
    def test_shift_invariance(self, row, shift):
        base = softmax_last(Tensor(row)).data
        shifted = softmax_last(Tensor(np.asarray(row) + shift)).data
        assert np.max(np.abs(base - shifted)) < 1e-12


# ---------------------------------------------------------------------------
# hadamard


class TestHadamard:
    def test_ones_is_identity(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((3, 4))
        np.testing.assert_array_equal(hadamard(Tensor(a), Tensor(np.ones((3, 4)))).data, a)

    def test_zeros_annihilate(self):
        a = Tensor(np.full((2, 2), 7.0))
        np.testing.assert_array_equal(hadamard(a, Tensor(np.zeros((2, 2)))).data, np.zeros((2, 2)))

    def test_hand_expansion(self):
        out = hadamard(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[2.0, 0.0], [0.0, 2.0]]))
        np.testing.assert_array_equal(out.data, [[2.0, 0.0], [0.0, 8.0]])

    def test_incompatible_shapes_rejected(self):
        with pytest.raises(DimensionError):
            hadamard(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))))


# ---------------------------------------------------------------------------
# depthwise conv


class TestDepthwiseConv:
    def test_delta_kernel_is_identity(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 4, 4))
        k = np.zeros((2, 3, 3))
        k[:, 1, 1] = 1.0
        np.testing.assert_allclose(chw(depthwise_conv2d(Tensor(hwc(x)), Tensor(k)).data), x, atol=1e-15)

    def test_ones_kernel_counts_zero_padded_support(self):
        out = chw(depthwise_conv2d(Tensor(hwc(np.ones((1, 5, 5)))), Tensor(np.ones((1, 3, 3)))).data)
        assert out[0, 2, 2] == 9.0
        assert out[0, 0, 0] == 4.0
        assert out[0, 0, 4] == 4.0
        assert out[0, 0, 2] == 6.0

    def test_against_quadruple_loop_oracle(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((2, 4, 4))
        k = rng.standard_normal((2, 3, 3))
        out = depthwise_conv2d(Tensor(hwc(x)), Tensor(k))
        assert np.max(np.abs(chw(out.data) - dwconv_oracle(x, k))) < 1e-12

    def test_even_kernel_rejected(self):
        with pytest.raises(ConfigurationError):
            depthwise_conv2d(Tensor(hwc(np.zeros((1, 4, 4)))), Tensor(np.zeros((1, 2, 2))))

    def test_channel_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            depthwise_conv2d(Tensor(hwc(np.zeros((2, 4, 4)))), Tensor(np.zeros((3, 3, 3))))


class TestConv2d:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1)])
    def test_against_loop_oracle(self, stride, padding):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((3, 6, 6))
        w = rng.standard_normal((4, 3, 3, 3))
        b = rng.standard_normal(4)
        out = conv2d(Tensor(hwc(x)), Tensor(w), Tensor(b), stride=stride, padding=padding)
        assert np.max(np.abs(chw(out.data) - conv2d_oracle(x, w, b, stride, padding))) < 1e-12

    def test_strided_output_shape(self):
        out = conv2d(Tensor(hwc(np.zeros((2, 8, 8)))), Tensor(np.zeros((5, 2, 3, 3))),
                     stride=2, padding=1)
        assert chw(out.data).shape == (5, 4, 4)


# ---------------------------------------------------------------------------
# backward


class TestBackward:
    def test_sum_gradient_is_ones(self):
        a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        backward(sum_all(a))
        np.testing.assert_array_equal(a.grad, np.ones((2, 3)))

    def test_quadratic_gradient(self):
        a = Tensor([[1.0, -2.0], [0.5, 3.0]], requires_grad=True)
        backward(sum_all(hadamard(a, a)))
        np.testing.assert_allclose(a.grad, 2 * a.data, atol=1e-15)

    def test_attention_chain_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        q = Tensor(rng.uniform(-1, 1, (3, 2)))
        k = Tensor(rng.uniform(-1, 1, (3, 2)))
        v = Tensor(rng.uniform(-1, 1, (3, 2)))

        def chain(inputs):
            qq, kk, vv = inputs
            return sum_all(matmul(softmax_last(matmul(qq, mk.transpose(kk))), vv))

        err, _ = finite_diff_gradcheck(chain, [q, k, v], eps=1e-6)
        assert err < 1e-6

    def test_non_scalar_loss_rejected(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(UsageError):
            backward(hadamard(a, a))

    def test_detached_graph_rejected(self):
        with pytest.raises(UsageError):
            backward(sum_all(Tensor(np.ones(3))))

    def test_repeated_backward_rejected(self):
        a = Tensor(np.ones(3), requires_grad=True)
        loss = sum_all(a)
        backward(loss)
        with pytest.raises(UsageError):
            backward(loss)

    def test_leaf_receives_adjoint_exactly_once(self):
        a = Tensor(np.ones(2), requires_grad=True)
        doubled = a + a  # two paths back to the same leaf
        backward(sum_all(doubled))
        np.testing.assert_array_equal(a.grad, np.full(2, 2.0))

    def test_shared_gradient_is_not_accumulated_in_place(self):
        # add(s, a) hands s and a the same gradient array; summing into it in
        # place would also change s's gradient before s passes it on to a and b
        rng = np.random.default_rng(9)
        a, b, c = (Tensor(rng.standard_normal(3), requires_grad=True) for _ in range(3))
        s = a + b
        backward(sum_all(hadamard(s + a, c)))
        np.testing.assert_array_equal(a.grad, 2 * c.data)
        np.testing.assert_array_equal(b.grad, c.data)

    def test_non_finite_values_rejected(self):
        with pytest.raises(UsageError):
            Tensor([1.0, np.inf])


# ---------------------------------------------------------------------------
# per-op finite differences


def _weighted_sum(t, rng):
    w = Tensor(rng.uniform(-1, 1, t.shape))
    return sum_all(hadamard(t, w))


OP_CASES = {
    "add": lambda i, r: _weighted_sum(i[0] + i[1], r),
    "sub": lambda i, r: _weighted_sum(i[0] - i[1], r),
    "neg": lambda i, r: _weighted_sum(-i[0], r),
    "hadamard": lambda i, r: _weighted_sum(hadamard(i[0], i[1]), r),
    "mul_scalar": lambda i, r: _weighted_sum(mk.mul_scalar(i[0], 1.7), r),
    "matmul": lambda i, r: _weighted_sum(matmul(i[0], mk.transpose(i[1])), r),
    "transpose": lambda i, r: _weighted_sum(mk.transpose(i[0]), r),
    "reshape": lambda i, r: _weighted_sum(mk.reshape(i[0], (i[0].size,)), r),
    "concat": lambda i, r: _weighted_sum(mk.concat([i[0], i[1]], axis=0), r),
    "slice": lambda i, r: _weighted_sum(mk.slice_axis(i[0], 1, 1, 3), r),
    "softmax": lambda i, r: _weighted_sum(softmax_last(i[0]), r),
    "log_softmax": lambda i, r: _weighted_sum(mk.log_softmax_last(i[0]), r),
    "gelu": lambda i, r: _weighted_sum(gelu(i[0]), r),
    "sum_axes": lambda i, r: _weighted_sum(mk.sum_axes(i[0], (0,)), r),
    "mean_axes": lambda i, r: _weighted_sum(mk.mean_axes(i[0], (1,), keepdims=True), r),
}


@pytest.mark.parametrize("name", sorted(OP_CASES))
def test_op_gradients_match_finite_differences(name):
    rng = np.random.default_rng(abs(hash(name)) % 2**32)
    a = Tensor(rng.uniform(-2, 2, (3, 4)))
    b = Tensor(rng.uniform(-2, 2, (3, 4)))
    # the closure reseeds its weighting so repeated evaluations are identical
    err, _ = finite_diff_gradcheck(lambda i: OP_CASES[name](i, np.random.default_rng(99)),
                                   [a, b], eps=1e-6)
    assert err < 1e-6, f"{name}: relative error {err}"


def test_powf_gradient_on_positive_input():
    rng = np.random.default_rng(7)
    a = Tensor(rng.uniform(0.5, 2.0, (3, 3)))
    err, _ = finite_diff_gradcheck(lambda i: sum_all(mk.powf(i[0], -0.5)), [a], eps=1e-6)
    assert err < 1e-6


def test_conv_gradients_match_finite_differences():
    rng = np.random.default_rng(8)
    x = Tensor(hwc(rng.uniform(-2, 2, (2, 4, 4))))
    k = Tensor(rng.uniform(-2, 2, (2, 3, 3)))
    err, _ = finite_diff_gradcheck(lambda i: sum_all(depthwise_conv2d(i[0], i[1])), [x, k])
    assert err < 1e-6

    w = Tensor(rng.uniform(-1, 1, (3, 2, 3, 3)))
    b = Tensor(rng.uniform(-1, 1, (3,)))
    err, _ = finite_diff_gradcheck(
        lambda i: sum_all(conv2d(i[0], i[1], i[2], stride=2, padding=1)), [x, w, b])
    assert err < 1e-6


# ---------------------------------------------------------------------------
# MAC counting and init


def test_mac_counter_counts_matmul():
    with count_macs() as counter:
        matmul(Tensor(np.zeros((3, 4))), Tensor(np.zeros((4, 5))))
    assert counter.total == 3 * 4 * 5


def test_mac_counter_nests():
    with count_macs() as outer:
        matmul(Tensor(np.zeros((2, 2))), Tensor(np.zeros((2, 2))))
        with count_macs() as inner:
            matmul(Tensor(np.zeros((2, 2))), Tensor(np.zeros((2, 2))))
    assert inner.total == 8
    assert outer.total == 16


def test_trunc_normal_is_bounded_and_deterministic():
    a = mk.trunc_normal(np.random.default_rng(5), (1000,), std=0.02)
    b = mk.trunc_normal(np.random.default_rng(5), (1000,), std=0.02)
    np.testing.assert_array_equal(a, b)
    assert np.max(np.abs(a)) <= 0.04
