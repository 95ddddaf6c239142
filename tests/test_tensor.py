"""Numeric core: op correctness against independent oracles, tape semantics."""

import itertools
import tracemalloc
import weakref

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import masa_kit as mk
from masa_kit import (ConfigurationError, DimensionError, Tensor, UsageError, backward,
                      conv2d, count_macs, depthwise_conv2d, gelu, hadamard, linear, matmul,
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


def dwconv_adjoint_oracle(x, k, g):
    """Gradients of sum(g * dwconv_oracle(x, k)) for x and k, by the same loops."""
    c, h, w = x.shape
    _, kh, kw = k.shape
    pad = kh // 2
    dx, dk = np.zeros_like(x), np.zeros_like(k)
    for ch, i, j, di, dj in itertools.product(range(c), range(h), range(w), range(kh), range(kw)):
        ii, jj = i + di - pad, j + dj - pad
        if 0 <= ii < h and 0 <= jj < w:
            dx[ch, ii, jj] += k[ch, di, dj] * g[ch, i, j]
            dk[ch, di, dj] += x[ch, ii, jj] * g[ch, i, j]
    return dx, dk


def conv2d_adjoint_oracle(x, w, g, stride, pad):
    """Gradients of sum(g * conv2d_oracle(x, w, b, stride, pad)) for x, w and b, by the same loops."""
    cin, h, wd = x.shape
    cout, _, k, _ = w.shape
    _, ho, wo = g.shape
    dx, dw = np.zeros_like(x), np.zeros_like(w)
    for co, i, j, ci, di, dj in itertools.product(range(cout), range(ho), range(wo), range(cin),
                                                  range(k), range(k)):
        ii, jj = i * stride + di - pad, j * stride + dj - pad
        if 0 <= ii < h and 0 <= jj < wd:
            dx[ci, ii, jj] += w[co, ci, di, dj] * g[co, i, j]
            dw[co, ci, di, dj] += x[ci, ii, jj] * g[co, i, j]
    return dx, dw, g.sum(axis=(1, 2))


def _pow_oracle(a, p):
    """Elementwise a ** p as a tape op: the one primitive the composite oracle below needs
    that the library no longer has."""
    return mk.tensor._result("pow", a.data ** p, (a, lambda g: g * p * a.data ** (p - 1.0)))


def normalize_oracle(x, axes, gain, bias):
    """The layer norm as a composite of primitive ops, each with its own adjoint."""
    mu = mk.mean_axes(x, axes, keepdims=True)
    centered = x - mu
    var = mk.mean_axes(hadamard(centered, centered), axes, keepdims=True)
    inv = _pow_oracle(var + mk.tensor.NORM_EPS, -0.5)
    return hadamard(hadamard(centered, inv), gain) + bias


def hwc(a):
    """A [C, H, W] oracle array in the channels-last [H, W, C] layout the conv ops take."""
    return np.moveaxis(a, 0, -1)


def chw(a):
    """A channels-last conv output back in the [C, H, W] layout of the oracles."""
    return np.moveaxis(a, -1, 0)


def hwio(w):
    """A [Cout, Cin, k, k] oracle weight in the [k, k, Cin, Cout] layout conv2d takes."""
    return w.transpose(2, 3, 1, 0)


def oihw(w):
    """A [k, k, Cin, Cout] conv2d weight (or its gradient) back in the oracles' layout."""
    return w.transpose(3, 2, 0, 1)


def conv2d_im2col_adjoints(x, w, g, stride, pad):
    """dx and dw of conv2d on channels-last arrays through one im2col matrix: dw from one matmul
    with it, dx from one matmul giving its cotangent, scattered back by k * k strided slice-adds."""
    (h, wd, cin), (k, _, _, cout), (ho, wo, _) = x.shape, w.shape, g.shape
    xp = np.pad(x, ((pad, pad), (pad, pad), (0, 0)))
    windows = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(0, 1))[::stride, ::stride]
    cols = windows[:ho, :wo].transpose(0, 1, 3, 4, 2).reshape(ho * wo, k * k * cin)
    g2 = g.reshape(ho * wo, cout)
    dw = (g2.T @ cols).T.reshape(w.shape)
    dcols = (g2 @ w.reshape(-1, cout).T).reshape(ho, wo, k, k, cin)
    gxp = np.zeros(xp.shape)
    for i in range(k):
        for j in range(k):
            gxp[i:i + stride * ho:stride, j:j + stride * wo:stride] += dcols[:, :, i, j]
    return gxp[pad:pad + h, pad:pad + wd], dw


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


class TestLinear:
    @pytest.mark.parametrize("n,cin,cout", [(3136, 64, 192), (1, 512, 1000)], ids=["stage1-ffn", "head"])
    def test_forward_and_gradients_equal_the_matmul_add_composite(self, n, cin, cout):
        # the composite is the oracle: the same products and the same sums, so every bit agrees
        rng = np.random.default_rng(60 + n)
        arrays = (rng.standard_normal((n, cin)), rng.standard_normal((cin, cout)), rng.standard_normal(cout))
        cot = Tensor(rng.standard_normal((n, cout)))
        results = []
        for op in (linear, lambda x, w, b: matmul(x, w) + b):
            tracked = [Tensor(a, requires_grad=True) for a in arrays]
            out = op(*tracked)
            backward(sum_all(hadamard(out, cot)))
            results.append([out.data] + [t.grad for t in tracked])
        for name, got, want in zip(("forward", "dx", "dw", "db"), *results):
            assert got.shape == want.shape, name
            np.testing.assert_array_equal(got, want, err_msg=name)

    @pytest.mark.parametrize("x_shape,w_shape,b_shape,named", [
        ((2, 3, 4), (4, 5), (5,), r"linear needs x \[N, Cin\]"),
        ((3, 4), (5, 6), (6,), "inner dimensions disagree"),
        ((3, 4), (4, 5), (5, 1), r"bias must have shape \(5,\)"),
    ], ids=["x-not-2d", "inner-mismatch", "bias-not-cout"])
    def test_bad_shapes_rejected(self, x_shape, w_shape, b_shape, named):
        with pytest.raises(DimensionError, match=named):
            linear(Tensor(np.zeros(x_shape)), Tensor(np.zeros(w_shape)), Tensor(np.zeros(b_shape)))

    def test_forward_retains_only_its_output(self):
        # the stage-1 FFN input projection: the matmul output takes the bias in place
        rng = np.random.default_rng(61)
        x, w, b = (Tensor(rng.standard_normal(s), requires_grad=True) for s in ((3136, 64), (64, 192), (192,)))
        tracemalloc.start()
        try:
            out = linear(x, w, b)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert out.requires_grad
        assert held <= out.data.nbytes + 64 * 2 ** 10

    def test_mac_counter_counts_only_the_forward(self):
        rng = np.random.default_rng(62)
        tracked = [Tensor(rng.standard_normal(s), requires_grad=True) for s in ((7, 5), (5, 9), (9,))]
        with count_macs() as counter:
            backward(sum_all(linear(*tracked)))
        assert all(t.grad is not None for t in tracked)
        assert counter.total == 7 * 5 * 9


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
# gelu


def _gelu_samples():
    """Signed zeros, subnormals, |x| around sqrt(2) (erf's branch point at x / sqrt(2) = 1),
    8.3 and 40 (where erf saturates and pdf underflows), each with both signs, and normals."""
    root2 = np.sqrt(2.0)
    near_root2 = [np.nextafter(root2, 0.0), root2, np.nextafter(root2, 3.0), 1.41, 1.42]
    magnitudes = np.array([0.0, 5e-324, 1e-310, 2.2e-308] + near_root2 + [8.3, 40.0])
    normals = np.random.default_rng(61).standard_normal(200)
    return np.concatenate([magnitudes, -magnitudes, normals])


def _gelu_by_the_unsplit_erf(x):
    """cdf, output and derivative by erf(x / sqrt(2)) directly, in gelu's former operation order."""
    from scipy.special import erf
    cdf = 0.5 * (1.0 + erf(x / np.sqrt(2.0)))
    deriv = x * x
    deriv *= -0.5
    np.exp(deriv, out=deriv)
    deriv *= 1.0 / np.sqrt(2.0 * np.pi)
    deriv *= x
    deriv += cdf
    return cdf, x * cdf, deriv


class TestGelu:
    def test_erf_is_exactly_odd_on_the_samples(self):
        # the premise of the sign split: erf(-t) and -erf(t) agree bit for bit
        from scipy.special import erf
        t = np.abs(_gelu_samples()) / np.sqrt(2.0)
        np.testing.assert_array_equal(erf(-t), -erf(t))
        np.testing.assert_array_equal(np.signbit(erf(-t)), np.signbit(-erf(t)))

    def test_output_and_derivative_equal_the_unsplit_erf_bit_for_bit(self):
        x = _gelu_samples()
        cdf, out, deriv = _gelu_by_the_unsplit_erf(x)
        from scipy.special import erf
        split = np.copysign(erf(np.abs(x) / np.sqrt(2.0)), x)
        np.testing.assert_array_equal(0.5 * (1.0 + split), cdf)
        a = Tensor(x, requires_grad=True)
        y = gelu(a)
        backward(sum_all(y))  # a cotangent of ones, so the gradient is the derivative itself
        np.testing.assert_array_equal(y.data, out)
        np.testing.assert_array_equal(np.signbit(y.data), np.signbit(out))
        np.testing.assert_array_equal(a.grad, deriv)

    def test_forward_holds_its_output_and_the_derivative_alone(self):
        # with the caller's input dropped, the tape keeps one input-sized array, the derivative;
        # keeping x and cdf for the adjoint would be two, 1 MiB each here
        leaf = Tensor(np.random.default_rng(62).standard_normal((256, 512)), requires_grad=True)
        tracemalloc.start()
        try:
            x = mk.mul_scalar(leaf, 1.0)
            out = gelu(x)
            del x
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert out.requires_grad
        assert held <= 2 * out.data.nbytes + 64 * 2 ** 10


# ---------------------------------------------------------------------------
# depthwise conv


class TestDepthwiseConv:
    def test_delta_kernel_is_identity(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 4, 4))
        k = np.zeros((3, 3, 2))
        k[1, 1] = 1.0
        np.testing.assert_allclose(chw(depthwise_conv2d(Tensor(hwc(x)), Tensor(k)).data), x, atol=1e-15)

    def test_ones_kernel_counts_zero_padded_support(self):
        out = chw(depthwise_conv2d(Tensor(hwc(np.ones((1, 5, 5)))), Tensor(np.ones((3, 3, 1)))).data)
        assert out[0, 2, 2] == 9.0
        assert out[0, 0, 0] == 4.0
        assert out[0, 0, 4] == 4.0
        assert out[0, 0, 2] == 6.0

    def test_against_quadruple_loop_oracle(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((2, 4, 4))
        k = rng.standard_normal((2, 3, 3))
        out = depthwise_conv2d(Tensor(hwc(x)), Tensor(hwc(k)))
        assert np.max(np.abs(chw(out.data) - dwconv_oracle(x, k))) < 1e-12

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_forward_and_gradients_at_model_kernel_sizes(self, k):
        # an H != W map with several channels and a random cotangent, as the CPE (k=3) and LCE (k=5) see;
        # k=1 is the single-tap, unpadded window
        rng = np.random.default_rng(40 + k)
        x, cot = rng.standard_normal((4, 7, 5)), rng.standard_normal((4, 7, 5))
        kernel = rng.standard_normal((4, k, k))
        tx, tk = Tensor(hwc(x), requires_grad=True), Tensor(hwc(kernel), requires_grad=True)
        out = depthwise_conv2d(tx, tk)
        backward(sum_all(hadamard(out, Tensor(hwc(cot)))))
        dx, dk = dwconv_adjoint_oracle(x, kernel, cot)
        assert np.max(np.abs(chw(out.data) - dwconv_oracle(x, kernel))) < 1e-12
        assert np.max(np.abs(chw(tx.grad) - dx)) < 1e-12
        assert np.max(np.abs(chw(tk.grad) - dk)) < 1e-12
        err, _ = finite_diff_gradcheck(
            lambda i: sum_all(hadamard(depthwise_conv2d(i[0], i[1]), Tensor(hwc(cot)))),
            [Tensor(hwc(x)), Tensor(hwc(kernel))])
        assert err < 1e-6

    def test_even_kernel_rejected(self):
        with pytest.raises(ConfigurationError):
            depthwise_conv2d(Tensor(hwc(np.zeros((1, 4, 4)))), Tensor(np.zeros((2, 2, 1))))

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
        out = conv2d(Tensor(hwc(x)), Tensor(hwio(w)), Tensor(b), stride=stride, padding=padding)
        assert np.max(np.abs(chw(out.data) - conv2d_oracle(x, w, b, stride, padding))) < 1e-12

    @pytest.mark.parametrize("k,stride,padding", list(itertools.product((1, 3, 5), (1, 2), (0, 1))))
    def test_forward_and_gradients_at_model_kernel_sizes(self, k, stride, padding):
        rng = np.random.default_rng(50 + 4 * k + 2 * stride + padding)
        x, w, b = rng.standard_normal((3, 9, 6)), rng.standard_normal((4, 3, k, k)), rng.standard_normal(4)
        ho, wo = (9 + 2 * padding - k) // stride + 1, (6 + 2 * padding - k) // stride + 1
        cot = rng.standard_normal((4, ho, wo))
        tracked = [Tensor(a, requires_grad=True) for a in (hwc(x), hwio(w), b)]
        out = conv2d(*tracked, stride=stride, padding=padding)
        backward(sum_all(hadamard(out, Tensor(hwc(cot)))))
        assert np.max(np.abs(chw(out.data) - conv2d_oracle(x, w, b, stride, padding))) < 1e-12
        got = (chw(tracked[0].grad), oihw(tracked[1].grad), tracked[2].grad)
        for name, g, want in zip(("dx", "dw", "db"), got, conv2d_adjoint_oracle(x, w, cot, stride, padding)):
            assert g.shape == want.shape, name
            assert np.max(np.abs(g - want)) < 1e-12, name
        err, _ = finite_diff_gradcheck(
            lambda i: sum_all(hadamard(conv2d(*i, stride=stride, padding=padding), Tensor(hwc(cot)))),
            [Tensor(hwc(x)), Tensor(hwio(w)), Tensor(b)])
        assert err < 1e-6

    @pytest.mark.parametrize("k,stride,padding", list(itertools.product((1, 3, 5), (1, 2), (0, 1))))
    def test_tap_by_tap_adjoints_equal_the_im2col_ones_bit_for_bit(self, k, stride, padding):
        rng = np.random.default_rng(70 + 4 * k + 2 * stride + padding)
        x, w, b = rng.standard_normal((9, 6, 3)), rng.standard_normal((k, k, 3, 4)), rng.standard_normal(4)
        tracked = [Tensor(a, requires_grad=True) for a in (x, w, b)]
        out = conv2d(*tracked, stride=stride, padding=padding)
        cot = rng.standard_normal(out.shape)
        backward(sum_all(hadamard(out, Tensor(cot))))  # so each adjoint receives cot exactly
        dx, dw = conv2d_im2col_adjoints(x, w, cot, stride, padding)
        np.testing.assert_array_equal(tracked[0].grad, dx)
        np.testing.assert_array_equal(tracked[1].grad, dw)

    @pytest.mark.parametrize("cout,stride,whole", [(128, 2, True), (64, 1, False)],
                             ids=["one-matmul", "tap-by-tap"])
    def test_weight_adjoint_on_each_side_of_the_im2col_budget_equals_the_im2col_one_bit_for_bit(
            self, cout, stride, whole):
        # rmt-t's stage-1 downsample (a 3.6 MB im2col matrix) and a 56^2 x 64 -> 64 convolution (14.5 MB)
        rng = np.random.default_rng(72)
        x, w, b = rng.standard_normal((56, 56, 64)), rng.standard_normal((3, 3, 64, cout)), rng.standard_normal(cout)
        tracked = [Tensor(a, requires_grad=True) for a in (x, w, b)]
        out = conv2d(*tracked, stride=stride, padding=1)
        ho, wo, _ = out.shape
        assert (ho * wo * 9 * 64 * 8 <= mk.tensor.CONV_IM2COL_BYTES) == whole
        cot = rng.standard_normal(out.shape)
        backward(sum_all(hadamard(out, Tensor(cot))))
        np.testing.assert_array_equal(tracked[1].grad, conv2d_im2col_adjoints(x, w, cot, stride, 1)[1])

    def test_backward_peak_at_the_stem_stays_near_the_gradients(self):
        # one im2col matrix of this 112^2 stem convolution, or its cotangent, is 29 MB; tap by
        # tap, the adjoints need the padded input and one tap's [Ho*Wo, Cin] matrix, 3.3 MB each
        rng = np.random.default_rng(71)
        tracked = [Tensor(a, requires_grad=True) for a in (rng.standard_normal((112, 112, 32)),
                                                           hwio(rng.standard_normal((32, 32, 3, 3))),
                                                           rng.standard_normal(32))]
        out = conv2d(*tracked, stride=1, padding=1)
        g = rng.standard_normal(out.shape)
        tracemalloc.start()
        try:
            grads = [vjp(g) for _, vjp in out._record.edges]
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [grad.shape for grad in grads] == [t.shape for t in (tracked[1], tracked[0], tracked[2])]
        assert peak <= held + 8 * 2 ** 20

    def test_forward_retains_only_its_output_the_cols_and_the_padded_input(self):
        # the last rmt-t downsample: a reordered copy of its 512x256x3x3 weight would add 9.4 MB
        rng = np.random.default_rng(45)
        x = Tensor(rng.standard_normal((14, 14, 256)), requires_grad=True)
        w = Tensor(hwio(rng.standard_normal((512, 256, 3, 3))), requires_grad=True)
        b = Tensor(rng.standard_normal(512), requires_grad=True)
        tracemalloc.start()
        try:
            out = conv2d(x, w, b, stride=2, padding=1)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        cols, padded = 7 * 7 * 9 * 256 * 8, 16 * 16 * 256 * 8
        assert out.requires_grad
        assert held <= out.data.nbytes + cols + padded + 64 * 2 ** 10

    @pytest.mark.parametrize("op,x_shape,w_shape,stride", [
        ("conv2d", (112, 112, 32), (32, 32, 3, 3), 1),    # a stem convolution at 112^2
        ("conv2d", (14, 14, 256), (512, 256, 3, 3), 2),   # the last downsample
        ("depthwise", (56, 56, 64), (64, 3, 3), None),    # a stage-1 CPE
    ], ids=["stem", "last-downsample", "depthwise-56"])
    def test_forward_retains_only_its_output(self, op, x_shape, w_shape, stride):
        # the adjoints rebuild the im2col matrix and the padded input from x, so neither stays on the tape
        rng = np.random.default_rng(46)
        x = Tensor(rng.standard_normal(x_shape), requires_grad=True)
        if op == "conv2d":
            w = Tensor(hwio(rng.standard_normal(w_shape)), requires_grad=True)
            b = Tensor(rng.standard_normal(w_shape[0]), requires_grad=True)
            run = lambda: conv2d(x, w, b, stride=stride, padding=1)  # noqa: E731
        else:
            kernel = Tensor(hwc(rng.standard_normal(w_shape)), requires_grad=True)
            run = lambda: depthwise_conv2d(x, kernel)  # noqa: E731
        tracemalloc.start()
        try:
            out = run()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert out.requires_grad
        assert held <= out.data.nbytes + 64 * 2 ** 10

    def test_mac_counter_counts_only_the_forward(self):
        # the weight adjoint rebuilds the im2col matrix but records no MACs of its own
        rng = np.random.default_rng(47)
        tracked = [Tensor(a, requires_grad=True) for a in (rng.standard_normal((9, 6, 3)),
                                                           rng.standard_normal((3, 3, 3, 4)),
                                                           rng.standard_normal(4))]
        with count_macs() as counter:
            backward(sum_all(conv2d(*tracked, stride=2, padding=1)))
        assert all(t.grad is not None for t in tracked)
        assert counter.total == 4 * 5 * 3 * 3 * 3 * 3

    @pytest.mark.parametrize("stride,padding,bad", [(0, 1, "0"), (-1, 1, "-1"), (2.5, 1, "2.5"),
                                                    (2.0, 1, "2.0"), (1, -1, "-1"), (1, 0.5, "0.5")])
    def test_stride_and_padding_that_are_not_counts_rejected(self, stride, padding, bad):
        with pytest.raises(ConfigurationError, match=f"got {bad}$"):
            conv2d(Tensor(np.zeros((8, 8, 2))), Tensor(np.zeros((3, 3, 2, 5))), Tensor(np.zeros(5)),
                   stride=stride, padding=padding)

    def test_strided_output_shape(self):
        out = conv2d(Tensor(hwc(np.zeros((2, 8, 8)))), Tensor(np.zeros((3, 3, 2, 5))),
                     Tensor(np.zeros(5)), stride=2, padding=1)
        assert chw(out.data).shape == (5, 4, 4)

    @pytest.mark.parametrize("bias_shape", [(4,), (6,), (5, 1), ()])
    def test_bias_of_the_wrong_shape_rejected(self, bias_shape):
        with pytest.raises(DimensionError, match="bias"):
            conv2d(Tensor(np.zeros((8, 8, 2))), Tensor(np.zeros((3, 3, 2, 5))),
                   Tensor(np.zeros(bias_shape)), stride=1, padding=1)


class TestInitKernel:
    @pytest.mark.parametrize("shape,perm", [((5, 3, 3, 3), (2, 3, 1, 0)), ((4, 5, 5), (1, 2, 0))],
                             ids=["conv", "depthwise"])
    def test_the_channels_first_draw_permuted_once(self, shape, perm):
        want = mk.tensor.trunc_normal(np.random.default_rng(9), shape).transpose(perm)
        got = mk.tensor.init_kernel(np.random.default_rng(9), *shape)
        assert np.array_equal(got.data, want)
        assert got.data.flags.c_contiguous and got.requires_grad


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
        with pytest.raises(UsageError, match="backward already ran through this sum_all node"):
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

    def test_a_backward_through_a_used_node_is_refused_before_any_gradient_is_written(self):
        a, b = Tensor(np.ones(1), requires_grad=True), Tensor(np.ones(1), requires_grad=True)
        h = mk.mul_scalar(a, 2)
        backward(sum_all(h))
        assert h.grad is None and h._record.edges == () and h._record.op == "mul_scalar"
        assert a._record.edges == () and a._record.op == "leaf"
        np.testing.assert_array_equal(a.grad, [2.0])
        # b's edge would run first, so a check made as the pass goes would already have written b.grad
        with pytest.raises(UsageError, match="backward already ran through this mul_scalar node"):
            backward(sum_all(mk.mul_scalar(h, 3) + b))
        np.testing.assert_array_equal(a.grad, [2.0])
        assert b.grad is None
        # a fresh forward through the same leaves works as before
        a.zero_grad()
        backward(sum_all(mk.mul_scalar(mk.mul_scalar(a, 2), 3) + b))
        np.testing.assert_array_equal(a.grad, [6.0])
        np.testing.assert_array_equal(b.grad, [1.0])

    def test_backward_drops_each_nodes_edges_and_leaves_only_the_root_on_the_tape(self):
        rng = np.random.default_rng(47)
        x, w = Tensor(rng.standard_normal((3, 4)), requires_grad=True), Tensor(rng.standard_normal((4, 2)),
                                                                                 requires_grad=True)
        loss = sum_all(gelu(matmul(x, w)))
        records = mk.tape_for(loss).records
        backward(loss)
        assert mk.tape_for(loss).records == [loss._record]
        for r in records:
            if r.op == "leaf":  # a leaf has no edges and is never used
                assert r.grad is not None and r.edges == ()
            else:  # an op record with no edges is used
                assert r.edges == () and r.grad is None

    @staticmethod
    def _fresh_graphs_agree_and_a_used_one_is_refused(forward, leaves, cot, op):
        """Two fresh forwards get the same gradients bit for bit; a second loss through the
        last one's used nodes is refused, naming ``op``, and leaves every gradient as it was."""
        grads = []
        for _ in range(2):
            for t in leaves:
                t.zero_grad()
            out = forward()
            backward(sum_all(hadamard(out, cot)))
            grads.append([t.grad for t in leaves])
        for first, second in zip(*grads):
            np.testing.assert_array_equal(first, second)
        with pytest.raises(UsageError, match=f"backward already ran through this {op} node"):
            backward(sum_all(hadamard(out, cot)))
        assert all(t.grad is g for t, g in zip(leaves, grads[1]))

    def test_conv_and_gelu_adjoints_run_once_per_graph(self):
        # the adjoints rebuild what they need from their inputs, so two fresh forwards through
        # conv2d, gelu and depthwise_conv2d get the same gradients bit for bit
        rng = np.random.default_rng(48)
        x = Tensor(rng.standard_normal((7, 6, 3)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 3, 3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal(4), requires_grad=True)
        kernel = Tensor(rng.standard_normal((3, 3, 4)), requires_grad=True)
        cot = Tensor(rng.standard_normal((7, 6, 4)))
        self._fresh_graphs_agree_and_a_used_one_is_refused(
            lambda: depthwise_conv2d(gelu(conv2d(x, w, b, stride=1, padding=1)), kernel), (x, w, b, kernel),
            cot, "depthwise_conv2d")

    def test_linear_and_normalize_adjoints_run_once_per_graph(self):
        # normalize's adjoint pass rebuilds x_hat from x, so two fresh forwards through linear
        # and normalize get the same gradients bit for bit
        rng = np.random.default_rng(49)
        x, w, b, gain, shift = (Tensor(rng.standard_normal(s), requires_grad=True)
                                for s in ((6, 4), (4, 5), (5,), (5,), (5,)))
        cot = Tensor(rng.standard_normal((6, 5)))
        self._fresh_graphs_agree_and_a_used_one_is_refused(
            lambda: mk.normalize(linear(x, w, b), (-1,), gain, shift), (x, w, b, gain, shift), cot,
            "normalize")

    def test_no_vjp_runs_for_an_untracked_parent(self):
        def refuse(g):
            raise AssertionError("vjp ran for a constant parent")

        a = Tensor(np.ones(2), requires_grad=True)
        out = mk.tensor._result("double", a.data * 2, (Tensor(np.ones(2)), refuse), (a, lambda g: g * 2))
        assert len(out._record.edges) == 1
        backward(sum_all(out))
        np.testing.assert_array_equal(a.grad, np.full(2, 2.0))

    def test_non_finite_values_rejected(self):
        with pytest.raises(UsageError):
            Tensor([1.0, np.inf])


class TestNoGrad:
    def test_ops_link_no_edges_and_give_the_tracked_values(self):
        rng = np.random.default_rng(62)
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        tracked = gelu(matmul(a, mk.transpose(a)))
        with mk.no_grad():
            untracked = gelu(matmul(a, mk.transpose(a)))
        assert tracked.requires_grad and not untracked.requires_grad
        np.testing.assert_array_equal(untracked.data, tracked.data)

    def test_tracked_leaves_can_still_be_made_inside(self):
        with mk.no_grad():
            a = Tensor(np.ones(2), requires_grad=True)
            assert not mk.mul_scalar(a, 2.0).requires_grad
        backward(sum_all(mk.mul_scalar(a, 2.0)))
        np.testing.assert_array_equal(a.grad, np.full(2, 2.0))

    def test_nests_and_restores_tracking_on_exit_and_on_an_exception(self):
        a = Tensor(np.ones(2), requires_grad=True)
        with pytest.raises(RuntimeError, match="inside"):
            with mk.no_grad():
                with mk.no_grad():
                    assert not mk.mul_scalar(a, 2.0).requires_grad
                assert not mk.mul_scalar(a, 2.0).requires_grad  # the inner exit keeps the outer block's state
                raise RuntimeError("inside")
        assert mk.tensor._tracking
        assert mk.mul_scalar(a, 2.0).requires_grad

    def test_a_loss_built_inside_is_detached(self):
        a = Tensor(np.ones(2), requires_grad=True)
        with mk.no_grad():
            loss = sum_all(hadamard(a, a))
        assert mk.tape_for(loss).records == []
        with pytest.raises(UsageError, match="loss is detached"):
            backward(loss)
        assert a.grad is None


class TestDataMoves:
    def test_a_data_move_builds_its_output_without_the_finite_check(self, monkeypatch):
        # a view or copy of finite values is finite, so no Tensor() construction checks it again
        a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)

        def refuse(self, *args, **kwargs):
            raise AssertionError("a data move ran Tensor's finite check")
        monkeypatch.setattr(Tensor, "__init__", refuse)
        outs = [mk.reshape(a, (3, 2)), mk.transpose(a), mk.concat([a, a], axis=0), mk.slice_axis(a, 1, 0, 2)]
        monkeypatch.undo()
        for out, want in zip(outs, (a.data.reshape(3, 2), a.data.T, np.concatenate([a.data, a.data]),
                                    a.data[:, :2])):
            np.testing.assert_array_equal(out.data, want)
            assert out.requires_grad and out._record.edges[0][0] is a._record

    def test_arithmetic_still_refuses_a_non_finite_result(self):
        with pytest.raises(UsageError, match="finite"), np.errstate(over="ignore"):
            mk.mul_scalar(Tensor([1e308]), 10.0)


class TestTapeHolds:
    """An edge keeps its parent's gradient record, not its value."""

    @pytest.mark.parametrize("consumer,op", [(mk.transpose, "transpose"), (lambda m: m + 1.0, "add")],
                             ids=["transpose", "add"])
    def test_a_matmul_output_that_only_a_shape_reader_consumes_is_freed(self, consumer, op):
        rng = np.random.default_rng(60)
        a, b = (Tensor(rng.standard_normal(s), requires_grad=True) for s in ((3, 4), (4, 5)))
        m = matmul(a, b)
        tensor_ref, data_ref = weakref.ref(m), weakref.ref(m.data)
        out = consumer(m)
        del m
        assert tensor_ref() is None and data_ref() is None
        # its record stays on the tape, so the gradients still pass through it
        tape = mk.tape_for(out)
        assert [r.op for r in tape.records] == ["leaf", "leaf", "matmul", op]
        assert tape.nodes == [a, b, out]
        backward(sum_all(out))
        np.testing.assert_allclose(a.grad, np.ones((3, 5)) @ b.data.T, rtol=0, atol=1e-14)
        np.testing.assert_allclose(b.grad, a.data.T @ np.ones((3, 5)), rtol=0, atol=1e-14)

    def test_a_value_the_caller_holds_stays_on_the_tape_with_its_data(self):
        rng = np.random.default_rng(61)
        a, b = (Tensor(rng.standard_normal(s), requires_grad=True) for s in ((3, 4), (4, 5)))
        held = matmul(a, b)
        value = held.data.copy()
        loss = sum_all(held + mk.mul_scalar(matmul(a, b), 2.0))
        tape = mk.tape_for(loss)
        assert [r.op for r in tape.records] == ["leaf", "leaf", "matmul", "matmul", "mul_scalar", "add",
                                                "sum_all"]
        assert tape.nodes == [a, b, held, loss]
        backward(loss)
        np.testing.assert_array_equal(held.data, value)
        assert held.requires_grad and held.grad is None

    def test_an_untracked_root_has_an_empty_tape(self):
        assert mk.tape_for(sum_all(Tensor(np.ones(3)))).records == []

    def test_records_come_in_creation_order_with_every_parent_first(self):
        # a depth-first walk from the root would list y before x and w before u
        x, y = Tensor(np.ones(2), requires_grad=True), Tensor(np.ones(2), requires_grad=True)
        u = mk.mul_scalar(x, 2.0)
        w = mk.mul_scalar(y, 3.0)
        out = sum_all(w + u)
        records = mk.tape_for(out).records
        added = out._record.edges[0][0]
        assert records == [x._record, y._record, u._record, w._record, added, out._record]
        for i, record in enumerate(records):
            assert all(records.index(parent) < i for parent, _ in record.edges)
        backward(out)
        np.testing.assert_array_equal(x.grad, np.full(2, 2.0))
        np.testing.assert_array_equal(y.grad, np.full(2, 3.0))


# ---------------------------------------------------------------------------
# per-op finite differences


def _weighted_sum(t, rng):
    w = Tensor(rng.uniform(-1, 1, t.shape))
    return sum_all(hadamard(t, w))


OP_CASES = {
    "add": lambda i, r: _weighted_sum(i[0] + i[1], r),
    "add_scalar_right": lambda i, r: _weighted_sum(i[0] + 1.5, r),
    "add_scalar_left": lambda i, r: _weighted_sum(1.5 + i[0], r),
    "sub": lambda i, r: _weighted_sum(i[0] - i[1], r),
    "sub_scalar": lambda i, r: _weighted_sum(i[0] - 1.5, r),
    "neg": lambda i, r: _weighted_sum(-i[0], r),
    "hadamard": lambda i, r: _weighted_sum(hadamard(i[0], i[1]), r),
    "mul_scalar": lambda i, r: _weighted_sum(mk.mul_scalar(i[0], 1.7), r),
    "matmul": lambda i, r: _weighted_sum(matmul(i[0], mk.transpose(i[1])), r),
    "linear": lambda i, r: _weighted_sum(linear(i[0], mk.transpose(i[1]), mk.mean_axes(i[1], (1,))), r),
    "transpose": lambda i, r: _weighted_sum(mk.transpose(i[0]), r),
    "reshape": lambda i, r: _weighted_sum(mk.reshape(i[0], (i[0].size,)), r),
    "concat": lambda i, r: _weighted_sum(mk.concat([i[0], i[1]], axis=0), r),
    "slice": lambda i, r: _weighted_sum(mk.slice_axis(i[0], 1, 1, 3), r),
    "softmax": lambda i, r: _weighted_sum(softmax_last(i[0]), r),
    "gelu": lambda i, r: _weighted_sum(gelu(i[0]), r),
    "mean_axes": lambda i, r: _weighted_sum(mk.mean_axes(i[0], (1,), keepdims=True), r),
    "mean_axes_dropped": lambda i, r: _weighted_sum(mk.mean_axes(i[0], (0,)), r),
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


def test_scalar_sugar_values():
    a = Tensor([1.0, -2.0])
    np.testing.assert_array_equal((a + 1.5).data, [2.5, -0.5])
    np.testing.assert_array_equal((1.5 + a).data, [2.5, -0.5])
    np.testing.assert_array_equal((a - 1.5).data, [-0.5, -3.5])
    np.testing.assert_array_equal((-a).data, [-1.0, 2.0])
    np.testing.assert_array_equal((a - Tensor([0.5, -0.5])).data, [0.5, -1.5])


def test_mean_axes_is_the_sum_times_the_reciprocal_count():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((3, 5, 4))
    out = mk.mean_axes(Tensor(a), (0, -1))
    np.testing.assert_array_equal(out.data, a.sum(axis=(0, 2)) * (1.0 / 12))
    assert mk.mean_axes(Tensor(a), (1,), keepdims=True).shape == (3, 1, 4)


def test_conv_gradients_match_finite_differences():
    rng = np.random.default_rng(8)
    x = Tensor(hwc(rng.uniform(-2, 2, (2, 4, 4))))
    k = Tensor(hwc(rng.uniform(-2, 2, (2, 3, 3))))
    err, _ = finite_diff_gradcheck(lambda i: sum_all(depthwise_conv2d(i[0], i[1])), [x, k])
    assert err < 1e-6

    w = Tensor(hwio(rng.uniform(-1, 1, (3, 2, 3, 3))))
    b = Tensor(rng.uniform(-1, 1, (3,)))
    err, _ = finite_diff_gradcheck(
        lambda i: sum_all(conv2d(i[0], i[1], i[2], stride=2, padding=1)), [x, w, b])
    assert err < 1e-6


# ---------------------------------------------------------------------------
# axes


class TestAxes:
    @pytest.mark.parametrize("call", [
        lambda t: mk.mean_axes(t, (5,)),
        lambda t: mk.mean_axes(t, (-3,)),
        lambda t: mk.mean_axes(t, (1, 1)),
        lambda t: mk.mean_axes(t, (1, -1)),
        lambda t: mk.normalize(t, (2,), Tensor(np.ones(3)), Tensor(np.zeros(3))),
        lambda t: mk.normalize(t, (-1, 1), Tensor(np.ones(3)), Tensor(np.zeros(3))),
        lambda t: mk.transpose(t, (0, 0)),
        lambda t: mk.transpose(t, (1, 0, 2)),
        lambda t: mk.transpose(t, (0,)),
        lambda t: mk.slice_axis(t, 4, 0, 1),
        lambda t: mk.slice_axis(t, -3, 0, 1),
        lambda t: mk.concat([t, t], axis=2),
    ], ids=["mean-5", "mean-neg3", "mean-repeat", "mean-repeat-neg", "norm-2", "norm-repeat",
            "transpose-repeat", "transpose-3-axes", "transpose-1-axis", "slice-4", "slice-neg3",
            "concat-2"])
    def test_bad_axes_rejected_naming_axes_and_shape(self, call):
        with pytest.raises(DimensionError, match=r"axes \(.*\).*\(2, 3\)"):
            call(Tensor(np.ones((2, 3))))

    def test_negative_axes_count_from_the_end(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((2, 3))
        np.testing.assert_array_equal(mk.mean_axes(Tensor(a), (-1,)).data, mk.mean_axes(Tensor(a), (1,)).data)
        np.testing.assert_array_equal(mk.slice_axis(Tensor(a), -1, 1, 2).data, a[:, 1:2])

    def test_reshape_of_a_contiguous_tensor_is_a_view_with_the_same_gradient(self):
        a = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
        out = mk.reshape(a, (2, 3, 2))
        assert np.shares_memory(out.data, a.data)
        backward(sum_all(hadamard(out, Tensor(np.arange(12.0).reshape(2, 3, 2)))))
        np.testing.assert_array_equal(a.grad, np.arange(12.0).reshape(3, 4))

    def test_transpose_with_negative_axes_sends_back_a_gradient_of_the_input_shape(self):
        a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        out = mk.transpose(a, (-1, 0))
        backward(sum_all(hadamard(out, Tensor(np.arange(6.0).reshape(3, 2)))))
        np.testing.assert_array_equal(a.grad, np.arange(6.0).reshape(3, 2).T)


# ---------------------------------------------------------------------------
# normalize


NORM_CASES = {
    "tokens": ((6, 5), (-1,)),
    "map": ((4, 3, 5), (0, 1)),
}


# every nonempty subset of a fused op's three parents, by index
TRACKED_SUBSETS = [t for n in (1, 2, 3) for t in itertools.combinations(range(3), n)]
TRACKED_IDS = ["-".join(("x", "gain", "bias")[i] for i in t) for t in TRACKED_SUBSETS]


def _norm_inputs(shape, seed):
    rng = np.random.default_rng(seed)
    channels = shape[-1]
    return (rng.uniform(-2, 2, shape), rng.uniform(0.5, 1.5, channels),
            rng.uniform(-0.5, 0.5, channels), rng.uniform(-1, 1, shape))


class TestNormalize:
    @pytest.mark.parametrize("case", sorted(NORM_CASES))
    def test_forward_and_gradients_match_the_composite_oracle(self, case):
        shape, axes = NORM_CASES[case]
        x, gain, bias, cot = _norm_inputs(shape, 11)
        results = []
        for op in (mk.normalize, normalize_oracle):
            tracked = [Tensor(a, requires_grad=True) for a in (x, gain, bias)]
            out = op(tracked[0], axes, tracked[1], tracked[2])
            backward(sum_all(hadamard(out, Tensor(cot))))
            results.append([out.data] + [t.grad for t in tracked])
        for name, got, want in zip(("forward", "dx", "dgain", "dbias"), *results):
            assert got.shape == want.shape, name
            assert np.max(np.abs(got - want)) < 1e-12, name

    @pytest.mark.parametrize("case", sorted(NORM_CASES))
    def test_gradients_match_finite_differences(self, case):
        shape, axes = NORM_CASES[case]
        x, gain, bias, cot = _norm_inputs(shape, 12)
        err, _ = finite_diff_gradcheck(
            lambda i: sum_all(hadamard(mk.normalize(i[0], axes, i[1], i[2]), Tensor(cot))),
            [Tensor(x), Tensor(gain), Tensor(bias)])
        assert err < 1e-6

    @pytest.mark.parametrize("tracked", TRACKED_SUBSETS, ids=TRACKED_IDS)
    @pytest.mark.parametrize("case", sorted(NORM_CASES))
    def test_tracked_parents_get_the_all_tracked_gradients_and_the_rest_none(self, case, tracked):
        # the one adjoint pass computes dx, dgain and dbias whichever are tracked; the tape keeps
        # only the tracked parents' edges
        shape, axes = NORM_CASES[case]
        *arrays, cot = _norm_inputs(shape, 13)
        every = [Tensor(a, requires_grad=True) for a in arrays]
        backward(sum_all(hadamard(mk.normalize(every[0], axes, every[1], every[2]), Tensor(cot))))
        inputs = [Tensor(a, requires_grad=i in tracked) for i, a in enumerate(arrays)]
        out = mk.normalize(inputs[0], axes, inputs[1], inputs[2])
        assert len(out._record.edges) == len(tracked)
        backward(sum_all(hadamard(out, Tensor(cot))))
        for i, (got, want) in enumerate(zip(inputs, every)):
            if i in tracked:
                np.testing.assert_array_equal(got.grad, want.grad)
            else:
                assert got.grad is None
        grads = [t.grad for t in inputs]
        with pytest.raises(UsageError, match="backward already ran through this normalize node"):
            backward(sum_all(hadamard(out, Tensor(cot))))
        assert all(t.grad is g for t, g in zip(inputs, grads))

    def test_affine_that_does_not_broadcast_to_the_input_rejected(self):
        with pytest.raises(DimensionError, match=r"\(3,\)"):
            mk.normalize(Tensor(np.ones((4, 2))), (-1,), Tensor(np.ones(3)), Tensor(np.zeros(2)))
        with pytest.raises(DimensionError):
            mk.normalize(Tensor(np.ones((4, 2))), (-1,), Tensor(np.ones((5, 4, 2))),
                         Tensor(np.zeros(2)))


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


def trunc_normal_rescan_oracle(rng, shape):
    """The full-rescan loop: redraw every out-of-range entry, rescan the whole array, repeat.

    Returns the draw and the number of redraw rounds it took.
    """
    x = rng.normal(0.0, mk.tensor.INIT_STD, size=shape)
    bad = np.abs(x) > 2.0 * mk.tensor.INIT_STD
    rounds = 0
    while bad.any():
        x[bad] = rng.normal(0.0, mk.tensor.INIT_STD, size=int(bad.sum()))
        bad = np.abs(x) > 2.0 * mk.tensor.INIT_STD
        rounds += 1
    return x, rounds


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("shape", [(0,), (1,), (7,), (64, 64), (3, 3, 32, 64), (512, 1536)])
def test_trunc_normal_matches_the_full_rescan_draw_for_draw(shape, seed):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = mk.trunc_normal(rng, shape)
    want, rounds = trunc_normal_rescan_oracle(ref_rng, shape)
    if shape == (512, 1536):
        assert rounds >= 3  # the redraws of redraws are exercised
    assert np.array_equal(got, want)
    # later parameters of build_backbone draw from the same generator
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert got.shape == shape and got.flags.c_contiguous
    assert np.all(np.abs(got) <= 2.0 * mk.tensor.INIT_STD)


def test_trunc_normal_is_bounded_and_deterministic():
    a = mk.trunc_normal(np.random.default_rng(5), (1000,))
    b = mk.trunc_normal(np.random.default_rng(5), (1000,))
    np.testing.assert_array_equal(a, b)
    assert np.max(np.abs(a)) <= 0.04
