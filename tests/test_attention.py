"""Attention kernels against brute-force oracles and each other."""

import math
import tracemalloc

import numpy as np
import pytest

from masa_kit import (ConfigurationError, DimensionError, GridShape, MaSAConfig,
                      Tensor, UsageError, attention_score_apply_macs, backward, bi_retention,
                      count_macs, decay_axial_pair, decay_bidirectional_1d, decay_manhattan_2d,
                      decayed_attention, gamma_schedule, hadamard, init_masa_params, lce,
                      masa_decomposed, masa_full, masa_layer_forward, matmul, mul_scalar,
                      retention_parallel, retention_recurrent, softmax_last, sum_all, tape_for,
                      transpose)
from masa_kit import tensor as tensor_module
from masa_kit.train import finite_diff_gradcheck


def rand(rng, *shape):
    return Tensor(rng.standard_normal(shape))


def np_softmax_rows(logits):
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def manhattan_weights(height, width, gamma):
    n = np.arange(height * width)
    x, y = n % width, n // width
    return gamma ** (np.abs(x[:, None] - x[None, :]) + np.abs(y[:, None] - y[None, :]))


def masa_full_oracle(q, k, v, height, width, gamma):
    logits = q @ k.T / math.sqrt(q.shape[1])
    weights = np_softmax_rows(logits)
    if gamma is not None:
        weights = weights * manhattan_weights(height, width, gamma)
    return weights @ v


def composite_attend(q, k, v, decay, scale):
    """The unfused MaSA step on the tape, one op each: logits, scale, softmax, decay, apply."""
    n = k.ndim
    logits = mul_scalar(matmul(q, transpose(k, tuple(range(n - 2)) + (n - 1, n - 2))), scale)
    weights = softmax_last(logits)
    if decay is not None:
        weights = hadamard(weights, decay)
    return matmul(weights, v)


def kron_decay(a, b):
    """The [..., L, L] decay the factor pair stands for, built whole with batched np.kron."""
    a, b = np.asarray(a), np.asarray(b)
    full = a[..., :, None, :, None] * b[..., None, :, None, :]
    length = a.shape[-1] * b.shape[-1]
    return full.reshape(full.shape[:-4] + (length, length))


# ---------------------------------------------------------------------------
# retention


class TestRetention:
    def test_single_token(self):
        rng = np.random.default_rng(0)
        q, k, v = rand(rng, 1, 4), rand(rng, 1, 4), rand(rng, 1, 4)
        expected = (q.data @ k.data.T).item() * v.data
        np.testing.assert_allclose(retention_recurrent(q, k, v, 0.5).data, expected, atol=1e-14)
        np.testing.assert_allclose(retention_parallel(q, k, v, 0.5).data, expected, atol=1e-14)

    def test_two_step_unroll(self):
        rng = np.random.default_rng(1)
        q, k, v = rand(rng, 2, 3), rand(rng, 2, 3), rand(rng, 2, 3)
        out = retention_recurrent(q, k, v, 0.5)
        o1 = (float(q.data[1] @ k.data[1]) * v.data[1]
              + 0.5 * float(q.data[1] @ k.data[0]) * v.data[0])
        np.testing.assert_allclose(out.data[1], o1, atol=1e-14)

    def test_constant_inputs_closed_form(self):
        d, gamma = 4, 0.5
        ones = Tensor(np.ones((3, d)))
        out = retention_parallel(ones, ones, ones, gamma)
        for n in range(3):
            expected = sum(gamma ** (n - m) * d for m in range(n + 1))
            np.testing.assert_allclose(out.data[n], np.full(d, expected), atol=1e-13)

    @pytest.mark.parametrize("gamma", [0.3, 0.7, 0.95])
    @pytest.mark.parametrize("length,dim", [(1, 1), (5, 3), (16, 8)])
    def test_recurrent_equals_parallel(self, length, dim, gamma):
        rng = np.random.default_rng(length * 100 + dim)
        q, k, v = (rand(rng, length, dim) for _ in range(3))
        rec = retention_recurrent(q, k, v, gamma)
        par = retention_parallel(q, k, v, gamma)
        assert np.max(np.abs(rec.data - par.data)) < 1e-10

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(2)
        with pytest.raises(DimensionError):
            retention_parallel(rand(rng, 3, 2), rand(rng, 3, 2), rand(rng, 4, 2), 0.5)

    def test_degenerate_gamma_rejected(self):
        rng = np.random.default_rng(3)
        q = rand(rng, 2, 2)
        with pytest.raises(ConfigurationError):
            retention_recurrent(q, q, q, 1.0)


class TestBiRetention:
    def test_single_token(self):
        rng = np.random.default_rng(4)
        q, k, v = rand(rng, 1, 3), rand(rng, 1, 3), rand(rng, 1, 3)
        expected = (q.data @ k.data.T).item() * v.data
        np.testing.assert_allclose(bi_retention(q, k, v, 0.4).data, expected, atol=1e-14)

    def test_score_matrix_symmetric_for_equal_q_and_k(self):
        rng = np.random.default_rng(5)
        q = rand(rng, 4, 3)
        gamma = 0.6
        scores = (q.data @ q.data.T) * (gamma ** np.abs(np.subtract.outer(np.arange(4), np.arange(4))))
        np.testing.assert_allclose(scores, scores.T, atol=1e-14)

    def test_against_double_loop_oracle(self):
        rng = np.random.default_rng(6)
        length, dim = 4, 3
        q, k, v = (rand(rng, length, dim) for _ in range(3))
        out = bi_retention(q, k, v, 0.55)
        expected = np.zeros((length, dim))
        for n in range(length):
            for m in range(length):
                expected[n] += 0.55 ** abs(n - m) * float(q.data[n] @ k.data[m]) * v.data[m]
        assert np.max(np.abs(out.data - expected)) < 1e-12


# ---------------------------------------------------------------------------
# Manhattan attention


class TestMasaFull:
    def test_single_token_returns_v(self):
        rng = np.random.default_rng(7)
        q, k, v = (rand(rng, 1, 5) for _ in range(3))
        np.testing.assert_allclose(masa_full(q, k, v, GridShape(1, 1), 0.5).data, v.data,
                                   atol=1e-15)

    def test_no_decay_escape_is_vanilla_attention(self):
        rng = np.random.default_rng(8)
        grid = GridShape(3, 3)
        q, k, v = (rand(rng, grid.size, 4) for _ in range(3))
        out = masa_full(q, k, v, grid, None)
        expected = masa_full_oracle(q.data, k.data, v.data, 3, 3, None)
        assert np.max(np.abs(out.data - expected)) < 1e-12

    def test_against_brute_force_oracle(self):
        rng = np.random.default_rng(9)
        grid = GridShape(2, 2)
        q, k, v = (rand(rng, 4, 3) for _ in range(3))
        out = masa_full(q, k, v, grid, 0.5)
        expected = masa_full_oracle(q.data, k.data, v.data, 2, 2, 0.5)
        assert np.max(np.abs(out.data - expected)) < 1e-12

    def test_rows_not_renormalized_after_decay(self):
        # with all-ones V each output entry is a weight-row sum; decay shrinks
        # off-diagonal weight, so the sums drop below one and must stay there
        rng = np.random.default_rng(10)
        grid = GridShape(2, 3)
        q, k = rand(rng, 6, 2), rand(rng, 6, 2)
        v = Tensor(np.ones((6, 2)))
        row_sums = masa_full(q, k, v, grid, 0.3).data
        assert (row_sums < 1.0 - 1e-6).all()

    def test_token_count_mismatch_rejected(self):
        rng = np.random.default_rng(11)
        with pytest.raises(DimensionError):
            masa_full(rand(rng, 5, 2), rand(rng, 5, 2), rand(rng, 5, 2), GridShape(2, 2), 0.5)


class TestMasaDecomposed:
    def test_single_token_returns_v(self):
        rng = np.random.default_rng(12)
        q, k, v = (rand(rng, 1, 5) for _ in range(3))
        np.testing.assert_allclose(masa_decomposed(q, k, v, GridShape(1, 1), 0.5).data,
                                   v.data, atol=1e-15)

    @pytest.mark.parametrize("height", range(1, 7))
    @pytest.mark.parametrize("width", range(1, 7))
    def test_uniform_query_equals_full_form(self, height, width):
        rng = np.random.default_rng(height * 10 + width)
        grid = GridShape(height, width)
        q = Tensor(np.zeros((grid.size, 3)))
        k, v = rand(rng, grid.size, 3), rand(rng, grid.size, 3)
        full = masa_full(q, k, v, grid, 0.5)
        split = masa_decomposed(q, k, v, grid, 0.5)
        assert np.max(np.abs(full.data - split.data)) < 1e-12

    @pytest.mark.parametrize("width", [1, 4, 7])
    def test_strip_grid_equals_full_form_for_any_query(self, width):
        rng = np.random.default_rng(width)
        grid = GridShape(1, width)
        q, k, v = (rand(rng, width, 3) for _ in range(3))
        full = masa_full(q, k, v, grid, 0.7)
        split = masa_decomposed(q, k, v, grid, 0.7)
        assert np.max(np.abs(full.data - split.data)) < 1e-12

    def test_tall_strip_equals_full_form(self):
        rng = np.random.default_rng(13)
        grid = GridShape(5, 1)
        q, k, v = (rand(rng, 5, 2) for _ in range(3))
        assert np.max(np.abs(masa_full(q, k, v, grid, 0.6).data
                             - masa_decomposed(q, k, v, grid, 0.6).data)) < 1e-12


class TestLce:
    def test_delta_kernel_is_identity(self):
        rng = np.random.default_rng(14)
        v = rand(rng, 6, 3)
        kernel = np.zeros((3, 5, 5))
        kernel[:, 2, 2] = 1.0
        out = lce(v, GridShape(2, 3), Tensor(kernel))
        np.testing.assert_allclose(out.data, v.data, atol=1e-15)

    def test_zero_kernel_gives_zeros(self):
        rng = np.random.default_rng(15)
        v = rand(rng, 4, 2)
        out = lce(v, GridShape(2, 2), Tensor(np.zeros((2, 3, 3))))
        np.testing.assert_array_equal(out.data, np.zeros((4, 2)))

    def test_against_loop_oracle(self):
        rng = np.random.default_rng(16)
        grid = GridShape(3, 3)
        v = rand(rng, 9, 2)
        kernel = rand(rng, 2, 3, 3)
        out = lce(v, grid, kernel)
        image = v.data.T.reshape(2, 3, 3)
        expected = np.zeros_like(image)
        for c in range(2):
            for i in range(3):
                for j in range(3):
                    for di in range(3):
                        for dj in range(3):
                            ii, jj = i + di - 1, j + dj - 1
                            if 0 <= ii < 3 and 0 <= jj < 3:
                                expected[c, i, j] += kernel.data[c, di, dj] * image[c, ii, jj]
        assert np.max(np.abs(out.data - expected.reshape(2, 9).T)) < 1e-12


# ---------------------------------------------------------------------------
# multi-head layer


def _layer_setup(rng, dim=4, heads=2, decomposed=False, grid=GridShape(2, 2)):
    config = MaSAConfig(dim=dim, num_heads=heads, decomposed=decomposed,
                        decay=gamma_schedule(2, 8, heads), lce_kernel=3)
    params = init_masa_params(config, rng)
    x = rand(rng, grid.size, dim)
    return config, params, x


class TestMasaLayer:
    def test_single_token_identity_projection(self):
        rng = np.random.default_rng(17)
        dim = 4
        config = MaSAConfig(dim=dim, num_heads=2, decomposed=False,
                            decay=gamma_schedule(2, 8, 2), lce_kernel=3)
        params = init_masa_params(config, rng)
        params.wo = Tensor(np.eye(dim), requires_grad=True)
        delta = np.zeros((dim, 3, 3))
        delta[:, 1, 1] = 1.0
        params.lce_kernel_weights = Tensor(delta, requires_grad=True)
        x = rand(rng, 1, dim)
        out = masa_layer_forward(x, params, config, GridShape(1, 1))
        np.testing.assert_allclose(out.data, 2.0 * (x.data @ params.wv.data), atol=1e-14)

    def test_zero_value_projection_kills_output(self):
        rng = np.random.default_rng(18)
        config, params, x = _layer_setup(rng)
        params.wv = Tensor(np.zeros((4, 4)), requires_grad=True)
        out = masa_layer_forward(x, params, config, GridShape(2, 2))
        np.testing.assert_array_equal(out.data, np.zeros((4, 4)))

    def test_against_per_head_oracle(self):
        rng = np.random.default_rng(19)
        grid = GridShape(2, 2)
        config, params, x = _layer_setup(rng, dim=4, heads=2, decomposed=False, grid=grid)
        out = masa_layer_forward(x, params, config, grid)

        q = x.data @ params.wq.data
        k = x.data @ params.wk.data
        v = x.data @ params.wv.data
        head_outs = []
        for i, gamma in enumerate(config.decay.gammas):
            sl = slice(i * 2, (i + 1) * 2)
            head_outs.append(masa_full_oracle(q[:, sl], k[:, sl], v[:, sl], 2, 2, gamma))
        attn = np.concatenate(head_outs, axis=1)
        image = v.T.reshape(4, 2, 2)
        local = np.zeros_like(image)
        kw = params.lce_kernel_weights.data
        for c in range(4):
            for i in range(2):
                for j in range(2):
                    for di in range(3):
                        for dj in range(3):
                            ii, jj = i + di - 1, j + dj - 1
                            if 0 <= ii < 2 and 0 <= jj < 2:
                                local[c, i, j] += kw[c, di, dj] * image[c, ii, jj]
        expected = (attn + local.reshape(4, 4).T) @ params.wo.data
        assert np.max(np.abs(out.data - expected)) < 1e-12

    def test_decomposed_layer_runs_and_matches_kernel_composition(self):
        rng = np.random.default_rng(20)
        grid = GridShape(2, 3)
        config, params, x = _layer_setup(rng, dim=4, heads=2, decomposed=True, grid=grid)
        out = masa_layer_forward(x, params, config, grid)
        assert out.shape == (6, 4)

        q, k, v = (x.data @ w.data for w in (params.wq, params.wk, params.wv))
        head_outs = []
        for i, gamma in enumerate(config.decay.gammas):
            sl = slice(i * 2, (i + 1) * 2)
            head_outs.append(masa_decomposed(Tensor(q[:, sl]), Tensor(k[:, sl]), Tensor(v[:, sl]),
                                             grid, gamma).data)
        local = lce(Tensor(v), grid, params.lce_kernel_weights).data
        expected = (np.concatenate(head_outs, axis=1) + local) @ params.wo.data
        assert np.max(np.abs(out.data - expected)) < 1e-12

    def test_config_params_mismatch_rejected(self):
        rng = np.random.default_rng(21)
        config, params, x = _layer_setup(rng)
        params.wq = Tensor(np.zeros((3, 3)), requires_grad=True)
        with pytest.raises(ConfigurationError):
            masa_layer_forward(x, params, config, GridShape(2, 2))

    def test_head_mismatch_in_config_rejected(self):
        with pytest.raises(ConfigurationError):
            MaSAConfig(dim=4, num_heads=2, decomposed=False, decay=gamma_schedule(2, 8, 3))

    def test_indivisible_heads_rejected(self):
        with pytest.raises(ConfigurationError):
            MaSAConfig(dim=5, num_heads=2, decomposed=False, decay=gamma_schedule(2, 8, 2))


# ---------------------------------------------------------------------------
# the fused decayed-attention op against the composite oracle


def _per_head_factors(heads, height, width):
    gammas = gamma_schedule(2, 8, heads).gammas
    return (np.stack([decay_bidirectional_1d(height, g).data for g in gammas]),
            np.stack([decay_bidirectional_1d(width, g).data for g in gammas]))


def _fused_case(name):
    """(q/k/v shape, factor arrays or None, scale) for one named case."""
    if name == "no-decay":
        return (6, 4), None, 1.0
    if name in ("grid-2x3", "grid-3x5"):
        height, width = (2, 3) if name == "grid-2x3" else (3, 5)
        d_h, d_w = decay_axial_pair(GridShape(height, width), 0.7)
        return (height * width, 4), (d_h.data, d_w.data), 0.5
    if name == "axis-1d":
        return (3, 5, 4), (np.ones((1, 1)), decay_bidirectional_1d(5, 0.6).data), 0.5
    if name == "per-head-full":
        return (2, 6, 3), _per_head_factors(2, 2, 3), 1 / math.sqrt(3)
    if name == "per-head-axis":
        _, d_w = _per_head_factors(3, 2, 5)
        return (3, 2, 5, 4), (np.ones((1, 1)), d_w[:, None]), 0.5
    raise ValueError(name)


_FUSED_CASES = ["no-decay", "grid-2x3", "grid-3x5", "axis-1d", "per-head-full",
                "per-head-axis"]


class TestDecayedAttention:
    @pytest.mark.parametrize("block_elements", [1 << 20, 1, 37], ids=["one-block", "row-blocks",
                                                                       "ragged-blocks"])
    @pytest.mark.parametrize("name", _FUSED_CASES)
    def test_forward_and_gradients_match_composite_oracle(self, monkeypatch, name, block_elements):
        monkeypatch.setattr(tensor_module, "ATTENTION_BLOCK_ELEMENTS", block_elements)
        shape, factors, scale = _fused_case(name)
        rng = np.random.default_rng(30)
        arrays = [rng.standard_normal(shape) for _ in range(4)]
        cotangent = Tensor(arrays.pop())
        decay = None if factors is None else Tensor(kron_decay(*factors))
        grads = []
        for op in (lambda q, k, v: decayed_attention(
                       q, k, v, None if factors is None else tuple(map(Tensor, factors)), scale),
                   lambda q, k, v: composite_attend(q, k, v, decay, scale)):
            q, k, v = (Tensor(a, requires_grad=True) for a in arrays)
            out = op(q, k, v)
            backward(sum_all(hadamard(out, cotangent)))
            grads.append([out.data, q.grad, k.grad, v.grad])
        for fused, oracle in zip(*grads):
            assert np.max(np.abs(fused - oracle)) < 1e-12

    def test_ragged_budget_leaves_a_short_last_block(self, monkeypatch):
        monkeypatch.setattr(tensor_module, "ATTENTION_BLOCK_ELEMENTS", 37)
        # grid-3x5: 37 // 15 = 2 rows a block; axis-1d: batch 3 of 5 keys, 37 // 15 = 2 rows
        assert tensor_module._row_blocks(1, 15) == [(i, min(i + 2, 15)) for i in range(0, 15, 2)]
        assert tensor_module._row_blocks(3, 5) == [(0, 2), (2, 4), (4, 5)]

    def test_kronecker_factors_give_the_manhattan_decay(self):
        grid = GridShape(3, 5)
        d_h, d_w = decay_axial_pair(grid, 0.7)
        np.testing.assert_allclose(kron_decay(d_h.data, d_w.data),
                                   decay_manhattan_2d(grid, 0.7).data, rtol=1e-15)

    def test_gradcheck_across_several_blocks(self, monkeypatch):
        monkeypatch.setattr(tensor_module, "ATTENTION_BLOCK_ELEMENTS", 20)
        grid = GridShape(2, 3)
        factors = decay_axial_pair(grid, 0.6)
        rng = np.random.default_rng(31)
        q, k, v = (Tensor(rng.uniform(-1, 1, (2, grid.size, 3))) for _ in range(3))
        err, _ = finite_diff_gradcheck(
            lambda i: sum_all(decayed_attention(i[0], i[1], i[2], factors, 0.8)), [q, k, v],
            eps=1e-6)
        assert err < 1e-6

    def test_macs_counted_in_forward_only(self):
        rng = np.random.default_rng(32)
        grid = GridShape(3, 4)
        for kernel, mode in ((masa_full, "full"), (masa_decomposed, "decomposed")):
            q, k, v = (Tensor(rng.standard_normal((grid.size, 5)), requires_grad=True)
                       for _ in range(3))
            with count_macs() as forward:
                loss = sum_all(kernel(q, k, v, grid, 0.5))
            with count_macs() as adjoint:
                backward(loss)
            assert forward.total == attention_score_apply_macs(mode, 3, 4, 5)
            assert adjoint.total == 0

    def test_masa_full_is_one_node_on_the_tape(self):
        rng = np.random.default_rng(33)
        grid = GridShape(3, 3)
        q, k, v = (Tensor(rng.standard_normal((grid.size, 4)), requires_grad=True) for _ in range(3))
        out = masa_full(q, k, v, grid, 0.8)
        nodes = tape_for(sum_all(out)).nodes
        assert len(nodes) == 5 and out in nodes and set(out._parents) == {q, k, v}

    def test_forward_backward_memory_stays_far_below_the_n_by_n_arrays(self):
        # side 64: one 4096 x 4096 float64 array is 128 MB, and the composite step kept five
        rng = np.random.default_rng(34)
        grid = GridShape(64, 64)
        q, k, v = (Tensor(rng.standard_normal((grid.size, 32)), requires_grad=True)
                   for _ in range(3))
        tracemalloc.start()
        try:
            backward(sum_all(masa_full(q, k, v, grid, 0.9)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100 * 2 ** 20

    def test_bad_shapes_and_tracked_factors_rejected(self):
        rng = np.random.default_rng(35)
        q = rand(rng, 2, 6, 3)
        d_h, d_w = decay_axial_pair(GridShape(2, 3), 0.5)
        with pytest.raises(DimensionError):
            decayed_attention(q, rand(rng, 2, 5, 3), q, None, None)
        with pytest.raises(DimensionError):
            decayed_attention(q, q, rand(rng, 2, 5, 3), None, None)
        with pytest.raises(DimensionError):
            decayed_attention(q, q, q, (d_w, d_w), None)
        with pytest.raises(DimensionError):
            decayed_attention(q, q, q, (Tensor(np.ones((3, 2, 2))), d_w), None)
        with pytest.raises(UsageError):
            decayed_attention(q, q, q, (d_h, Tensor(d_w.data, requires_grad=True)), None)


# ---------------------------------------------------------------------------
# gradients and MAC accounting


@pytest.mark.parametrize("kernel,grid", [(masa_full, GridShape(2, 2)),
                                         (masa_decomposed, GridShape(2, 3))])
def test_attention_gradients_match_finite_differences(kernel, grid):
    rng = np.random.default_rng(22)
    q, k, v = (Tensor(rng.uniform(-1, 1, (grid.size, 3))) for _ in range(3))
    err, _ = finite_diff_gradcheck(
        lambda i: sum_all(kernel(i[0], i[1], i[2], grid, 0.6)), [q, k, v], eps=1e-6)
    assert err < 1e-6


@pytest.mark.parametrize("kernel", [retention_parallel, retention_recurrent, bi_retention])
def test_retention_gradients_match_finite_differences(kernel):
    rng = np.random.default_rng(25)
    q, k, v = (Tensor(rng.uniform(-1, 1, (3, 2))) for _ in range(3))
    err, _ = finite_diff_gradcheck(
        lambda i: sum_all(kernel(i[0], i[1], i[2], 0.5)), [q, k, v], eps=1e-6)
    assert err < 1e-6


@pytest.mark.parametrize("decomposed,grid", [(False, GridShape(1, 2)), (True, GridShape(2, 3))],
                         ids=["full", "decomposed"])
def test_layer_gradients_match_finite_differences(decomposed, grid):
    rng = np.random.default_rng(26)
    config = MaSAConfig(dim=4, num_heads=2, decomposed=decomposed,
                        decay=gamma_schedule(2, 8, 2), lce_kernel=3)
    x = Tensor(rng.uniform(-1, 1, (grid.size, 4)))
    weights = [Tensor(0.3 * rng.uniform(-1, 1, (4, 4))) for _ in range(4)]
    kernel = Tensor(0.3 * rng.uniform(-1, 1, (4, 3, 3)))

    def closure(inputs):
        from masa_kit import MaSAParams
        params = MaSAParams(wq=inputs[1], wk=inputs[2], wv=inputs[3], wo=inputs[4],
                            lce_kernel_weights=inputs[5])
        return sum_all(masa_layer_forward(inputs[0], params, config, grid))

    err, _ = finite_diff_gradcheck(closure, [x] + weights + [kernel], eps=1e-6)
    assert err < 1e-6


class TestMacAccounting:
    def test_full_runtime_count_matches_analytic(self):
        rng = np.random.default_rng(23)
        grid = GridShape(3, 4)
        q, k, v = (rand(rng, grid.size, 5) for _ in range(3))
        with count_macs() as counter:
            masa_full(q, k, v, grid, 0.5)
        assert counter.total == attention_score_apply_macs("full", 3, 4, 5)

    def test_decomposed_runtime_count_matches_analytic(self):
        rng = np.random.default_rng(24)
        grid = GridShape(3, 4)
        q, k, v = (rand(rng, grid.size, 5) for _ in range(3))
        with count_macs() as counter:
            masa_decomposed(q, k, v, grid, 0.5)
        assert counter.total == attention_score_apply_macs("decomposed", 3, 4, 5)

    def test_vanilla_equals_full(self):
        assert (attention_score_apply_macs("vanilla", 7, 7, 16)
                == attention_score_apply_macs("full", 7, 7, 16))

    def test_decomposed_cheaper_from_side_three(self):
        for side in range(3, 33):
            assert (attention_score_apply_macs("decomposed", side, side, 8)
                    < attention_score_apply_macs("full", side, side, 8))

    def test_known_ratios(self):
        full = attention_score_apply_macs("full", 56, 56, 64)
        split = attention_score_apply_macs("decomposed", 56, 56, 64)
        assert split * 3136 == full * 112          # ratio (H + W) / N
        full14 = attention_score_apply_macs("full", 14, 14, 32)
        split14 = attention_score_apply_macs("decomposed", 14, 14, 32)
        assert full14 == 7 * split14

    def test_doubling_the_side(self):
        for side in (4, 8):
            assert (attention_score_apply_macs("full", 2 * side, 2 * side, 16)
                    == 16 * attention_score_apply_macs("full", side, side, 16))
            assert (attention_score_apply_macs("decomposed", 2 * side, 2 * side, 16)
                    == 8 * attention_score_apply_macs("decomposed", side, side, 16))
