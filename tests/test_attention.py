"""Attention kernels against brute-force oracles and each other."""

import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from masa_kit import (ConfigurationError, DimensionError, GridShape, MaSAConfig,
                      Tensor, UsageError, attention_score_apply_macs, backward, bi_retention,
                      count_macs, decay_axial_kernels, decay_manhattan_2d,
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


def axis_decay(length, gamma):
    """gamma**|i - j| along one axis: [L, L], or [heads, L, L] for a tuple of rates."""
    if not isinstance(gamma, tuple):
        return manhattan_weights(1, length, gamma)
    return np.stack([manhattan_weights(1, length, g) for g in gamma])


def masa_decomposed_oracle(q, k, v, height, width, gamma):
    """[N, ..., d] arrays attended along each row with the width decay, then each column
    with the height decay, each pass the composite step of ``composite_attend``."""
    def image(a):
        return a.reshape((height, width) + a.shape[1:])

    def attend(q, k, v, axis, length):
        """One pass along ``axis`` of [H, W, ..., d] images, run with that axis next to d."""
        decay = None if gamma is None else Tensor(axis_decay(length, gamma))
        q, k, v = (Tensor(np.moveaxis(a, axis, -2)) for a in (q, k, v))
        out = composite_attend(q, k, v, decay, 1 / math.sqrt(q.shape[-1])).data
        return np.moveaxis(out, -2, axis)
    rows = attend(image(q), image(k), image(v), 1, width)
    return attend(image(q), image(k), rows, 0, height).reshape(v.shape)


def composite_attend(q, k, v, decay, scale):
    """The unfused MaSA step on the tape, one op each: logits, scale, softmax, decay, apply."""
    n = k.ndim
    logits = mul_scalar(matmul(q, transpose(k, tuple(range(n - 2)) + (n - 1, n - 2))), scale)
    weights = softmax_last(logits)
    if decay is not None:
        weights = hadamard(weights, decay)
    return matmul(weights, v)


def kernel_decay(a, b):
    """The [..., L, L] decay the axial kernels stand for, indexed entry by entry from the
    token coordinates: D[n, m] = a[y_m - y_n + Ha - 1] * b[x_m - x_n + Wb - 1]."""
    a, b = np.asarray(a), np.asarray(b)
    ha, wb = (a.shape[-1] + 1) // 2, (b.shape[-1] + 1) // 2
    x, y = GridShape(ha, wb).coords(np.arange(ha * wb))
    return a[..., y[None, :] - y[:, None] + ha - 1] * b[..., x[None, :] - x[:, None] + wb - 1]


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
        with pytest.raises(ConfigurationError, match=r"decay rate must lie strictly inside \(0, 1\), got 1.0"):
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

    @pytest.mark.parametrize("lead,gamma", [((), 0.6), ((), None), ((3,), (0.3, 0.6, 0.9)),
                                            ((3,), 0.6), ((2, 2), (0.5, 0.8))],
                             ids=["2-d", "2-d-no-decay", "heads", "heads-one-rate", "heads-and-batch"])
    @pytest.mark.parametrize("height,width", [(2, 3), (3, 5), (4, 4), (1, 4), (5, 1)])
    def test_against_rows_then_columns_oracle(self, lead, gamma, height, width):
        rng = np.random.default_rng(height * 10 + width)
        q, k, v = (rng.standard_normal((height * width,) + lead + (3,)) for _ in range(3))
        out = masa_decomposed(Tensor(q), Tensor(k), Tensor(v), GridShape(height, width), gamma)
        expected = masa_decomposed_oracle(q, k, v, height, width, gamma)
        assert np.max(np.abs(out.data - expected)) < 1e-12

    def test_two_d_input_keeps_its_six_op_tape(self):
        # three token images, one pass along each grid axis, one reshape back: no transposes
        rng = np.random.default_rng(40)
        grid = GridShape(2, 3)
        q, k, v = (Tensor(rng.standard_normal((grid.size, 4)), requires_grad=True) for _ in range(3))
        records = tape_for(masa_decomposed(q, k, v, grid, 0.8)).records
        ops = sorted(r.op for r in records if r.edges)
        assert ops == ["decayed_attention"] * 2 + ["reshape"] * 4

    def test_tall_strip_equals_full_form(self):
        rng = np.random.default_rng(13)
        grid = GridShape(5, 1)
        q, k, v = (rand(rng, 5, 2) for _ in range(3))
        assert np.max(np.abs(masa_full(q, k, v, grid, 0.6).data
                             - masa_decomposed(q, k, v, grid, 0.6).data)) < 1e-12


@pytest.mark.parametrize("kernel", [masa_full, masa_decomposed])
class TestHeadAxis:
    """A tuple of rates gives each entry of the axis before the features (the heads) its own decay."""

    def test_equals_the_stacked_single_rate_calls_with_their_gradients(self, kernel):
        rng = np.random.default_rng(41)
        grid, gammas = GridShape(2, 3), (0.3, 0.6, 0.9)
        arrays = [rng.standard_normal((grid.size, 3, 4)) for _ in range(4)]
        q, k, v = (Tensor(a, requires_grad=True) for a in arrays[:3])
        out = kernel(q, k, v, grid, gammas)
        backward(sum_all(hadamard(out, Tensor(arrays[3]))))
        for h, gamma in enumerate(gammas):
            qh, kh, vh = (Tensor(a[:, h], requires_grad=True) for a in arrays[:3])
            head = kernel(qh, kh, vh, grid, gamma)
            backward(sum_all(hadamard(head, Tensor(arrays[3][:, h]))))
            assert np.max(np.abs(out.data[:, h] - head.data)) < 1e-12
            for batched, single in ((q, qh), (k, kh), (v, vh)):
                assert np.max(np.abs(batched.grad[:, h] - single.grad)) < 1e-12

    @pytest.mark.parametrize("grid,shape,gammas", [
        ((2, 3), (6, 4), (0.5, 0.7)), ((2, 3), (6, 4), (0.5,) * 6), ((2, 3), (6, 3, 4), (0.5, 0.7)),
        ((2, 3), (6, 2, 4), (0.5,)), ((2, 3), (6, 3, 4), ()),
        # the decomposed form's [2, 2, d] token image has an axis before d as long as the tuple
        ((2, 2), (4, 4), (0.5, 0.7))],
        ids=["2-d", "2-d-one-rate-per-token", "too-few", "too-one", "none", "2-d-one-rate-per-row"])
    def test_a_rate_tuple_that_does_not_match_the_head_axis_rejected(self, kernel, grid, shape,
                                                                      gammas):
        rng = np.random.default_rng(42)
        q = rand(rng, *shape)
        with pytest.raises(DimensionError, match="decay rates"):
            kernel(q, q, q, GridShape(*grid), gammas)


class TestLce:
    def test_delta_kernel_is_identity(self):
        rng = np.random.default_rng(14)
        v = rand(rng, 6, 3)
        kernel = np.zeros((5, 5, 3))
        kernel[2, 2] = 1.0
        out = lce(v, GridShape(2, 3), Tensor(kernel))
        np.testing.assert_allclose(out.data, v.data, atol=1e-15)

    def test_zero_kernel_gives_zeros(self):
        rng = np.random.default_rng(15)
        v = rand(rng, 4, 2)
        out = lce(v, GridShape(2, 2), Tensor(np.zeros((3, 3, 2))))
        np.testing.assert_array_equal(out.data, np.zeros((4, 2)))

    def test_against_loop_oracle(self):
        rng = np.random.default_rng(16)
        grid = GridShape(3, 3)
        v = rand(rng, 9, 2)
        kernel = Tensor(rng.standard_normal((2, 3, 3)).transpose(1, 2, 0))
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
                                expected[c, i, j] += kernel.data[di, dj, c] * image[c, ii, jj]
        assert np.max(np.abs(out.data - expected.reshape(2, 9).T)) < 1e-12


# ---------------------------------------------------------------------------
# multi-head layer


def _layer_setup(rng, dim=4, heads=2, decomposed=False, grid=GridShape(2, 2)):
    config = MaSAConfig(dim=dim, num_heads=heads, decomposed=decomposed,
                        decay=gamma_schedule(2, 8, heads))
    params = init_masa_params(config, rng)
    x = rand(rng, grid.size, dim)
    return config, params, x


class TestMasaLayer:
    def test_single_token_identity_projection(self):
        rng = np.random.default_rng(17)
        dim = 4
        config = MaSAConfig(dim=dim, num_heads=2, decomposed=False,
                            decay=gamma_schedule(2, 8, 2))
        params = init_masa_params(config, rng)
        params.wo = Tensor(np.eye(dim), requires_grad=True)
        delta = np.zeros((3, 3, dim))
        delta[1, 1] = 1.0
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
        for i, gamma in enumerate(config.decay):
            sl = slice(i * 2, (i + 1) * 2)
            head_outs.append(masa_full_oracle(q[:, sl], k[:, sl], v[:, sl], 2, 2, gamma))
        attn = np.concatenate(head_outs, axis=1)
        image = v.T.reshape(4, 2, 2)
        local = np.zeros_like(image)
        kw = params.lce_kernel_weights.data
        k_sz = kw.shape[0]
        for c in range(4):
            for i in range(2):
                for j in range(2):
                    for di in range(k_sz):
                        for dj in range(k_sz):
                            ii, jj = i + di - k_sz // 2, j + dj - k_sz // 2
                            if 0 <= ii < 2 and 0 <= jj < 2:
                                local[c, i, j] += kw[di, dj, c] * image[c, ii, jj]
        expected = (attn + local.reshape(4, 4).T) @ params.wo.data
        assert np.max(np.abs(out.data - expected)) < 1e-12

    @pytest.mark.parametrize("decomposed", [False, True], ids=["full", "decomposed"])
    def test_a_layer_whose_intermediates_were_freed_gets_the_gradients_of_one_that_kept_them(
            self, decomposed, keep_every_value):
        # the values no adjoint reads (the projections before the head split) are freed in the
        # forward; that graph gets the gradients of the same graph with every value kept, bit
        # for bit, and a second loss through it is refused
        grid = GridShape(2, 3)
        rng = np.random.default_rng(50)
        config, params, x = _layer_setup(rng, dim=4, heads=2, decomposed=decomposed, grid=grid)
        x = Tensor(x.data, requires_grad=True)
        leaves = [x, params.wq, params.wk, params.wv, params.wo, params.lce_kernel_weights]
        cot = rand(rng, grid.size, 4)

        def grads(out):
            for t in leaves:
                t.zero_grad()
            backward(sum_all(hadamard(out, cot)))
            return [t.grad for t in leaves]
        out = masa_layer_forward(x, params, config, grid)
        keep_every_value.clear()  # now only the tape and the caller hold out's graph
        tape = tape_for(out)
        assert len(tape.nodes) < len(tape.records)
        kept = masa_layer_forward(x, params, config, grid)
        tape = tape_for(kept)
        assert len(tape.nodes) == len(tape.records)
        whole = grads(kept)
        freed = grads(out)
        for got, want in zip(freed, whole):
            np.testing.assert_array_equal(got, want)
        with pytest.raises(UsageError, match="backward already ran through this matmul node"):
            backward(sum_all(hadamard(out, cot)))
        assert all(t.grad is g for t, g in zip(leaves, freed))

    @pytest.mark.parametrize("decomposed", [False, True], ids=["full", "decomposed"])
    def test_the_kernel_reads_q_k_and_v_as_views_of_their_projections(self, decomposed,
                                                                     keep_every_value):
        # the heads are split by a reshape, [N, heads, head_dim], and merged by one: no transpose
        # copies a projection or the output
        grid = GridShape(2, 3)
        config, params, x = _layer_setup(np.random.default_rng(51), dim=4, heads=2,
                                         decomposed=decomposed, grid=grid)
        records = tape_for(masa_layer_forward(x, params, config, grid)).records
        assert "transpose" not in {r.op for r in records}
        projections = set()
        for attn in (r for r in records if r.op == "decayed_attention"):
            for parent in (p for p, _ in attn.edges if p.op != "decayed_attention"):
                source = parent
                while source.op == "reshape":
                    source = source.edges[0][0]
                assert source.op == "matmul"
                assert np.shares_memory(parent.tensor().data, source.tensor().data)
                projections.add(source)
        assert len(projections) == 3

    def test_decomposed_layer_runs_and_matches_kernel_composition(self):
        rng = np.random.default_rng(20)
        grid = GridShape(2, 3)
        config, params, x = _layer_setup(rng, dim=4, heads=2, decomposed=True, grid=grid)
        out = masa_layer_forward(x, params, config, grid)
        assert out.shape == (6, 4)

        q, k, v = (x.data @ w.data for w in (params.wq, params.wk, params.wv))
        head_outs = []
        for i, gamma in enumerate(config.decay):
            sl = slice(i * 2, (i + 1) * 2)
            head_outs.append(masa_decomposed(Tensor(q[:, sl]), Tensor(k[:, sl]), Tensor(v[:, sl]),
                                             grid, gamma).data)
        local = lce(Tensor(v), grid, params.lce_kernel_weights).data
        expected = (np.concatenate(head_outs, axis=1) + local) @ params.wo.data
        assert np.max(np.abs(out.data - expected)) < 1e-12

        heads = [masa_decomposed_oracle(q[:, sl], k[:, sl], v[:, sl], 2, 3, gamma)
                 for sl, gamma in ((slice(0, 2), config.decay[0]), (slice(2, 4), config.decay[1]))]
        oracle = (np.concatenate(heads, axis=1) + local) @ params.wo.data
        assert np.max(np.abs(out.data - oracle)) < 1e-12

    def test_config_params_mismatch_rejected(self):
        rng = np.random.default_rng(21)
        config, params, x = _layer_setup(rng)
        params.wq = Tensor(np.zeros((3, 3)), requires_grad=True)
        with pytest.raises(ConfigurationError):
            masa_layer_forward(x, params, config, GridShape(2, 2))

    @pytest.mark.parametrize("shape", [(5, 5, 3), (5, 3, 4), (4, 4, 4), (4, 5, 5), (5, 5), ()],
                             ids=["channels", "non-square", "even", "channels-first", "2-d", "0-d"])
    def test_malformed_lce_kernel_rejected(self, shape):
        # the kernel size is read from the weight, so only its own shape can refuse it
        rng = np.random.default_rng(21)
        config, params, x = _layer_setup(rng)
        params.lce_kernel_weights = Tensor(np.zeros(shape), requires_grad=True)
        with pytest.raises(ConfigurationError, match="lce_kernel_weights"):
            masa_layer_forward(x, params, config, GridShape(2, 2))

    def test_head_mismatch_in_config_rejected(self):
        with pytest.raises(ConfigurationError):
            MaSAConfig(dim=4, num_heads=2, decomposed=False, decay=gamma_schedule(2, 8, 3))

    def test_indivisible_heads_rejected(self):
        with pytest.raises(ConfigurationError):
            MaSAConfig(dim=5, num_heads=2, decomposed=False, decay=gamma_schedule(2, 8, 2))

    @pytest.mark.parametrize("decay,fragment", [
        ((1.5, 0.5), r"decay rate of head 0 must lie strictly inside \(0, 1\), got 1.5"),
        ((0.5, float("nan")), "decay rate of head 1 .* got nan"),
        ([0.5, 0.6], r"decay must be a tuple .* got \[0.5, 0.6\]"),
        (0.5, "decay must be a tuple .* got 0.5"),
        (("a", 0.5), "decay rate of head 0 must be a real number, got 'a'$"),
        ((None, 0.5), "decay rate of head 0 must be a real number, got None$"),
    ], ids=["above-one", "nan", "list", "bare-float", "string-rate", "none-rate"])
    def test_bad_decay_rejected_when_configured(self, decay, fragment):
        with pytest.raises(ConfigurationError, match=fragment):
            MaSAConfig(dim=4, num_heads=2, decomposed=False, decay=decay)


# ---------------------------------------------------------------------------
# the fused decayed-attention op against the composite oracle


def _kernels(height, width, gamma):
    """The axial kernel arrays of a height x width grid; a tuple of rates stacks them per head."""
    return decay_axial_kernels(GridShape(height, width), gamma)


def _fused_case(name):
    """(q/k/v shape, kernel arrays or None, scale) for one named case."""
    if name == "no-decay":
        return (6, 4), None, 1.0
    if name in ("grid-2x3", "grid-3x5"):
        height, width = (2, 3) if name == "grid-2x3" else (3, 5)
        return (height * width, 4), _kernels(height, width, 0.7), 0.5
    if name == "axis-1d":
        return (3, 5, 4), _kernels(1, 5, 0.6), 0.5
    if name == "per-head-full":
        return (2, 6, 3), _kernels(2, 3, gamma_schedule(2, 8, 2)), 1 / math.sqrt(3)
    if name == "per-head-axis":
        _, d_w = _kernels(1, 5, gamma_schedule(2, 8, 3))
        return (3, 2, 5, 4), (np.ones(1), d_w[:, None]), 0.5
    if name == "scaled-1x1-outer":
        _, d_w = _kernels(1, 5, gamma_schedule(2, 8, 2))
        return (2, 5, 4), (np.array([0.5, 2.0])[:, None], d_w), 0.5
    raise ValueError(name)


_FUSED_CASES = ["no-decay", "grid-2x3", "grid-3x5", "axis-1d", "per-head-full",
                "per-head-axis", "scaled-1x1-outer"]


def _fused_and_oracle(factors, scale, arrays):
    """[out, dq, dk, dv] of the fused op and of the composite oracle for q, k, v, cotangent.

    The fused op divides the logits by sqrt(d), so it takes the case's logit scale as q
    pre-scaled by scale * sqrt(d) on the tape: exactly 1.0 unless the scale differs from 1/sqrt(d).
    """
    cotangent = Tensor(arrays[3])
    decay = None if factors is None else Tensor(kernel_decay(*factors))
    results = []
    for op in (lambda q, k, v: decayed_attention(mul_scalar(q, scale * math.sqrt(q.shape[-1])), k, v, factors),
               lambda q, k, v: composite_attend(q, k, v, decay, scale)):
        q, k, v = (Tensor(a, requires_grad=True) for a in arrays[:3])
        out = op(q, k, v)
        backward(sum_all(hadamard(out, cotangent)))
        results.append([out.data, q.grad, k.grad, v.grad])
    return results


class TestDecayedAttention:
    @pytest.mark.parametrize("block_elements", [1 << 20, 1, 37, 150], ids=[
        "one-block", "row-blocks", "ragged-blocks", "whole-grid-row-blocks"])
    @pytest.mark.parametrize("name", _FUSED_CASES)
    def test_forward_and_gradients_match_composite_oracle(self, monkeypatch, name, block_elements):
        monkeypatch.setattr(tensor_module, "ATTENTION_BLOCK_ELEMENTS", block_elements)
        shape, factors, scale = _fused_case(name)
        rng = np.random.default_rng(30)
        arrays = [rng.standard_normal(shape) for _ in range(4)]
        for fused, oracle in zip(*_fused_and_oracle(factors, scale, arrays)):
            assert np.max(np.abs(fused - oracle)) < 1e-12

    def test_large_logits_stay_finite_and_match_the_oracle(self):
        # q and k at 30x a standard normal give logits of a few thousand: exp of any of them
        # overflows, so the kept log-sum-exp must carry the row maximum exactly
        shape, factors, scale = _fused_case("grid-3x5")
        rng = np.random.default_rng(36)
        arrays = [rng.standard_normal(shape) for _ in range(4)]
        arrays[0] *= 30.0
        arrays[1] *= 30.0
        assert np.abs(scale * arrays[0] @ arrays[1].T).max() > 1e3
        for fused, oracle in zip(*_fused_and_oracle(factors, scale, arrays)):
            assert np.all(np.isfinite(fused))
            assert np.max(np.abs(fused - oracle)) < 1e-12

    def test_ragged_budget_leaves_a_short_last_block(self, monkeypatch):
        monkeypatch.setattr(tensor_module, "ATTENTION_BLOCK_ELEMENTS", 37)
        # grid-3x5: a grid row is 5 * 15 logits, so each is cut into 37 // 15 = 2 query rows
        # a block and a short last one; axis-1d: batch 3 of 5 keys, 37 // 15 = 2 rows
        assert tensor_module._row_blocks(1, 3, 5) == [(y + x, y + min(x + 2, 5))
                                                     for y in range(0, 15, 5) for x in range(0, 5, 2)]
        assert tensor_module._row_blocks(3, 1, 5) == [(0, 2), (2, 4), (4, 5)]

    def test_axial_kernels_give_the_manhattan_decay(self):
        grid = GridShape(3, 5)
        np.testing.assert_allclose(kernel_decay(*_kernels(3, 5, 0.7)),
                                   decay_manhattan_2d(grid, 0.7).data, rtol=1e-15)

    def test_gradcheck_across_several_blocks(self, monkeypatch):
        monkeypatch.setattr(tensor_module, "ATTENTION_BLOCK_ELEMENTS", 20)
        grid = GridShape(2, 3)
        factors = decay_axial_kernels(grid, 0.6)
        rng = np.random.default_rng(31)
        q, k, v = (Tensor(rng.uniform(-1, 1, (2, grid.size, 3))) for _ in range(3))
        err, _ = finite_diff_gradcheck(
            lambda i: sum_all(decayed_attention(i[0], i[1], i[2], factors)), [q, k, v], eps=1e-6)
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

    def test_backward_runs_one_block_pass_for_q_k_and_v(self, monkeypatch):
        calls = []
        decay_in_place = tensor_module._decay_in_place
        monkeypatch.setattr(tensor_module, "_decay_in_place",
                            lambda *args: calls.append(decay_in_place(*args)))
        rng = np.random.default_rng(38)
        grid = GridShape(3, 4)
        q, k, v = (Tensor(rng.standard_normal((grid.size, 4)), requires_grad=True) for _ in range(3))
        out = masa_full(q, k, v, grid, 0.8)
        assert len(calls) == 1
        backward(sum_all(out))
        assert len(calls) == 3

    def test_untracked_k_takes_no_gradient_and_the_node_passes_back_once(self):
        shape, factors, scale = _fused_case("grid-2x3")
        rng = np.random.default_rng(39)
        arrays = [rng.standard_normal(shape) for _ in range(4)]
        _, dq, _, dv = _fused_and_oracle(factors, scale, arrays)[0]
        q, v = Tensor(arrays[0], requires_grad=True), Tensor(arrays[2], requires_grad=True)
        for _ in range(2):  # each fresh forward gets the same gradients
            q.zero_grad()
            v.zero_grad()
            out = decayed_attention(q, Tensor(arrays[1]), v, factors)
            backward(sum_all(hadamard(out, Tensor(arrays[3]))))
            np.testing.assert_array_equal(q.grad, dq)
            np.testing.assert_array_equal(v.grad, dv)
        with pytest.raises(UsageError, match="backward already ran through this decayed_attention node"):
            backward(sum_all(hadamard(out, Tensor(arrays[3]))))
        np.testing.assert_array_equal(q.grad, dq)
        np.testing.assert_array_equal(v.grad, dv)

    def test_masa_full_is_one_node_on_the_tape(self):
        rng = np.random.default_rng(33)
        grid = GridShape(3, 3)
        q, k, v = (Tensor(rng.standard_normal((grid.size, 4)), requires_grad=True) for _ in range(3))
        out = masa_full(q, k, v, grid, 0.8)
        records = tape_for(sum_all(out)).records
        assert len(records) == 5 and out._record in records and out._record.op == "decayed_attention"
        assert {p for p, _ in out._record.edges} == {q._record, k._record, v._record}

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

    def test_forward_retains_only_its_output_and_one_log_sum_exp_per_row(self):
        # what the tape holds after the forward beyond q, k and v: a q-sized copy is 590 KB
        # and one row block of logits 8 MB at side 48, against 64 KB of slack
        rng = np.random.default_rng(37)
        grid = GridShape(48, 48)
        q, k, v = (Tensor(rng.standard_normal((grid.size, 32)), requires_grad=True)
                   for _ in range(3))
        tracemalloc.start()
        try:
            out = masa_full(q, k, v, grid, 0.9)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert out.requires_grad
        assert held <= out.data.nbytes + grid.size * 8 + 64 * 2 ** 10

    def test_bad_shapes_rejected(self):
        rng = np.random.default_rng(35)
        q = rand(rng, 2, 6, 3)
        with pytest.raises(DimensionError):
            decayed_attention(q, rand(rng, 2, 5, 3), q, None)
        with pytest.raises(DimensionError):
            decayed_attention(q, q, rand(rng, 2, 5, 3), None)

    @pytest.mark.parametrize("a,b", [
        (Tensor(np.ones(3)), np.ones(5)),  # lengths that fit, but a Tensor: the kernels are constant arrays
        (np.array(1.0), np.ones(5)),       # a 0-d kernel has no length to read
        (np.ones(3), np.ones(6)),          # 2 * ((6 + 1) // 2) = 6 keys, but no centre offset
        (np.ones(5), np.ones(5)),          # 3 * 3 offsets span 9 keys, not 6
        (np.ones((3, 3)), np.ones(5)),     # 3 kernels for a batch of 2
    ], ids=["tensor", "0-d", "even-length", "wrong-product", "batch-mismatch"])
    def test_bad_kernels_rejected_naming_both_shapes(self, a, b):
        q = rand(np.random.default_rng(40), 2, 6, 3)
        with pytest.raises(DimensionError) as info:
            decayed_attention(q, q, q, (a, b))
        assert str(a.shape) in str(info.value) and str(b.shape) in str(info.value)


def _attend_and_backward(q, k, v, factors, cotangent, **axis):
    """[out, dq, dk, dv] of one ``decayed_attention`` call weighted by ``cotangent``."""
    tracked = [Tensor(a, requires_grad=True) for a in (q, k, v)]
    out = decayed_attention(*tracked, factors, **axis)
    backward(sum_all(hadamard(out, Tensor(cotangent))))
    return [out.data] + [t.grad for t in tracked]


class TestDecayedAttentionAxis:
    """Attention along a token axis that is not the one next to the features."""

    @staticmethod
    def _column_case():
        # [heads, H, W, d] images with H != W and one rate per head, attended along H
        rng = np.random.default_rng(43)
        heads, height, width = 3, 5, 4
        arrays = [rng.standard_normal((heads, height, width, 6)) for _ in range(4)]
        a, b = _kernels(1, height, gamma_schedule(2, 8, heads))
        return arrays, (a[:, None], b[:, None])

    @pytest.mark.parametrize("block_elements", [1 << 20, 7], ids=["one-block", "row-blocks"])
    def test_along_the_height_axis_equals_the_swapped_copy_composition(self, monkeypatch,
                                                                       block_elements):
        monkeypatch.setattr(tensor_module, "ATTENTION_BLOCK_ELEMENTS", block_elements)
        (q, k, v, cot), factors = self._column_case()

        def swap(a):
            return np.ascontiguousarray(np.swapaxes(a, -2, -3))
        along_axis = _attend_and_backward(q, k, v, factors, cot, axis=-3)
        swapped = _attend_and_backward(swap(q), swap(k), swap(v), factors, swap(cot))
        for got, want in zip(along_axis, swapped):
            assert got.shape == q.shape
            np.testing.assert_array_equal(got, np.swapaxes(want, -2, -3))

    def test_gradcheck_along_the_height_axis(self):
        (q, k, v, _), _ = self._column_case()
        inputs = [Tensor(a[:, :3, :2, :2]) for a in (q, k, v)]
        a, b = _kernels(1, 3, gamma_schedule(2, 8, 3))
        err, _ = finite_diff_gradcheck(
            lambda i: sum_all(decayed_attention(i[0], i[1], i[2], (a[:, None], b[:, None]), axis=-3)),
            inputs, eps=1e-6)
        assert err < 1e-6

    @pytest.mark.parametrize("axis", [4, -5, 3, -1], ids=["past-the-end", "before-the-start",
                                                          "feature", "feature-negative"])
    def test_an_axis_that_is_no_token_axis_rejected(self, axis):
        (q, _, _, _), factors = self._column_case()
        with pytest.raises(DimensionError, match="ax[ie]s"):
            decayed_attention(Tensor(q), Tensor(q), Tensor(q), factors, axis=axis)

    def test_factors_for_another_axis_rejected(self):
        # the kernels span the 5 rows of the height axis, not the 4 columns
        (q, _, _, _), factors = self._column_case()
        with pytest.raises(DimensionError, match="4 keys"):
            decayed_attention(Tensor(q), Tensor(q), Tensor(q), factors, axis=-2)


TRACKED_SUBSETS = [t for n in (1, 2, 3) for t in itertools.combinations(range(3), n)]
TRACKED_IDS = ["".join("qkv"[i] for i in t) for t in TRACKED_SUBSETS]


class TestDecayedAttentionTrackedSubsets:
    """The one backward pass computes dq, dk and dv; the tape keeps only the tracked parents' edges."""

    @staticmethod
    def _case(axis):
        """(q, k, v, cotangent, kernels) for attention along ``axis``, one rate per head."""
        if axis == -3:
            arrays, factors = TestDecayedAttentionAxis._column_case()
            return (*arrays, factors)
        rng = np.random.default_rng(44)
        arrays = [rng.standard_normal((2, 6, 4)) for _ in range(4)]
        return (*arrays, _kernels(2, 3, gamma_schedule(2, 8, 2)))

    @pytest.mark.parametrize("tracked", TRACKED_SUBSETS, ids=TRACKED_IDS)
    @pytest.mark.parametrize("decayed", [True, False], ids=["decay", "no-decay"])
    @pytest.mark.parametrize("axis", [-2, -3])
    def test_tracked_parents_get_the_all_tracked_gradients_and_the_rest_none(self, axis, decayed, tracked):
        q, k, v, cot, factors = self._case(axis)
        factors = factors if decayed else None
        want = _attend_and_backward(q, k, v, factors, cot, axis=axis)
        inputs = [Tensor(a, requires_grad=i in tracked) for i, a in enumerate((q, k, v))]
        out = decayed_attention(*inputs, factors, axis=axis)
        assert len(out._record.edges) == len(tracked)
        backward(sum_all(hadamard(out, Tensor(cot))))
        np.testing.assert_array_equal(out.data, want[0])
        for i, t in enumerate(inputs):
            if i in tracked:
                np.testing.assert_array_equal(t.grad, want[1 + i])
            else:
                assert t.grad is None
        grads = [t.grad for t in inputs]
        with pytest.raises(UsageError, match="backward already ran through this decayed_attention node"):
            backward(sum_all(hadamard(out, Tensor(cot))))
        assert all(t.grad is g for t, g in zip(inputs, grads))


def _shift_gap(q, k, axis=-2):
    """Per query row, how far its diagonal logit q_n k_n / sqrt(d) lies below the bound
    |q_n / sqrt(d)| * max_m |k_m| of its batch entry; [..., L] with the tokens last."""
    q, k = np.moveaxis(q, axis, -2) / math.sqrt(q.shape[-1]), np.moveaxis(k, axis, -2)
    bound = np.linalg.norm(q, axis=-1) * np.linalg.norm(k, axis=-1).max(axis=-1, keepdims=True)
    return bound - (q * k).sum(axis=-1)


def _oracle_along(q, k, v, cotangent, factors, axis):
    """[out, dq, dk, dv] of ``composite_attend`` on copies with the token axis moved next to the features."""
    def tokens_last(a):
        return np.ascontiguousarray(np.moveaxis(a, axis, -2))
    decay = None if factors is None else Tensor(kernel_decay(*factors))
    tracked = [Tensor(tokens_last(a), requires_grad=True) for a in (q, k, v)]
    out = composite_attend(*tracked, decay, 1 / math.sqrt(q.shape[-1]))
    backward(sum_all(hadamard(out, Tensor(tokens_last(cotangent)))))
    return [np.moveaxis(a, -2, axis) for a in [out.data] + [t.grad for t in tracked]]


class TestFoldedShift:
    """Rows shifted by their bound inside the score matmul, and rows past the margin shifted by their maximum."""

    @staticmethod
    def _check(q, k, v, cotangent, factors, axis=-2):
        fused = _attend_and_backward(q, k, v, factors, cotangent, axis=axis)
        for got, want in zip(fused, _oracle_along(q, k, v, cotangent, factors, axis)):
            assert np.all(np.isfinite(got))
            assert np.max(np.abs(got - want)) < 1e-12

    @pytest.mark.parametrize("block_elements", [1 << 20, 7], ids=["one-block", "row-blocks"])
    @pytest.mark.parametrize("axis", [-2, -3])
    def test_blocks_mixing_bound_rows_with_rows_past_the_margin(self, monkeypatch, axis, block_elements):
        # alternate query rows at 300x push their diagonal logit hundreds below the bound
        monkeypatch.setattr(tensor_module, "ATTENTION_BLOCK_ELEMENTS", block_elements)
        if axis == -3:
            (q, k, v, cot), factors = TestDecayedAttentionAxis._column_case()
        else:
            rng = np.random.default_rng(48)
            q, k, v, cot = (rng.standard_normal((2, 6, 4)) for _ in range(4))
            factors = _kernels(2, 3, gamma_schedule(2, 8, 2))
        np.moveaxis(q, axis, 0)[1::2] *= 300.0
        gap = _shift_gap(q, k, axis)
        far = gap > tensor_module.SHIFT_MARGIN
        assert far[..., 1::2].all() and not far[..., ::2].any()
        self._check(q, k, v, cot, factors, axis)

    @pytest.mark.parametrize("axis", [-2, -3])
    def test_gradcheck_with_rows_past_the_margin(self, axis):
        rng = np.random.default_rng(49)
        shape = (2, 3, 2, 2) if axis == -3 else (2, 4, 2)
        q, k, v = (rng.uniform(-1, 1, shape) for _ in range(3))
        np.moveaxis(q, axis, 0)[1::2] *= 300.0
        a, b = _kernels(1, shape[axis], gamma_schedule(2, 8, 2))
        factors = (a[:, None], b[:, None]) if axis == -3 else (a, b)
        assert (_shift_gap(q, k, axis) > tensor_module.SHIFT_MARGIN).any()
        err, _ = finite_diff_gradcheck(
            lambda i: sum_all(decayed_attention(i[0], i[1], i[2], factors, axis=axis)),
            [Tensor(a) for a in (q, k, v)], eps=1e-6)
        assert err < 1e-6

    def test_rows_just_inside_and_just_outside_the_margin_and_all_zero_rows(self):
        # rows 0 and 1 sit half a logit inside and outside the margin, rows 2 and 3 are zero
        # (bound 0, every logit 0), rows 4 and 5 are plain normal draws
        rng = np.random.default_rng(50)
        q, k, v, cot = (rng.standard_normal((6, 4)) for _ in range(4))
        scale = 1 / math.sqrt(4)
        k_max = np.linalg.norm(k, axis=-1).max()
        for row, gap in ((0, tensor_module.SHIFT_MARGIN - 0.5), (1, tensor_module.SHIFT_MARGIN + 0.5)):
            unit = q[row] / np.linalg.norm(q[row])
            q[row] = unit * gap / (scale * (k_max - unit @ k[row]))
        q[2:4] = 0.0
        gap = _shift_gap(q, k)
        assert gap[0] < tensor_module.SHIFT_MARGIN < gap[1]
        assert gap[2] == gap[3] == 0.0
        factors = _kernels(2, 3, 0.7)
        self._check(q, k, v, cot, factors)
        err, _ = finite_diff_gradcheck(
            lambda i: sum_all(hadamard(decayed_attention(i[0], i[1], i[2], factors), Tensor(cot))),
            [Tensor(a) for a in (q, k, v)], eps=1e-6)
        assert err < 1e-6

    def test_a_side_48_forward_peaks_at_one_block_of_logits_and_the_two_shifted_copies(self):
        rng = np.random.default_rng(51)
        grid, d = GridShape(48, 48), 32
        q, k, v = (Tensor(rng.standard_normal((grid.size, d)), requires_grad=True) for _ in range(3))
        rows = max(stop - start for start, stop in tensor_module._row_blocks(1, 48, 48))
        tracemalloc.start()
        try:
            out = masa_full(q, k, v, grid, 0.9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block, copies = rows * grid.size * 8, 2 * grid.size * (d + 1) * 8
        assert peak <= block + copies + out.data.nbytes + 2 ** 20


_BUDGETS = [1, 2, 3, 5, 7, 15, 16, 1 << 20]


def _decay_every_row_block(w, kernel, batch, height, width):
    """w [..., L, L] decayed block by block, for every block ``_row_blocks`` makes under each budget.

    Every budget below the batch * L logits of one query row gives one-query blocks,
    so the budgets are swept as logits and again as query rows' worth of logits.
    """
    logits_per_row = batch * height * width
    for budget in _BUDGETS + [rows * logits_per_row for rows in _BUDGETS[:-1]]:
        with mock.patch.object(tensor_module, "ATTENTION_BLOCK_ELEMENTS", budget):
            blocks = tensor_module._row_blocks(batch, height, width)
        for start, stop in blocks:
            block = w[..., start:stop, :].copy()
            tensor_module._decay_in_place(block, kernel, start, stop)
            yield start, stop, block


class TestOnePassDecay:
    @pytest.mark.parametrize("height,width", [(3, 5), (1, 7)], ids=["grid-3x5", "one-row"])
    def test_every_block_matches_the_manhattan_rows(self, height, width):
        grid = GridShape(height, width)
        a, b = _kernels(height, width, 0.7)
        decay = decay_manhattan_2d(grid, 0.7).data
        w = np.random.default_rng(41).uniform(0, 1, (grid.size, grid.size))
        for start, stop, block in _decay_every_row_block(w, a[:, None] * b[None, :], 1, height, width):
            assert np.max(np.abs(block - w[start:stop] * decay[start:stop])) < 1e-15

    def test_per_head_kernels_over_extra_batch_axes(self):
        # [heads, 1, 2Ha-1, 2Wb-1] kernels over a [heads, 2, rows, L] batch of blocks
        grid, rates = GridShape(4, 4), gamma_schedule(2, 8, 3)
        a, b = _kernels(4, 4, rates)
        kernel = (a[:, :, None] * b[:, None, :])[:, None]
        decay = np.stack([decay_manhattan_2d(grid, g).data for g in rates])[:, None]
        w = np.random.default_rng(42).uniform(0, 1, (3, 2, grid.size, grid.size))
        for start, stop, block in _decay_every_row_block(w, kernel, 6, 4, 4):
            expected = w[..., start:stop, :] * decay[..., start:stop, :]
            assert np.max(np.abs(block - expected)) < 1e-15

    def test_a_side_48_block_allocates_no_block_sized_temporary(self):
        # the second of six blocks, grid rows 9-17; a gather of its rows would be 330 KB
        a, b = _kernels(48, 48, 0.9)
        kernel = a[:, None] * b[None, :]
        start, stop = tensor_module._row_blocks(1, 48, 48)[1]
        w = np.ones((stop - start, 48 * 48))
        tracemalloc.start()
        try:
            tensor_module._decay_in_place(w, kernel, start, stop)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 10


class TestRowBlocks:
    @settings(max_examples=200, deadline=None)
    @given(batch=st.integers(0, 8), height=st.integers(1, 12), width=st.integers(0, 12),
           budget=st.integers(1, 20000))
    def test_blocks_tile_the_rows_in_grid_rectangles_within_the_budget(self, batch, height, width, budget):
        length = height * width
        with mock.patch.object(tensor_module, "ATTENTION_BLOCK_ELEMENTS", budget):
            blocks = tensor_module._row_blocks(batch, height, width)
        edges = [0] + [stop for _, stop in blocks]
        assert [start for start, _ in blocks] == edges[:-1] and edges[-1] == length
        for start, stop in blocks:
            assert start < stop
            whole_rows = start % width == 0 and (stop - start) % width == 0
            assert whole_rows or start // width == (stop - 1) // width
            assert (stop - start) * batch * length <= max(budget, batch * length)


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
                        decay=gamma_schedule(2, 8, 2))
    x = Tensor(rng.uniform(-1, 1, (grid.size, 4)))
    weights = [Tensor(0.3 * rng.uniform(-1, 1, (4, 4))) for _ in range(4)]
    kernel = Tensor(0.3 * rng.uniform(-1, 1, (4, 3, 3)).transpose(1, 2, 0))

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
