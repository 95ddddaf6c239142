"""Backbone assembly: stem, blocks, downsampling, accounting, presets."""

import json
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

import masa_kit as mk
from masa_kit import (ConfigurationError, GridShape, ModelConfig, StageConfig, Tensor,
                      build_backbone, conv_stem, count_flops, count_params,
                      count_params_analytic, cpe, downsample, ffn, forward_classify,
                      preset_config, rmt_block, stage_grids)
from masa_kit.blocks import (PRESET_NAMES, ConvParams, NormParams, StemParams, channel_norm,
                             layer_norm)
from masa_kit.train import cross_entropy, finite_diff_gradcheck, synth_dataset

# Any value a JSON document can hold, as Python's json module parses it.
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-10 ** 400, 10 ** 400) | st.floats()
    | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=8)


def np_gelu(x):
    return 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))


def make_stem(c1, rng=None):
    plan = [(3, c1 // 2), (c1 // 2, c1 // 2), (c1 // 2, c1), (c1, c1), (c1, c1)]
    convs, norms = [], []
    for cin, cout in plan:
        w = np.zeros((cout, cin, 3, 3)) if rng is None else 0.02 * rng.standard_normal((cout, cin, 3, 3))
        convs.append(ConvParams(weight=Tensor(w.transpose(2, 3, 1, 0)), bias=Tensor(np.zeros(cout))))
        norms.append(NormParams(gain=Tensor(np.ones(cout)), bias=Tensor(np.zeros(cout))))
    return StemParams(convs, norms)


class TestConvStem:
    def test_224_maps_to_56_grid(self):
        stem = make_stem(64, np.random.default_rng(0))
        tokens, grid = conv_stem(Tensor(np.random.default_rng(1).standard_normal((3, 224, 224))), stem)
        assert (grid.height, grid.width) == (56, 56)
        assert tokens.shape == (56 * 56, 64)

    def test_32_maps_to_8_grid(self):
        stem = make_stem(16, np.random.default_rng(2))
        tokens, grid = conv_stem(Tensor(np.random.default_rng(3).standard_normal((3, 32, 32))), stem)
        assert (grid.height, grid.width) == (8, 8)

    def test_zero_image_zero_biases_give_zero_tokens(self):
        stem = make_stem(16, np.random.default_rng(4))
        tokens, _ = conv_stem(Tensor(np.zeros((3, 32, 32))), stem)
        np.testing.assert_array_equal(tokens.data, np.zeros_like(tokens.data))

    def test_resolution_not_divisible_by_four_rejected(self):
        stem = make_stem(16)
        with pytest.raises(ConfigurationError):
            conv_stem(Tensor(np.zeros((3, 30, 30))), stem)


class TestCpe:
    def test_zero_kernel_is_passthrough(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.standard_normal((6, 4)))
        out = cpe(x, GridShape(2, 3), Tensor(np.zeros((3, 3, 4))))
        np.testing.assert_array_equal(out.data, x.data)

    def test_delta_kernel_doubles(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.standard_normal((4, 2)))
        kernel = np.zeros((3, 3, 2))
        kernel[1, 1] = 1.0
        out = cpe(x, GridShape(2, 2), Tensor(kernel))
        np.testing.assert_allclose(out.data, 2 * x.data, atol=1e-15)

    def test_against_loop_oracle(self):
        rng = np.random.default_rng(7)
        grid = GridShape(3, 3)
        x = Tensor(rng.standard_normal((9, 2)))
        kernel = Tensor(rng.standard_normal((2, 3, 3)).transpose(1, 2, 0))
        out = cpe(x, grid, kernel)
        image = x.data.T.reshape(2, 3, 3)
        conv = np.zeros_like(image)
        for c in range(2):
            for i in range(3):
                for j in range(3):
                    for di in range(3):
                        for dj in range(3):
                            ii, jj = i + di - 1, j + dj - 1
                            if 0 <= ii < 3 and 0 <= jj < 3:
                                conv[c, i, j] += kernel.data[di, dj, c] * image[c, ii, jj]
        expected = x.data + conv.reshape(2, 9).T
        assert np.max(np.abs(out.data - expected)) < 1e-12


class TestFfn:
    def test_zero_weights_give_zeros(self):
        x = Tensor(np.ones((3, 4)))
        out = ffn(x, Tensor(np.zeros((4, 4))), Tensor(np.zeros(4)),
                  Tensor(np.zeros((4, 4))), Tensor(np.zeros(4)))
        np.testing.assert_array_equal(out.data, np.zeros((3, 4)))

    def test_identity_weights_reduce_to_gelu(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.standard_normal((3, 4)))
        eye = Tensor(np.eye(4))
        zero = Tensor(np.zeros(4))
        out = ffn(x, eye, zero, eye, zero)
        np.testing.assert_allclose(out.data, np_gelu(x.data), atol=1e-14)

    def test_against_composed_oracle(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((5, 3))
        w1, b1 = rng.standard_normal((3, 6)), rng.standard_normal(6)
        w2, b2 = rng.standard_normal((6, 3)), rng.standard_normal(3)
        out = ffn(Tensor(x), Tensor(w1), Tensor(b1), Tensor(w2), Tensor(b2))
        expected = np_gelu(x @ w1 + b1) @ w2 + b2
        assert np.max(np.abs(out.data - expected)) < 1e-12

    def test_fractional_hidden_dim_rejected(self):
        with pytest.raises(ConfigurationError):
            StageConfig(num_blocks=1, channels=6, heads=2, ffn_ratio=0.3,
                        decay_lower=2, decay_upper=8, decomposed=True)
        # 2.5 * 4 = 10 is fine
        StageConfig(num_blocks=1, channels=4, heads=2, ffn_ratio=2.5,
                    decay_lower=2, decay_upper=8, decomposed=True)

    @pytest.mark.parametrize("heads", [0, -2])
    def test_non_positive_heads_rejected(self, heads):
        with pytest.raises(ConfigurationError, match="head"):
            StageConfig(num_blocks=1, channels=4, heads=heads, ffn_ratio=2,
                        decay_lower=2, decay_upper=8, decomposed=True)

    @pytest.mark.parametrize("channels", [0, -32])
    def test_non_positive_channels_rejected(self, channels):
        # -32 with ffn_ratio -2 passes the divisibility and hidden-width checks
        with pytest.raises(ConfigurationError, match="at least one channel, got channels="):
            StageConfig(num_blocks=1, channels=channels, heads=2, ffn_ratio=-2,
                        decay_lower=2, decay_upper=8, decomposed=True)

    @pytest.mark.parametrize("lower,upper", [(5, 1), (float("nan"), 8), (2, float("nan")), (2, 60)])
    def test_decay_bounds_gamma_schedule_refuses_rejected(self, lower, upper):
        with pytest.raises(ConfigurationError, match=f"lower={lower}, upper={upper}"):
            StageConfig(num_blocks=1, channels=4, heads=2, ffn_ratio=2,
                        decay_lower=lower, decay_upper=upper, decomposed=True)


def _tiny_block(rng, channels=4, heads=2, grid=GridShape(2, 2), zero=False):
    from masa_kit.blocks import BlockParams
    from masa_kit import MaSAConfig, MaSAParams, gamma_schedule

    def w(*shape, perm=None):
        data = np.zeros(shape) if zero else 0.1 * rng.standard_normal(shape)
        return Tensor(data if perm is None else data.transpose(perm), requires_grad=True)

    config = MaSAConfig(dim=channels, num_heads=heads, decomposed=False,
                        decay=gamma_schedule(2, 8, heads))
    params = BlockParams(
        cpe_kernel=w(channels, 3, 3, perm=(1, 2, 0)),
        norm1=NormParams(gain=Tensor(np.ones(channels), requires_grad=True),
                         bias=Tensor(np.zeros(channels), requires_grad=True)),
        masa=MaSAParams(wq=w(channels, channels), wk=w(channels, channels),
                        wv=w(channels, channels), wo=w(channels, channels),
                        lce_kernel_weights=w(channels, 3, 3, perm=(1, 2, 0))),
        norm2=NormParams(gain=Tensor(np.ones(channels), requires_grad=True),
                         bias=Tensor(np.zeros(channels), requires_grad=True)),
        ffn_w1=w(channels, channels), ffn_b1=w(channels),
        ffn_w2=w(channels, channels), ffn_b2=w(channels))
    return config, params


class TestRmtBlock:
    def test_zero_branch_weights_is_identity(self):
        rng = np.random.default_rng(10)
        config, params = _tiny_block(rng, zero=True)
        x = Tensor(rng.standard_normal((4, 4)))
        out = rmt_block(x, GridShape(2, 2), params, config)
        assert np.max(np.abs(out.data - x.data)) < 1e-12

    def test_gradient_reaches_every_parameter(self):
        rng = np.random.default_rng(11)
        config, params = _tiny_block(rng)
        x = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
        out = rmt_block(x, GridShape(2, 2), params, config)
        mk.backward(mk.sum_all(out))
        tensors = [params.cpe_kernel, params.norm1.gain, params.norm1.bias,
                   params.masa.wq, params.masa.wk, params.masa.wv, params.masa.wo,
                   params.masa.lce_kernel_weights, params.norm2.gain, params.norm2.bias,
                   params.ffn_w1, params.ffn_b1, params.ffn_w2, params.ffn_b2, x]
        for t in tensors:
            assert t.grad is not None
            assert np.any(t.grad != 0.0)

    def test_single_token_matches_independent_recomputation(self):
        # on a 1x1 grid every depthwise conv collapses to its center tap, so
        # the whole block is recomputable with plain numpy
        rng = np.random.default_rng(30)
        config, params = _tiny_block(rng, channels=4, heads=2, grid=GridShape(1, 1))
        x = Tensor(rng.standard_normal((1, 4)))
        out = rmt_block(x, GridShape(1, 1), params, config)

        def norm(v, gain, bias, eps=1e-6):
            mu = v.mean()
            var = ((v - mu) ** 2).mean()
            return (v - mu) / np.sqrt(var + eps) * gain + bias

        x1 = x.data * (1.0 + params.cpe_kernel.data[1, 1])
        n1 = norm(x1[0], params.norm1.gain.data, params.norm1.bias.data)[None, :]
        v = n1 @ params.masa.wv.data          # single-token attention returns v per head
        local = v * params.masa.lce_kernel_weights.data[1, 1]
        x2 = x1 + (v + local) @ params.masa.wo.data
        n2 = norm(x2[0], params.norm2.gain.data, params.norm2.bias.data)[None, :]
        hidden = n2 @ params.ffn_w1.data + params.ffn_b1.data
        hidden = np_gelu(hidden)
        x3 = x2 + hidden @ params.ffn_w2.data + params.ffn_b2.data
        assert np.max(np.abs(out.data - x3)) < 1e-12

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(12)
        config, params = _tiny_block(rng)
        x = Tensor(rng.uniform(-1, 1, (4, 4)))
        leaves = [x, params.cpe_kernel, params.masa.wq, params.masa.wk, params.masa.wv,
                  params.masa.wo, params.masa.lce_kernel_weights, params.ffn_w1,
                  params.ffn_w2, params.norm1.gain, params.norm2.bias]

        def closure(inputs):
            from masa_kit.blocks import BlockParams
            from masa_kit import MaSAParams
            xx = inputs[0]
            p = BlockParams(
                cpe_kernel=inputs[1],
                norm1=NormParams(gain=inputs[9], bias=params.norm1.bias),
                masa=MaSAParams(wq=inputs[2], wk=inputs[3], wv=inputs[4], wo=inputs[5],
                                lce_kernel_weights=inputs[6]),
                norm2=NormParams(gain=params.norm2.gain, bias=inputs[10]),
                ffn_w1=inputs[7], ffn_b1=params.ffn_b1,
                ffn_w2=inputs[8], ffn_b2=params.ffn_b2)
            return mk.sum_all(rmt_block(xx, GridShape(2, 2), p, config))

        err, _ = finite_diff_gradcheck(closure, leaves, eps=1e-6)
        assert err < 1e-6


class TestBlockGradients:
    def test_conv_stem_gradients_match_finite_differences(self):
        rng = np.random.default_rng(31)
        stem = make_stem(4, rng)
        image = Tensor(rng.uniform(-1, 1, (3, 4, 4)))
        first_w = Tensor(stem.convs[0].weight.data.copy())
        last_gain = Tensor(stem.norms[-1].gain.data.copy())

        def closure(inputs):
            probe = make_stem(4, np.random.default_rng(31))
            probe.convs[0].weight = inputs[1]
            probe.norms[-1].gain = inputs[2]
            tokens, _ = conv_stem(inputs[0], probe)
            return mk.sum_all(tokens)

        err, _ = finite_diff_gradcheck(closure, [image, first_w, last_gain], eps=1e-6)
        assert err < 1e-6

    def test_downsample_gradients_match_finite_differences(self):
        rng = np.random.default_rng(32)
        x = Tensor(rng.uniform(-1, 1, (4, 2)))
        w = Tensor(rng.uniform(-1, 1, (3, 2, 3, 3)).transpose(2, 3, 1, 0))
        b = Tensor(rng.uniform(-1, 1, (3,)))

        def closure(inputs):
            out, _ = downsample(inputs[0], GridShape(2, 2),
                                ConvParams(weight=inputs[1], bias=inputs[2]))
            return mk.sum_all(out)

        err, _ = finite_diff_gradcheck(closure, [x, w, b], eps=1e-6)
        assert err < 1e-6


class TestDownsample:
    def test_grid_halves(self):
        rng = np.random.default_rng(13)
        x = Tensor(rng.standard_normal((16, 4)))
        conv = ConvParams(weight=Tensor(rng.standard_normal((8, 4, 3, 3)).transpose(2, 3, 1, 0)),
                          bias=Tensor(np.zeros(8)))
        out, grid = downsample(x, GridShape(4, 4), conv)
        assert (grid.height, grid.width) == (2, 2)
        assert out.shape == (4, 8)

    def test_zero_input_zero_bias_gives_zero(self):
        conv = ConvParams(weight=Tensor(np.random.default_rng(14).standard_normal((8, 4, 3, 3))
                                        .transpose(2, 3, 1, 0)),
                          bias=Tensor(np.zeros(8)))
        out, _ = downsample(Tensor(np.zeros((16, 4))), GridShape(4, 4), conv)
        np.testing.assert_array_equal(out.data, np.zeros((4, 8)))

    def test_against_loop_conv_oracle(self):
        rng = np.random.default_rng(15)
        x = rng.standard_normal((16, 2))
        w = rng.standard_normal((3, 2, 3, 3))
        b = rng.standard_normal(3)
        out, _ = downsample(Tensor(x), GridShape(4, 4),
                            ConvParams(weight=Tensor(w.transpose(2, 3, 1, 0)), bias=Tensor(b)))
        image = x.T.reshape(2, 4, 4)
        expected = np.zeros((3, 2, 2))
        for co in range(3):
            for i in range(2):
                for j in range(2):
                    acc = b[co]
                    for ci in range(2):
                        for di in range(3):
                            for dj in range(3):
                                ii, jj = 2 * i + di - 1, 2 * j + dj - 1
                                if 0 <= ii < 4 and 0 <= jj < 4:
                                    acc += w[co, ci, di, dj] * image[ci, ii, jj]
                    expected[co, i, j] = acc
        assert np.max(np.abs(out.data - expected.reshape(3, 4).T)) < 1e-12

    def test_odd_grid_rejected(self):
        conv = ConvParams(weight=Tensor(np.zeros((3, 3, 2, 4))), bias=Tensor(np.zeros(4)))
        with pytest.raises(ConfigurationError):
            downsample(Tensor(np.zeros((9, 2))), GridShape(3, 3), conv)


class TestBuildAndForward:
    def test_same_seed_gives_bit_identical_parameters(self):
        cfg = preset_config("tiny")
        m1 = build_backbone(cfg, seed=42)
        m2 = build_backbone(cfg, seed=42)
        for p1, p2 in zip(m1.parameters(), m2.parameters()):
            np.testing.assert_array_equal(p1.data, p2.data)

    def test_conv_parameters_are_stored_as_the_kernels_read_them(self):
        cfg = preset_config("tiny")
        model = build_backbone(cfg, seed=0)
        got = [c.weight for c in model.stem.convs]
        want = [(3, 3, cin, cout) for cin, cout in ((3, 8), (8, 8), (8, 16), (16, 16), (16, 16))]
        for sc, stage in zip(cfg.stages, model.stages):
            for block in stage:
                got += [block.cpe_kernel, block.masa.lce_kernel_weights]
                want += [(3, 3, sc.channels), (5, 5, sc.channels)]
        got += [d.weight for d in model.downsamples]
        want += [(3, 3, 16, 32), (3, 3, 32, 64), (3, 3, 64, 128)]
        assert [t.shape for t in got] == want
        assert all(t.data.flags.c_contiguous for t in got)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigurationError, match="seed"):
            build_backbone(preset_config("tiny"), seed=-1)

    def test_different_seed_changes_parameters(self):
        cfg = preset_config("tiny")
        m1 = build_backbone(cfg, seed=1)
        m2 = build_backbone(cfg, seed=2)
        assert any(not np.array_equal(p1.data, p2.data)
                   for p1, p2 in zip(m1.parameters(), m2.parameters()))

    def test_zero_classifier_gives_zero_logits(self):
        cfg = preset_config("tiny")
        model = build_backbone(cfg, seed=0)
        model.head_weight = Tensor(np.zeros_like(model.head_weight.data), requires_grad=True)
        model.head_bias = Tensor(np.zeros_like(model.head_bias.data), requires_grad=True)
        logits = forward_classify(model, Tensor(np.random.default_rng(16).standard_normal((3, 32, 32))))
        np.testing.assert_array_equal(logits.data, np.zeros(2))

    def test_forward_is_deterministic(self):
        cfg = preset_config("tiny")
        model = build_backbone(cfg, seed=0)
        image = Tensor(np.random.default_rng(17).standard_normal((3, 32, 32)))
        a = forward_classify(model, image).data
        b = forward_classify(model, image).data
        np.testing.assert_array_equal(a, b)

    def test_rmt_t_smoke_at_reduced_resolution(self):
        cfg = replace(preset_config("rmt-t"), input_resolution=32, num_classes=10)
        model = build_backbone(cfg, seed=0)
        logits = forward_classify(model, Tensor(np.random.default_rng(18).standard_normal((3, 32, 32))))
        assert logits.shape == (10,)
        assert np.isfinite(logits.data).all()

    def test_rmt_t_224_seed_0_logits_match_the_stored_fixture(self):
        # the fixture is the benchmark's record of these logits; this test only reads it
        fixture = Path(__file__).resolve().parents[1] / "perfbench" / "rmt_t_224_logits.json"
        expected = np.array(json.loads(fixture.read_text()))
        model = build_backbone(preset_config("rmt-t"), seed=0)
        logits = forward_classify(model, Tensor(np.random.default_rng(0).normal(size=(3, 224, 224))))
        assert logits.shape == expected.shape
        assert np.max(np.abs(logits.data - expected)) < 1e-9

    def test_resolution_mismatch_rejected(self):
        model = build_backbone(preset_config("tiny"), seed=0)
        with pytest.raises(ConfigurationError):
            forward_classify(model, Tensor(np.zeros((3, 64, 64))))

    def test_named_parameters_are_unique_ordered_and_complete(self):
        cfg = preset_config("tiny")
        model = build_backbone(cfg, seed=0)
        named = list(model.named_parameters())
        names = [name for name, _ in named]
        assert len(set(names)) == len(names)
        assert names[0] == "stem.convs.0.weight"
        assert "stages.1.0.masa.wq" in names and names[-1] == "head_bias"
        params = model.parameters()
        assert len(params) == len(named)
        assert all(p is q for (_, p), q in zip(named, params))
        assert sum(p.size for _, p in named) == count_params_analytic(cfg)


class TestTapeSize:
    """Exact tape node counts, so splitting a fused op back into primitives fails here."""

    @pytest.mark.parametrize("norm_fn,shape", [(layer_norm, (6, 4)), (channel_norm, (3, 2, 4))],
                             ids=["layer_norm", "channel_norm"])
    def test_a_norm_is_one_node_over_its_three_leaves(self, norm_fn, shape):
        x = Tensor(np.random.default_rng(21).standard_normal(shape), requires_grad=True)
        norm = NormParams(gain=Tensor(np.ones(4), requires_grad=True),
                          bias=Tensor(np.zeros(4), requires_grad=True))
        assert len(mk.tape_for(mk.sum_all(norm_fn(x, norm))).nodes) == 5

    @pytest.mark.parametrize("norm_fn,shape,stats", [(layer_norm, (3136, 64), 3136),
                                                     (channel_norm, (112, 112, 32), 32)],
                             ids=["layer_norm-stage1", "channel_norm-stem"])
    def test_a_norm_holds_only_its_output_and_inv(self, norm_fn, shape, stats):
        # the adjoint rebuilds x_hat from x, so only inv, one value per normalized slice, stays
        rng = np.random.default_rng(22)
        x = Tensor(rng.standard_normal(shape), requires_grad=True)
        norm = NormParams(gain=Tensor(rng.uniform(0.5, 1.5, shape[-1]), requires_grad=True),
                          bias=Tensor(rng.standard_normal(shape[-1]), requires_grad=True))
        tracemalloc.start()
        try:
            out = norm_fn(x, norm)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert out.requires_grad
        assert held <= out.data.nbytes + 8 * stats + 64 * 2 ** 10

    def test_tiny_forward_and_cross_entropy(self):
        model = build_backbone(preset_config("tiny"), seed=0)
        sample = synth_dataset(0, 1, 32, 2)[0]
        loss = cross_entropy(forward_classify(model, sample.image), sample.label)
        nodes = mk.tape_for(loss).nodes
        # each of the three decomposed layers holds 18 attention nodes: the head split and merge
        # (8), three token images, two masa_full passes, four grid swaps and the final reshape;
        # each FFN projection and the head are one linear node; the loss is one cross_entropy node
        assert len(nodes) == 252
        reshapes = [n for n in nodes if n._edges and n._edges[0][1].__qualname__.startswith("reshape.")]
        assert reshapes and all(np.shares_memory(n.data, n._edges[0][0].data) for n in reshapes)
        mk.backward(loss)  # after it, only the leaves hold a gradient
        assert all((n.grad is None) == bool(n._edges) for n in nodes)


class TestAccounting:
    def test_single_linear_layer_macs(self):
        # one [N, Cin] @ [Cin, Cout] matmul is N * Cin * Cout MACs by definition
        with mk.count_macs() as counter:
            mk.matmul(Tensor(np.zeros((7, 5))), Tensor(np.zeros((5, 9))))
        assert counter.total == 7 * 5 * 9

    @pytest.mark.parametrize("name", ["tiny", "rmt-t"])
    def test_analytic_params_match_built_model(self, name):
        cfg = preset_config(name)
        model = build_backbone(cfg, seed=0)
        assert count_params(model) == count_params_analytic(cfg)

    def test_stage_geometry_at_224(self):
        grids = stage_grids(preset_config("rmt-t"), 224)
        assert [g.height for g in grids] == [56, 28, 14, 7]

    @pytest.mark.parametrize("name", ["tiny", "rmt-t"])
    def test_analytic_flops_match_instrumented_forward(self, name):
        cfg = replace(preset_config(name), input_resolution=32, num_classes=3)
        model = build_backbone(cfg, seed=1)
        image = Tensor(np.random.default_rng(19).standard_normal((3, 32, 32)))
        with mk.count_macs() as counter:
            forward_classify(model, image)
        assert counter.total == count_flops(cfg, 32)

    def test_flops_by_stage_sums_to_total(self):
        cfg = preset_config("rmt-s")
        rows = mk.flops_by_stage(cfg, 224)
        assert sum(r["macs"] for r in rows) == count_flops(cfg, 224)
        assert sum(r["params"] for r in rows) == count_params_analytic(cfg)


class TestConfigSerialization:
    def test_json_round_trip(self):
        cfg = preset_config("rmt-b")
        assert ModelConfig.from_json(cfg.to_json()) == cfg

    def test_json_schema_keys(self):
        doc = preset_config("rmt-t").to_json_dict()
        assert set(doc) == {"stages", "num_classes", "input_resolution"}
        assert set(doc["stages"][0]) == {"blocks", "channels", "heads", "ffn_ratio",
                                         "decay_a", "decay_b", "decomposed"}

    def test_named_presets_decompose_first_three_stages(self):
        for name in ("rmt-t", "rmt-s", "rmt-b", "rmt-l", "tiny"):
            cfg = preset_config(name)
            assert [s.decomposed for s in cfg.stages] == [True, True, True, False]

    def test_unknown_preset_lists_names(self):
        with pytest.raises(ConfigurationError, match="rmt-t"):
            preset_config("rmt-xxl")

    @pytest.mark.parametrize("resolution", [36, 40, 48, 16, 0, -32])
    def test_resolution_that_cannot_downsample_three_times_rejected(self, resolution):
        with pytest.raises(ConfigurationError, match="multiple of 32"):
            replace(preset_config("tiny"), input_resolution=resolution)

    @pytest.mark.parametrize("stage_key,value", [
        ("decomposed", "false"), ("decomposed", 0), ("decomposed", None),
        ("blocks", 2.7), ("blocks", True), ("blocks", "1"),
        ("channels", float("inf")), ("ffn_ratio", "2"), ("ffn_ratio", False), ("decay_a", [2]),
        pytest.param("channels", 10 ** 400, id="channels-beyond-float-range"),
    ])
    def test_stage_value_of_wrong_json_type_rejected(self, stage_key, value):
        doc = preset_config("tiny").to_json_dict()
        doc["stages"][1][stage_key] = value
        with pytest.raises(ConfigurationError, match=stage_key):
            ModelConfig.from_json_dict(doc)

    @pytest.mark.parametrize("key,value", [("num_classes", 2.7), ("num_classes", True),
                                           ("input_resolution", "32"), ("stages", {})])
    def test_top_level_value_of_wrong_json_type_rejected(self, key, value):
        doc = preset_config("tiny").to_json_dict()
        doc[key] = value
        with pytest.raises(ConfigurationError, match=key):
            ModelConfig.from_json_dict(doc)

    def test_integral_floats_and_int_ratios_are_accepted_as_declared_types(self):
        doc = preset_config("tiny").to_json_dict()
        doc["num_classes"] = 10.0
        doc["stages"][0].update(blocks=1.0, ffn_ratio=2, decay_a=2, decomposed=False)
        cfg = ModelConfig.from_json_dict(doc)
        assert type(cfg.num_classes) is int and cfg.num_classes == 10
        stage = cfg.stages[0]
        assert type(stage.num_blocks) is int and type(stage.ffn_ratio) is float
        assert type(stage.decay_lower) is float and stage.decomposed is False

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_one_field_of_any_json_type_parses_to_declared_types_or_raises_config_error(self, data):
        doc = preset_config(data.draw(st.sampled_from(PRESET_NAMES))).to_json_dict()
        stage = data.draw(st.sampled_from([None, 0, 1, 2, 3]))
        target = doc if stage is None else doc["stages"][stage]
        target[data.draw(st.sampled_from(sorted(target)))] = data.draw(_JSON_VALUES)
        try:
            cfg = ModelConfig.from_json_dict(doc)
        except ConfigurationError:
            return
        assert type(cfg.num_classes) is int and type(cfg.input_resolution) is int
        for s in cfg.stages:
            assert all(type(getattr(s, f)) is int for f in ("num_blocks", "channels", "heads"))
            assert all(type(getattr(s, f)) is float for f in ("ffn_ratio", "decay_lower", "decay_upper"))
            assert type(s.decomposed) is bool

    def test_wrong_stage_count_rejected(self):
        stage = StageConfig(num_blocks=1, channels=4, heads=2, ffn_ratio=1,
                            decay_lower=2, decay_upper=8, decomposed=True)
        with pytest.raises(ConfigurationError):
            ModelConfig(stages=(stage, stage), num_classes=2, input_resolution=32)
