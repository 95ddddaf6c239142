"""Each named refusal, one row per check: the error class and the fragment its message names."""

from dataclasses import replace

import numpy as np
import pytest

from masa_kit import (ConfigurationError, DataConfig, DimensionError, GridShape, MaSAConfig, ModelConfig,
                      Tensor, UsageError, adamw_step, attention_score_apply_macs, build_backbone, concat,
                      conv2d, conv_stem, decay_bidirectional_1d, decay_causal_1d, depthwise_conv2d,
                      finite_diff_gradcheck, gamma_schedule, init_masa_params, init_optim, cross_entropy,
                      masa_layer_forward, matmul, mean_axes, normalize, preset_config, reshape, slice_axis,
                      synth_dataset, train_loop)
from masa_kit.attention import token_image
from masa_kit.train import init_train_state, train_step


def zeros(*shape):
    return Tensor(np.zeros(shape))


def _layer_with_five_tokens_on_a_2x2_grid():
    config = MaSAConfig(dim=4, num_heads=2, decomposed=False, decay=gamma_schedule(2, 8, 2))
    params = init_masa_params(config, np.random.default_rng(0))
    masa_layer_forward(zeros(5, 4), params, config, GridShape(2, 2))


def _stage(**changes):
    return replace(preset_config("tiny").stages[0], **changes)


def _data(**changes):
    return replace(DataConfig(seed=0, n=4, resolution=32, num_classes=2), **changes)


def _masa(**changes):
    return replace(MaSAConfig(dim=8, num_heads=2, decomposed=False, decay=(0.5, 0.5)), **changes)


def _train_state(steps=1):
    return init_train_state(preset_config("tiny"), _data(n=2), steps)


def _tiny_doc(change):
    doc = preset_config("tiny").to_json_dict()
    change(doc)
    return lambda: ModelConfig.from_json_dict(doc)


def _never_called(inputs):
    raise AssertionError("the closure ran before eps was checked")


def _adamw_with_a_missing_gradient():
    params = [Tensor(np.zeros(2), requires_grad=True)]
    adamw_step(params, [], init_optim(params))


REFUSALS = {
    "matmul-batch": (lambda: matmul(zeros(2, 3, 4), zeros(3, 4, 5)),
                     DimensionError, "batch dimensions disagree"),
    "reshape-size": (lambda: reshape(zeros(6), (4,)), DimensionError, r"cannot reshape \(6,\) into \(4,\)"),
    "concat-empty": (lambda: concat([]), DimensionError, "concat needs at least one tensor"),
    "concat-ndim": (lambda: concat([zeros(2, 3), zeros(2, 3, 1)]), DimensionError,
                    r"concat: shapes \[\(2, 3\), \(2, 3, 1\)\] disagree off axis 0"),
    "concat-off-axis": (lambda: concat([zeros(2, 3), zeros(2, 4)], axis=0), DimensionError,
                        r"concat: shapes \[\(2, 3\), \(2, 4\)\] disagree off axis 0"),
    "cross-entropy-bool-label": (lambda: cross_entropy(zeros(3), True), UsageError,
                                 "label must be an integer class index, got True"),
    "cross-entropy-float-label": (lambda: cross_entropy(zeros(3), 1.0), UsageError,
                                  "label must be an integer class index, got 1.0"),
    "mean-empty-axis": (lambda: mean_axes(zeros(0, 3), (0,)), DimensionError,
                        r"mean_axes: axes \(0,\) of shape \(0, 3\) hold no entries"),
    "norm-empty-axis": (lambda: normalize(zeros(2, 0), (-1,), zeros(0), zeros(0)), DimensionError,
                        r"normalize: axes \(1,\) of shape \(2, 0\) hold no entries"),
    "slice-range": (lambda: slice_axis(zeros(2, 3), 1, 2, 5), DimensionError,
                    r"slice \[2:5\] is out of range for axis 1"),
    "dwconv-ndim": (lambda: depthwise_conv2d(zeros(4, 4), zeros(3, 3, 1)), DimensionError,
                    "depthwise_conv2d needs"),
    "dwconv-non-square": (lambda: depthwise_conv2d(zeros(4, 4, 2), zeros(3, 5, 2)), DimensionError,
                          "depthwise kernel must be square"),
    "conv2d-ndim": (lambda: conv2d(zeros(4, 4), zeros(3, 3, 1, 2), zeros(2), 1, 1), DimensionError,
                    "conv2d needs"),
    "conv2d-channels": (lambda: conv2d(zeros(4, 4, 3), zeros(3, 3, 2, 4), zeros(4), 1, 1),
                        DimensionError, "input has 3 channels, weight expects 2"),
    "conv2d-non-square": (lambda: conv2d(zeros(4, 4, 2), zeros(3, 5, 2, 4), zeros(4), 1, 1),
                          DimensionError, "conv2d kernel must be square"),
    "conv2d-empty": (lambda: conv2d(zeros(2, 2, 1), zeros(5, 5, 1, 1), zeros(1), 1, 0),
                     DimensionError, "output would be empty"),
    "masa-config-dim": (lambda: MaSAConfig(dim=0, num_heads=1, decomposed=False, decay=(0.5,)),
                        ConfigurationError, "masa dim must be at least 1, got 0"),
    "token-image-grid": (lambda: token_image(zeros(5, 4), GridShape(2, 2)), DimensionError,
                         "filling a 2x2 grid"),
    "masa-layer-tokens": (_layer_with_five_tokens_on_a_2x2_grid, DimensionError,
                          r"expected \[4, 4\] tokens for the grid, got \(5, 4\)"),
    "macs-mode": (lambda: attention_score_apply_macs("sparse", 2, 2, 4), ConfigurationError,
                  "unknown attention mode 'sparse'"),
    "stem-channels": (lambda: conv_stem(zeros(4, 32, 32), build_backbone(preset_config("tiny"), 0).stem),
                      DimensionError, r"stem expects a \[3, R, R\] image"),
    "adamw-count": (_adamw_with_a_missing_gradient, UsageError, "got 1 params, 0 grads, 1 accumulators"),
    "item-non-scalar": (lambda: zeros(2).item(), UsageError, "item\\(\\) needs a single-element tensor"),
    "stage-float-blocks": (lambda: _stage(num_blocks=2.5), ConfigurationError,
                           "stage num_blocks must be an integer, got 2.5"),
    "stage-str-blocks": (lambda: _stage(num_blocks="2"), ConfigurationError,
                         "stage num_blocks must be an integer, got '2'"),
    "stage-float-channels": (lambda: _stage(channels=64.0), ConfigurationError,
                             "stage channels must be an integer, got 64.0"),
    "stage-float-heads": (lambda: _stage(heads=2.0), ConfigurationError,
                          "stage heads must be an integer, got 2.0"),
    "stage-bool-heads": (lambda: _stage(heads=True), ConfigurationError,
                         "stage heads must be an integer, got True"),
    "model-float-classes": (lambda: replace(preset_config("tiny"), num_classes=2.0), ConfigurationError,
                            "model num_classes must be an integer, got 2.0"),
    "model-float-resolution": (lambda: replace(preset_config("tiny"), input_resolution=64.0),
                               ConfigurationError, "model input_resolution must be an integer, got 64.0"),
    "masa-float-dim": (lambda: _masa(dim=8.0), ConfigurationError, "masa dim must be an integer, got 8.0"),
    "masa-float-heads": (lambda: _masa(num_heads=2.0), ConfigurationError,
                         "masa num_heads must be an integer, got 2.0"),
    "data-float-n": (lambda: _data(n=2.5), ConfigurationError, "data n must be an integer, got 2.5"),
    "data-float-batch": (lambda: _data(batch_size=2.0), ConfigurationError,
                         "data batch_size must be an integer, got 2.0"),
    "data-float-seed": (lambda: _data(seed=1.5), ConfigurationError, "data seed must be an integer, got 1.5"),
    "data-float-resolution": (lambda: _data(resolution=32.0), ConfigurationError,
                              "data resolution must be an integer, got 32.0"),
    "stage-str-decomposed": (lambda: _stage(decomposed="no"), ConfigurationError,
                             "stage decomposed must be a bool, got 'no'"),
    "stage-str-ffn-ratio": (lambda: _stage(ffn_ratio="a"), ConfigurationError,
                            "stage ffn_ratio must be a real number in the float range, got 'a'"),
    "stage-none-ffn-ratio": (lambda: _stage(ffn_ratio=None), ConfigurationError,
                             "stage ffn_ratio must be a real number in the float range, got None"),
    "stage-huge-ffn-ratio": (lambda: _stage(ffn_ratio=10 ** 400), ConfigurationError,
                             "stage ffn_ratio must be a real number in the float range, got 1000"),
    "stage-ffn-ratio-times-huge-channels": (lambda: _stage(ffn_ratio=10 ** 300, channels=10 ** 200),
                                            ConfigurationError, "must be a positive integer"),
    "schedule-huge-upper": (lambda: gamma_schedule(2, 10 ** 400, 3), ConfigurationError,
                            "upper must be a real number in the float range, got 1000"),
    "stage-str-decay-lower": (lambda: _stage(decay_lower="a"), ConfigurationError,
                              "stage decay_lower must be a real number in the float range, got 'a'"),
    "stage-none-decay-lower": (lambda: _stage(decay_lower=None), ConfigurationError,
                               "stage decay_lower must be a real number in the float range, got None"),
    "masa-str-decomposed": (lambda: _masa(decomposed="yes"), ConfigurationError,
                            "masa decomposed must be a bool, got 'yes'"),
    "model-int-stages": (lambda: replace(preset_config("tiny"), stages=(1, 2, 3, 4)), ConfigurationError,
                         "each stage must be a StageConfig, got 1"),
    "causal-float-length": (lambda: decay_causal_1d(2.5, 0.5), ConfigurationError,
                            "length must be an integer, got 2.5"),
    "bidirectional-float-length": (lambda: decay_bidirectional_1d(2.5, 0.5), ConfigurationError,
                                   "length must be an integer, got 2.5"),
    "bidirectional-bool-length": (lambda: decay_bidirectional_1d(True, 0.5), ConfigurationError,
                                  "length must be an integer, got True"),
    "schedule-bool-heads": (lambda: gamma_schedule(2, 6, True), ConfigurationError,
                            "num_heads must be an integer, got True"),
    "schedule-float-heads": (lambda: gamma_schedule(2, 6, 2.5), ConfigurationError,
                             "num_heads must be an integer, got 2.5"),
    "schedule-str-lower": (lambda: gamma_schedule("2", 6, 3), ConfigurationError,
                           "lower must be a real number in the float range, got '2'"),
    "dataset-float-n": (lambda: synth_dataset(0, 2.5, 8, 2), ConfigurationError,
                        "dataset n must be an integer, got 2.5"),
    "model-float-seed": (lambda: build_backbone(preset_config("tiny"), 1.5), ConfigurationError,
                         "model seed must be an integer, got 1.5"),
    "train-bool-eval-interval": (lambda: train_loop(preset_config("tiny"), _data(n=2), 1, eval_interval=True),
                                 ConfigurationError, "eval_interval must be an integer, got True"),
    "train-float-steps": (lambda: _train_state(steps=2.5), ConfigurationError,
                          "steps must be an integer, got 2.5"),
    "train-step-float-batch": (lambda: train_step(_train_state(), 2.5), ConfigurationError,
                               "batch_size must be an integer, got 2.5"),
    "stage-zero-blocks": (lambda: _stage(num_blocks=0), ConfigurationError,
                          "stage num_blocks must be at least 1, got 0"),
    "stage-zero-heads": (lambda: _stage(heads=0), ConfigurationError,
                         "stage heads must be at least 1, got 0"),
    "masa-zero-heads": (lambda: _masa(num_heads=0), ConfigurationError,
                        "masa num_heads must be at least 1, got 0"),
    "model-zero-classes": (lambda: replace(preset_config("tiny"), num_classes=0), ConfigurationError,
                           "model num_classes must be at least 1, got 0"),
    "model-negative-seed": (lambda: build_backbone(preset_config("tiny"), -1), ConfigurationError,
                            "model seed must be at least 0, got -1"),
    "schedule-zero-heads": (lambda: gamma_schedule(2, 6, 0), ConfigurationError,
                            "num_heads must be at least 1, got 0"),
    "causal-zero-length": (lambda: decay_causal_1d(0, 0.5), ConfigurationError,
                           "length must be at least 1, got 0"),
    "bidirectional-zero-length": (lambda: decay_bidirectional_1d(0, 0.5), ConfigurationError,
                                  "length must be at least 1, got 0"),
    "reader-fractional-blocks": (_tiny_doc(lambda d: d["stages"][0].update(blocks=2.7)), ConfigurationError,
                                 "key 'blocks' must be an integer, got 2.7"),
    "reader-zero-blocks": (_tiny_doc(lambda d: d["stages"][0].update(blocks=0.0)), ConfigurationError,
                           "stage num_blocks must be at least 1, got 0"),
    "reader-str-decomposed": (_tiny_doc(lambda d: d["stages"][0].update(decomposed="false")),
                              ConfigurationError, "key 'decomposed' must be a bool, got 'false'"),
    "reader-object-stages": (_tiny_doc(lambda d: d.update(stages={})), ConfigurationError,
                             "key 'stages' must be list, got {}"),
    "data-zero-resolution": (lambda: _data(resolution=0), ConfigurationError,
                             "data resolution must be at least 1, got 0"),
    "data-negative-resolution": (lambda: _data(resolution=-5), ConfigurationError,
                                 "data resolution must be at least 1, got -5"),
    "gradcheck-bool-eps": (lambda: finite_diff_gradcheck(_never_called, [zeros(1)], eps=True),
                           ConfigurationError, "eps must be a real number in the float range, got True"),
    "gradcheck-str-eps": (lambda: finite_diff_gradcheck(_never_called, [zeros(1)], eps="a"),
                          ConfigurationError, "eps must be a real number in the float range, got 'a'"),
    "gradcheck-nan-eps": (lambda: finite_diff_gradcheck(_never_called, [zeros(1)], eps=float("nan")),
                          UsageError, "eps must be finite and above 0, got nan"),
    "gradcheck-inf-eps": (lambda: finite_diff_gradcheck(_never_called, [zeros(1)], eps=float("inf")),
                          UsageError, "eps must be finite and above 0, got inf"),
    "optim-nan-lr": (lambda: init_optim([], lr=float("nan")), ConfigurationError,
                     "optimizer lr must be finite and above 0, got nan"),
    "optim-zero-lr": (lambda: init_optim([], lr=0.0), ConfigurationError,
                      "optimizer lr must be finite and above 0, got 0.0"),
    "optim-negative-weight-decay": (lambda: init_optim([], weight_decay=-0.1), ConfigurationError,
                                    "optimizer weight_decay must be finite and at least 0, got -0.1"),
    "optim-inf-weight-decay": (lambda: init_optim([], weight_decay=float("inf")), ConfigurationError,
                               "optimizer weight_decay must be finite and at least 0, got inf"),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_refusal_names_its_check(name):
    call, error, fragment = REFUSALS[name]
    with pytest.raises(error, match=fragment):
        call()
