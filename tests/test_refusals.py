"""Each named refusal, one row per check: the error class and the fragment its message names."""

import numpy as np
import pytest

from masa_kit import (ConfigurationError, DimensionError, GridShape, MaSAConfig, Tensor, UsageError,
                      adamw_step, attention_score_apply_macs, build_backbone, concat, conv2d,
                      conv_stem, depthwise_conv2d, gamma_schedule, init_masa_params, init_optim,
                      masa_layer_forward, matmul, preset_config, reshape, slice_axis)
from masa_kit.attention import token_image


def zeros(*shape):
    return Tensor(np.zeros(shape))


def _layer_with_five_tokens_on_a_2x2_grid():
    config = MaSAConfig(dim=4, num_heads=2, decomposed=False, decay=gamma_schedule(2, 8, 2))
    params = init_masa_params(config, np.random.default_rng(0))
    masa_layer_forward(zeros(5, 4), params, config, GridShape(2, 2))


def _adamw_with_a_missing_gradient():
    params = [Tensor(np.zeros(2), requires_grad=True)]
    adamw_step(params, [], init_optim(params))


REFUSALS = {
    "matmul-batch": (lambda: matmul(zeros(2, 3, 4), zeros(3, 4, 5)),
                     DimensionError, "batch dimensions disagree"),
    "reshape-size": (lambda: reshape(zeros(6), (4,)), DimensionError, r"cannot reshape \(6,\) into \(4,\)"),
    "concat-empty": (lambda: concat([]), DimensionError, "concat needs at least one tensor"),
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
                        ConfigurationError, "dim and num_heads must be positive"),
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
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_refusal_names_its_check(name):
    call, error, fragment = REFUSALS[name]
    with pytest.raises(error, match=fragment):
        call()
