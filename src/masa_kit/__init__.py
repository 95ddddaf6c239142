"""Manhattan self-attention toolkit.

Numerics for spatial-decay attention on token grids: a small float64 autodiff
core, decay-matrix constructors with their exact axial factorization, full and
decomposed attention kernels, a four-stage vision backbone with parameter and
FLOP accounting, and a desk-scale training harness.
"""

from . import _threads  # must precede any numpy import; see module docstring
from .attention import (MaSAConfig, MaSAParams, attention_score_apply_macs, bi_retention,
                        init_masa_params, lce, masa_decomposed, masa_full,
                        masa_layer_forward, retention_parallel, retention_recurrent)
from .blocks import (Model, ModelConfig, StageConfig, build_backbone, conv_stem,
                     count_flops, count_params, count_params_analytic, cpe, downsample,
                     ffn, flops_by_stage, forward_classify, preset_config, rmt_block,
                     stage_grids)
from .decay import (GridShape, decay_axial_pair, decay_bidirectional_1d, decay_causal_1d,
                    decay_manhattan_2d, gamma_schedule)
from .errors import (ConfigurationError, DimensionError, MasaKitError, TrainingError,
                     UsageError)
from .tensor import (GradTape, MacCounter, Tensor, backward, concat, conv2d, count_macs,
                     decayed_attention, depthwise_conv2d, gelu, hadamard, linear, matmul,
                     mean_axes, mul_scalar, normalize, reshape, slice_axis, softmax_last,
                     sum_all, tape_for, transpose, trunc_normal)
from .train import (DataConfig, OptimState, SynthSample, TrainMetrics, adamw_step,
                    cross_entropy, finite_diff_gradcheck, init_optim, synth_dataset,
                    train_loop)

__version__ = "0.1.0"
