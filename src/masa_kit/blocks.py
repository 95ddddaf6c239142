"""Four-stage vision backbone built from Manhattan attention blocks.

A convolutional stem embeds the image into a token grid, four stages of
residual blocks (positional depthwise conv, pre-norm attention, pre-norm FFN)
process it with stride-2 convolutions between stages, and a pooled linear
head emits logits. The first three stages use the decomposed attention form,
the last the full form.

Parameter and multiply-accumulate accounting is analytic and mirrors the ops
exactly, so ``count_flops`` matches a runtime-instrumented forward pass MAC
for MAC. Model forward is a pure function of (parameters, input); training
mutates parameters exclusively.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, is_dataclass
from typing import Iterator

import numpy as np

from .attention import (LCE_KERNEL, MaSAConfig, MaSAParams, attention_score_apply_macs,
                        init_masa_params, lce, masa_layer_forward, token_image)
from .decay import GridShape, gamma_schedule
from .errors import ConfigurationError, DimensionError, require_integer, require_kind
from .tensor import (Tensor, add, conv2d, gelu, init_kernel, init_weight, linear, mean_axes,
                     normalize, reshape, transpose)

STEM_STRIDES = (2, 1, 2, 1, 1)
STEM_KERNEL = 3
CPE_KERNEL = 3
DOWNSAMPLE_KERNEL = 3


# ---------------------------------------------------------------------------
# Configuration


# The config document's stage keys in document order: (key, StageConfig field, kind, floor).
_STAGE_KEYS = (("blocks", "num_blocks", int, 1), ("channels", "channels", int, 1),
               ("heads", "heads", int, 1), ("ffn_ratio", "ffn_ratio", float, None),
               ("decay_a", "decay_lower", float, None), ("decay_b", "decay_upper", float, None),
               ("decomposed", "decomposed", bool, None))


@dataclass(frozen=True)
class StageConfig:
    num_blocks: int
    channels: int
    heads: int
    ffn_ratio: float
    decay_lower: float
    decay_upper: float
    decomposed: bool

    def __post_init__(self) -> None:
        for _, name, kind, least in _STAGE_KEYS:
            object.__setattr__(self, name, require_kind(f"stage {name}", getattr(self, name), kind, least))
        if self.channels % self.heads:
            raise ConfigurationError(f"channels {self.channels} not divisible by heads {self.heads}")
        try:
            hidden = float(self.ffn_ratio) * self.channels
        except OverflowError:  # an int channel count beyond the float range
            hidden = np.inf
        if not np.isfinite(hidden) or hidden <= 0 or abs(hidden - round(hidden)) > 1e-9:
            raise ConfigurationError(
                f"ffn_ratio {self.ffn_ratio} times channels {self.channels} must be a positive integer")
        gamma_schedule(self.decay_lower, self.decay_upper, self.heads)  # refuses bounds it cannot use

    @property
    def ffn_hidden(self) -> int:
        return int(round(self.ffn_ratio * self.channels))


@dataclass(frozen=True)
class ModelConfig:
    stages: tuple[StageConfig, ...]
    num_classes: int
    input_resolution: int

    def __post_init__(self) -> None:
        for name, least in (("num_classes", 1), ("input_resolution", None)):
            object.__setattr__(self, name, require_integer(f"model {name}", getattr(self, name), least))
        if len(self.stages) != 4:
            raise ConfigurationError(f"the backbone has exactly four stages, got {len(self.stages)}")
        for stage in self.stages:
            if not isinstance(stage, StageConfig):
                raise ConfigurationError(f"each stage must be a StageConfig, got {stage!r}")
        stage_grids(self, self.input_resolution)
        if self.stages[0].channels % 2:
            raise ConfigurationError("stage-1 channels must be even for the stem")

    def to_json_dict(self) -> dict:
        return {
            "stages": [{key: getattr(s, name) for key, name, _, _ in _STAGE_KEYS} for s in self.stages],
            "num_classes": self.num_classes,
            "input_resolution": self.input_resolution,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    @staticmethod
    def from_json_dict(doc: dict) -> "ModelConfig":
        """Parse a config document; a missing key or a bad value raises ``ConfigurationError``."""
        stages = tuple(StageConfig(**{name: _field(s, key, kind) for key, name, kind, _ in _STAGE_KEYS})
                       for s in _field(doc, "stages", list))
        return ModelConfig(stages=stages, num_classes=_field(doc, "num_classes", int),
                           input_resolution=_field(doc, "input_resolution", int))

    @staticmethod
    def from_json(text: str) -> "ModelConfig":
        return ModelConfig.from_json_dict(json.loads(text))


def _field(doc, key: str, kind: type):
    """``doc[key]`` checked by ``require_kind`` under the name ``key``; float fields come back as ``float``.

    Only JSON's own rules live here: ``doc`` must be an object holding ``key``, ``stages`` a list,
    and since JSON has one number type, an integral float counts as an integer.
    """
    if not isinstance(doc, dict):
        raise ConfigurationError(f"expected a JSON object holding {key!r}, got {type(doc).__name__}")
    if key not in doc:
        raise ConfigurationError(f"missing key {key!r}")
    value = doc[key]
    if kind is list:
        if not isinstance(value, list):
            raise ConfigurationError(f"key {key!r} must be list, got {value!r}")
        return value
    if kind is int and isinstance(value, float) and value.is_integer():
        value = int(value)
    value = require_kind(f"key {key!r}", value, kind)
    return float(value) if kind is float else value


# Named presets: blocks, channels, heads, ffn ratios, decay exponent ranges, classes, default resolution.
_PRESETS = {
    "rmt-t": ((2, 2, 8, 2), (64, 128, 256, 512), (4, 4, 8, 16), (3, 3, 3, 3),
              (2, 2, 2, 2), (6, 6, 8, 8), 1000, 224),
    "rmt-s": ((3, 4, 18, 4), (64, 128, 256, 512), (4, 4, 8, 16), (4, 4, 3, 3),
              (2, 2, 2, 2), (6, 6, 8, 8), 1000, 224),
    "rmt-b": ((4, 8, 25, 8), (80, 160, 320, 512), (5, 5, 10, 16), (4, 4, 3, 3),
              (2, 2, 2, 2), (7, 7, 8, 8), 1000, 224),
    "rmt-l": ((4, 8, 25, 8), (112, 224, 448, 640), (7, 7, 14, 20), (4, 4, 3, 3),
              (2, 2, 2, 2), (8, 8, 8, 8), 1000, 224),
    "tiny": ((1, 1, 1, 1), (16, 32, 64, 128), (2, 2, 4, 8), (2, 2, 2, 2),
             (2, 2, 2, 2), (6, 6, 8, 8), 2, 32),
}
PRESET_NAMES = tuple(sorted(_PRESETS))


def preset_config(name: str, input_resolution: int | None = None) -> ModelConfig:
    """Build one of the named configurations; stages 1-3 decomposed, stage 4 full."""
    if name not in _PRESETS:
        raise ConfigurationError(f"unknown preset {name!r}; known presets: {', '.join(PRESET_NAMES)}")
    blocks, channels, heads, ratios, lowers, uppers, num_classes, resolution = _PRESETS[name]
    stages = tuple(
        StageConfig(num_blocks=blocks[i], channels=channels[i], heads=heads[i],
                    ffn_ratio=float(ratios[i]), decay_lower=float(lowers[i]),
                    decay_upper=float(uppers[i]), decomposed=(i < 3))
        for i in range(4)
    )
    return ModelConfig(stages=stages, num_classes=num_classes,
                       input_resolution=resolution if input_resolution is None else input_resolution)


# ---------------------------------------------------------------------------
# Parameter containers


@dataclass
class ConvParams:
    weight: Tensor
    bias: Tensor


@dataclass
class NormParams:
    gain: Tensor
    bias: Tensor


@dataclass
class StemParams:
    convs: list[ConvParams]
    norms: list[NormParams]


@dataclass
class BlockParams:
    cpe_kernel: Tensor
    norm1: NormParams
    masa: MaSAParams
    norm2: NormParams
    ffn_w1: Tensor
    ffn_b1: Tensor
    ffn_w2: Tensor
    ffn_b2: Tensor


@dataclass
class Model:
    config: ModelConfig
    stem: StemParams
    stages: list[list[BlockParams]]
    masa_configs: list[MaSAConfig]
    downsamples: list[ConvParams]
    head_weight: Tensor
    head_bias: Tensor

    def named_parameters(self) -> Iterator[tuple[str, Tensor]]:
        """Each parameter with its dotted field path, e.g. ``stages.1.0.masa.wq``."""
        return _named_tensors("", self)

    def parameters(self) -> list[Tensor]:
        return [p for _, p in self.named_parameters()]


def _named_tensors(prefix: str, value) -> Iterator[tuple[str, Tensor]]:
    if isinstance(value, Tensor):
        yield prefix, value
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _named_tensors(f"{prefix}.{i}", item)
    elif is_dataclass(value):
        for f in fields(value):
            yield from _named_tensors(f"{prefix}.{f.name}" if prefix else f.name, getattr(value, f.name))


# ---------------------------------------------------------------------------
# Normalization


def layer_norm(x: Tensor, norm: NormParams) -> Tensor:
    """Normalize [N, C] tokens over the channel axis with per-channel affine."""
    return normalize(x, (-1,), norm.gain, norm.bias)


def channel_norm(image: Tensor, norm: NormParams) -> Tensor:
    """Normalize an [H, W, C] map per channel over its spatial extent."""
    return normalize(image, (0, 1), norm.gain, norm.bias)


# ---------------------------------------------------------------------------
# Blocks


def conv_stem(image: Tensor, stem: StemParams) -> tuple[Tensor, GridShape]:
    """Embed a [3, R, R] image into an (R/4)x(R/4) token grid.

    Five 3x3 convolutions with strides (2, 1, 2, 1, 1); each is followed by
    per-channel normalization, and all but the last also by GELU. The image
    turns channels-last once, on entry; the final [R/4, R/4, C] map reshapes to tokens.
    """
    if image.ndim != 3 or image.shape[0] != 3:
        raise DimensionError(f"stem expects a [3, R, R] image, got {image.shape}")
    if image.shape[1] != image.shape[2] or image.shape[1] % 4:
        raise ConfigurationError(f"stem needs a square resolution divisible by 4, got {image.shape}")
    h = transpose(image, (1, 2, 0))
    last = len(stem.convs) - 1
    for i, (conv, norm) in enumerate(zip(stem.convs, stem.norms)):
        h = conv2d(h, conv.weight, conv.bias, stride=STEM_STRIDES[i], padding=1)
        h = channel_norm(h, norm)
        if i != last:
            h = gelu(h)
    grid_h, grid_w, channels = h.shape
    return reshape(h, (grid_h * grid_w, channels)), GridShape(grid_h, grid_w)


def cpe(x: Tensor, grid: GridShape, kernel: Tensor) -> Tensor:
    """Conditional positional encoding: residual depthwise conv over the grid."""
    return add(x, lce(x, grid, kernel))


def ffn(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """Two-layer MLP with GELU between the projections."""
    return linear(gelu(linear(x, w1, b1)), w2, b2)


def rmt_block(x: Tensor, grid: GridShape, params: BlockParams, config: MaSAConfig) -> Tensor:
    """Positional conv, then pre-norm attention and pre-norm FFN residuals."""
    x1 = cpe(x, grid, params.cpe_kernel)
    x2 = add(x1, masa_layer_forward(layer_norm(x1, params.norm1), params.masa, config, grid))
    return add(x2, ffn(layer_norm(x2, params.norm2),
                       params.ffn_w1, params.ffn_b1, params.ffn_w2, params.ffn_b2))


def downsample(x: Tensor, grid: GridShape, conv: ConvParams) -> tuple[Tensor, GridShape]:
    """Halve each grid side with a stride-2 3x3 convolution, remapping channels."""
    if grid.height % 2 or grid.width % 2:
        raise ConfigurationError(f"downsample needs even grid sides, got {grid.height}x{grid.width}")
    out = conv2d(token_image(x, grid), conv.weight, conv.bias, stride=2, padding=1)
    h2, w2, c_out = out.shape
    return reshape(out, (h2 * w2, c_out)), GridShape(h2, w2)


# ---------------------------------------------------------------------------
# Assembly


def _stem_channel_plan(c1: int) -> list[tuple[int, int]]:
    half = c1 // 2
    return [(3, half), (half, half), (half, c1), (c1, c1), (c1, c1)]


def build_backbone(config: ModelConfig, seed: int) -> Model:
    """Deterministically initialize a model for ``config`` from ``seed``.

    Projections and conv kernels draw truncated-normal values (sigma ``INIT_STD``),
    biases start at zero, and norm gains at one.
    """
    require_integer("model seed", seed, 0)
    rng = np.random.default_rng(seed)

    def zeros(*shape):
        return Tensor(np.zeros(shape), requires_grad=True)

    def ones(*shape):
        return Tensor(np.ones(shape), requires_grad=True)

    stem_convs, stem_norms = [], []
    for cin, cout in _stem_channel_plan(config.stages[0].channels):
        stem_convs.append(ConvParams(weight=init_kernel(rng, cout, cin, STEM_KERNEL, STEM_KERNEL),
                                     bias=zeros(cout)))
        stem_norms.append(NormParams(gain=ones(cout), bias=zeros(cout)))

    stages: list[list[BlockParams]] = []
    masa_configs: list[MaSAConfig] = []
    for sc in config.stages:
        masa_configs.append(MaSAConfig(
            dim=sc.channels, num_heads=sc.heads, decomposed=sc.decomposed,
            decay=gamma_schedule(sc.decay_lower, sc.decay_upper, sc.heads)))
        blocks = []
        for _ in range(sc.num_blocks):
            c, hidden = sc.channels, sc.ffn_hidden
            blocks.append(BlockParams(
                cpe_kernel=init_kernel(rng, c, CPE_KERNEL, CPE_KERNEL),
                norm1=NormParams(gain=ones(c), bias=zeros(c)),
                masa=init_masa_params(masa_configs[-1], rng),
                norm2=NormParams(gain=ones(c), bias=zeros(c)),
                ffn_w1=init_weight(rng, c, hidden), ffn_b1=zeros(hidden),
                ffn_w2=init_weight(rng, hidden, c), ffn_b2=zeros(c)))
        stages.append(blocks)

    downsamples = [
        ConvParams(weight=init_kernel(rng, config.stages[i + 1].channels, config.stages[i].channels,
                                      DOWNSAMPLE_KERNEL, DOWNSAMPLE_KERNEL),
                   bias=zeros(config.stages[i + 1].channels))
        for i in range(3)
    ]
    c_last = config.stages[3].channels
    return Model(config=config, stem=StemParams(stem_convs, stem_norms), stages=stages,
                 masa_configs=masa_configs, downsamples=downsamples,
                 head_weight=init_weight(rng, c_last, config.num_classes),
                 head_bias=zeros(config.num_classes))


def forward_classify(model: Model, image: Tensor) -> Tensor:
    """Run the backbone on one image and return [num_classes] logits."""
    r = model.config.input_resolution
    if image.shape != (3, r, r):
        raise ConfigurationError(f"model expects a [3, {r}, {r}] image, got {image.shape}")
    tokens, grid = conv_stem(image, model.stem)
    for s in range(4):
        for params in model.stages[s]:
            tokens = rmt_block(tokens, grid, params, model.masa_configs[s])
        if s < 3:
            tokens, grid = downsample(tokens, grid, model.downsamples[s])
    pooled = mean_axes(tokens, (0,))
    logits = linear(reshape(pooled, (1, pooled.shape[0])), model.head_weight, model.head_bias)
    return reshape(logits, (model.config.num_classes,))


# ---------------------------------------------------------------------------
# Accounting


def count_params(model: Model) -> int:
    """Exact number of scalar parameters held by the model."""
    return sum(p.size for p in model.parameters())


def count_params_analytic(config: ModelConfig) -> int:
    """Parameter count from the configuration alone: the ``flops_by_stage`` rows summed.

    Matches ``count_params(build_backbone(config, seed))`` exactly.
    """
    return sum(row["params"] for row in flops_by_stage(config, config.input_resolution))


def _conv_out(side: int, kernel: int, stride: int, padding: int) -> int:
    return (side + 2 * padding - kernel) // stride + 1


def stage_grids(config: ModelConfig, resolution: int) -> list[GridShape]:
    """Token grid entering each stage: side R/4, then halved between stages."""
    if resolution < 32 or resolution % 32:
        raise ConfigurationError(f"resolution must be a positive multiple of 32 so the R/4 grid "
                                 f"halves three times, got {resolution}")
    side = resolution // 4
    return [GridShape(side // 2 ** i, side // 2 ** i) for i in range(4)]


def count_flops(config: ModelConfig, resolution: int) -> int:
    """Analytic multiply-accumulate count for one forward pass: the ``flops_by_stage`` rows summed.

    One MAC = one FLOP. Counts matmul and convolution MACs only; normalization, softmax,
    decay weighting, and activations are elementwise and excluded. Matches the
    runtime-instrumented count of ``forward_classify`` exactly.
    """
    return sum(row["macs"] for row in flops_by_stage(config, resolution))


def flops_by_stage(config: ModelConfig, resolution: int) -> list[dict]:
    """Per-section MAC and parameter breakdown: stem, four stages, head.

    The one accounting table; ``count_flops`` and ``count_params_analytic``
    sum its rows. Each stage row includes the downsample that follows it.
    """
    grids = stage_grids(config, resolution)
    stem_params = stem_macs = 0
    side = resolution
    for (cin, cout), stride in zip(_stem_channel_plan(config.stages[0].channels), STEM_STRIDES):
        side = _conv_out(side, STEM_KERNEL, stride, 1)
        stem_params += cout * cin * STEM_KERNEL ** 2 + 3 * cout  # conv weight + bias, norm gain + bias
        stem_macs += cout * side * side * cin * STEM_KERNEL ** 2
    rows = [{"section": "stem", "grid": f"{side}x{side}", "params": stem_params, "macs": stem_macs}]
    for i, sc in enumerate(config.stages):
        n, c, hidden = grids[i].size, sc.channels, sc.ffn_hidden
        mode = "decomposed" if sc.decomposed else "full"
        block_params = (c * CPE_KERNEL ** 2             # cpe kernel
                        + 2 * c                         # norm1
                        + 4 * c * c                     # q, k, v, o projections
                        + c * LCE_KERNEL ** 2           # lce kernel
                        + 2 * c                         # norm2
                        + c * hidden + hidden           # ffn in
                        + hidden * c + c)               # ffn out
        block_macs = (n * c * CPE_KERNEL ** 2           # cpe depthwise conv
                      + 4 * n * c * c                   # q, k, v, o projections
                      + sc.heads * attention_score_apply_macs(
                          mode, grids[i].height, grids[i].width, c // sc.heads)
                      + n * c * LCE_KERNEL ** 2         # lce depthwise conv
                      + 2 * n * c * hidden)             # ffn matmuls
        params, macs = sc.num_blocks * block_params, sc.num_blocks * block_macs
        if i < 3:
            c_next = config.stages[i + 1].channels
            params += c_next * c * DOWNSAMPLE_KERNEL ** 2 + c_next
            macs += c_next * grids[i + 1].size * c * DOWNSAMPLE_KERNEL ** 2
        rows.append({"section": f"stage{i + 1}", "grid": f"{grids[i].height}x{grids[i].width}",
                     "params": params, "macs": macs})
    c_last = config.stages[3].channels
    rows.append({"section": "head", "grid": "1x1",
                 "params": c_last * config.num_classes + config.num_classes,
                 "macs": c_last * config.num_classes})
    return rows
