"""Acceptance suite: one test per contract criterion, each printing a
pass/fail line and holding its stated tolerance and runtime budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import masa_kit as mk
from masa_kit import (GridShape, Tensor, attention_score_apply_macs, decay_axial_pair,
                      decay_manhattan_2d, masa_decomposed, masa_full, retention_parallel,
                      retention_recurrent)
from masa_kit.train import finite_diff_gradcheck

README = Path(__file__).resolve().parents[1] / "README.md"

# published budgets for the named presets: millions of parameters and
# GFLOPs for one 224x224 forward pass
PRESET_BUDGETS = {
    "rmt-t": (14.0, 2.5),
    "rmt-s": (27.0, 4.5),
    "rmt-b": (54.0, 9.7),
    "rmt-l": (95.0, 18.2),
}


@contextmanager
def criterion(number, description, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"[acceptance] criterion {number} ({description}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"[acceptance] criterion {number} ({description}): PASS in {elapsed:.2f}s")
    assert elapsed < budget_seconds, f"criterion {number} exceeded {budget_seconds}s ({elapsed:.2f}s)"


def test_criterion_1_decay_factorization():
    with criterion(1, "decay factorization", 1.0):
        for height in range(1, 9):
            for width in range(1, 9):
                for gamma in (0.25, 0.5, 0.9):
                    grid = GridShape(height, width)
                    d_h, d_w = decay_axial_pair(grid, gamma)
                    full = decay_manhattan_2d(grid, gamma)
                    diff = np.max(np.abs(np.kron(d_h.data, d_w.data) - full.data))
                    assert diff < 1e-12, (height, width, gamma, diff)


def test_criterion_2_retention_equivalence():
    with criterion(2, "recurrent/parallel retention equivalence", 1.0):
        rng = np.random.default_rng(2024)
        for case in range(100):
            length = int(rng.integers(1, 17))
            dim = int(rng.integers(1, 9))
            gamma = float(rng.uniform(0.05, 0.95))
            q, k, v = (Tensor(rng.standard_normal((length, dim))) for _ in range(3))
            rec = retention_recurrent(q, k, v, gamma)
            par = retention_parallel(q, k, v, gamma)
            diff = np.max(np.abs(rec.data - par.data))
            assert diff < 1e-10, (case, length, dim, gamma, diff)


def test_criterion_3_decomposed_equals_full_at_uniform_attention():
    with criterion(3, "decomposed/full equality", 5.0):
        rng = np.random.default_rng(3)
        for height in range(1, 7):
            for width in range(1, 7):
                grid = GridShape(height, width)
                q = Tensor(np.zeros((grid.size, 4)))
                k = Tensor(rng.standard_normal((grid.size, 4)))
                v = Tensor(rng.standard_normal((grid.size, 4)))
                diff = np.max(np.abs(masa_full(q, k, v, grid, 0.5).data
                                     - masa_decomposed(q, k, v, grid, 0.5).data))
                assert diff < 1e-12, (height, width, diff)
        for width in (1, 3, 6, 9):
            grid = GridShape(1, width)
            q, k, v = (Tensor(rng.standard_normal((width, 4))) for _ in range(3))
            diff = np.max(np.abs(masa_full(q, k, v, grid, 0.7).data
                                 - masa_decomposed(q, k, v, grid, 0.7).data))
            assert diff < 1e-12, (width, diff)


def test_criterion_4_vanilla_reduction():
    with criterion(4, "no-decay reduction to softmax attention", 5.0):
        rng = np.random.default_rng(4)
        for case in range(100):
            height = int(rng.integers(1, 5))
            width = int(rng.integers(1, 5))
            dim = int(rng.integers(1, 6))
            grid = GridShape(height, width)
            q, k, v = (Tensor(rng.standard_normal((grid.size, dim))) for _ in range(3))
            out = masa_full(q, k, v, grid, None)
            logits = q.data @ k.data.T / np.sqrt(dim)
            shifted = logits - logits.max(axis=1, keepdims=True)
            weights = np.exp(shifted)
            weights /= weights.sum(axis=1, keepdims=True)
            diff = np.max(np.abs(out.data - weights @ v.data))
            assert diff < 1e-12, (case, diff)


def test_criterion_5_gradient_checks():
    with criterion(5, "finite-difference gradient checks", 30.0):
        rng = np.random.default_rng(5)
        grid = GridShape(2, 2)
        qkv = [Tensor(rng.uniform(-1, 1, (4, 3))) for _ in range(3)]

        err, _ = finite_diff_gradcheck(
            lambda i: mk.sum_all(masa_full(i[0], i[1], i[2], grid, 0.6)), qkv)
        assert err < 1e-6, f"masa_full: {err}"

        grid23 = GridShape(2, 3)
        qkv23 = [Tensor(rng.uniform(-1, 1, (6, 3))) for _ in range(3)]
        err, _ = finite_diff_gradcheck(
            lambda i: mk.sum_all(masa_decomposed(i[0], i[1], i[2], grid23, 0.6)), qkv23)
        assert err < 1e-6, f"masa_decomposed: {err}"

        v = Tensor(rng.uniform(-1, 1, (4, 2)))
        kernel = Tensor(rng.uniform(-1, 1, (2, 3, 3)).transpose(1, 2, 0))
        err, _ = finite_diff_gradcheck(
            lambda i: mk.sum_all(mk.lce(i[0], grid, i[1])), [v, kernel])
        assert err < 1e-6, f"lce: {err}"

        err, _ = finite_diff_gradcheck(
            lambda i: mk.sum_all(mk.cpe(i[0], grid, i[1])), [v, kernel])
        assert err < 1e-6, f"cpe: {err}"

        x = Tensor(rng.uniform(-1, 1, (4, 3)))
        w1, b1 = Tensor(rng.uniform(-1, 1, (3, 6))), Tensor(rng.uniform(-1, 1, (6,)))
        w2, b2 = Tensor(rng.uniform(-1, 1, (6, 3))), Tensor(rng.uniform(-1, 1, (3,)))
        err, _ = finite_diff_gradcheck(
            lambda i: mk.sum_all(mk.ffn(i[0], i[1], i[2], i[3], i[4])), [x, w1, b1, w2, b2])
        assert err < 1e-6, f"ffn: {err}"

        from masa_kit.blocks import BlockParams, NormParams

        config = mk.MaSAConfig(dim=4, num_heads=2, decomposed=False,
                               decay=mk.gamma_schedule(2, 8, 2))
        leaves = [Tensor(rng.uniform(-1, 1, (4, 4)))]          # block input
        leaves += [Tensor(0.2 * rng.uniform(-1, 1, (4, 4))) for _ in range(4)]  # wq wk wv wo
        leaves += [Tensor(0.2 * rng.uniform(-1, 1, (4, 3, 3)).transpose(1, 2, 0))
                   for _ in range(2)]  # cpe, lce
        leaves += [Tensor(rng.uniform(0.8, 1.2, (4,))), Tensor(0.1 * rng.uniform(-1, 1, (4,)))]
        leaves += [Tensor(0.2 * rng.uniform(-1, 1, (4, 4))), Tensor(0.1 * rng.uniform(-1, 1, (4,))),
                   Tensor(0.2 * rng.uniform(-1, 1, (4, 4))), Tensor(0.1 * rng.uniform(-1, 1, (4,)))]

        def block_closure(i):
            params = BlockParams(
                cpe_kernel=i[5],
                norm1=NormParams(gain=i[7], bias=i[8]),
                masa=mk.MaSAParams(wq=i[1], wk=i[2], wv=i[3], wo=i[4],
                                   lce_kernel_weights=i[6]),
                norm2=NormParams(gain=Tensor(np.ones(4)), bias=Tensor(np.zeros(4))),
                ffn_w1=i[9], ffn_b1=i[10], ffn_w2=i[11], ffn_b2=i[12])
            return mk.sum_all(mk.rmt_block(i[0], grid, params, config))

        err, _ = finite_diff_gradcheck(block_closure, leaves)
        assert err < 1e-6, f"rmt_block: {err}"


def test_criterion_6_preset_accounting():
    with criterion(6, "preset parameter and FLOP budgets", 10.0):
        # tie the analytic count to a real model once, on the smallest preset
        cfg_t = mk.preset_config("rmt-t")
        model_t = mk.build_backbone(cfg_t, seed=0)
        assert mk.count_params(model_t) == mk.count_params_analytic(cfg_t)

        for name, (params_m, flops_g) in PRESET_BUDGETS.items():
            cfg = mk.preset_config(name)
            params = mk.count_params_analytic(cfg) / 1e6
            flops = mk.count_flops(cfg, 224) / 1e9
            assert abs(params - params_m) / params_m <= 0.10, (name, params)
            assert abs(flops - flops_g) / flops_g <= 0.15, (name, flops)


def test_criterion_7_complexity_scaling():
    with criterion(7, "attention MAC scaling", 1.0):
        for side in (3, 4, 7, 8, 14, 28):
            full = attention_score_apply_macs("full", side, side, 32)
            full2 = attention_score_apply_macs("full", 2 * side, 2 * side, 32)
            split = attention_score_apply_macs("decomposed", side, side, 32)
            split2 = attention_score_apply_macs("decomposed", 2 * side, 2 * side, 32)
            assert full2 == 16 * full
            assert split2 == 8 * split
        for side in range(3, 60):
            assert (attention_score_apply_macs("decomposed", side, side, 16)
                    < attention_score_apply_macs("full", side, side, 16))


def test_criterion_8_training_demo():
    with criterion(8, "training demo reaches 95 percent", 300.0):
        cfg = mk.preset_config("tiny")
        data = mk.DataConfig(seed=7, n=64, resolution=32, num_classes=2)
        first = mk.train_loop(cfg, data, steps=300, seed=7)
        assert first.final.accuracy >= 0.95, first.final
        assert first.final.loss < first.initial.loss
        second = mk.train_loop(cfg, data, steps=300, seed=7)
        assert [(r.step, r.loss, r.accuracy) for r in first.records] == \
               [(r.step, r.loss, r.accuracy) for r in second.records]


def test_criterion_9_out_of_scope_results_are_stated():
    with criterion(9, "out-of-scope results stated", 1.0):
        text = README.read_text()
        assert "ImageNet" in text
        assert "COCO" in text
        assert "ADE20K" in text
        assert "throughput" in text.lower()
        assert "not" in text.lower()
