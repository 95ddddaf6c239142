"""Synthetic data, loss, optimizer, gradcheck harness, training loop."""

import math

import numpy as np
import pytest

from masa_kit import (ConfigurationError, DataConfig, Tensor, TrainingError, UsageError,
                      adamw_step, backward, cross_entropy, hadamard, init_optim, preset_config,
                      sum_all, synth_dataset, train_loop)
from masa_kit import train
from masa_kit.train import (NOISE_STD, cosine_lr, evaluate, finite_diff_gradcheck,
                            init_train_state, train_step)


class TestSynthDataset:
    def test_same_seed_gives_identical_data(self):
        a = synth_dataset(3, 10, 16, 2)
        b = synth_dataset(3, 10, 16, 2)
        for s1, s2 in zip(a, b):
            np.testing.assert_array_equal(s1.image.data, s2.image.data)
            assert s1.label == s2.label

    def test_labels_are_stratified(self):
        data = synth_dataset(0, 100, 8, 2)
        labels = [s.label for s in data]
        assert labels.count(0) == 50 and labels.count(1) == 50

    def test_class_means_separate_beyond_noise(self):
        data = synth_dataset(1, 40, 16, 2)
        mean0 = np.mean([s.image.data.mean() for s in data if s.label == 0])
        mean1 = np.mean([s.image.data.mean() for s in data if s.label == 1])
        assert abs(mean0 - mean1) > 3 * NOISE_STD

    def test_empty_dataset_rejected(self):
        with pytest.raises(UsageError):
            synth_dataset(0, 0, 8, 2)

    @pytest.mark.parametrize("name,args", [("seed", (-1, 2, 32, 2)), ("n", (0, -4, 32, 2)),
                                           ("resolution", (0, 2, 0, 2)),
                                           ("num_classes", (0, 2, 32, 0))])
    def test_out_of_range_argument_rejected_by_name(self, name, args):
        with pytest.raises(UsageError, match=f"dataset {name} must be at least"):
            synth_dataset(*args)


class TestCrossEntropy:
    def test_uniform_logits_give_log_of_class_count(self):
        loss = cross_entropy(Tensor(np.zeros(4)), 2)
        assert abs(loss.item() - math.log(4)) < 1e-14

    def test_confident_logits(self):
        loss = cross_entropy(Tensor([10.0, 0.0]), 0)
        assert abs(loss.item() - math.log1p(math.exp(-10.0))) < 1e-14
        assert abs(loss.item() - 4.54e-5) < 1e-7

    def test_gradient_is_softmax_minus_onehot(self):
        rng = np.random.default_rng(0)
        logits = Tensor(rng.standard_normal(5), requires_grad=True)
        backward(cross_entropy(logits, 3))
        e = np.exp(logits.data - logits.data.max())
        expected = e / e.sum()
        expected[3] -= 1.0
        np.testing.assert_allclose(logits.grad, expected, atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        logits = Tensor(rng.standard_normal(4))
        tracked = Tensor(logits.data.copy(), requires_grad=True)
        backward(cross_entropy(tracked, 1))
        h = 1e-5
        for idx in range(4):
            bumped_up = logits.data.copy()
            bumped_up[idx] += h
            bumped_dn = logits.data.copy()
            bumped_dn[idx] -= h
            fd = (cross_entropy(Tensor(bumped_up), 1).item()
                  - cross_entropy(Tensor(bumped_dn), 1).item()) / (2 * h)
            assert abs(fd - tracked.grad[idx]) < 1e-8

    def test_out_of_range_label_rejected(self):
        with pytest.raises(UsageError):
            cross_entropy(Tensor(np.zeros(3)), 3)
        with pytest.raises(UsageError):
            cross_entropy(Tensor(np.zeros(3)), -1)


class TestAdamW:
    def test_zero_grad_zero_decay_leaves_params(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        state = init_optim([p], lr=0.1, weight_decay=0.0)
        adamw_step([p], [np.zeros(2)], state)
        np.testing.assert_array_equal(p.data, [1.0, -2.0])

    def test_unit_step_hand_value(self):
        # first step with g = 1: bias-corrected moment ratio is 1, so p drops by ~lr
        p = Tensor(np.array([1.0]), requires_grad=True)
        state = init_optim([p], lr=0.1, weight_decay=0.0)
        adamw_step([p], [np.ones(1)], state)
        assert abs(p.data[0] - 0.9) < 1e-6

    def test_decoupled_decay_shrinks_by_exact_factor(self):
        p = Tensor(np.array([2.0]), requires_grad=True)
        state = init_optim([p], lr=0.1, weight_decay=0.05)
        adamw_step([p], [np.zeros(1)], state)
        assert abs(p.data[0] - 2.0 * (1 - 0.005)) < 1e-15

    def test_shape_mismatch_rejected(self):
        p = Tensor(np.zeros(2), requires_grad=True)
        state = init_optim([p])
        with pytest.raises(UsageError):
            adamw_step([p], [np.zeros(3)], state)

    def test_three_tiny_steps_equal_the_out_of_place_formula_bit_for_bit(self, monkeypatch):
        # the moments are updated in place, so each step is checked against the formula
        # written out on copies of the state it started from
        b1, b2 = train.ADAM_BETAS
        steps = []

        def checked_step(params, grads, state):
            t, lr, wd = state.step + 1, state.lr, state.weight_decay
            m = [b1 * mi + (1.0 - b1) * g for mi, g in zip(state.m, grads)]
            v = [b2 * vi + (1.0 - b2) * g * g for vi, g in zip(state.v, grads)]
            want = [p.data * (1.0 - lr * wd) - lr * (mi / (1.0 - b1 ** t))
                    / (np.sqrt(vi / (1.0 - b2 ** t)) + train.ADAM_EPS)
                    for p, mi, vi in zip(params, m, v)]
            adamw_step(params, grads, state)
            for got, expected in ((state.m, m), (state.v, v), ([p.data for p in params], want)):
                for a, b in zip(got, expected, strict=True):
                    np.testing.assert_array_equal(a, b)
            steps.append(t)
        monkeypatch.setattr(train, "adamw_step", checked_step)
        state = init_train_state(preset_config("tiny"),
                                 DataConfig(seed=0, n=4, resolution=32, num_classes=2), steps=3)
        for _ in range(3):
            train_step(state, batch_size=2)
        assert steps == [1, 2, 3]


class TestCosineLr:
    def test_starts_at_base(self):
        assert cosine_lr(0.3, 0, 10) == 0.3

    def test_halfway_is_half_of_base(self):
        assert abs(cosine_lr(0.3, 5, 10) - 0.15) < 1e-15

    def test_ends_at_exactly_zero_and_clamps_past_the_end(self):
        assert cosine_lr(0.3, 10, 10) == 0.0
        assert cosine_lr(0.3, 25, 10) == 0.0

    @pytest.mark.parametrize("total_steps", [0, -4])
    def test_no_schedule_without_a_positive_horizon(self, total_steps):
        assert cosine_lr(0.3, 7, total_steps) == 0.3


class TestGradcheckHarness:
    def test_linear_closure_is_near_exact(self):
        # truncation error vanishes for linear maps, so a coarse step leaves
        # only machine roundoff
        rng = np.random.default_rng(2)
        a = rng.standard_normal(6)
        x = Tensor(rng.standard_normal(6))
        err, _ = finite_diff_gradcheck(
            lambda inputs: sum_all(hadamard(Tensor(a), inputs[0])), [x], eps=1e-3)
        assert err < 1e-10

    def test_non_scalar_closure_rejected(self):
        x = Tensor(np.zeros(3))
        with pytest.raises(UsageError):
            finite_diff_gradcheck(lambda i: i[0], [x])

    def test_non_positive_eps_rejected(self):
        with pytest.raises(UsageError):
            finite_diff_gradcheck(lambda i: i[0], [Tensor(np.zeros(1))], eps=0.0)


class TestTrainLoop:
    def test_zero_steps_yields_initial_record_only(self):
        metrics = train_loop(preset_config("tiny"), DataConfig(seed=0, n=8, resolution=32,
                                                               num_classes=2), steps=0)
        assert metrics.records == []
        assert metrics.initial.step == 0
        assert metrics.final is metrics.initial

    def test_identical_seeds_give_identical_curves(self):
        cfg = preset_config("tiny")
        data = DataConfig(seed=5, n=16, resolution=32, num_classes=2, batch_size=4)
        m1 = train_loop(cfg, data, steps=6, seed=9, eval_interval=2)
        m2 = train_loop(cfg, data, steps=6, seed=9, eval_interval=2)
        assert [(r.step, r.loss, r.accuracy) for r in m1.records] == \
               [(r.step, r.loss, r.accuracy) for r in m2.records]

    def test_loss_drops_within_a_few_steps(self):
        cfg = preset_config("tiny")
        data = DataConfig(seed=3, n=16, resolution=32, num_classes=2)
        metrics = train_loop(cfg, data, steps=12, seed=3, eval_interval=12)
        assert metrics.final.loss < metrics.initial.loss

    def test_injected_inf_parameter_raises_training_error_with_step(self):
        cfg = preset_config("tiny")
        data = DataConfig(seed=0, n=8, resolution=32, num_classes=2, batch_size=2)
        state = init_train_state(cfg, data, steps=4)
        train_step(state, batch_size=2)
        corrupted = state.params[0].data.copy()
        corrupted.flat[0] = np.inf
        state.params[0].data = corrupted
        with pytest.raises(TrainingError, match=r"parameter stem\.convs\.0\.weight at step 1"):
            train_step(state, batch_size=2)

    def test_overflow_in_the_forward_raises_training_error_with_step(self):
        state = init_train_state(preset_config("tiny"),
                                 DataConfig(seed=0, n=2, resolution=32, num_classes=2), steps=1)
        w1 = state.model.stages[0][0].ffn_w1
        w1.data = np.full_like(w1.data, 1e308)  # finite, so only the forward's values overflow
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(TrainingError, match="training diverged at step 0: "):
            train_step(state, batch_size=1)
        assert state.step == 0

    @pytest.mark.parametrize("data_seed,model_seed", [(-1, 0), (0, -1)], ids=["data", "model"])
    def test_negative_seed_is_a_configuration_error_naming_the_seed(self, data_seed, model_seed):
        with pytest.raises(ConfigurationError, match=r"seed .*-1"):
            train_loop(preset_config("tiny"),
                       DataConfig(seed=data_seed, n=2, resolution=32, num_classes=2),
                       steps=1, seed=model_seed)

    @pytest.mark.parametrize("field,value", [("seed", -3), ("n", 0), ("num_classes", 0),
                                             ("batch_size", 0), ("batch_size", -2)])
    def test_data_config_refuses_out_of_range_fields(self, field, value):
        fields = dict(seed=0, n=4, resolution=32, num_classes=2)
        fields[field] = value
        with pytest.raises(ConfigurationError, match=field):
            DataConfig(**fields)

    @pytest.mark.parametrize("field,value", [("num_classes", 3), ("resolution", 64)])
    def test_data_config_that_disagrees_with_the_model_rejected(self, field, value):
        fields = dict(seed=0, n=4, resolution=32, num_classes=2)
        fields[field] = value
        with pytest.raises(ConfigurationError, match=field):
            init_train_state(preset_config("tiny"), DataConfig(**fields), steps=1)

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_train_step_refuses_an_empty_batch(self, batch_size):
        state = init_train_state(preset_config("tiny"),
                                 DataConfig(seed=0, n=2, resolution=32, num_classes=2), steps=1)
        with pytest.raises(UsageError, match=f"batch_size must be positive, got {batch_size}"):
            train_step(state, batch_size)
        assert state.step == 0

    def test_negative_step_count_rejected(self):
        data = DataConfig(seed=0, n=2, resolution=32, num_classes=2)
        with pytest.raises(UsageError, match="steps must be non-negative, got -3"):
            init_train_state(preset_config("tiny"), data, steps=-3)
        with pytest.raises(UsageError, match="steps must be non-negative, got -3"):
            train_loop(preset_config("tiny"), data, steps=-3)

    def test_evaluate_reports_fraction_and_mean_loss(self):
        cfg = preset_config("tiny")
        data = DataConfig(seed=2, n=6, resolution=32, num_classes=2)
        state = init_train_state(cfg, data, steps=0)
        loss, acc = evaluate(state)
        assert 0.0 <= acc <= 1.0
        assert loss > 0.0
