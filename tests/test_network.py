import tracemalloc

import numpy as np
import pytest

from arrayemu.arrays import ArrayConfig
from arrayemu.network import (
    MODEL_MAGIC,
    MlpModel,
    TrainConfig,
    adam_step,
    init_model,
    load_model,
    minmax_apply,
    minmax_fit,
    minmax_invert,
    mlp_backward,
    mlp_forward,
    predict,
    save_model,
    stack_real_imag,
    train,
    unstack_real_imag,
)

from arrayemu import network
from oracles import fd_gradients, forward_chain, reference_train


class TestStacking:
    def test_single_complex_entry(self):
        assert np.array_equal(stack_real_imag(np.array([[1 + 2j]])), [[1.0], [2.0]])

    def test_real_block_bottom_zeros(self):
        stacked = stack_real_imag(np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex))
        assert np.all(stacked[2:] == 0.0)

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
        assert np.array_equal(unstack_real_imag(stack_real_imag(data)), data)

    def test_odd_row_count_rejected(self):
        with pytest.raises(ValueError, match="even row count, got 3"):
            unstack_real_imag(np.ones((3, 2)))


class TestMinMax:
    def test_fit_simple_row(self):
        stats = minmax_fit(np.array([[-1.0, 3.0]]))
        assert np.array_equal(stats, [[-1.0, 3.0]])

    def test_constant_feature(self):
        stats = minmax_fit(np.array([[2.0, 2.0, 2.0]]))
        assert np.array_equal(stats, [[2.0, 2.0]])
        applied = minmax_apply(np.array([[2.0, 2.0]]), stats)
        assert np.all(applied == 0.0)
        assert np.all(minmax_invert(applied, stats) == 2.0)

    def test_training_features_in_unit_interval(self):
        rng = np.random.default_rng(1)
        data = rng.standard_normal((5, 40))
        norm = minmax_apply(data, minmax_fit(data))
        assert norm.min() >= 0.0 and norm.max() <= 1.0

    def test_endpoints(self):
        stats = np.array([[-2.0, 6.0]])
        assert minmax_apply(np.array([[-2.0]]), stats)[0, 0] == 0.0
        assert minmax_apply(np.array([[6.0]]), stats)[0, 0] == 1.0

    def test_round_trip_exact(self):
        rng = np.random.default_rng(2)
        data = rng.standard_normal((4, 30))
        stats = minmax_fit(data)
        back = minmax_invert(minmax_apply(data, stats), stats)
        assert np.max(np.abs(back - data)) < 1e-12

    def test_out_of_range_passes_through(self):
        stats = np.array([[0.0, 1.0]])
        assert minmax_apply(np.array([[2.5]]), stats)[0, 0] == 2.5

    def test_one_dimensional_data_rejected(self):
        with pytest.raises(ValueError, match="\\(features, samples\\) matrix"):
            minmax_fit(np.ones(4))


class TestForward:
    def test_zero_net_outputs_zero(self):
        dims = [3, 4, 4, 2, 2]
        model = MlpModel(
            layer_dims=dims,
            weights=[np.zeros((b, a)) for a, b in zip(dims[:-1], dims[1:])],
            biases=[np.zeros(b) for b in dims[1:]],
            output_activation="linear",
        )
        out, _ = mlp_forward(model, np.ones((3, 1)))
        assert out.shape == (2, 1)
        assert np.all(out == 0.0)

    def test_relu_kills_negative_path(self):
        model = MlpModel(
            layer_dims=[1, 1],
            weights=[np.array([[-1.0]])],
            biases=[np.zeros(1)],
            output_activation="relu",
        )
        out, _ = mlp_forward(model, np.array([[2.0]]))
        assert out[0, 0] == 0.0

    def test_matches_independent_chain_evaluation(self):
        rng = np.random.default_rng(3)
        model = init_model([5, 6, 6, 4, 4], "linear", rng)
        x = rng.standard_normal((5, 1))
        out, _ = mlp_forward(model, x)
        oracle = forward_chain(model.weights, model.biases, "linear", x[:, 0])
        assert np.max(np.abs(out[:, 0] - oracle)) < 1e-12

    def test_dimension_mismatch_rejected(self):
        model = init_model([3, 2], "linear", 0)
        with pytest.raises(ValueError):
            mlp_forward(model, np.ones((4, 1)))

    def test_one_dimensional_input_rejected(self):
        """A feature vector of the right length is not a batch: without the
        check, ``w @ x + b[:, None]`` would broadcast it to a square matrix."""
        model = init_model([3, 2], "linear", 0)
        with pytest.raises(ValueError, match=r"\(3, samples\) batch"):
            mlp_forward(model, np.ones(model.input_dim))


class TestBackward:
    def test_perfect_fit_zero_gradients(self):
        model = MlpModel(
            layer_dims=[2, 2],
            weights=[np.eye(2)],
            biases=[np.zeros(2)],
            output_activation="linear",
        )
        x = np.array([[0.5], [-0.2]])
        gw, gb, loss = mlp_backward(model, x, mlp_forward(model, x)[0])
        assert loss == 0.0
        assert all(np.all(g == 0) for g in gw + gb)

    def test_scalar_linear_neuron_convention(self):
        # two outputs; the second is identically zero with zero target, so the
        # 1/output_dim loss factor is 1/2 and d(loss)/dw = 2*(2-0)*1/2 = 2.
        model = MlpModel(
            layer_dims=[1, 2],
            weights=[np.array([[2.0], [0.0]])],
            biases=[np.zeros(2)],
            output_activation="linear",
        )
        gw, _, _ = mlp_backward(model, np.array([[1.0]]), np.zeros((2, 1)))
        assert gw[0][0, 0] == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize("activation", ["linear", "relu"])
    def test_matches_finite_differences(self, activation):
        rng = np.random.default_rng(5)
        model = init_model([4, 5, 5, 3, 3], activation, rng)
        x = rng.standard_normal((4, 1))
        t = rng.standard_normal((3, 1))
        gw, gb, _ = mlp_backward(model, x, t)
        ow, ob = fd_gradients(model, x, t)
        for got, want in zip(gw + gb, ow + ob):
            denom = np.maximum(np.abs(want), 1e-6)
            assert np.max(np.abs(got - want) / denom) < 1e-4

    def test_batch_gradient_is_mean_of_samples(self):
        rng = np.random.default_rng(6)
        model = init_model([3, 4, 4, 2, 2], "linear", rng)
        x = rng.standard_normal((3, 5))
        t = rng.standard_normal((2, 5))
        gw_batch, gb_batch, _ = mlp_backward(model, x, t)
        per_sample = [mlp_backward(model, x[:, i : i + 1], t[:, i : i + 1])[:2] for i in range(5)]
        for li in range(len(model.weights)):
            mean_w = np.mean([p[0][li] for p in per_sample], axis=0)
            assert np.allclose(gw_batch[li], mean_w, atol=1e-12)

    def test_shape_mismatch_rejected(self):
        model = init_model([3, 2], "linear", 0)
        with pytest.raises(ValueError):
            mlp_backward(model, np.ones((3, 1)), np.ones((3, 1)))

    @pytest.mark.parametrize(
        "x, target",
        [(np.ones(3), np.ones((2, 1))), (np.ones((3, 1)), np.ones(2)), (np.ones(3), np.ones(2))],
        ids=["input", "target", "both"],
    )
    def test_one_dimensional_input_or_target_rejected(self, x, target):
        model = init_model([3, 2], "linear", 0)
        with pytest.raises(ValueError, match="batches"):
            mlp_backward(model, x, target)


class TestAdam:
    def test_first_step_bias_correction(self):
        p = np.zeros(1)
        adam_step(p, np.ones(1), np.zeros(1), np.zeros(1), 1)
        assert p[0] == pytest.approx(-1e-3 / (1 + 1e-8), rel=1e-12)

    def test_zero_gradient_no_motion(self):
        p = np.array([1.0, -2.0])
        adam_step(p, np.zeros(2), np.zeros(2), np.zeros(2), 1)
        assert np.array_equal(p, [1.0, -2.0])

    def test_two_steps_match_hand_recursion(self):
        lr, b1, b2, eps, g = 1e-3, 0.9, 0.999, 1e-8, 0.5
        p, m, v = np.zeros(1), np.zeros(1), np.zeros(1)
        for step in (1, 2):
            adam_step(p, np.full(1, g), m, v, step)
        # hand recursion
        m = v = 0.0
        ph = 0.0
        for t in (1, 2):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            ph -= lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
        assert p[0] == pytest.approx(ph, abs=1e-12)

    def test_updates_in_place(self):
        p, m, v = np.array([1.0, -2.0]), np.zeros(2), np.zeros(2)
        assert adam_step(p, np.ones(2), m, v, 1) is None
        assert np.all(p < [1.0, -2.0]) and np.all(m > 0) and np.all(v > 0)

    def test_nonfinite_gradient_raises(self):
        from arrayemu.network import TrainingError

        p, m, v = np.zeros(1), np.full(1, 0.5), np.full(1, 0.25)
        with pytest.raises(TrainingError):
            adam_step(p, np.full(1, np.nan), m, v, 2)
        assert p[0] == 0.0 and m[0] == 0.5 and v[0] == 0.25


class TestTrain:
    def _linear_task(self, n=400, rng_seed=7):
        rng = np.random.default_rng(rng_seed)
        x = rng.uniform(-1, 1, size=(4, n))
        w = rng.standard_normal((6, 4))
        return x, w @ x

    def test_descent_on_linear_task(self):
        x, t = self._linear_task()
        cfg = TrainConfig(epochs=2, batch_size=32, split=(0.75, 0.25, 0.0))
        _, history = train(x, t, cfg, 0, "linear")
        assert history["train"][-1] < history["train"][0]

    def test_final_loss_halves_on_linear_task(self):
        x, t = self._linear_task()
        cfg = TrainConfig(epochs=30, batch_size=32, split=(0.75, 0.25, 0.0))
        _, history = train(x, t, cfg, 0, "linear")
        assert history["train"][-1] < 0.5 * history["train"][0]

    def test_identity_task_low_val_mse(self):
        # Equal-width ReLU stacks plateau on the identity task (verified
        # against an independent framework); widen the hidden layers to get
        # a clean convergence check of the training loop itself.
        rng = np.random.default_rng(8)
        x = rng.uniform(-1, 1, size=(16, 2400))
        cfg = TrainConfig(epochs=150, batch_size=120, split=(0.75, 0.25, 0.0))
        _, history = train(x, x.copy(), cfg, 1, "linear", layer_dims=[16, 48, 48, 48, 16])
        assert min(history["val"]) < 1e-3

    def test_seeded_determinism(self):
        x, t = self._linear_task()
        cfg = TrainConfig(epochs=3, batch_size=32, split=(0.75, 0.25, 0.0))
        _, h1 = train(x, t, cfg, 5, "linear")
        _, h2 = train(x, t, cfg, 5, "linear")
        assert h1 == h2

    @pytest.mark.parametrize(
        "case, activation",
        [
            pytest.param(case, act, id=act if case == "feature_major" else f"{case}-{act}")
            for case in ("feature_major", "sample_major", "constant_on_train")
            for act in ("linear", "relu")
        ],
    )
    def test_bit_identical_to_reference_loop(self, case, activation):
        """One flat in-place Adam buffer, batches normalized in place as they
        are gathered and an in-place validation pass reproduce out-of-place
        normalization, forward and Adam exactly; the last batch of each
        epoch is a short one.  ``sample_major`` passes F-ordered views of
        (samples, features) arrays, as ``Harness.train_set`` does;
        ``constant_on_train`` makes an input and a target feature constant
        over the training columns only, so the validation columns of both
        must still map to 0."""
        rng = np.random.default_rng(21)
        x = rng.standard_normal((6, 530))
        t = np.vstack([x[:3] * x[3:], np.tanh(x)])
        if case == "sample_major":
            x, t = np.ascontiguousarray(x.T).T, np.ascontiguousarray(t.T).T
        elif case == "constant_on_train":
            idx_train = np.random.default_rng(9).permutation(530)[:318]
            x[4, idx_train] = 0.75
            t[2, idx_train] = -1.5
        cfg = TrainConfig(epochs=4, batch_size=48, split=(0.6, 0.2, 0.2))
        model, history = train(x, t, cfg, 9, activation)
        ref_w, ref_b, ref_history = reference_train(x, t, cfg, 9, activation)
        for got, want in zip(model.weights + model.biases, ref_w + ref_b):
            assert np.array_equal(got, want)
        assert history["val"] == ref_history["val"]

    def test_train_history_is_mean_batch_loss(self, monkeypatch):
        losses = []

        def recording_backward(*args):
            gw, gb, loss = mlp_backward(*args)
            losses.append(loss)
            return gw, gb, loss

        monkeypatch.setattr(network, "mlp_backward", recording_backward)
        x, t = self._linear_task(n=400)
        cfg = TrainConfig(epochs=3, batch_size=32, split=(0.75, 0.25, 0.0))
        _, history = train(x, t, cfg, 0, "linear")
        per_epoch = -(-300 // 32)  # 300 training samples, the last batch short
        assert len(losses) == cfg.epochs * per_epoch
        assert len(history["train"]) == cfg.epochs
        for epoch, value in enumerate(history["train"]):
            assert np.isfinite(value)
            assert value == np.mean(losses[epoch * per_epoch : (epoch + 1) * per_epoch])

    def test_peak_memory_below_the_dataset(self):
        """Nothing of the dataset's size is copied whole: the statistics
        come from one throwaway gather at a time (at most the targets'
        training columns, 0.6 of the dataset here), batches are normalized
        as gathered, and the validation pass holds the validation copy
        (0.25) and two layers' activations.  A normalized training copy
        with the validation copy is the dataset's size already, so the
        bound fails on it; train measured 0.70 of the dataset here and
        2.1 when it kept such a copy."""
        data = np.random.default_rng(0).standard_normal((20_000, 32 + 128))
        x, t = data[:, :32].T, data[:, 32:].T
        cfg = TrainConfig(epochs=1, batch_size=120, split=(0.75, 0.25, 0.0))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            train(x, t, cfg, 3, "linear")
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < data.nbytes

    def test_dataset_smaller_than_batch_rejected(self):
        with pytest.raises(ValueError):
            train(np.ones((2, 10)), np.ones((2, 10)), TrainConfig(batch_size=120), 0, "linear")

    def test_unequal_sample_counts_rejected(self):
        with pytest.raises(ValueError, match="equal samples"):
            train(np.ones((2, 10)), np.ones((2, 11)), TrainConfig(batch_size=5), 0, "linear")

    @staticmethod
    def _identity_task_with(value, where):
        """A 4-feature identity task of 200 samples with ``value`` put into
        one entry of the targets of the first training sample of seed 0
        ("train") or of the first validation sample ("val"), or of the
        inputs of the latter ("input")."""
        x = np.random.default_rng(3).uniform(-1, 1, size=(4, 200))
        t = x.copy()
        order = np.random.default_rng(0).permutation(200)
        sample = order[0] if where == "train" else order[150]
        (x if where == "input" else t)[2, sample] = value
        return x, t

    @pytest.mark.parametrize(
        "value, where, name",
        [(np.nan, "train", "targets"), (np.nan, "val", "targets"), (np.inf, "input", "inputs")],
        ids=["nan_target_train_part", "nan_target_val_part", "inf_input"],
    )
    def test_non_finite_data_rejected(self, monkeypatch, value, where, name):
        """A NaN target in the training part would make norm_out NaN, and one
        in the validation part would keep the initial weights; each case is
        refused before the generator is seeded."""
        x, t = self._identity_task_with(value, where)

        def no_generator(*args):
            raise AssertionError("generator seeded before the data check")

        monkeypatch.setattr(network.np.random, "default_rng", no_generator)
        cfg = TrainConfig(epochs=2, batch_size=20, split=(0.75, 0.25, 0.0))
        with pytest.raises(ValueError, match=f"{name} hold a non-finite value"):
            train(x, t, cfg, 0, "linear")

    def test_non_finite_loss_raises(self, monkeypatch):
        calls = []

        def diverging_backward(*args):
            gw, gb, loss = mlp_backward(*args)
            calls.append(loss)
            return gw, gb, np.nan if len(calls) == 3 else loss

        monkeypatch.setattr(network, "mlp_backward", diverging_backward)
        x, t = self._linear_task(n=400)
        cfg = TrainConfig(epochs=1, batch_size=32, split=(0.75, 0.25, 0.0))
        with pytest.raises(network.TrainingError, match="loss became non-finite at step 3$"):
            train(x, t, cfg, 0, "linear")

    def test_split_leaving_no_validation_sample_rejected(self):
        # round(0.1 * 3) = 0 validation samples.
        cfg = TrainConfig(batch_size=1, split=(0.9, 0.1, 0.0))
        with pytest.raises(ValueError, match="empty training or validation part"):
            train(np.ones((2, 3)), np.ones((2, 3)), cfg, 0, "linear")


class TestCallerArraysKept:
    """The in-place maps work on copies the library owns: each caller
    array comes back bit-equal."""

    @staticmethod
    def frozen(*arrays):
        return [(a, a.copy()) for a in arrays]

    @staticmethod
    def assert_kept(pairs):
        for got, want in pairs:
            assert np.array_equal(got, want)

    def test_train(self):
        rng = np.random.default_rng(30)
        x = rng.standard_normal((4, 200))
        t = np.ascontiguousarray(rng.standard_normal((200, 6))).T
        kept = self.frozen(x, t)
        cfg = TrainConfig(epochs=2, batch_size=20, split=(0.75, 0.25, 0.0))
        for activation in ("linear", "relu"):
            train(x, t, cfg, 0, activation)
        self.assert_kept(kept)

    @pytest.mark.parametrize("activation", ["linear", "relu"])
    def test_mlp_forward(self, activation):
        model = init_model([3, 5, 2], activation, 0)
        x = np.random.default_rng(31).standard_normal((3, 7))
        kept = self.frozen(x, *model.weights, *model.biases)
        mlp_forward(model, x)
        self.assert_kept(kept)

    def test_minmax_apply_and_invert(self):
        data = np.random.default_rng(32).standard_normal((3, 9))
        stats = np.array([[-1.0, 1.0], [2.0, 2.0], [0.0, 0.5]])
        kept = self.frozen(data, stats)
        minmax_apply(data, stats)
        minmax_invert(data, stats)
        self.assert_kept(kept)

    def test_predict(self):
        model = TestPredict._trained_identity_model()
        rng = np.random.default_rng(33)
        block = rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5))
        kept = self.frozen(block, model.norm_in, model.norm_out)
        predict(model, block, ArrayConfig(1, 2))
        self.assert_kept(kept)


class TestModelAndTrainConfig:
    def test_non_finite_weight_rejected(self):
        model = init_model([2, 3, 2], "linear", rng=0)
        model.weights[1][0, 0] = np.nan
        with pytest.raises(ValueError, match="layer 1 has non-finite parameters"):
            MlpModel(model.layer_dims, model.weights, model.biases)

    @pytest.mark.parametrize(
        "change, match",
        [
            (dict(output_activation="tanh"), "unknown output activation 'tanh'"),
            (dict(layer_dims=[2, 3, 3, 2]), "one weight matrix and bias per layer"),
            (dict(layer_dims=[2, 4, 2]), "layer 0 parameter shapes inconsistent"),
            (dict(norm_in=np.array([[0.0, 1.0], [np.nan, 1.0]])), "norm_in has non-finite"),
            (dict(norm_out=np.array([[0.0, np.inf], [0.0, 1.0]])), "norm_out has non-finite"),
        ],
    )
    def test_inconsistent_model_rejected(self, change, match):
        model = init_model([2, 3, 2], "linear", rng=0)
        kw = dict(layer_dims=model.layer_dims, weights=model.weights, biases=model.biases)
        with pytest.raises(ValueError, match=match):
            MlpModel(**{**kw, **change})

    @pytest.mark.parametrize("kw", [dict(epochs=0), dict(batch_size=0)])
    def test_no_epoch_or_empty_batch_rejected(self, kw):
        with pytest.raises(ValueError, match="epochs and batch_size must be >= 1"):
            TrainConfig(**kw)

    def test_split_not_summing_to_one_rejected(self):
        with pytest.raises(ValueError, match="split fractions must sum to 1"):
            TrainConfig(split=(0.5, 0.25, 0.0))


class TestPredict:
    @staticmethod
    def _trained_identity_model():
        rng = np.random.default_rng(9)
        x = rng.uniform(-1, 1, size=(4, 600))
        cfg = TrainConfig(epochs=120, batch_size=32, split=(0.75, 0.25, 0.0))
        model, _ = train(x, x.copy(), cfg, 2, "linear", layer_dims=[4, 16, 16, 16, 4])
        return model

    def test_identity_task_prediction_close_to_input(self):
        model = self._trained_identity_model()
        rng = np.random.default_rng(10)
        data = 0.3 * (rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5)))
        pred = predict(model, data, ArrayConfig(1, 2))
        assert np.max(np.abs(pred - data)) < 0.1

    def test_column_independence(self):
        model = self._trained_identity_model()
        rng = np.random.default_rng(11)
        data = rng.standard_normal((2, 6)) + 1j * rng.standard_normal((2, 6))
        perm = np.array([3, 1, 5, 0, 2, 4])
        pred = predict(model, data, ArrayConfig(1, 2))
        pred_perm = predict(model, data[:, perm], ArrayConfig(1, 2))
        assert np.allclose(pred[:, perm], pred_perm, atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        """A block must be 2-D with input_dim / 2 rows: a block of the wrong
        array, a 1-D vector and a (Q, MN, P) stack of two trials."""
        model = self._trained_identity_model()
        for shape in [(3, 2), (2,), (2, 2, 5)]:
            with pytest.raises(ValueError, match="model expects 2 rows"):
                predict(model, np.ones(shape, dtype=complex), ArrayConfig(1, 2))

    def test_model_without_normalization_rejected(self):
        model = init_model([4, 8, 4], "linear", rng=0)
        with pytest.raises(ValueError, match="no normalization statistics"):
            predict(model, np.ones((2, 3), dtype=complex), ArrayConfig(1, 2))

    def test_output_not_fitting_the_high_array_rejected(self):
        model = self._trained_identity_model()  # 4 outputs: a 2-element array
        with pytest.raises(ValueError, match="does not match the requested high array"):
            predict(model, np.ones((2, 3), dtype=complex), ArrayConfig(1, 3))


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(12)
        x = rng.uniform(-1, 1, size=(4, 300))
        cfg = TrainConfig(epochs=3, batch_size=32, split=(0.75, 0.25, 0.0))
        model, _ = train(x, 2 * x, cfg, 3, "linear")
        path = tmp_path / "model.mlp"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.layer_dims == model.layer_dims
        assert loaded.output_activation == model.output_activation
        for a, b_ in zip(model.weights + model.biases, loaded.weights + loaded.biases):
            assert np.array_equal(a, b_)
        data = 0.1 * (rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4)))
        assert np.array_equal(
            predict(model, data, ArrayConfig(1, 2)),
            predict(loaded, data, ArrayConfig(1, 2)),
        )

    def test_model_without_normalization_not_saved(self, tmp_path):
        path = tmp_path / "raw.mlp"
        with pytest.raises(ValueError, match="without normalization statistics"):
            save_model(init_model([2, 3, 2], "linear", rng=0), path)
        assert not path.exists()

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "v9.mlp"
        data = bytearray(self.saved_model(path))
        data[len(MODEL_MAGIC) : len(MODEL_MAGIC) + 4] = (9).to_bytes(4, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="unsupported model format version 9"):
            load_model(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.mlp"
        path.write_bytes(b"not a model at all")
        with pytest.raises(ValueError):
            load_model(path)

    @staticmethod
    def saved_model(path):
        x = np.random.default_rng(4).uniform(-1, 1, size=(2, 40))
        cfg = TrainConfig(epochs=1, batch_size=10, split=(0.75, 0.25, 0.0))
        model, _ = train(x, x, cfg, 0, "linear")
        save_model(model, path)
        return path.read_bytes()

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "long.mlp"
        path.write_bytes(self.saved_model(path) + b"\0\0\0\0")
        with pytest.raises(ValueError, match=f"^{path}: trailing bytes after the model"):
            load_model(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "cut.mlp"
        path.write_bytes(self.saved_model(path)[:-1])
        with pytest.raises(ValueError, match="truncated model file"):
            load_model(path)

    @pytest.mark.parametrize("field", ["sizes", "count"])
    def test_oversized_header_refused_before_allocating(self, tmp_path, field):
        """Layer sizes of 2**30 (a 16 GiB first weight block) or a layer
        count of 2**32 - 1 (16 GiB of sizes) are a truncated file, refused
        without allocating what the header declares."""
        path = tmp_path / "huge.mlp"
        data = bytearray(self.saved_model(path))
        count = slice(len(MODEL_MAGIC) + 4, len(MODEL_MAGIC) + 8)
        n_dims = int.from_bytes(data[count], "little")
        if field == "count":
            data[count] = (2**32 - 1).to_bytes(4, "little")
        else:
            sizes = slice(count.stop, count.stop + 4 * n_dims)
            data[sizes] = np.full(n_dims, 2**30, dtype="<u4").tobytes()
        path.write_bytes(bytes(data))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"^{path}: truncated model file$"):
                load_model(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    # The header: magic, version and layer count (2 x u4), layer sizes (u4
    # each), output-activation flag (u1); the float64 blocks follow.
    @pytest.mark.parametrize("keep", [len(MODEL_MAGIC) + 5, len(MODEL_MAGIC) + 8 + 2])
    def test_header_cut_rejected(self, tmp_path, keep):
        """Cut inside the version/count words and inside the layer sizes."""
        path = tmp_path / "cut.mlp"
        path.write_bytes(self.saved_model(path)[:keep])
        with pytest.raises(ValueError, match="truncated model file"):
            load_model(path)

    def test_too_few_layer_sizes_rejected(self, tmp_path):
        path = tmp_path / "dims.mlp"
        data = bytearray(self.saved_model(path))
        data[len(MODEL_MAGIC) + 4 : len(MODEL_MAGIC) + 8] = (1).to_bytes(4, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="at least 2 layer sizes, got 1"):
            load_model(path)

    def test_non_finite_normalization_block_rejected(self, tmp_path):
        """The first norm_in entry follows the magic, the version and count
        words, the layer sizes and the activation flag."""
        path = tmp_path / "nan.mlp"
        data = bytearray(self.saved_model(path))
        n_dims = int.from_bytes(data[len(MODEL_MAGIC) + 4 : len(MODEL_MAGIC) + 8], "little")
        start = len(MODEL_MAGIC) + 8 + 4 * n_dims + 1
        data[start : start + 8] = np.array(np.nan, dtype="<f8").tobytes()
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="norm_in has non-finite normalization statistics"):
            load_model(path)

    def test_unknown_activation_flag_rejected(self, tmp_path):
        path = tmp_path / "flag.mlp"
        data = bytearray(self.saved_model(path))
        n_dims = int.from_bytes(data[len(MODEL_MAGIC) + 4 : len(MODEL_MAGIC) + 8], "little")
        data[len(MODEL_MAGIC) + 8 + 4 * n_dims] = 7
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="unknown output activation flag 7"):
            load_model(path)
