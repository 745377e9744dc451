import json
from pathlib import Path

import numpy as np
import pytest

from mmgcn import data as D
from mmgcn import layers as L
from mmgcn import metrics as M
from mmgcn import training as T
from mmgcn.numerics import NumericalFailure
from mmgcn.regularization import RegularizerConfig

from conftest import (
    historical_average_rmse,
    pack_grads,
    pack_params,
    tiny_network,
    zeros_baseline_rmse,
)


def tiny_dataset(weeks=2, grid=4, seed=5, drift=0.0, noise=0.0, train_fraction=0.9):
    cfg = D.SynthConfig(grid, grid, weeks=weeks, drift_rate=drift, noise_scale=noise,
                        seed=seed)
    ds = D.generate_synthetic(cfg)
    samples = D.make_windows(ds.series)
    cut = int(len(samples) * train_fraction)
    return ds, {"train": samples[:cut], "val": samples[cut:], "test": []}


def small_net(kinds=("ggcn", "mrgcn"), dims=(8, 1), degree=2):
    specs = L.make_layer_specs(list(kinds), 5, list(dims))
    return L.NetworkConfig(3, degree, specs)


class TestTotalLoss:
    """``layers.batch_loss``: smoothed batch RMSE plus the group-lasso and
    tensor-normal terms."""

    def test_smoothing_floor_at_exact_fit(self):
        _, bases, _, params = tiny_network(kinds=("ggcn", "mrgcn"), dims=(3, 1))
        for layer in params.layers:
            layer.weights[:] = 0.0
        reg = RegularizerConfig(alpha_low=0.0, alpha_high=0.0)
        x, y = np.ones((1, 3, 5)), np.zeros((1, 3))
        loss, _ = L.batch_loss(x, y, bases, params, reg, with_grads=False)
        assert loss == pytest.approx(1e-6)

    def test_equals_batch_rmse_without_regularizers(self):
        rng = np.random.default_rng(0)
        _, bases, _, params = tiny_network(kinds=("ggcn", "mrgcn"), dims=(3, 1))
        reg = RegularizerConfig(alpha_low=0.0, alpha_high=0.0)
        batch = [
            (rng.uniform(size=(3, 5)), rng.uniform(size=(3, 1))) for _ in range(4)
        ]
        x = np.stack([a for a, _ in batch])
        targets = np.stack([b[:, 0] for _, b in batch])
        predictions = np.stack([L.network_forward(a, bases, params)[:, 0] for a in x])
        loss, _ = L.batch_loss(x, targets, bases, params, reg, with_grads=False)
        assert loss == pytest.approx(M.rmse(predictions, targets), abs=1e-9)

    def test_scalar_example(self):
        _, bases, _, params = tiny_network(
            vertices=1, modalities=1, kinds=("mrgcn",), dims=(1,), input_dim=1, degree=0
        )
        params.layers[0].weights[:] = 3.0  # prediction = 3 * input
        reg = RegularizerConfig(alpha_low=0.0, alpha_high=0.0)
        x, y = np.array([[[1.0]]]), np.array([[1.0]])
        loss, _ = L.batch_loss(x, y, bases, params, reg, with_grads=False)
        assert loss == pytest.approx(2.0, abs=1e-9)

    def test_decomposes_into_public_terms(self):
        from mmgcn.regularization import group_lasso, tensor_normal_loss

        rng = np.random.default_rng(8)
        _, bases, _, params = tiny_network(kinds=("ggcn", "mrgcn"), dims=(3, 1))
        reg = RegularizerConfig(alpha_low=1e-3, alpha_high=1e-2)
        batch = [(rng.uniform(size=(3, 5)), rng.uniform(size=(3, 1))) for _ in range(3)]
        x = np.stack([a for a, _ in batch])
        y = np.stack([b[:, 0] for _, b in batch])
        base, _ = L.batch_loss(x, y, bases, params,
                               RegularizerConfig(alpha_low=0.0, alpha_high=0.0),
                               with_grads=False)
        lasso, _ = group_lasso(params.layers[0].weights, reg.alpha_intra)
        prior, _ = tensor_normal_loss(
            params.layers[1].weights, params.layers[1].covariances
        )
        expected = base + reg.alpha_low * lasso + reg.alpha_high * prior
        loss, _ = L.batch_loss(x, y, bases, params, reg, with_grads=False)
        assert loss == pytest.approx(expected, rel=1e-12)

    def test_empty_batch(self):
        _, bases, _, params = tiny_network()
        with pytest.raises(ValueError, match="nonempty"):
            L.batch_loss(np.zeros((0, 3, 5)), np.zeros((0, 3)), bases, params,
                         RegularizerConfig(), with_grads=False)


class TestAdamStep:
    def _state(self):
        _, _, _, params = tiny_network(kinds=("ggcn", "mrgcn"), dims=(3, 1))
        return T.init_train_state(params, seed=0)

    def _zero_grads(self, params):
        return [
            L.LayerGrads(np.zeros_like(l.weights), np.zeros_like(l.biases))
            for l in params.layers
        ]

    def test_zero_gradient_keeps_params(self):
        state = self._state()
        before = pack_params(state.params)
        T.adam_step(state, self._zero_grads(state.params), T.TrainConfig())
        np.testing.assert_array_equal(pack_params(state.params), before)
        assert state.step == 1

    def test_first_step_moves_by_lr_sign(self):
        state = self._state()
        rng = np.random.default_rng(1)
        grads = [
            L.LayerGrads(rng.normal(size=l.weights.shape), rng.normal(size=l.biases.shape))
            for l in state.params.layers
        ]
        cfg = T.TrainConfig(learning_rate=1e-3)
        before = pack_params(state.params)
        T.adam_step(state, grads, cfg)
        delta = pack_params(state.params) - before
        flat = pack_grads(grads)
        np.testing.assert_allclose(
            delta, -cfg.learning_rate * flat / (np.abs(flat) + cfg.adam_eps), rtol=1e-9
        )

    def test_two_steps_reduce_quadratic(self):
        # 1-parameter quadratic: loss = (w - 3)^2 on prediction w * 1
        theta = np.array([10.0])
        state_m, state_v, step = np.zeros(1), np.zeros(1), 0
        cfg = T.TrainConfig(learning_rate=0.5)

        def loss(w):
            return (w[0] - 3.0) ** 2

        losses = [loss(theta)]
        for _ in range(2):
            grad = np.array([2.0 * (theta[0] - 3.0)])
            step += 1
            state_m = cfg.adam_beta1 * state_m + (1 - cfg.adam_beta1) * grad
            state_v = cfg.adam_beta2 * state_v + (1 - cfg.adam_beta2) * grad**2
            m_hat = state_m / (1 - cfg.adam_beta1**step)
            v_hat = state_v / (1 - cfg.adam_beta2**step)
            theta = theta - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.adam_eps)
            losses.append(loss(theta))
        assert losses[2] < losses[1] < losses[0]

    def test_matches_textbook_update_bitwise(self):
        state = self._state()
        cfg = T.TrainConfig(learning_rate=1e-2)
        rng = np.random.default_rng(3)
        theta = [arr.copy() for _, arr in L.named_param_arrays(state.params)]
        first = [np.zeros_like(a) for a in theta]
        second = [np.zeros_like(a) for a in theta]
        for t in range(1, 4):
            grads = [
                L.LayerGrads(rng.normal(size=l.weights.shape), rng.normal(size=l.biases.shape))
                for l in state.params.layers
            ]
            T.adam_step(state, grads, cfg)
            flat = [arr for g in grads for arr in (g.weights, g.biases)]
            for k, grad in enumerate(flat):
                first[k] = cfg.adam_beta1 * first[k] + (1.0 - cfg.adam_beta1) * grad
                second[k] = cfg.adam_beta2 * second[k] + (1.0 - cfg.adam_beta2) * grad**2
                m_hat = first[k] / (1.0 - cfg.adam_beta1**t)
                v_hat = second[k] / (1.0 - cfg.adam_beta2**t)
                theta[k] = theta[k] - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.adam_eps)
        for (name, arr), expected in zip(L.named_param_arrays(state.params), theta):
            assert np.array_equal(arr, expected), name
        for got, expected in zip(state.first_moment + state.second_moment, first + second):
            assert np.array_equal(got, expected)

    def test_nonfinite_gradient_names_block(self):
        state = self._state()
        grads = self._zero_grads(state.params)
        grads[1].weights[0, 0, 0, 0] = np.nan
        with pytest.raises(NumericalFailure, match="layer1.weights"):
            T.adam_step(state, grads, T.TrainConfig())


class TestTrain:
    def test_zero_epochs_returns_initial_state(self):
        ds, splits = tiny_dataset()
        net = small_net()
        cfg = T.TrainConfig(max_epochs=0, seed=3)
        result = T.train(splits, ds.graphs, net, cfg)
        assert result.history == []
        expected = L.init_network_params(net, 3, cfg.reg.frozen_modes)
        np.testing.assert_array_equal(
            pack_params(result.state.params), pack_params(expected)
        )

    def test_all_frozen_keeps_identity_covariances(self, covariance_updates):
        ds, splits = tiny_dataset()
        cfg = T.TrainConfig(
            learning_rate=1e-2, max_epochs=2, seed=0,
            reg=RegularizerConfig(frozen_modes=("I", "O", "C", "M")),
        )
        T.train(splits, ds.graphs, small_net(), cfg)
        assert covariance_updates
        for update in covariance_updates:
            for cov in update:
                for sigma in cov.sigma:
                    np.testing.assert_array_equal(sigma, np.eye(sigma.shape[0]))

    def test_learns_above_baselines(self):
        ds, splits = tiny_dataset()
        cfg = T.TrainConfig(learning_rate=2e-2, max_epochs=10, patience=10, seed=0)
        result = T.train(splits, ds.graphs, small_net(), cfg)
        final_train_rmse = result.history[-1].train_rmse
        assert final_train_rmse < zeros_baseline_rmse(splits["train"])
        assert final_train_rmse < historical_average_rmse(splits["train"], splits["train"])

    def test_deterministic(self):
        ds, splits = tiny_dataset()
        cfg = T.TrainConfig(learning_rate=1e-2, max_epochs=3, seed=11)
        a = T.train(splits, ds.graphs, small_net(), cfg)
        b = T.train(splits, ds.graphs, small_net(), cfg)
        assert a.history == b.history
        np.testing.assert_array_equal(
            pack_params(a.state.params), pack_params(b.state.params)
        )

    def test_returns_best_validation_params(self):
        ds, splits = tiny_dataset(noise=0.3)
        cfg = T.TrainConfig(learning_rate=2e-2, max_epochs=8, patience=3, seed=1)
        result = T.train(splits, ds.graphs, small_net(), cfg)
        best = min(row.val_rmse for row in result.history)
        assert result.state.best_val_rmse == best
        assert result.history[result.state.best_epoch].val_rmse == best
        bases = __import__("mmgcn.graphs", fromlist=["graph_bases"]).graph_bases(
            ds.graphs, 2
        )
        recomputed = M.rmse(
            L.predict_batches(splits["val"], bases, result.state.params),
            M.stack_targets(splits["val"]),
        )
        assert recomputed == pytest.approx(best, abs=1e-12)

    def test_early_stopping_truncates_and_keeps_best(self):
        ds, splits = tiny_dataset(noise=1.0, drift=2.0)
        cfg = T.TrainConfig(learning_rate=2e-2, max_epochs=40, patience=3, seed=0)
        result = T.train(splits, ds.graphs, small_net(), cfg)
        assert len(result.history) < 40
        best_epoch = int(np.argmin([row.val_rmse for row in result.history]))
        assert result.state.best_epoch == best_epoch
        assert len(result.history) == best_epoch + cfg.patience + 1

    def test_early_stopped_run_returns_best_epochs_whole_state(self, tmp_path):
        # stops after 19 epochs with best epoch 15; a run of 16 epochs ends on
        # that epoch, so both must return its state: 16 epochs of 10 batches
        # (step 160), with a covariance pass every 3 steps across epochs
        ds, splits = tiny_dataset(noise=1.0, drift=2.0)
        states = []
        for max_epochs in (40, 16):
            cfg = T.TrainConfig(learning_rate=2e-2, max_epochs=max_epochs, patience=3,
                                cov_update_every=3, seed=0)
            result = T.train(splits, ds.graphs, small_net(), cfg)
            T.save_checkpoint(tmp_path / str(max_epochs), result.state, cfg.reg.frozen_modes)
            states.append(result.state)
        stopped, straight = states
        assert (stopped.best_epoch, straight.best_epoch) == (15, 15)
        assert (stopped.step, straight.step) == (160, 160)
        assert (stopped.epochs_since_improvement, straight.epochs_since_improvement) == (3, 0)
        assert stopped.best_val_rmse == straight.best_val_rmse
        np.testing.assert_array_equal(pack_params(stopped.params), pack_params(straight.params))
        for moments in ("first_moment", "second_moment"):
            for a, b in zip(getattr(stopped, moments), getattr(straight, moments)):
                np.testing.assert_array_equal(a, b)
        for a, b in zip(stopped.params.layers, straight.params.layers):
            if isinstance(a, L.MrgcnLayerParams):
                for s_a, s_b in zip(a.covariances.sigma, b.covariances.sigma):
                    np.testing.assert_array_equal(s_a, s_b)
        assert stopped.rng.bit_generator.state == straight.rng.bit_generator.state
        stopped_dir, straight_dir = tmp_path / "40", tmp_path / "16"
        assert ((stopped_dir / "checkpoint.bin").read_bytes()
                == (straight_dir / "checkpoint.bin").read_bytes())
        stopped_json = json.loads((stopped_dir / "checkpoint.json").read_text())
        straight_json = json.loads((straight_dir / "checkpoint.json").read_text())
        assert stopped_json["scalars"].pop("epochs_since_improvement") == 3
        assert straight_json["scalars"].pop("epochs_since_improvement") == 0
        assert stopped_json == straight_json

    def test_loss_nonincreasing_single_sample(self):
        # one sample, one step per epoch, regularizers off, small lr
        ds, splits = tiny_dataset()
        sample = splits["train"][0]
        one = {"train": [sample], "val": [sample]}
        net = small_net(dims=(4, 1), degree=1)
        cfg = T.TrainConfig(
            learning_rate=2e-4, batch_size=1, max_epochs=50, patience=50, seed=0,
            reg=RegularizerConfig(alpha_low=0.0, alpha_high=0.0),
        )
        result = T.train(one, ds.graphs, net, cfg)
        losses = [row.train_rmse for row in result.history[:50]]
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_spd_covariances_after_training(self, covariance_updates):
        ds, splits = tiny_dataset()
        cfg = T.TrainConfig(learning_rate=1e-2, max_epochs=2, seed=0)
        T.train(splits, ds.graphs, small_net(), cfg)
        for cov in covariance_updates[-1]:
            assert cov.frozen == (True, True, False, False)
            for mode, sigma in enumerate(cov.sigma):
                np.testing.assert_allclose(sigma, sigma.T, atol=1e-10)
                if not cov.frozen[mode]:
                    assert np.linalg.eigvalsh(sigma)[0] >= cfg.reg.epsilon - 1e-12

    def test_chebyshev_basis_trains_deterministically(self):
        ds, splits = tiny_dataset()
        cfg = T.TrainConfig(learning_rate=1e-2, max_epochs=2, seed=4)
        a = T.train(splits, ds.graphs, small_net(), cfg, basis_kind="chebyshev")
        b = T.train(splits, ds.graphs, small_net(), cfg, basis_kind="chebyshev")
        assert a.history == b.history
        power = T.train(splits, ds.graphs, small_net(), cfg)
        assert a.history != power.history

    def test_non_finite_evaluation_raises(self, monkeypatch):
        ds, splits = tiny_dataset()
        real = L.predict_batches
        calls = []

        def nan_on_second_epoch(samples, bases, params):
            calls.append(1)
            preds = real(samples, bases, params)
            # one call per epoch: only the validation split is evaluated
            return preds * np.nan if len(calls) > 1 else preds

        monkeypatch.setattr(L, "predict_batches", nan_on_second_epoch)
        cfg = T.TrainConfig(learning_rate=1e-2, max_epochs=5, seed=0)
        with pytest.raises(NumericalFailure, match="epoch 1: non-finite evaluation"):
            T.train(splits, ds.graphs, small_net(), cfg)

    def test_train_rmse_of_one_batch_is_pre_update_rmse(self):
        from mmgcn.graphs import graph_bases

        ds, splits = tiny_dataset()
        net = small_net()
        cfg = T.TrainConfig(learning_rate=1e-2, batch_size=len(splits["train"]),
                            max_epochs=1, seed=6)
        result = T.train(splits, ds.graphs, net, cfg)
        initial = L.init_network_params(net, cfg.seed, cfg.reg.frozen_modes)
        expected = M.rmse(
            L.predict_batches(splits["train"], graph_bases(ds.graphs, 2), initial),
            M.stack_targets(splits["train"]),
        )
        assert result.history[0].train_rmse == pytest.approx(expected, rel=1e-12)

    def test_train_rmse_pools_pre_update_batch_predictions(self):
        # replay the loop from its public pieces, predicting each batch
        # before its update
        from mmgcn.graphs import graph_bases

        ds, splits = tiny_dataset()
        net = small_net()
        cfg = T.TrainConfig(learning_rate=1e-2, batch_size=50, max_epochs=2,
                            cov_update_every=2, seed=9)
        result = T.train(splits, ds.graphs, net, cfg)

        train = splits["train"]
        assert len(train) % cfg.batch_size != 0  # a short last batch
        bases = graph_bases(ds.graphs, 2)
        state = T.init_train_state(
            L.init_network_params(net, cfg.seed, cfg.reg.frozen_modes), cfg.seed
        )
        inputs = np.stack([s.input for s in train])
        targets = M.stack_targets(train)
        batches = 0
        for epoch in range(cfg.max_epochs):
            order = state.rng.permutation(len(train))
            squared = 0.0
            for start in range(0, len(train), cfg.batch_size):
                picked = order[start : start + cfg.batch_size]
                preds = L.predict_batches([train[i] for i in picked], bases, state.params)
                squared += float(np.sum((preds - targets[picked]) ** 2))
                _, grads = L.batch_loss(inputs[picked], targets[picked], bases,
                                        state.params, cfg.reg, with_grads=True)
                T.adam_step(state, grads, cfg)
                batches += 1
                if batches % cfg.cov_update_every == 0:
                    T._update_covariances(state.params, cfg.reg)
            pooled = np.sqrt(squared / targets.size)
            assert result.history[epoch].train_rmse == pytest.approx(pooled, rel=1e-12)

    def test_empty_split_rejected(self):
        ds, splits = tiny_dataset()
        with pytest.raises(ValueError):
            T.train({"train": [], "val": splits["val"]}, ds.graphs, small_net(),
                    T.TrainConfig(max_epochs=1))


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        ds, splits = tiny_dataset()
        cfg = T.TrainConfig(learning_rate=1e-2, max_epochs=3, seed=2)
        result = T.train(splits, ds.graphs, small_net(), cfg)
        T.save_checkpoint(tmp_path, result.state, cfg.reg.frozen_modes)
        restored = T.load_checkpoint(tmp_path)

        np.testing.assert_array_equal(
            pack_params(restored.params), pack_params(result.state.params)
        )
        for a, b in zip(restored.first_moment, result.state.first_moment):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(restored.second_moment, result.state.second_moment):
            np.testing.assert_array_equal(a, b)
        assert restored.step == result.state.step
        assert restored.best_val_rmse == result.state.best_val_rmse
        assert restored.rng.bit_generator.state == result.state.rng.bit_generator.state
        for orig, back in zip(result.state.params.layers, restored.params.layers):
            if isinstance(orig, L.MrgcnLayerParams):
                for s_a, s_b in zip(orig.covariances.sigma, back.covariances.sigma):
                    np.testing.assert_array_equal(s_a, s_b)

    def test_zero_epoch_checkpoint_is_strict_json(self, tmp_path):
        # no epoch sets a best validation RMSE, so it stays inf and is
        # written as null
        ds, splits = tiny_dataset()
        cfg = T.TrainConfig(max_epochs=0, seed=2)
        state = T.train(splits, ds.graphs, small_net(), cfg).state
        assert state.best_val_rmse == np.inf
        T.save_checkpoint(tmp_path, state, cfg.reg.frozen_modes)

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        manifest = json.loads((tmp_path / "checkpoint.json").read_text(), parse_constant=reject)
        assert manifest["scalars"]["best_val_rmse"] is None
        restored = T.load_checkpoint(tmp_path)
        assert restored.best_val_rmse == np.inf
        assert restored.best_epoch == -1
        np.testing.assert_array_equal(pack_params(restored.params), pack_params(state.params))
        copy = tmp_path / "copy"
        T.save_checkpoint(copy, restored, cfg.reg.frozen_modes)
        for name in ("checkpoint.json", "checkpoint.bin"):
            assert (copy / name).read_bytes() == (tmp_path / name).read_bytes()

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        ds, splits = tiny_dataset()
        cfg = T.TrainConfig(learning_rate=1e-2, max_epochs=1, seed=2)
        first = T.train(splits, ds.graphs, small_net(), cfg).state
        T.save_checkpoint(tmp_path, first, cfg.reg.frozen_modes)
        cfg.max_epochs = 2
        second = T.train(splits, ds.graphs, small_net(), cfg).state
        assert second.step != first.step

        real_write = Path.write_bytes

        def fail_on_index(path, data):
            # the blob is written in full, then the index write fails
            if path.name.startswith(".checkpoint.json"):
                raise OSError("no space left on device")
            return real_write(path, data)

        monkeypatch.setattr(Path, "write_bytes", fail_on_index)
        with pytest.raises(OSError, match="no space"):
            T.save_checkpoint(tmp_path, second, cfg.reg.frozen_modes)
        monkeypatch.undo()

        restored = T.load_checkpoint(tmp_path)
        np.testing.assert_array_equal(
            pack_params(restored.params), pack_params(first.params)
        )
        assert restored.step == first.step
        assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint.bin", "checkpoint.json"]

    @pytest.fixture
    def saved(self, tmp_path):
        ds, splits = tiny_dataset()
        cfg = T.TrainConfig(learning_rate=1e-2, max_epochs=1, seed=2)
        state = T.train(splits, ds.graphs, small_net(), cfg).state
        T.save_checkpoint(tmp_path, state, cfg.reg.frozen_modes)
        return tmp_path

    def _edit_index(self, out_dir, edit):
        path = out_dir / "checkpoint.json"
        manifest = json.loads(path.read_text())
        edit(manifest["tensor_index"])
        path.write_text(json.dumps(manifest))

    @pytest.mark.parametrize("field", ["scalars", "kind", "offset"])
    def test_missing_manifest_field_named(self, saved, field):
        path = saved / "checkpoint.json"
        manifest = json.loads(path.read_text())
        holder = {"scalars": manifest, "kind": manifest["net_config"]["layers"][1],
                  "offset": manifest["tensor_index"][2]}[field]
        del holder[field]
        path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=f"checkpoint.json is missing field '{field}'"):
            T.load_checkpoint(saved)

    def test_truncated_blob_names_tensor(self, saved):
        blob = (saved / "checkpoint.bin").read_bytes()
        (saved / "checkpoint.bin").write_bytes(blob[:-8])
        with pytest.raises(ValueError, match=r"ends inside tensor 'layer1\.cov\.M'"):
            T.load_checkpoint(saved)

    def test_missing_tensor_named(self, saved):
        # dropping the last tensor keeps the layout of the others intact
        self._edit_index(saved, lambda index: index.pop())
        with pytest.raises(ValueError, match=r"missing tensor 'layer1\.cov\.M'"):
            T.load_checkpoint(saved)

    def test_extra_tensor_named(self, saved):
        def add(index):
            index.append({"name": "layer9.weights", "shape": [1],
                          "offset": index[-1]["offset"]})

        self._edit_index(saved, add)
        with pytest.raises(ValueError, match=r"unexpected tensor 'layer9\.weights'"):
            T.load_checkpoint(saved)

    def test_tampered_frozen_mode_named(self, saved):
        # layer 1 freezes its input mode ("I"); its stored matrix must stay I
        manifest = json.loads((saved / "checkpoint.json").read_text())
        entry = next(e for e in manifest["tensor_index"] if e["name"] == "layer1.cov.I")
        blob = bytearray((saved / "checkpoint.bin").read_bytes())
        blob[entry["offset"] : entry["offset"] + 8] = np.array([2.0], dtype="<f8").tobytes()
        (saved / "checkpoint.bin").write_bytes(bytes(blob))
        with pytest.raises(ValueError, match=r"layer 1: frozen mode I must hold the identity"):
            T.load_checkpoint(saved)

    def test_restored_evaluation_matches(self, tmp_path):
        from mmgcn.graphs import graph_bases

        ds, splits = tiny_dataset()
        cfg = T.TrainConfig(learning_rate=1e-2, max_epochs=3, seed=2)
        result = T.train(splits, ds.graphs, small_net(), cfg)
        T.save_checkpoint(tmp_path, result.state, cfg.reg.frozen_modes)
        restored = T.load_checkpoint(tmp_path)
        bases = graph_bases(ds.graphs, 2)
        val_rmse = M.rmse(
            L.predict_batches(splits["val"], bases, restored.params),
            M.stack_targets(splits["val"]),
        )
        assert val_rmse == pytest.approx(result.state.best_val_rmse, abs=1e-9)
