"""Weight storage in the kernel's source-major order.

Every weight tensor the library allocates keeps its logical shape, but its
memory is laid out in the order ``layers._source_major`` reads, so the
kernel's contiguous read is a view, not a copy.  These tests pin where that
layout comes from and survives (init, copy, checkpoint load, ``train``),
that gradients share it, and that no result depends on it: checkpoint bytes,
the regularizers, Adam and a whole training run give the same bits as with
C-order weights.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmgcn import data as D
from mmgcn import layers as L
from mmgcn import training as T
from mmgcn.graphs import graph_bases
from mmgcn.regularization import (
    CovarianceSet,
    RegularizerConfig,
    flip_flop_update,
    group_lasso,
    tensor_normal_loss,
)

from conftest import random_spd

# GGCN 5->8 and MRGCN 2->16 propagate their input, GGCN 8->2 and MRGCN 16->1
# their output, so the network takes all four (kind, order) layouts
KINDS = (L.GGCN, L.GGCN, L.MRGCN, L.MRGCN)
DIMS = (8, 2, 16, 1)
MODALITIES = 3


def kernel_reads_a_view(weights) -> bool:
    return np.shares_memory(np.ascontiguousarray(L._source_major(weights)), weights)


def assert_kernel_layout(params):
    for idx, layer in enumerate(params.layers):
        assert kernel_reads_a_view(layer.weights), f"layer {idx}"


def permuted_storage(array, axes):
    """The values of ``array`` in its logical shape, stored in ``axes`` order."""
    return np.ascontiguousarray(array.transpose(axes)).transpose(np.argsort(axes))


@pytest.fixture(scope="module")
def city():
    cfg = D.SynthConfig(3, 3, 4, drift_rate=1.0, noise_scale=0.3, seed=5)
    dataset = D.generate_synthetic(cfg)
    splits = D.default_splits(cfg)
    train, val, _ = D.split_dataset(D.make_windows(dataset.series),
                                    *(splits[k] for k in D.SPLIT_NAMES))
    return dataset.graphs, {"train": train[:48], "val": val[:24]}


def net_config(degree=2):
    return L.NetworkConfig(MODALITIES, degree, L.make_layer_specs(list(KINDS), 5, list(DIMS)))


def train_run(city):
    graphs, splits = city
    cfg = T.TrainConfig(learning_rate=1e-2, batch_size=16, max_epochs=2, seed=4,
                        reg=RegularizerConfig(frozen_modes=()))
    return T.train(splits, graphs, net_config(), cfg)


def test_network_takes_every_kernel_order():
    orders = set()
    for spec in net_config().layer_specs:
        g = MODALITIES * spec.out_dim if spec.kind == L.GGCN else spec.out_dim
        orders.add((spec.kind, L._propagates_input(spec.in_dim, g)))
    assert len(orders) == 4


def test_init_and_copy_store_weights_in_kernel_order():
    params = L.init_network_params(net_config(), 3)
    assert_kernel_layout(params)
    assert not any(layer.weights.flags.c_contiguous for layer in params.layers[:3])
    copied = copy.deepcopy(params)  # as train() snapshots its best epoch
    assert_kernel_layout(copied)
    for layer, twin in zip(params.layers, copied.layers):
        assert not np.shares_memory(layer.weights, twin.weights)
        assert np.array_equal(layer.weights, twin.weights)


def test_init_draws_canonical_positions():
    # the same generator calls fill the same logical positions as a C-order draw
    config = net_config()
    params = L.init_network_params(config, 9)
    rng = np.random.default_rng(9)
    for spec, layer in zip(config.layer_specs, params.layers):
        bound = np.sqrt(6.0 / (spec.in_dim + spec.out_dim))
        expected = rng.uniform(-bound, bound, layer.weights.shape)
        assert np.array_equal(layer.weights, expected)


def test_load_checkpoint_and_train_keep_kernel_order(city, tmp_path):
    result = train_run(city)
    assert_kernel_layout(result.state.params)
    T.save_checkpoint(tmp_path, result.state)
    loaded = T.load_checkpoint(tmp_path)
    assert_kernel_layout(loaded.params)
    for layer, twin in zip(result.state.params.layers, loaded.params.layers):
        assert np.array_equal(layer.weights, twin.weights)


def test_gradients_share_the_parameter_layout(city):
    graphs, splits = city
    bases = graph_bases(graphs, 2)
    params = L.init_network_params(net_config(), 1, frozen_modes=())
    x = np.stack([s.input for s in splits["train"][:8]])
    y = np.stack([s.target[:, 0] for s in splits["train"][:8]])
    _, grads = L.batch_loss(x, y, bases, params, RegularizerConfig(), with_grads=True)
    for idx, (layer, grad) in enumerate(zip(params.layers, grads)):
        assert grad.weights.shape == layer.weights.shape
        assert grad.weights.strides == layer.weights.strides, f"layer {idx}"


def test_checkpoint_bytes_equal_a_c_order_copy(city, tmp_path):
    state = train_run(city).state
    T.save_checkpoint(tmp_path / "kernel", state)
    for layer in state.params.layers:
        layer.weights = np.ascontiguousarray(layer.weights)
    state.first_moment = [np.ascontiguousarray(m) for m in state.first_moment]
    state.second_moment = [np.ascontiguousarray(v) for v in state.second_moment]
    T.save_checkpoint(tmp_path / "c_order", state)
    for name in ("checkpoint.bin", "checkpoint.json"):
        assert (tmp_path / "kernel" / name).read_bytes() == \
            (tmp_path / "c_order" / name).read_bytes()


def test_train_bit_identical_with_c_order_weights(city, tmp_path, monkeypatch):
    default = train_run(city)
    with monkeypatch.context() as patch:
        patch.setattr(L, "_kernel_layout", np.ascontiguousarray)
        c_order = train_run(city)
    assert all(layer.weights.flags.c_contiguous for layer in c_order.state.params.layers)
    assert c_order.history == default.history
    for (name, got), (_, expected) in zip(L.named_param_arrays(c_order.state.params),
                                          L.named_param_arrays(default.state.params)):
        assert np.array_equal(got, expected), name
    T.save_checkpoint(tmp_path / "default", default.state)
    T.save_checkpoint(tmp_path / "c_order", c_order.state)
    for name in ("checkpoint.bin", "checkpoint.json"):
        assert (tmp_path / "default" / name).read_bytes() == \
            (tmp_path / "c_order" / name).read_bytes()


@settings(max_examples=40, deadline=None)
@given(st.permutations(range(5)), st.integers(1, 3), st.integers(0, 2), st.integers(0, 2**31))
def test_group_lasso_bits_independent_of_layout(axes, m, degree, seed):
    rng = np.random.default_rng(seed)
    weights = rng.normal(size=(m, m, degree + 1, 7, 5))
    weights[0, -1] = 0.0  # an exactly-zero block takes the zero subgradient
    loss, grad = group_lasso(weights, 0.1)
    got_loss, got_grad = group_lasso(permuted_storage(weights, axes), 0.1)
    assert got_loss == loss
    assert np.array_equal(got_grad, grad)


@settings(max_examples=40, deadline=None)
@given(st.permutations(range(4)), st.integers(0, 3), st.integers(0, 2**31))
def test_tensor_normal_prior_bits_independent_of_layout(axes, mode, seed):
    rng = np.random.default_rng(seed)
    dims = (6, 4, 3, 2)
    weights = rng.normal(size=dims)
    cov = CovarianceSet([random_spd(rng, d) for d in dims], (False,) * 4)
    stored = permuted_storage(weights, axes)
    loss, image = tensor_normal_loss(weights, cov)
    got_loss, got_image = tensor_normal_loss(stored, cov)
    assert got_loss == loss
    assert np.array_equal(got_image, image)
    assert np.array_equal(flip_flop_update(stored, cov, mode, 1e-6),
                          flip_flop_update(weights, cov, mode, 1e-6))


@settings(max_examples=30, deadline=None)
@given(st.permutations(range(5)), st.booleans(), st.booleans(), st.integers(0, 2**31))
def test_adam_on_permuted_parameters_matches_textbook(axes, grad_shares_layout,
                                                      c_order_moments, seed):
    rng = np.random.default_rng(seed)
    weights = permuted_storage(rng.normal(size=(2, 2, 3, 4, 5)), axes)
    layer = L.LayerParams(weights, rng.normal(size=(2, 5)))
    state = T.init_train_state(L.NetworkParams(None, [layer]), 0)
    if c_order_moments:  # moments laid out unlike their parameter
        state.first_moment[0] = np.zeros(weights.shape)
        state.second_moment[0] = np.zeros(weights.shape)
    cfg = T.TrainConfig(learning_rate=1e-2)
    theta = [np.array(weights), np.array(layer.biases)]  # C-order copies
    first = [np.zeros_like(a) for a in theta]
    second = [np.zeros_like(a) for a in theta]
    storage = [weights, layer.biases, *state.first_moment, *state.second_moment]
    for t in range(1, 4):
        grads = [rng.normal(size=a.shape) for a in theta]
        if grad_shares_layout:
            grads[0] = permuted_storage(grads[0], axes)
        T.adam_step(state, [L.LayerParams(*grads)], cfg)
        for k, grad in enumerate(grads):
            first[k] = cfg.adam_beta1 * first[k] + (1.0 - cfg.adam_beta1) * grad
            second[k] = cfg.adam_beta2 * second[k] + (1.0 - cfg.adam_beta2) * grad**2
            m_hat = first[k] / (1.0 - cfg.adam_beta1**t)
            v_hat = second[k] / (1.0 - cfg.adam_beta2**t)
            theta[k] = theta[k] - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.adam_eps)
    # every update lands in the arrays the state held from the start
    now = [layer.weights, layer.biases, *state.first_moment, *state.second_moment]
    assert all(a is b for a, b in zip(now, storage))
    for got, expected in zip(now, theta + first + second):
        assert np.array_equal(got, expected)
    assert layer.weights.strides == weights.strides
