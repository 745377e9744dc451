"""``layers.ROW_BUDGET`` and ``layers.TRAIN_ROW_BUDGET``: every multi-window
pass runs in chunks of at most ``max(1, budget // V)`` windows, the training
budget for ``batch_loss`` and the other for forward-only passes, and the
chunking changes predictions and losses by no more than rounding, and
gradients by no more than 1e-12.

Over sparse bases (CSR products, one column at a time) every chunking gives
the same bits.  A dense basis is one BLAS product whose width is the chunk's
window count times f; OpenBLAS handles narrow remainders with other kernels,
which may round differently, about 1e-15 relative.
"""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from mmgcn import data as D
from mmgcn import graphs, layers
from mmgcn import training as T
from mmgcn.metrics import stack_targets
from mmgcn.regularization import RegularizerConfig

from conftest import pack_grads, random_graph, ring_with_chords

WINDOWS = 7
REG = RegularizerConfig(alpha_low=1e-2, alpha_high=1e-2)


def mixed_problem(sparse: bool, per_vertex_bias: bool = False):
    """Three layers that take both kinds and both orders: 5 -> 6 propagates
    first (GGCN, g = 12), 6 -> 2 contracts first (MRGCN, g = 2)."""
    rng = np.random.default_rng(17)
    m, degree = 2, 2
    if sparse:
        v = 90
        graph_list = [ring_with_chords(rng, v, 3, f"custom{i}") for i in range(m)]
    else:
        v = 4
        graph_list = [random_graph(rng, v, density=0.7, modality=f"custom{i}")
                      for i in range(m)]
    bases = graphs.graph_bases(graph_list, degree)
    assert all(basis.sparse == sparse for basis in bases)
    specs = layers.make_layer_specs(["ggcn", "mrgcn", "mrgcn"], 5, [6, 2, 1])
    config = layers.NetworkConfig(m, degree, specs, per_vertex_bias,
                                  v if per_vertex_bias else None)
    params = layers.init_network_params(config, 5)
    for layer in params.layers:
        layer.biases[...] = rng.normal(scale=0.5, size=layer.biases.shape)
    x = rng.uniform(0.0, 1.0, (WINDOWS, v, 5))
    y = rng.uniform(0.0, 1.0, (WINDOWS, v))
    return bases, params, x, y


def assert_same(got, want, exact: bool):
    if exact:
        np.testing.assert_array_equal(got, want)
    else:
        scale = float(np.abs(want).max())
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * scale)


def as_samples(x, y):
    """Stand-ins for ``data.Sample`` holding free-standing windows; a pass
    reads only a sample's ``input`` and ``target``."""
    return [SimpleNamespace(input=window, target=target[:, None]) for window, target in zip(x, y)]


def run_loss(x, y, bases, params):
    sq_errors = []
    loss, grads = layers.batch_loss(x, y, bases, params, REG, with_grads=True,
                                    sq_errors=sq_errors)
    return loss, sq_errors, pack_grads(grads)


@pytest.mark.parametrize("sparse", [False, True])
@pytest.mark.parametrize("per_vertex_bias", [False, True])
def test_batch_loss_does_not_depend_on_chunking(monkeypatch, sparse, per_vertex_bias):
    bases, params, x, y = mixed_problem(sparse, per_vertex_bias)
    v = x.shape[1]
    assert WINDOWS * v <= layers.TRAIN_ROW_BUDGET  # the default budget keeps the batch whole
    whole = run_loss(x, y, bases, params)
    # 3-window chunks: 3, 3 and a short 1
    monkeypatch.setattr(layers, "TRAIN_ROW_BUDGET", 3 * v + 1)
    assert [rows for rows, *_ in layers._forward_chunks(x, bases, params,
                                                         layers.TRAIN_ROW_BUDGET)] == [
        slice(0, 3), slice(3, 6), slice(6, 9)]
    loss, sq_errors, grads = run_loss(x, y, bases, params)
    assert_same(loss, whole[0], sparse)
    assert_same(sq_errors, whole[1], sparse)
    scale = np.abs(whole[2]).max()
    np.testing.assert_allclose(grads, whole[2], rtol=1e-12, atol=1e-12 * scale)
    loss_only, _ = layers.batch_loss(x, y, bases, params, REG, with_grads=False)
    assert loss_only == loss


@pytest.mark.parametrize("sparse", [False, True])
def test_predictions_do_not_depend_on_chunking(monkeypatch, sparse):
    bases, params, x, y = mixed_problem(sparse)
    v = x.shape[1]
    samples = as_samples(x, y)
    preds = layers.predict_batches(samples, bases, params)
    hidden_pred, hidden = layers.network_forward_hidden(x, bases, params)
    np.testing.assert_array_equal(hidden_pred, preds)
    # every chunk size from one window to the whole batch, and a budget below V
    for budget in [1] + [c * v for c in range(1, WINDOWS + 1)]:
        monkeypatch.setattr(layers, "ROW_BUDGET", budget)
        chunked = layers.predict_batches(samples, bases, params)
        assert_same(chunked, preds, sparse)
        chunked_pred, chunked_hidden = layers.network_forward_hidden(x, bases, params)
        np.testing.assert_array_equal(chunked_pred, chunked)  # the same chunks
        for got, want in zip(chunked_hidden, hidden):
            assert_same(got, want, sparse)


@pytest.mark.parametrize("sparse", [False, True])
def test_feature_covariances_match_np_cov(monkeypatch, sparse):
    bases, params, x, _ = mixed_problem(sparse)
    v = x.shape[1]
    _, hidden = layers.network_forward_hidden(x, bases, params)
    want = [np.stack([np.atleast_2d(np.cov(hj.reshape(-1, hj.shape[-1]), rowvar=False))
                      for hj in h]) for h in hidden]
    # every chunk size from one window to the whole batch
    for budget in [c * v for c in range(1, WINDOWS + 1)]:
        monkeypatch.setattr(layers, "ROW_BUDGET", budget)
        got = layers.feature_covariances(x, bases, params)
        assert [c.shape for c in got] == [w.shape for w in want]
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-12 * np.abs(w).max())


@pytest.mark.parametrize("sparse", [False, True])
def test_feature_covariances_read_samples_as_their_stacked_inputs(monkeypatch, sparse):
    bases, params, x, y = mixed_problem(sparse)
    v = x.shape[1]
    samples = as_samples(x, y)
    for budget in (layers.ROW_BUDGET, 3 * v):  # one chunk, then chunks of 3, 3 and 1
        monkeypatch.setattr(layers, "ROW_BUDGET", budget)
        got = layers.feature_covariances(samples, bases, params)
        want = layers.feature_covariances(np.stack([s.input for s in samples]), bases, params)
        for g, w in zip(got, want, strict=True):
            np.testing.assert_array_equal(g, w)


def test_predict_batches_rejects_no_samples():
    bases, params, _, _ = mixed_problem(False)
    with pytest.raises(ValueError):
        layers.predict_batches([], bases, params)


@pytest.fixture
def forward_rows(monkeypatch):
    """Spy on ``_forward_batch``: the row count (windows x V) of every call."""
    rows = []
    real = layers._forward_batch

    def spy(x_batch, *args, **kwargs):
        rows.append(x_batch.shape[0] * x_batch.shape[1])
        return real(x_batch, *args, **kwargs)

    monkeypatch.setattr(layers, "_forward_batch", spy)
    return rows


def passes(x, y, bases, params):
    samples = as_samples(x, y)
    return (
        lambda: layers.batch_loss(x, y, bases, params, REG, with_grads=True),
        lambda: layers.batch_loss(x, y, bases, params, REG, with_grads=False),
        lambda: layers.predict_batches(samples, bases, params),
        lambda: layers.network_forward_hidden(x, bases, params),
        lambda: layers.feature_covariances(x, bases, params),
        lambda: layers.feature_covariances(samples, bases, params),
    )


@pytest.mark.parametrize("budget", [2, 10])  # below V, and two windows of V=4
def test_no_pass_exceeds_the_budget(monkeypatch, forward_rows, budget):
    bases, params, x, y = mixed_problem(False)
    v = x.shape[1]
    monkeypatch.setattr(layers, "ROW_BUDGET", budget)
    monkeypatch.setattr(layers, "TRAIN_ROW_BUDGET", budget)
    bound = max(budget, v)
    for call in passes(x, y, bases, params):
        forward_rows.clear()
        call()
        assert sum(forward_rows) == WINDOWS * v  # every window, once
        assert max(forward_rows) <= bound


def test_default_budget_splits_a_wide_batch(forward_rows):
    bases, params, x, y = mixed_problem(True)
    v = x.shape[1]
    x, y = np.tile(x, (5, 1, 1)), np.tile(y, (5, 1))  # 35 windows of V=90: 3150 rows
    training = [12 * v, 12 * v, 11 * v]  # 1152 // 90 = 12 windows, twice, then the rest
    forward_only = [22 * v, 13 * v]  # 2048 // 90 = 22 windows, then the rest
    for idx, call in enumerate(passes(x, y, bases, params)):
        forward_rows.clear()
        call()
        assert forward_rows == (training if idx < 2 else forward_only)  # batch_loss first


def test_training_budget_lowers_a_wide_steps_peak(monkeypatch):
    """A 32-window step on a 16x16 city with the default network runs in
    4-window chunks; each keeps its propagated stacks until its backward
    pass, so it peaks well below the 8-window chunks of the forward budget."""
    ds = D.generate_synthetic(D.SynthConfig(16, 16, weeks=2, seed=3))
    samples = D.make_windows(ds.series)[:32]
    x = np.stack([s.input for s in samples])
    y = stack_targets(samples)
    specs = layers.make_layer_specs(["ggcn", "ggcn", "mrgcn", "mrgcn"], 5, [32, 64, 32, 1])
    params = layers.init_network_params(layers.NetworkConfig(3, 4, specs), 0)
    bases = graphs.graph_bases(ds.graphs, 4)

    def traced_peak():
        tracemalloc.start()
        try:
            layers.batch_loss(x, y, bases, params, REG, with_grads=True)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    training = traced_peak()
    monkeypatch.setattr(layers, "TRAIN_ROW_BUDGET", layers.ROW_BUDGET)
    forward_budget = traced_peak()
    assert training <= 0.85 * forward_budget


def test_training_passes_stay_within_the_budget(monkeypatch, forward_rows):
    cfg = D.SynthConfig(4, 4, weeks=2, seed=5)
    ds = D.generate_synthetic(cfg)
    samples = D.make_windows(ds.series)
    cut = int(len(samples) * 0.9)
    splits = {"train": samples[:cut], "val": samples[cut:], "test": []}
    v = ds.series.vertex_count
    # a 32-window batch is 512 rows; 100 rows make 6-window chunks
    monkeypatch.setattr(layers, "ROW_BUDGET", 100)
    monkeypatch.setattr(layers, "TRAIN_ROW_BUDGET", 100)
    specs = layers.make_layer_specs(["ggcn", "mrgcn"], 5, [8, 1])
    result = T.train(splits, ds.graphs, layers.NetworkConfig(3, 2, specs),
                     T.TrainConfig(learning_rate=1e-2, max_epochs=1, seed=0))
    assert len(result.history) == 1
    assert max(forward_rows) <= max(100, v)
    assert sum(forward_rows) == (len(splits["train"]) + len(splits["val"])) * v
