"""``layers.CHUNK_BYTES``: every multi-window pass runs in chunks of
``max(1, CHUNK_BYTES // (V * 8 * floats))`` windows, where ``floats`` counts
each layer's kernel operand per (window, vertex) row, summed over the layers
for a training pass and the largest layer's for a forward-only one; the
chunking changes predictions and losses by no more than rounding, and
gradients by no more than 1e-12.

Over sparse bases (CSR products, one column at a time) every chunking gives
the same bits.  A dense basis is one BLAS product whose width is the chunk's
window count times f; OpenBLAS handles narrow remainders with other kernels,
which may round differently, about 1e-15 relative.
"""

import itertools
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
DEFAULT_WIDTHS = [32, 64, 32, 1]
MIXED, MRGCN_ONLY, GGCN_ONLY = ["ggcn", "ggcn", "mrgcn", "mrgcn"], ["mrgcn"] * 4, ["ggcn"] * 4


def counted_floats(config, training: bool) -> int:
    """The chunk rule's floats per (window, vertex) row, as stated: a layer
    whose input is no wider than its contracted output g (M*f2 for GGCN, f2
    for MRGCN) propagates it, M*(K+1)*f1 floats, and otherwise keeps its
    input, M*f1; a training chunk counts the sum over the layers, a
    forward-only chunk the largest."""
    m, kp1 = config.modalities, config.cheb_degree + 1
    counts = []
    for spec in config.layer_specs:
        g = m * spec.out_dim if spec.kind == "ggcn" else spec.out_dim
        counts.append(m * kp1 * spec.in_dim if spec.in_dim <= g else m * spec.in_dim)
    return sum(counts) if training else max(counts)


def window_bytes(params, v: int, training: bool) -> int:
    """The counted bytes of one window, V rows."""
    return v * 8 * counted_floats(params.config, training)


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
    # the default budget keeps the batch whole
    assert WINDOWS * window_bytes(params, v, True) <= layers.CHUNK_BYTES
    whole = run_loss(x, y, bases, params)
    # 3-window chunks: 3, 3 and a short 1
    monkeypatch.setattr(layers, "CHUNK_BYTES", 3 * window_bytes(params, v, True) + 1)
    assert [rows for rows, *_ in layers._forward_chunks(x, bases, params, keep_caches=True)] == [
        slice(0, 3), slice(3, 6), slice(6, 9)]
    loss, sq_errors, grads = run_loss(x, y, bases, params)
    assert_same(loss, whole[0], sparse)
    assert_same(sq_errors, whole[1], sparse)
    scale = np.abs(whole[2]).max()
    np.testing.assert_allclose(grads, whole[2], rtol=1e-12, atol=1e-12 * scale)
    # the same 3-window chunks without gradients, which count one layer
    monkeypatch.setattr(layers, "CHUNK_BYTES", 3 * window_bytes(params, v, False) + 1)
    loss_only, _ = layers.batch_loss(x, y, bases, params, REG, with_grads=False)
    assert loss_only == loss


@pytest.mark.parametrize("sparse", [False, True])
def test_predictions_do_not_depend_on_chunking(monkeypatch, sparse):
    bases, params, x, y = mixed_problem(sparse)
    window = window_bytes(params, x.shape[1], False)
    samples = as_samples(x, y)
    preds = layers.predict_batches(samples, bases, params)
    hidden_pred, hidden = layers.network_forward_hidden(x, bases, params)
    np.testing.assert_array_equal(hidden_pred, preds)
    # every chunk size from one window to the whole batch, and a budget below a window
    for budget in [1] + [c * window for c in range(1, WINDOWS + 1)]:
        monkeypatch.setattr(layers, "CHUNK_BYTES", budget)
        chunked = layers.predict_batches(samples, bases, params)
        assert_same(chunked, preds, sparse)
        chunked_pred, chunked_hidden = layers.network_forward_hidden(x, bases, params)
        np.testing.assert_array_equal(chunked_pred, chunked)  # the same chunks
        for got, want in zip(chunked_hidden, hidden):
            assert_same(got, want, sparse)


@pytest.mark.parametrize("sparse", [False, True])
def test_feature_covariances_match_np_cov(monkeypatch, sparse):
    bases, params, x, _ = mixed_problem(sparse)
    window = window_bytes(params, x.shape[1], False)
    _, hidden = layers.network_forward_hidden(x, bases, params)
    want = [np.stack([np.atleast_2d(np.cov(hj.reshape(-1, hj.shape[-1]), rowvar=False))
                      for hj in h]) for h in hidden]
    # every chunk size from one window to the whole batch
    for budget in [c * window for c in range(1, WINDOWS + 1)]:
        monkeypatch.setattr(layers, "CHUNK_BYTES", budget)
        got = layers.feature_covariances(x, bases, params)
        assert [c.shape for c in got] == [w.shape for w in want]
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-12 * np.abs(w).max())


@pytest.mark.parametrize("sparse", [False, True])
def test_feature_covariances_read_samples_as_their_stacked_inputs(monkeypatch, sparse):
    bases, params, x, y = mixed_problem(sparse)
    samples = as_samples(x, y)
    # one chunk, then chunks of 3, 3 and 1
    for budget in (layers.CHUNK_BYTES, 3 * window_bytes(params, x.shape[1], False)):
        monkeypatch.setattr(layers, "CHUNK_BYTES", budget)
        got = layers.feature_covariances(samples, bases, params)
        want = layers.feature_covariances(np.stack([s.input for s in samples]), bases, params)
        for g, w in zip(got, want, strict=True):
            np.testing.assert_array_equal(g, w)


def test_predict_batches_rejects_no_samples():
    bases, params, _, _ = mixed_problem(False)
    with pytest.raises(ValueError):
        layers.predict_batches([], bases, params)


def test_every_pass_rejects_no_windows():
    """Zero windows, as an empty (0, V, T) array or an empty list of samples,
    raise the same ``ValueError`` in every chunked pass, feature_covariances
    included."""
    bases, params, x, y = mixed_problem(False)
    for call in passes(x[:0], y[:0], bases, params):
        with pytest.raises(ValueError, match="nonempty"):
            call()


@pytest.fixture
def forward_rows(monkeypatch):
    """Spy on ``_forward_batch``: the row count (windows x V) of every call,
    and whether the call kept its caches for a backward pass."""
    rows = []
    real = layers._forward_batch

    def spy(x_batch, bases, params, keep_caches=False, keep_hidden=False):
        rows.append((x_batch.shape[0] * x_batch.shape[1], keep_caches))
        return real(x_batch, bases, params, keep_caches, keep_hidden)

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


def narrow_problem(kinds, degree: int, widths, windows: int = 12):
    """12 windows of a dense 4-vertex, 3-modality city through ``kinds`` at
    ``degree`` and ``widths``."""
    rng = np.random.default_rng(23)
    v = 4
    graph_list = [random_graph(rng, v, density=0.7, modality=f"custom{i}") for i in range(3)]
    specs = layers.make_layer_specs(kinds, 5, widths)
    params = layers.init_network_params(layers.NetworkConfig(3, degree, specs), 5)
    x = rng.uniform(0.0, 1.0, (windows, v, 5))
    y = rng.uniform(0.0, 1.0, (windows, v))
    return graphs.graph_bases(graph_list, degree), params, x, y


@pytest.mark.parametrize("kinds", [MIXED, MRGCN_ONLY], ids=["ggcn-mrgcn", "mrgcn"])
def test_default_network_chunks_as_the_benchmark_runs(monkeypatch, kinds):
    """From CHUNK_BYTES alone, the default network (K=4, widths
    [32, 64, 32, 1]) runs 32 training and 56 forward-only windows per chunk
    at V=36 (the 6x6 city of ``desk_train``), and 4 and 8 at V=256 (the 16x16
    city of ``city256_train``)."""
    specs = layers.make_layer_specs(kinds, 5, DEFAULT_WIDTHS)
    params = layers.init_network_params(layers.NetworkConfig(3, 4, specs), 0)
    monkeypatch.setattr(layers, "_forward_batch", lambda *args: (None, [], []))  # sizes only
    for v, training, widest in ((36, True, 32), (36, False, 56), (256, True, 4), (256, False, 8)):
        chunks = layers._forward_chunks(np.zeros((widest + 1, v, 5)), None, params,
                                        keep_caches=training)
        assert [rows for rows, *_ in chunks] == [slice(0, widest), slice(widest, 2 * widest)]


@pytest.mark.parametrize("windows", [2, 10])  # CHUNK_BYTES, in default-network training windows
def test_no_pass_exceeds_the_budget(monkeypatch, forward_rows, windows):
    """Over K in {1, 4, 8}, two widths and three kind stacks: a chunk's
    counted bytes are at most CHUNK_BYTES unless it is one window, every chunk
    but the last is as wide as that allows, and a training chunk keeps
    exactly the operand bytes it counts until its backward pass.  The
    all-GGCN stack's 64 -> 32 layer propagates its input only because a GGCN
    source contracts to g = M*f2."""
    kept = []
    real_backward = layers._backward_batch

    def backward_spy(d_pred, caches, *args):
        kept.append(sum(operand.nbytes for operand, *_ in caches))
        return real_backward(d_pred, caches, *args)

    monkeypatch.setattr(layers, "_backward_batch", backward_spy)
    for kinds, degree, widths in itertools.product((MIXED, MRGCN_ONLY, GGCN_ONLY), (1, 4, 8),
                                                   (DEFAULT_WIDTHS, [64, 128, 64, 1])):
        bases, params, x, y = narrow_problem(kinds, degree, widths)
        n, v = x.shape[:2]
        default = layers.NetworkConfig(3, 4, layers.make_layer_specs(kinds, 5, DEFAULT_WIDTHS))
        monkeypatch.setattr(layers, "CHUNK_BYTES", windows * v * 8 * counted_floats(default, True))
        for idx, call in enumerate(passes(x, y, bases, params)):
            forward_rows.clear()
            kept.clear()
            call()
            training = idx == 0  # batch_loss with gradients comes first
            per_window = window_bytes(params, v, training)
            chunks = [rows // v for rows, _ in forward_rows]
            assert all(keep_caches == training for _, keep_caches in forward_rows)
            assert sum(chunks) == n  # every window, once
            assert all(c == 1 or c * per_window <= layers.CHUNK_BYTES for c in chunks)
            assert all((c + 1) * per_window > layers.CHUNK_BYTES for c in chunks[:-1])
            assert kept == ([c * per_window for c in chunks] if training else [])


def test_default_budget_splits_a_wide_batch(forward_rows):
    bases, params, x, y = mixed_problem(True)
    v = x.shape[1]
    x, y = np.tile(x, (57, 1, 1)), np.tile(y, (57, 1))  # 399 windows of V=90
    # 46 floats per training row and 30 per forward-only row:
    # 7_864_320 // (90 * 8 * 46) = 237 windows, 7_864_320 // (90 * 8 * 30) = 364
    training = [237 * v, 162 * v]
    forward_only = [364 * v, 35 * v]
    for idx, call in enumerate(passes(x, y, bases, params)):
        forward_rows.clear()
        call()
        # batch_loss with gradients first
        assert [rows for rows, _ in forward_rows] == (training if idx == 0 else forward_only)


def test_training_budget_lowers_a_wide_steps_peak(monkeypatch):
    """A 32-window step on a 16x16 city with the default network runs in
    4-window chunks, because a training chunk counts every layer's operand;
    each is kept until the chunk's backward pass, so the step peaks well
    below the 8-window chunks that counting the largest layer alone, as a
    forward-only pass does, would give."""
    ds = D.generate_synthetic(D.SynthConfig(16, 16, weeks=2, seed=3))
    samples = D.make_windows(ds.series)[:32]
    x = np.stack([s.input for s in samples])
    y = stack_targets(samples)
    specs = layers.make_layer_specs(MIXED, 5, DEFAULT_WIDTHS)
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
    monkeypatch.setattr(layers, "CHUNK_BYTES", 8 * window_bytes(params, 256, True))
    forward_budget = traced_peak()
    assert training <= 0.85 * forward_budget


def test_training_passes_stay_within_the_budget(monkeypatch, forward_rows):
    cfg = D.SynthConfig(4, 4, weeks=2, seed=5)
    ds = D.generate_synthetic(cfg)
    samples = D.make_windows(ds.series)
    cut = int(len(samples) * 0.9)
    splits = {"train": samples[:cut], "val": samples[cut:], "test": []}
    v = ds.series.vertex_count
    config = layers.NetworkConfig(3, 2, layers.make_layer_specs(["ggcn", "mrgcn"], 5, [8, 1]))
    # a 32-window batch runs in 6-window chunks, and the evaluation in 9-window ones
    budget = 6 * v * 8 * counted_floats(config, True)
    monkeypatch.setattr(layers, "CHUNK_BYTES", budget)
    result = T.train(splits, ds.graphs, config,
                     T.TrainConfig(learning_rate=1e-2, max_epochs=1, seed=0))
    assert len(result.history) == 1
    assert all(rows == v or rows * 8 * counted_floats(config, keep_caches) <= budget
               for rows, keep_caches in forward_rows)
    assert sum(rows for rows, _ in forward_rows) == (len(splits["train"]) + len(splits["val"])) * v
