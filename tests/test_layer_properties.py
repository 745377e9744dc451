"""Property tests of the batched layer kernel at random shapes.

Every layer kind runs in one of two orders, picked from its widths:
propagate-then-contract or contract-then-propagate.  For each of the four
(kind, order) paths, hypothesis draws a three-layer network whose middle
layer takes that path, then checks

- ``ggcn_forward`` / ``mrgcn_forward``, the batched hidden features and the
  prediction against a per-window reference built from ``cheb_conv`` alone;
- ``batch_loss`` gradients against central finite differences at the
  acceptance-criterion-1 bound.

The middle layer is never the first, so its input gradient is computed and
flows into the layer below.  The ``test_sparse_*`` twins draw ring graphs
with a few chords on 80-120 vertices, sparse enough that every basis takes
the CSR path, and check the same properties there.  The ``test_factored_*``
twins draw POI similarity graphs of 1-4 categories on 80-120 vertices, some
regions without POIs, so that every basis takes the low-rank path.  The gradient check also
runs on batches that ``layers.CHUNK_BYTES`` splits into training chunks.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mmgcn import graphs, layers
from mmgcn.regularization import RegularizerConfig

from conftest import (
    basis_terms,
    cheb_conv,
    finite_diff_gradient,
    pack_grads,
    pack_params,
    poi_like,
    random_graph,
    ring_with_chords,
    unpack_params,
)

GRAD_RTOL = 1e-4  # acceptance criterion 1
FD_STEP = 1e-5
# A ReLU pre-activation this close to 0 may flip sign within a finite-difference
# step, where the objective is not differentiable; such draws are skipped.
KINK_MARGIN = 1e-3
FORWARD_RTOL = 1e-10

PATHS = [
    (layers.GGCN, True),
    (layers.GGCN, False),
    (layers.MRGCN, True),
    (layers.MRGCN, False),
]


def draw_problem(data, kind, propagate_first, sparse=False, batch=None, factored=False):
    large = sparse or factored
    m = data.draw(st.integers(1, 3), label="modalities")
    v = data.draw(st.integers(80, 120) if large else st.integers(1, 5), label="vertices")
    b = batch or data.draw(st.integers(1, 1 if large else 3), label="batch")
    k = data.draw(st.integers(0, 3 if large else 2), label="degree")
    basis_kind = data.draw(st.sampled_from([graphs.POWER_BASIS, graphs.CHEBYSHEV_BASIS]))
    # per-vertex biases would multiply the finite-difference work by V
    per_vertex_bias = not large and data.draw(st.booleans(), label="per_vertex_bias")
    t = data.draw(st.integers(1, 2 if large else 3), label="window")
    f2 = data.draw(st.integers(1, 2), label="middle out_dim")
    g = f2 * m if kind == layers.GGCN else f2
    f1 = data.draw(st.integers(1, g) if propagate_first else st.integers(g + 1, g + 2),
                   label="middle in_dim")
    first = data.draw(st.sampled_from([layers.GGCN, layers.MRGCN]), label="first kind")
    last = data.draw(st.sampled_from([layers.GGCN, layers.MRGCN]), label="last kind")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")

    rng = np.random.default_rng(seed)
    if sparse:
        chords = data.draw(st.integers(0, 4), label="chords")
        graph_list = [ring_with_chords(rng, v, chords, f"custom{i}") for i in range(m)]
    elif factored:
        categories = data.draw(st.integers(1, 4), label="categories")
        graph_list = [poi_like(rng, v, categories, f"custom{i}") for i in range(m)]
    else:
        graph_list = [random_graph(rng, v, density=0.7, modality=f"custom{i}") for i in range(m)]
    bases = graphs.graph_bases(graph_list, k, basis_kind)
    terms = [basis_terms(graphs.normalized_laplacian(g), k, basis_kind) for g in graph_list]
    if sparse:
        assert all(basis.sparse for basis in bases)
    if factored:
        assert all(basis.factored for basis in bases)
    specs = layers.make_layer_specs([first, kind, last], t, [f1, f2, 1])
    config = layers.NetworkConfig(m, k, specs, per_vertex_bias, v if per_vertex_bias else None)
    params = layers.init_network_params(config, seed % 1000)
    for layer in params.layers:
        layer.biases[...] = rng.normal(scale=0.5, size=layer.biases.shape)
    x = rng.uniform(0.0, 1.0, (b, v, t))
    y = rng.uniform(0.0, 1.0, (b, v))
    assert layers._propagates_input(f1, g) == propagate_first
    return bases, terms, params, x, y


def reference_forward(x, terms, params):
    """One (V, T) window through the stack with cheb_conv over each graph's
    dense ``terms`` as the only convolution; returns per-layer pre-activations (M, V, f), post-activation
    outputs (M, V, f) and the (V,) prediction."""
    m = params.config.modalities
    h = [x] * m
    pre, post = [], []
    for spec, layer in zip(params.config.layer_specs, params.layers):
        z = []
        for j in range(m):
            if spec.kind == layers.GGCN:
                conv = sum(cheb_conv(h[i], terms[i], layer.weights[i, j]) for i in range(m))
            else:
                conv = cheb_conv(h[j], terms[j], layer.weights[:, :, :, j].transpose(2, 0, 1))
            z.append(conv + layer.biases[j])
        h = [np.maximum(zj, 0.0) if spec.activation == layers.RELU else zj for zj in z]
        pre.append(np.stack(z))
        post.append(np.stack(h))
    return pre, post, np.mean([hj[:, 0] for hj in h], axis=0)


def assert_close(actual, expected):
    scale = max(1.0, float(np.abs(expected).max(initial=0.0)))
    np.testing.assert_allclose(actual, expected, rtol=FORWARD_RTOL, atol=FORWARD_RTOL * scale)


def check_forward(bases, terms, params, x):
    preds, hidden = layers.network_forward_hidden(x, bases, params)
    for w, window in enumerate(x):
        _, post, pred = reference_forward(window, terms, params)
        assert_close(preds[w], pred)
        assert_close(layers.network_forward(window, bases, params)[:, 0], pred)
        layer_in = [window] * params.config.modalities
        for idx, (spec, layer) in enumerate(zip(params.config.layer_specs, params.layers)):
            single = layers.ggcn_forward if spec.kind == layers.GGCN else layers.mrgcn_forward
            out = single(layer_in, bases, layer, spec.activation)
            assert_close(np.stack(out), post[idx])
            assert_close(hidden[idx][:, w], post[idx])
            layer_in = list(post[idx])


def check_gradients(bases, terms, params, x, y):
    for window in x:
        pre, _, _ = reference_forward(window, terms, params)
        for spec, z in zip(params.config.layer_specs, pre):
            if spec.activation == layers.RELU:
                assume(np.abs(z).min() > KINK_MARGIN)
    reg = RegularizerConfig(alpha_low=1e-2, alpha_high=1e-2)
    analytic = pack_grads(layers.batch_loss(x, y, bases, params, reg, with_grads=True)[1])

    def objective(flat):
        candidate = unpack_params(params, flat)
        return layers.batch_loss(x, y, bases, candidate, reg, with_grads=False)[0]

    numeric = finite_diff_gradient(objective, pack_params(params), FD_STEP)
    rel = np.abs(analytic - numeric) / np.maximum(np.abs(analytic) + np.abs(numeric), 1e-8)
    assert rel.max() < GRAD_RTOL


@pytest.mark.parametrize("kind,propagate_first", PATHS)
@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_forward_matches_cheb_conv_reference(kind, propagate_first, data):
    bases, terms, params, x, _ = draw_problem(data, kind, propagate_first)
    check_forward(bases, terms, params, x)


@pytest.mark.parametrize("kind,propagate_first", PATHS)
@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_gradients_match_finite_differences(kind, propagate_first, data):
    bases, terms, params, x, y = draw_problem(data, kind, propagate_first)
    check_gradients(bases, terms, params, x, y)


@pytest.mark.parametrize("kind,propagate_first", PATHS)
@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_sparse_forward_matches_cheb_conv_reference(kind, propagate_first, data):
    bases, terms, params, x, _ = draw_problem(data, kind, propagate_first, sparse=True)
    check_forward(bases, terms, params, x)


@pytest.mark.parametrize("kind,propagate_first", PATHS)
@settings(max_examples=4, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_sparse_gradients_match_finite_differences(kind, propagate_first, data):
    bases, terms, params, x, y = draw_problem(data, kind, propagate_first, sparse=True)
    check_gradients(bases, terms, params, x, y)


@pytest.mark.parametrize("kind,propagate_first", PATHS)
@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_factored_forward_matches_cheb_conv_reference(kind, propagate_first, data):
    bases, terms, params, x, _ = draw_problem(data, kind, propagate_first, factored=True)
    check_forward(bases, terms, params, x)


@pytest.mark.parametrize("kind,propagate_first", PATHS)
@settings(max_examples=4, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_factored_gradients_match_finite_differences(kind, propagate_first, data):
    bases, terms, params, x, y = draw_problem(data, kind, propagate_first, factored=True)
    check_gradients(bases, terms, params, x, y)


@pytest.mark.parametrize("kind,propagate_first", PATHS)
@settings(max_examples=4, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_chunked_gradients_match_finite_differences(kind, propagate_first, data):
    # five windows in chunks of two: two whole chunks and a short one
    bases, terms, params, x, y = draw_problem(data, kind, propagate_first, batch=5)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(layers, "CHUNK_BYTES",
                      2 * x.shape[1] * 8 * layers._chunk_floats(params.config, True))
        assert len(list(layers._forward_chunks(x, bases, params, keep_caches=True))) == 3
        check_gradients(bases, terms, params, x, y)
