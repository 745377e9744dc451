import copy

import numpy as np
import pytest

from mmgcn import graphs, layers, training
from mmgcn.metrics import rmse, stack_targets
from mmgcn.regularization import RegularizerConfig


def mode_refold(matrix, dims, mode):
    """Exact inverse of ``numerics.mode_unfold`` for the given full ``dims``."""
    dims = tuple(dims)
    if not 0 <= mode < len(dims):
        raise ValueError(f"mode {mode} out of range for dims {dims}")
    rest = dims[:mode] + dims[mode + 1 :]
    return np.moveaxis(matrix.reshape((dims[mode],) + rest), 0, mode)


def numerical_rank(matrix, tol=1e-8):
    """Rank as the number of singular values above ``tol``."""
    return int(np.sum(np.linalg.svd(matrix, compute_uv=False) > tol))


def random_spd(rng, n, ridge=None):
    b = rng.normal(size=(n, n))
    return b @ b.T + (n if ridge is None else ridge) * np.eye(n)


def random_graph(rng, n, density=0.5, modality="custom"):
    upper = np.triu(rng.uniform(0.0, 1.0, (n, n)) < density, k=1).astype(float)
    weights = np.triu(rng.uniform(0.5, 2.0, (n, n)), k=1) * upper
    return graphs.RelationGraph(modality, weights + weights.T)


def ring_with_chords(rng, n, chords, modality="custom"):
    """A weighted n-cycle plus ``chords`` random extra edges."""
    arcs = np.zeros((n, n))
    arcs[np.arange(n), (np.arange(n) + 1) % n] = rng.uniform(0.5, 2.0, n)
    for _ in range(chords):
        i, j = rng.choice(n, 2, replace=False)
        arcs[i, j] = rng.uniform(0.5, 2.0)
    return graphs.RelationGraph(modality, np.maximum(arcs, arcs.T))


def poi_like(rng, n, categories, modality="custom"):
    """POI similarity of random counts in 0-4, with a tenth of the regions
    (and any whose counts come out zero) holding no POIs."""
    counts = rng.integers(0, 5, (n, categories)).astype(float)
    counts[rng.choice(n, max(1, n // 10), replace=False)] = 0.0
    with pytest.warns(UserWarning, match="zero POI vectors"):
        poi = graphs.build_poi_similarity(counts)
    return graphs.RelationGraph(modality, gram_factor=poi.gram_factor)


def tiny_network(rng_seed=0, vertices=3, modalities=2, degree=1, kinds=("ggcn", "mrgcn"),
                 dims=(3, 1), input_dim=5, graph_seed=11):
    """Small random problem instance: graphs, bases, config, params."""
    rng = np.random.default_rng(graph_seed)
    graph_list = [
        random_graph(rng, vertices, density=0.7, modality=f"custom{i}")
        for i in range(modalities)
    ]
    bases = graphs.graph_bases(graph_list, degree)
    specs = layers.make_layer_specs(list(kinds), input_dim, list(dims))
    config = layers.NetworkConfig(modalities, degree, specs)
    params = layers.init_network_params(config, rng_seed)
    return graph_list, bases, config, params


def single_layer(kind, rng_seed=0, vertices=3, modalities=2, degree=1, in_dim=5,
                 out_dim=2, graph_seed=11):
    """One standalone layer with random weights plus matching graphs/bases."""
    from mmgcn.regularization import CovarianceSet

    rng = np.random.default_rng(graph_seed)
    graph_list = [
        random_graph(rng, vertices, density=0.7, modality=f"custom{i}")
        for i in range(modalities)
    ]
    bases = graphs.graph_bases(graph_list, degree)
    init = np.random.default_rng(rng_seed)
    bound = np.sqrt(6.0 / (in_dim + out_dim))
    biases = np.zeros((modalities, out_dim))
    if kind == layers.GGCN:
        weights = init.uniform(
            -bound, bound, (modalities, modalities, degree + 1, in_dim, out_dim)
        )
        params = layers.LayerParams(weights, biases)
    else:
        weights = init.uniform(-bound, bound, (in_dim, out_dim, degree + 1, modalities))
        cov = CovarianceSet.identity((in_dim, out_dim, degree + 1, modalities))
        params = layers.LayerParams(weights, biases, cov)
    return graph_list, bases, params


@pytest.fixture
def reg_config():
    return RegularizerConfig()


@pytest.fixture
def covariance_updates(monkeypatch):
    """Every high layer's covariances after each flip-flop pass that
    ``training.train`` runs: one list of ``CovarianceSet`` copies per pass."""
    passes = []
    update = training._update_covariances

    def spy(params, reg):
        update(params, reg)
        passes.append([copy.deepcopy(layer.covariances) for layer in params.layers
                       if layer.covariances is not None])

    monkeypatch.setattr(training, "_update_covariances", spy)
    return passes


# ---------------------------------------------------------------------------
# references the library is checked against

def basis_terms(laplacian, degree, kind=graphs.POWER_BASIS):
    """[B_0 .. B_K] of ``laplacian`` as dense matrices, by the textbook
    recurrence on its step B_1 = L (power) or L - I (Chebyshev): B_a =
    B_{a-1} B_1 or 2 B_1 B_{a-1} - B_{a-2}, with B_0 = I."""
    eye = np.eye(laplacian.shape[0])
    step = laplacian - eye if kind == graphs.CHEBYSHEV_BASIS else laplacian
    terms = [eye, step]
    for _ in range(2, degree + 1):
        if kind == graphs.POWER_BASIS:
            terms.append(terms[-1] @ step)
        else:
            terms.append(2.0 * step @ terms[-1] - terms[-2])
    return terms[: degree + 1]


def cheb_conv(x, terms, weights):
    """Polynomial graph convolution sum_a B_a @ X @ W[a] over the dense
    :func:`basis_terms` [B_0 .. B_K]."""
    x = np.asarray(x, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 3 or weights.shape[0] != len(terms):
        raise ValueError(
            f"weights must be a (K+1, f1, f2) stack matching degree {len(terms) - 1}"
        )
    if x.ndim != 2 or x.shape[1] != weights.shape[1]:
        raise ValueError(f"signal shape {x.shape} does not match weight f1 {weights.shape[1]}")
    if x.shape[0] != terms[0].shape[0]:
        raise ValueError("signal vertex count does not match the basis")
    out = np.zeros((x.shape[0], weights.shape[2]))
    for term, w_alpha in zip(terms, weights):
        out += term @ x @ w_alpha
    return out


def finite_diff_gradient(f, x, h=1e-5):
    """Central-difference gradient of a scalar function of a flat vector."""
    if h <= 0:
        raise ValueError("step size h must be positive")
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        grad[i] = (f(x + step) - f(x - step)) / (2.0 * h)
    return grad


def pack_params(params):
    """The trainable arrays as one flat vector, in ``named_param_arrays`` order."""
    return np.concatenate([arr.ravel() for _, arr in layers.named_param_arrays(params)])


def unpack_params(params, flat):
    """New parameter structure with trainable values taken from ``flat``."""
    result = copy.deepcopy(params)
    offset = 0
    for _, arr in layers.named_param_arrays(result):
        arr[...] = flat[offset : offset + arr.size].reshape(arr.shape)
        offset += arr.size
    if offset != flat.size:
        raise ValueError(f"flat vector has {flat.size} entries, expected {offset}")
    return result


def pack_grads(grads):
    """Layer gradients as one flat vector, in ``pack_params`` order."""
    return np.concatenate([np.concatenate([g.weights.ravel(), g.biases.ravel()]) for g in grads])


def zeros_baseline_rmse(samples):
    targets = stack_targets(samples)
    return rmse(np.zeros_like(targets), targets)


def historical_average_baseline(train_samples):
    """Per-region mean of the training targets, as a constant predictor."""
    return stack_targets(train_samples).mean(axis=0)


def historical_average_rmse(train_samples, eval_samples):
    prediction = historical_average_baseline(train_samples)
    targets = stack_targets(eval_samples)
    return rmse(np.broadcast_to(prediction, targets.shape), targets)
