import numpy as np
import pytest

from mmgcn import graphs, layers
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
    return graphs.RelationGraph(modality, poi.adjacency, poi.gram_factor)


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
        params = layers.GgcnLayerParams(weights, biases)
    else:
        weights = init.uniform(-bound, bound, (in_dim, out_dim, degree + 1, modalities))
        cov = CovarianceSet.identity((in_dim, out_dim, degree + 1, modalities))
        params = layers.MrgcnLayerParams(weights, biases, cov)
    return graph_list, bases, params


@pytest.fixture
def reg_config():
    return RegularizerConfig()
