"""``graphs.GraphBases``: when every basis is dense, ``graph_bases`` holds
their row stacks as one read-only (M, K*V, V) array, and a pass whose
stacked terms take at most ``graphs.STACKED_BYTES`` applies every basis by
one batched product over it.  Every GEMM keeps its per-source shape, so the
stacked and the per-basis paths give the same bytes.
"""

import numpy as np
import pytest

from mmgcn import data as D
from mmgcn import graphs, layers
from mmgcn.regularization import RegularizerConfig

MIXED, MRGCN_ONLY, GGCN_ONLY = ["ggcn", "ggcn", "mrgcn", "mrgcn"], ["mrgcn"] * 4, ["ggcn"] * 4
ALWAYS, NEVER = 1 << 62, 0
REG = RegularizerConfig(alpha_low=1e-2, alpha_high=1e-2)


@pytest.fixture(scope="module")
def desk_city():
    dataset = D.generate_synthetic(D.SynthConfig(6, 6, 3, drift_rate=1.5, noise_scale=0.5,
                                                 seed=3))
    return dataset, D.make_windows(dataset.series)[:56]


def default_network(kinds):
    specs = layers.make_layer_specs(kinds, 5, [32, 64, 32, 1])
    return layers.init_network_params(layers.NetworkConfig(3, 4, specs), 7)


def outputs(samples, bases, params) -> list:
    """The bytes of one-window, multi-window and training results."""
    got = [layers.network_forward(samples[0].input, bases, params).tobytes()]
    got += [layers.predict_batches(samples[:b], bases, params).tobytes()
            for b in (1, 2, 3, 8, 32, 56)]
    x = np.stack([s.input for s in samples[:32]])
    y = np.stack([s.target[:, 0] for s in samples[:32]])
    loss, grads = layers.batch_loss(x, y, bases, params, REG, with_grads=True)
    got.append(np.float64(loss).tobytes())
    got += [g.weights.tobytes() + g.biases.tobytes() for g in grads]
    return got


@pytest.mark.parametrize("kinds", [MIXED, MRGCN_ONLY, GGCN_ONLY], ids=["mixed", "mrgcn", "ggcn"])
def test_stacked_path_gives_the_same_bytes(monkeypatch, desk_city, kinds):
    dataset, samples = desk_city
    bases = graphs.graph_bases(dataset.graphs, 4)
    params = default_network(kinds)
    monkeypatch.setattr(graphs, "STACKED_BYTES", NEVER)
    per_basis = outputs(samples, bases, params)
    monkeypatch.setattr(graphs, "STACKED_BYTES", ALWAYS)
    assert outputs(samples, bases, params) == per_basis


@pytest.mark.parametrize("windows, width", [(1, 32), (2, 32), (32, 1), (56, 1), (3, 5)])
def test_spread_and_gather_match_each_basis(desk_city, windows, width):
    dataset, _ = desk_city
    bases = graphs.graph_bases(dataset.graphs, 4)
    rng = np.random.default_rng(windows * width)
    h = rng.normal(size=(3, 36, windows, width))
    y = rng.normal(size=(3, 36, windows, 5, width))
    spread = np.empty((36, windows, 3, 5, width))
    each = np.empty_like(spread)
    for i, basis in enumerate(bases):
        basis.spread(h[i], each[:, :, i])
    bases.spread(h, spread)
    assert spread.tobytes() == each.tobytes()
    assert bases.gather(y).tobytes() == np.stack(
        [basis.gather(y_i) for basis, y_i in zip(bases, y)]).tobytes()
    # 3*4*36 = 432 rows: the bound is met up to 131072 // (432*8) = 37 columns
    assert bases.stacks(windows * width) == (windows * width <= 37)


def count_basis_calls(monkeypatch) -> list:
    calls = []
    for name in ("spread", "gather"):
        method = getattr(graphs.LaplacianBasis, name)

        def spy(self, *args, _method=method, _name=name):
            calls.append(_name)
            return _method(self, *args)

        monkeypatch.setattr(graphs.LaplacianBasis, name, spy)
    return calls


@pytest.mark.parametrize("budget, kinds, per_basis", [
    (None, MIXED, []),  # the default bound takes one window's every layer
    (ALWAYS, MRGCN_ONLY, []),
    # a GGCN layer that contracts first (32 -> 1, g = 3) gathers per basis
    (ALWAYS, GGCN_ONLY, ["gather"] * 3),
    (NEVER, MIXED, ["spread"] * 6 + ["gather"] * 6),
])
def test_which_layers_take_the_stack(monkeypatch, desk_city, budget, kinds, per_basis):
    dataset, samples = desk_city
    bases = graphs.graph_bases(dataset.graphs, 4)
    params = default_network(kinds)
    if budget is not None:
        monkeypatch.setattr(graphs, "STACKED_BYTES", budget)
    calls = count_basis_calls(monkeypatch)
    layers.network_forward(samples[0].input, bases, params)
    assert calls == per_basis


def test_bound_counts_each_layers_stacked_terms(monkeypatch, desk_city):
    # M*K*V*B*w*8: the 32-wide layers of one window hold 3*4*36*32*8 bytes
    dataset, samples = desk_city
    bases = graphs.graph_bases(dataset.graphs, 4)
    params = default_network(MIXED)
    wide = 3 * 4 * 36 * 32 * 8
    for budget, per_basis in ((wide, []), (wide - 1, ["spread"] * 3 + ["gather"] * 3)):
        monkeypatch.setattr(graphs, "STACKED_BYTES", budget)
        calls = count_basis_calls(monkeypatch)
        layers.network_forward(samples[0].input, bases, params)
        assert calls == per_basis


def test_stack_is_read_only_and_shared(desk_city):
    dataset, _ = desk_city
    bases = graphs.graph_bases(dataset.graphs, 4)
    stack = bases.stack
    assert stack.shape == (3, 4 * 36, 36)
    assert not stack.flags.writeable
    for basis, rows in zip(bases, stack):
        assert basis._row_stack.base is stack
        assert np.array_equal(basis._row_stack, rows)
        assert not basis._row_stack.flags.writeable
    with pytest.raises(ValueError):
        stack[0, 0, 0] = 1.0
    # each basis alone still holds the stack its own constructor builds
    for g, basis in zip(dataset.graphs, bases):
        alone = graphs.LaplacianBasis(graphs.normalized_laplacian(g), 4)
        assert alone._row_stack.tobytes() == basis._row_stack.tobytes()


def test_no_stack_unless_every_basis_is_dense(desk_city):
    dataset, _ = desk_city
    # the 6x6 city's Chebyshev road basis is sparse
    chebyshev = graphs.graph_bases(dataset.graphs, 4, graphs.CHEBYSHEV_BASIS)
    assert [b.sparse for b in chebyshev] == [False, False, True]
    assert chebyshev.stack is None
    # the 16x16 city's bases are CSR, factored and CSR
    city = D.generate_synthetic(D.SynthConfig(16, 16, 2, seed=3)).graphs
    bases = graphs.graph_bases(city, 4)
    assert [(b.sparse, b.factored) for b in bases] == [(True, False), (False, True),
                                                       (True, False)]
    assert bases.stack is None
