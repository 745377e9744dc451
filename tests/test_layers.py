import weakref

import numpy as np
import pytest

from mmgcn import graphs, layers
from mmgcn.regularization import CovarianceSet, RegularizerConfig

from conftest import (
    basis_terms,
    cheb_conv,
    finite_diff_gradient,
    numerical_rank,
    pack_grads,
    pack_params,
    random_graph,
    random_spd,
    single_layer,
    tiny_network,
    unpack_params,
)


def single_vertex_laplacian():
    g = graphs.RelationGraph("custom", np.zeros((1, 1)))
    return graphs.normalized_laplacian(g)


def single_vertex_basis(degree=0):
    return graphs.LaplacianBasis(single_vertex_laplacian(), degree)


class TestChebConv:
    def test_degree_zero_is_feature_transform(self):
        rng = np.random.default_rng(0)
        g = random_graph(rng, 4)
        terms = basis_terms(graphs.normalized_laplacian(g), 0)
        x = rng.normal(size=(4, 3))
        w = rng.normal(size=(1, 3, 2))
        np.testing.assert_allclose(cheb_conv(x, terms, w), x @ w[0])

    def test_zero_signal(self):
        terms = basis_terms(single_vertex_laplacian(), 2)
        out = cheb_conv(np.zeros((1, 3)), terms, np.ones((3, 3, 2)))
        np.testing.assert_array_equal(out, np.zeros((1, 2)))

    def test_hand_computed_two_vertices(self):
        lap = np.array([[1.0, -1.0], [-1.0, 1.0]])
        terms = basis_terms(lap, 1)
        x = np.array([[1.0], [0.0]])
        w = np.ones((2, 1, 1))
        np.testing.assert_allclose(cheb_conv(x, terms, w), [[2.0], [-1.0]])

    def test_shape_mismatch(self):
        terms = basis_terms(single_vertex_laplacian(), 1)
        with pytest.raises(ValueError):
            cheb_conv(np.zeros((1, 2)), terms, np.zeros((2, 3, 2)))
        with pytest.raises(ValueError):
            cheb_conv(np.zeros((1, 2)), terms, np.zeros((1, 2, 2)))


class TestGgcnForward:
    def test_scalar_example(self):
        bases = [single_vertex_basis(), single_vertex_basis()]
        weights = np.zeros((2, 2, 1, 1, 1))
        weights[0, 0] = 1.0  # modality 1 -> 1
        weights[1, 0] = 1.0  # modality 2 -> 1
        weights[0, 1] = 0.0
        weights[1, 1] = 1.0
        params = layers.LayerParams(weights, np.zeros((2, 1)))
        out = layers.ggcn_forward(
            [np.array([[2.0]]), np.array([[3.0]])], bases, params, layers.IDENTITY
        )
        np.testing.assert_allclose(out[0], [[5.0]])
        np.testing.assert_allclose(out[1], [[3.0]])

    def test_zero_params_relu(self):
        _, bases, layer = single_layer(layers.GGCN)
        layer.weights[:] = 0.0
        out = layers.ggcn_forward(
            [np.ones((3, 5)), np.ones((3, 5))], bases, layer, layers.RELU
        )
        for mat in out:
            np.testing.assert_array_equal(mat, np.zeros((3, 2)))

    def test_mgcn_degeneracy(self):
        # zeroed inter-modality blocks reduce to independent per-modality stacks
        rng = np.random.default_rng(1)
        for trial in range(20):
            graph_list, bases, layer = single_layer(
                layers.GGCN, rng_seed=trial, out_dim=3, degree=2, graph_seed=trial
            )
            layer.weights[0, 1] = 0.0
            layer.weights[1, 0] = 0.0
            layer.biases[:] = rng.normal(size=layer.biases.shape)
            xs = [rng.normal(size=(3, 5)) for _ in range(2)]
            out = layers.ggcn_forward(xs, bases, layer, layers.RELU)
            for j in range(2):
                terms = basis_terms(graphs.normalized_laplacian(graph_list[j]), 2)
                stack = cheb_conv(xs[j], terms, layer.weights[j, j])
                expected = np.maximum(stack + layer.biases[j], 0.0)
                np.testing.assert_allclose(out[j], expected, atol=1e-12)

    def test_modality_count_mismatch(self):
        _, bases, layer = single_layer(layers.GGCN)
        with pytest.raises(ValueError):
            layers.ggcn_forward([np.zeros((3, 5))], bases, layer)


class TestMrgcnForward:
    def test_matches_ggcn_with_zero_inter(self):
        rng = np.random.default_rng(2)
        _, bases, _ = single_layer(layers.GGCN, degree=1)
        m, kp1, f1, f2 = 2, 2, 5, 2
        joint = rng.normal(size=(f1, f2, kp1, m))
        biases = rng.normal(size=(m, f2))
        mr = layers.LayerParams(joint, biases, CovarianceSet.identity((f1, f2, kp1, m)))
        gg_weights = np.zeros((m, m, kp1, f1, f2))
        for j in range(m):
            gg_weights[j, j] = joint[:, :, :, j].transpose(2, 0, 1)
        gg = layers.LayerParams(gg_weights, biases)
        xs = [rng.normal(size=(3, f1)) for _ in range(m)]
        out_mr = layers.mrgcn_forward(xs, bases, mr)
        out_gg = layers.ggcn_forward(xs, bases, gg)
        for a, b in zip(out_mr, out_gg):
            np.testing.assert_allclose(a, b, atol=1e-14)

    def test_zero_weights(self):
        _, bases, layer = single_layer(layers.MRGCN)
        layer.weights[:] = 0.0
        out = layers.mrgcn_forward([np.ones((3, 5))] * 2, bases, layer, layers.IDENTITY)
        for mat in out:
            np.testing.assert_array_equal(mat, np.zeros((3, 2)))

    def test_single_modality_reduces_to_cheb_conv(self):
        rng = np.random.default_rng(3)
        g = random_graph(rng, 4)
        lap = graphs.normalized_laplacian(g)
        basis = graphs.LaplacianBasis(lap, 2)
        joint = rng.normal(size=(3, 2, 3, 1))
        layer = layers.LayerParams(
            joint, np.zeros((1, 2)), CovarianceSet.identity((3, 2, 3, 1))
        )
        x = rng.normal(size=(4, 3))
        out = layers.mrgcn_forward([x], [basis], layer, layers.IDENTITY)
        expected = cheb_conv(x, basis_terms(lap, 2), joint[:, :, :, 0].transpose(2, 0, 1))
        np.testing.assert_allclose(out[0], expected, atol=1e-14)


class TestNetworkForward:
    def test_zero_params_zero_prediction(self):
        _, bases, _, params = tiny_network(kinds=("ggcn", "mrgcn"), dims=(3, 1))
        for layer in params.layers:
            layer.weights[:] = 0.0
        out = layers.network_forward(np.ones((3, 5)), bases, params)
        np.testing.assert_array_equal(out, np.zeros((3, 1)))

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        _, bases, _, params = tiny_network(
            vertices=4, modalities=3, kinds=("ggcn", "mrgcn"), dims=(3, 1), rng_seed=7
        )
        x = rng.normal(size=(4, 5))
        first = layers.network_forward(x, bases, params)
        second = layers.network_forward(x, bases, params)
        np.testing.assert_array_equal(first, second)

    def test_single_vertex_composition(self):
        # |V| = 1 collapses every Laplacian power to the identity, so the net
        # is a composition of per-feature linear maps; compose them by hand.
        rng = np.random.default_rng(5)
        m, t = 2, 3
        bases = [single_vertex_basis(2) for _ in range(m)]
        specs = (
            layers.LayerSpec(layers.GGCN, t, 2, layers.IDENTITY),
            layers.LayerSpec(layers.MRGCN, 2, 1, layers.IDENTITY),
        )
        config = layers.NetworkConfig(m, 2, specs)
        params = layers.init_network_params(config, 9)
        x = rng.normal(size=(1, t))

        h = [x.copy() for _ in range(m)]
        gg = params.layers[0]
        h = [
            sum(h[i] @ gg.weights[i, j].sum(axis=0) for i in range(m)) + gg.biases[j]
            for j in range(m)
        ]
        mr = params.layers[1]
        h = [h[j] @ mr.weights[:, :, :, j].sum(axis=2) + mr.biases[j] for j in range(m)]
        expected = sum(h) / m

        out = layers.network_forward(x, bases, params)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(6)
        n, m = 5, 2
        graph_list = [random_graph(rng, n, modality=f"custom{i}") for i in range(m)]
        bases = graphs.graph_bases(graph_list, 2)
        specs = layers.make_layer_specs(["ggcn", "mrgcn"], 5, [3, 1])
        config = layers.NetworkConfig(m, 2, specs)
        params = layers.init_network_params(config, 3)
        x = rng.normal(size=(n, 5))
        base_out = layers.network_forward(x, bases, params)

        perm = rng.permutation(n)
        permuted_graphs = [
            graphs.RelationGraph(g.modality_id, g.adjacency[np.ix_(perm, perm)])
            for g in graph_list
        ]
        permuted_bases = graphs.graph_bases(permuted_graphs, 2)
        out = layers.network_forward(x[perm], permuted_bases, params)
        np.testing.assert_allclose(out, base_out[perm], atol=1e-10)

    def test_rejects_wrong_window(self):
        _, bases, _, params = tiny_network()
        with pytest.raises(ValueError):
            layers.network_forward(np.zeros((3, 4)), bases, params)


class TestNetworkGradients:
    """Gradients of ``batch_loss``, congruent to the trainable parameters."""

    def _relative_error(self, analytic, numeric):
        return np.abs(analytic - numeric) / np.maximum(np.abs(analytic) + np.abs(numeric), 1e-8)

    def test_zero_loss_zero_gradient(self):
        _, bases, _, params = tiny_network(kinds=("ggcn", "mrgcn"), dims=(3, 1))
        for layer in params.layers:
            layer.weights[:] = 0.0
        reg = RegularizerConfig(alpha_low=0.0, alpha_high=0.0)
        x, y = np.ones((1, 3, 5)), np.zeros((1, 3))
        _, grads = layers.batch_loss(x, y, bases, params, reg, with_grads=True)
        for g in grads:
            np.testing.assert_array_equal(g.weights, np.zeros_like(g.weights))
            np.testing.assert_array_equal(g.biases, np.zeros_like(g.biases))

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        reg = RegularizerConfig(alpha_low=1e-2, alpha_high=1e-2)
        for trial in range(5):
            _, bases, _, params = tiny_network(
                rng_seed=trial, vertices=3, degree=2, kinds=("ggcn", "mrgcn"),
                dims=(3, 1), graph_seed=trial + 40,
            )
            batch = [
                (rng.uniform(0.0, 1.0, (3, 5)), rng.uniform(0.0, 1.0, (3, 1)))
                for _ in range(2)
            ]
            x = np.stack([a for a, _ in batch])
            y = np.stack([t[:, 0] for _, t in batch])
            _, grads = layers.batch_loss(x, y, bases, params, reg, with_grads=True)
            analytic = pack_grads(grads)

            def objective(flat):
                candidate = unpack_params(params, flat)
                loss, _ = layers.batch_loss(x, y, bases, candidate, reg, with_grads=False)
                return loss

            numeric = finite_diff_gradient(objective, pack_params(params), 1e-5)
            assert self._relative_error(analytic, numeric).max() < 1e-4

    def test_gradient_sign_tracks_residual(self):
        # one-parameter model: prediction = w * x on a single vertex
        basis = [single_vertex_basis()]
        specs = (layers.LayerSpec(layers.MRGCN, 1, 1, layers.IDENTITY),)
        config = layers.NetworkConfig(1, 0, specs)
        params = layers.init_network_params(config, 0)
        params.layers[0].weights[:] = 0.5
        reg = RegularizerConfig(alpha_low=0.0, alpha_high=0.0)
        x = np.array([[[1.0]]])
        for target, sign in ((0.2, 1.0), (1.0, -1.0), (2.0, -1.0)):
            _, grads = layers.batch_loss(x, np.array([[target]]), basis, params, reg,
                                         with_grads=True)
            assert np.sign(grads[0].weights.reshape(-1)[0]) == sign

    def test_empty_batch_rejected(self):
        _, bases, _, params = tiny_network()
        with pytest.raises(ValueError, match="nonempty"):
            layers.batch_loss(np.zeros((0, 3, 5)), np.zeros((0, 3)), bases, params,
                              RegularizerConfig(), with_grads=True)


class TestRankDiagnostic:
    def test_product_rank_bound(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            v, f1, f2 = rng.integers(2, 6, size=3)
            r1, r2 = rng.integers(1, 4, size=2)
            a = rng.normal(size=(v, r1)) @ rng.normal(size=(r1, f1))
            w = rng.normal(size=(f1, r2)) @ rng.normal(size=(r2, f2))
            bound = min(
                numerical_rank(a), numerical_rank(w), int(v), int(f1), int(f2)
            )
            assert numerical_rank(a @ w) <= bound

    def test_layer_output_rank_bound(self):
        rng = np.random.default_rng(9)
        _, bases, layer = single_layer(layers.MRGCN, vertices=4, degree=0)
        # rank-1 weight slice bounds the output feature rank by 1
        for j in range(2):
            layer.weights[:, :, 0, j] = np.outer(rng.normal(size=5), rng.normal(size=2))
        xs = [rng.normal(size=(4, 5)) for _ in range(2)]
        out = layers.mrgcn_forward(xs, bases, layer, layers.IDENTITY)
        for mat in out:
            assert numerical_rank(mat) <= 1


class TestSourceGraphContract:
    def test_inter_block_uses_source_modality_basis(self):
        # with only the 0 -> 1 block nonzero, modality 1's output must be the
        # convolution of input 0 over graph 0, not graph 1
        rng = np.random.default_rng(10)
        graph_list = [random_graph(rng, 4, modality=f"custom{i}") for i in range(2)]
        bases = graphs.graph_bases(graph_list, 2)
        terms = [basis_terms(graphs.normalized_laplacian(g), 2) for g in graph_list]
        weights = np.zeros((2, 2, 3, 3, 2))
        weights[0, 1] = rng.normal(size=(3, 3, 2))
        layer = layers.LayerParams(weights, np.zeros((2, 2)))
        xs = [rng.normal(size=(4, 3)) for _ in range(2)]
        out = layers.ggcn_forward(xs, bases, layer, layers.IDENTITY)
        np.testing.assert_allclose(
            out[1], cheb_conv(xs[0], terms[0], weights[0, 1]), atol=1e-12
        )
        with pytest.raises(AssertionError):
            np.testing.assert_allclose(
                out[1], cheb_conv(xs[0], terms[1], weights[0, 1]), atol=1e-12
            )


class TestPerVertexBias:
    def _net(self):
        rng = np.random.default_rng(11)
        graph_list = [random_graph(rng, 3, modality=f"custom{i}") for i in range(2)]
        bases = graphs.graph_bases(graph_list, 1)
        specs = layers.make_layer_specs(["ggcn", "mrgcn"], 4, [2, 1])
        config = layers.NetworkConfig(2, 1, specs, per_vertex_bias=True, vertex_count=3)
        params = layers.init_network_params(config, 2)
        return bases, params

    def test_bias_shapes(self):
        _, params = self._net()
        assert params.layers[0].biases.shape == (2, 3, 2)
        assert params.layers[1].biases.shape == (2, 3, 1)

    def test_bias_shifts_only_its_vertex(self):
        bases, params = self._net()
        x = np.zeros((3, 4))
        for layer in params.layers:
            layer.weights[:] = 0.0
        params.layers[1].biases[:, 1, 0] = 2.0
        out = layers.network_forward(x, bases, params)
        np.testing.assert_allclose(out[:, 0], [0.0, 2.0, 0.0])

    def test_gradients_match_finite_differences(self):
        bases, params = self._net()
        rng = np.random.default_rng(12)
        reg = RegularizerConfig(alpha_low=1e-2, alpha_high=1e-2)
        batch = [(rng.uniform(size=(3, 4)), rng.uniform(size=(3, 1))) for _ in range(2)]
        x = np.stack([a for a, _ in batch])
        y = np.stack([b[:, 0] for _, b in batch])
        analytic = pack_grads(
            layers.batch_loss(x, y, bases, params, reg, with_grads=True)[1])

        def objective(flat):
            candidate = unpack_params(params, flat)
            return layers.batch_loss(x, y, bases, candidate, reg, with_grads=False)[0]

        numeric = finite_diff_gradient(objective, pack_params(params), 1e-5)
        rel = np.abs(analytic - numeric) / np.maximum(np.abs(analytic) + np.abs(numeric), 1e-8)
        assert rel.max() < 1e-4

    def test_config_requires_vertex_count(self):
        specs = layers.make_layer_specs(["ggcn"], 4, [1])
        with pytest.raises(ValueError, match="vertex_count"):
            layers.NetworkConfig(2, 1, specs, per_vertex_bias=True)


class TestBatchLossPurity:
    """batch_loss only reads its inputs, and a second call repeats the first
    bit for bit; the backward pass masks and releases its own buffers."""

    @pytest.mark.parametrize("kinds", [("ggcn", "mrgcn", "mrgcn"), ("mrgcn", "mrgcn", "ggcn")])
    @pytest.mark.parametrize("per_vertex_bias", [False, True])
    @pytest.mark.parametrize("top_activation", [layers.IDENTITY, layers.RELU])
    def test_inputs_unchanged_and_repeatable(self, kinds, per_vertex_bias, top_activation):
        rng = np.random.default_rng(21)
        v, m, degree = 4, 2, 2
        bases = graphs.graph_bases(
            [random_graph(rng, v, modality=f"custom{i}") for i in range(m)], degree
        )
        # 5 -> 6 propagates first, 6 -> 2 contracts first, 2 -> 1 either
        widths = [5, 6, 2, 1]
        activations = [layers.RELU, layers.RELU, top_activation]
        specs = tuple(
            layers.LayerSpec(kind, f1, f2, act)
            for kind, f1, f2, act in zip(kinds, widths, widths[1:], activations)
        )
        config = layers.NetworkConfig(m, degree, specs, per_vertex_bias=per_vertex_bias,
                                      vertex_count=v)
        params = layers.init_network_params(config, 3, frozen_modes=("I",))
        covariances = []
        for layer in params.layers:
            layer.biases[...] = rng.normal(size=layer.biases.shape)
            if layer.covariances is not None:
                for mode in (1, 2, 3):
                    layer.covariances.replace(mode, random_spd(rng, layer.covariances.dims[mode]))
                covariances.extend(layer.covariances.sigma)
        reg = RegularizerConfig(alpha_low=1e-2, alpha_high=1e-2, frozen_modes=("I",))
        x = rng.normal(size=(3, v, 5))
        y = rng.normal(size=(3, v))
        inputs = [x, y] + [arr for _, arr in layers.named_param_arrays(params)] + covariances
        before = [arr.copy() for arr in inputs]

        loss1, grads1 = layers.batch_loss(x, y, bases, params, reg, with_grads=True)
        loss2, grads2 = layers.batch_loss(x, y, bases, params, reg, with_grads=True)

        for arr, saved in zip(inputs, before):
            assert np.array_equal(arr, saved)
        assert loss1 == loss2
        for g1, g2 in zip(grads1, grads2):
            assert np.array_equal(g1.weights, g2.weights)
            assert np.array_equal(g1.biases, g2.biases)


class TestActivationLifetime:
    def test_backward_frees_each_stack_before_its_input_gradient(self):
        """The GGCN 32 -> 64 layer propagates its input; its stack is freed
        once the weight gradient is formed, before the input-gradient gathers
        (the only gathers of this stack's backward pass: both MRGCN layers
        contract first, and layer 0 forms no input gradient)."""
        rng = np.random.default_rng(8)
        v, m, degree = 4, 3, 2
        bases = graphs.graph_bases(
            [random_graph(rng, v, modality=f"custom{i}") for i in range(m)], degree
        )
        specs = layers.make_layer_specs(["ggcn", "ggcn", "mrgcn", "mrgcn"], 5, [32, 64, 32, 1])
        params = layers.init_network_params(layers.NetworkConfig(m, degree, specs), 0)
        x = rng.normal(size=(2, v, 5))
        pred, caches, _ = layers._forward_batch(x, bases, params, keep_caches=True)
        assert caches[1][0].shape == (v, 2, m, degree + 1, 32)
        stack = weakref.ref(caches[1][0])
        stack_alive_at_gather = []

        class Watched:
            def __init__(self, basis):
                self.basis = basis

            def spread(self, x, out):
                self.basis.spread(x, out)

            def gather(self, y):
                stack_alive_at_gather.append(stack() is not None)
                return self.basis.gather(y)

        layers._backward_batch(np.ones_like(pred), caches, [Watched(b) for b in bases], params)
        assert stack_alive_at_gather == [False] * m
        assert caches == []


class TestParamPacking:
    def test_round_trip(self):
        _, _, _, params = tiny_network(kinds=("ggcn", "mrgcn"), dims=(3, 1))
        flat = pack_params(params)
        rebuilt = unpack_params(params, flat)
        np.testing.assert_array_equal(pack_params(rebuilt), flat)

    def test_unpack_rejects_bad_size(self):
        _, _, _, params = tiny_network()
        with pytest.raises(ValueError):
            unpack_params(params, np.zeros(3))
