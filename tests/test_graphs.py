import itertools
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

from mmgcn import graphs, layers
from mmgcn.data import SynthConfig, generate_synthetic, make_windows
from mmgcn.graphs import (
    CHEBYSHEV_BASIS,
    NEIGHBORHOOD,
    POI_SIMILARITY,
    POWER_BASIS,
    ROAD_CONNECTIVITY,
    RelationGraph,
    build_neighborhood,
    build_poi_similarity,
    build_road_connectivity,
    compare_graphs,
    graph_bases,
    graph_density,
    laplacian_basis,
    normalized_laplacian,
)

from mmgcn.regularization import RegularizerConfig

from conftest import poi_like, random_graph, ring_with_chords

ROOT = Path(__file__).resolve().parent.parent


class TestRelationGraph:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            RelationGraph("bad", np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            RelationGraph("bad", np.array([[0.0, -1.0], [-1.0, 0.0]]))

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="diagonal"):
            RelationGraph("bad", np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_arrays_are_read_only_copies(self):
        unit = np.array([[1.0, 0.0], [0.6, 0.8], [0.0, 1.0]])
        adjacency = unit @ unit.T
        np.fill_diagonal(adjacency, 0.0)
        g = RelationGraph("custom", adjacency, gram_factor=unit)
        for array in (g.adjacency, g.gram_factor):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 1] = 5.0
        before_adjacency, before_factor = adjacency.copy(), unit.copy()
        adjacency[0, 1] = unit[0, 1] = 5.0
        np.testing.assert_array_equal(g.adjacency, before_adjacency)
        np.testing.assert_array_equal(g.gram_factor, before_factor)

    def test_city_graphs_are_read_only(self):
        for g in generate_synthetic(SynthConfig(3, 3, 2, seed=1)).graphs:
            with pytest.raises(ValueError, match="read-only"):
                g.adjacency[0, 1] = 5.0
            assert np.array_equal(g.adjacency, g.adjacency.T)

    def test_rejects_factor_that_does_not_match(self):
        unit = np.array([[1.0, 0.0], [0.6, 0.8], [0.0, 1.0]])
        adjacency = unit @ unit.T
        np.fill_diagonal(adjacency, 0.0)
        RelationGraph("poi", adjacency * (1.0 + 1e-14), gram_factor=unit)  # rounding
        for bad in (adjacency * (1.0 + 1e-9), np.zeros((3, 3))):
            with pytest.raises(ValueError, match="poi: .*Gram"):
                RelationGraph("poi", bad, gram_factor=unit)
        with pytest.raises(ValueError, match="poi: Gram factor must be 3 x P"):
            RelationGraph("poi", adjacency, gram_factor=unit[:2])
        with pytest.raises(ValueError, match="poi: .*non-finite"):
            RelationGraph("poi", adjacency, gram_factor=np.full((3, 2), np.nan))


class TestBuildNeighborhood:
    def test_single_region(self):
        g = build_neighborhood(1, 1)
        np.testing.assert_array_equal(g.adjacency, np.zeros((1, 1)))

    def test_two_adjacent_cells(self):
        g = build_neighborhood(1, 2)
        np.testing.assert_array_equal(g.adjacency, [[0.0, 1.0], [1.0, 0.0]])

    def test_three_by_three_against_enumeration(self):
        g = build_neighborhood(3, 3)
        expected = np.zeros((9, 9))
        for i, j in itertools.product(range(9), repeat=2):
            ri, ci = divmod(i, 3)
            rj, cj = divmod(j, 3)
            if i != j and abs(ri - rj) <= 1 and abs(ci - cj) <= 1:
                expected[i, j] = 1.0
        np.testing.assert_array_equal(g.adjacency, expected)
        degrees = g.adjacency.sum(axis=1)
        assert degrees[4] == 8  # center
        assert all(degrees[c] == 3 for c in (0, 2, 6, 8))  # corners

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            build_neighborhood(0, 3)


class TestBuildPoiSimilarity:
    def test_identical_vectors(self):
        g = build_poi_similarity(np.array([[1.0, 0.0], [1.0, 0.0]]))
        np.testing.assert_allclose(g.adjacency, [[0.0, 1.0], [1.0, 0.0]])

    def test_orthogonal_vectors(self):
        g = build_poi_similarity(np.array([[1.0, 0.0], [0.0, 1.0]]))
        np.testing.assert_array_equal(g.adjacency, np.zeros((2, 2)))

    def test_cosine_values(self):
        g = build_poi_similarity(np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]]))
        inv_sqrt2 = 1.0 / np.sqrt(2.0)
        assert g.adjacency[0, 1] == pytest.approx(inv_sqrt2)
        assert g.adjacency[0, 2] == pytest.approx(inv_sqrt2)
        assert g.adjacency[1, 2] == 0.0

    def test_zero_row_warns_and_zeroes(self):
        with pytest.warns(UserWarning, match=r"\[1\]"):
            g = build_poi_similarity(np.array([[1.0, 0.0], [0.0, 0.0], [1.0, 1.0]]))
        assert g.adjacency[1].sum() == 0.0
        assert g.adjacency[:, 1].sum() == 0.0
        assert g.adjacency[0, 2] > 0.0

    def test_factor_is_unit_poi_vectors(self):
        g = build_poi_similarity(np.array([[3.0, 4.0], [2.0, 0.0], [1.0, 1.0]]))
        np.testing.assert_allclose(g.gram_factor, [[0.6, 0.8], [1.0, 0.0], [0.5**0.5] * 2])

    @pytest.mark.parametrize("kind", [POWER_BASIS, CHEBYSHEV_BASIS])
    def test_zero_row_keeps_zero_factor_row_without_runtime_warning(self, kind):
        # region 1 has no POIs; region 0 has POIs but is similar to no region
        poi = np.zeros((40, 2))
        poi[0, 0] = 1.0
        poi[2:, 1] = np.arange(1.0, 39.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with np.errstate(all="raise"):
                g = build_poi_similarity(poi)
                (basis,) = graph_bases([g], 2, kind)
        assert [str(w.message) for w in caught] == [
            "regions [1] have zero POI vectors; their similarity rows are set to 0"]
        np.testing.assert_array_equal(g.gram_factor[1], [0.0, 0.0])
        assert basis.factored
        diagonal, factor = basis.low_rank
        np.testing.assert_array_equal(factor[:2], np.zeros((2, 2)))
        np.testing.assert_allclose(basis.step, np.diag(diagonal) - factor @ factor.T,
                                   rtol=0.0, atol=1e-15)


class TestBuildRoadConnectivity:
    def test_subtracts_all_neighborhood_edges(self):
        nb = build_neighborhood(2, 2)
        g = build_road_connectivity(nb.adjacency.copy(), nb)
        np.testing.assert_array_equal(g.adjacency, np.zeros((4, 4)))

    def test_empty_connectivity(self):
        nb = build_neighborhood(2, 2)
        g = build_road_connectivity(np.zeros((4, 4)), nb)
        np.testing.assert_array_equal(g.adjacency, np.zeros((4, 4)))

    def test_path_grid_keeps_long_edge(self):
        nb = build_neighborhood(1, 3)
        conn = np.zeros((3, 3))
        conn[0, 2] = conn[2, 0] = 1.0
        g = build_road_connectivity(conn, nb)
        expected = np.zeros((3, 3))
        expected[0, 2] = expected[2, 0] = 1.0
        np.testing.assert_array_equal(g.adjacency, expected)

    def test_no_overlap_with_neighborhood(self):
        rng = np.random.default_rng(0)
        nb = build_neighborhood(3, 4)
        raw = np.triu((rng.uniform(size=(12, 12)) < 0.4).astype(float), k=1)
        conn = raw + raw.T
        g = build_road_connectivity(conn, nb)
        assert not np.any((g.adjacency > 0) & (nb.adjacency > 0))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            build_road_connectivity(np.zeros((3, 3)), build_neighborhood(2, 2))


class TestNormalizedLaplacian:
    def test_single_edge(self):
        g = RelationGraph("custom", np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(normalized_laplacian(g), [[1.0, -1.0], [-1.0, 1.0]])

    def test_empty_graph_is_identity(self):
        g = RelationGraph("custom", np.zeros((4, 4)))
        np.testing.assert_array_equal(normalized_laplacian(g), np.eye(4))

    def test_triangle_spectrum(self):
        adj = np.ones((3, 3)) - np.eye(3)
        lap = normalized_laplacian(RelationGraph("custom", adj))
        np.testing.assert_allclose(lap, np.eye(3) - adj / 2.0)
        np.testing.assert_allclose(np.linalg.eigvalsh(lap), [0.0, 1.5, 1.5], atol=1e-12)

    def test_spectrum_bounds_random_graphs(self):
        rng = np.random.default_rng(1)
        for n in (2, 7, 33, 64):
            lap = normalized_laplacian(random_graph(rng, n, density=0.3))
            assert np.abs(lap - lap.T).max() < 1e-12
            eigs = np.linalg.eigvalsh(lap)
            assert eigs[0] >= -1e-9
            assert eigs[-1] <= 2.0 + 1e-9


class TestLaplacianBasis:
    def test_degree_zero(self):
        basis = laplacian_basis(np.array([[0.5]]), 0)
        assert basis.degree == 0
        np.testing.assert_array_equal(basis.powers[0], np.eye(1))

    def test_identity_powers(self):
        basis = laplacian_basis(np.eye(3), 3)
        for mat in basis.powers:
            np.testing.assert_array_equal(mat, np.eye(3))

    def test_explicit_square(self):
        lap = np.array([[1.0, -1.0], [-1.0, 1.0]])
        basis = laplacian_basis(lap, 2)
        np.testing.assert_array_equal(basis.powers[1], lap)
        np.testing.assert_allclose(basis.powers[2], [[2.0, -2.0], [-2.0, 2.0]])

    def test_power_recurrence(self):
        rng = np.random.default_rng(2)
        lap = normalized_laplacian(random_graph(rng, 6))
        basis = laplacian_basis(lap, 4)
        for alpha in range(1, 5):
            np.testing.assert_allclose(
                basis.powers[alpha], basis.powers[alpha - 1] @ basis.powers[1], atol=1e-9
            )

    def test_chebyshev_recurrence(self):
        rng = np.random.default_rng(3)
        lap = normalized_laplacian(random_graph(rng, 5))
        basis = laplacian_basis(lap, 3, CHEBYSHEV_BASIS)
        rescaled = lap - np.eye(5)
        np.testing.assert_allclose(basis.powers[1], rescaled)
        np.testing.assert_allclose(
            basis.powers[3], 2 * rescaled @ basis.powers[2] - basis.powers[1], atol=1e-12
        )

    def test_negative_degree(self):
        with pytest.raises(ValueError):
            laplacian_basis(np.eye(2), -1)

    def test_rejects_asymmetric_step(self):
        with pytest.raises(ValueError, match="symmetric"):
            laplacian_basis(np.array([[1.0, -0.5], [-0.25, 1.0]]), 1)


class TestBasisRepresentation:
    # On the 6x6 city the road graph's L has 72 nonzeros and L - I, without
    # the diagonal, 36: under the 36^2/25 = 51.84 limit, so only the Chebyshev
    # basis of that graph is sparse.
    @pytest.mark.parametrize("side,kind,sparse", [
        (16, POWER_BASIS, {NEIGHBORHOOD: True, POI_SIMILARITY: False, ROAD_CONNECTIVITY: True}),
        (16, CHEBYSHEV_BASIS,
         {NEIGHBORHOOD: True, POI_SIMILARITY: False, ROAD_CONNECTIVITY: True}),
        (6, POWER_BASIS, {NEIGHBORHOOD: False, POI_SIMILARITY: False, ROAD_CONNECTIVITY: False}),
        (6, CHEBYSHEV_BASIS,
         {NEIGHBORHOOD: False, POI_SIMILARITY: False, ROAD_CONNECTIVITY: True}),
    ], ids=["16x16-power", "16x16-chebyshev", "6x6-power", "6x6-chebyshev"])
    def test_synthetic_city(self, side, kind, sparse):
        graph_list = generate_synthetic(SynthConfig(side, side, 2, seed=5)).graphs
        bases = graph_bases(graph_list, 2, kind)
        assert {g.modality_id: b.sparse for g, b in zip(graph_list, bases)} == sparse

    @pytest.mark.parametrize("kind", [POWER_BASIS, CHEBYSHEV_BASIS])
    @pytest.mark.parametrize("sparse", [True, False])
    @pytest.mark.parametrize("degree", [0, 1, 3])
    def test_spread_and_gather_match_powers(self, sparse, kind, degree):
        rng = np.random.default_rng(degree)
        graph = (ring_with_chords(rng, 90, 3) if sparse
                 else random_graph(rng, 90, density=0.3))
        basis = laplacian_basis(normalized_laplacian(graph), degree, kind)
        assert basis.sparse == sparse
        assert not basis.factored
        self.assert_spread_and_gather_match_powers(basis, rng)

    @pytest.mark.parametrize("kind", [POWER_BASIS, CHEBYSHEV_BASIS])
    @pytest.mark.parametrize("degree", [0, 1, 3])
    def test_factored_spread_and_gather_match_powers(self, kind, degree):
        rng = np.random.default_rng(degree)
        (basis,) = graph_bases([poi_like(rng, 90, 4)], degree, kind)
        assert basis.factored and not basis.sparse
        self.assert_spread_and_gather_match_powers(basis, rng)

    @staticmethod
    def assert_spread_and_gather_match_powers(basis, rng):
        v, kp1 = basis.step.shape[0], basis.degree + 1
        x = rng.normal(size=(v, 2, 3))
        y = rng.normal(size=(v, 2, kp1, 3))
        spread_out = np.empty_like(y)
        expected_gather = sum(p @ y[:, :, a].reshape(v, 6) for a, p in enumerate(basis.powers))
        for transpose in (False, True):
            basis.spread(x, spread_out, transpose)
            for a, power in enumerate(basis.powers):
                np.testing.assert_allclose(spread_out[:, :, a].reshape(v, 6),
                                           power @ x.reshape(v, 6), rtol=1e-12, atol=1e-12)
            gathered = basis.gather(y, transpose)
            np.testing.assert_allclose(gathered.reshape(v, 6), expected_gather,
                                       rtol=1e-12, atol=1e-12)

    def test_poi_basis_is_factored_on_16x16_and_dense_on_6x6(self):
        # 16 * 13 categories = 208 vertices: the 16x16 city (256) is above it
        for side, factored in ((16, True), (6, False)):
            graph_list = generate_synthetic(SynthConfig(side, side, 2, seed=5)).graphs
            for kind in (POWER_BASIS, CHEBYSHEV_BASIS):
                bases = graph_bases(graph_list, 2, kind)
                assert {g.modality_id: b.factored for g, b in zip(graph_list, bases)} == {
                    NEIGHBORHOOD: False, POI_SIMILARITY: factored, ROAD_CONNECTIVITY: False}

    @pytest.mark.parametrize("kind", [POWER_BASIS, CHEBYSHEV_BASIS])
    @pytest.mark.parametrize("degree", [0, 1, 2, 4])
    def test_factored_loss_and_gradients_match_dense_on_16x16(self, kind, degree):
        ds = generate_synthetic(SynthConfig(16, 16, 2, seed=5))
        samples = make_windows(ds.series)[:3]
        x = np.stack([s.input for s in samples])
        y = np.stack([s.target[:, 0] for s in samples])
        specs = layers.make_layer_specs([layers.GGCN, layers.MRGCN], x.shape[2], [4, 1])
        params = layers.init_network_params(layers.NetworkConfig(3, degree, specs), 0)
        factored = graph_bases(ds.graphs, degree, kind)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(graphs, "LOW_RANK_RATIO", np.inf)
            dense = graph_bases(ds.graphs, degree, kind)
        assert factored[1].factored and not dense[1].factored
        results = [layers.batch_loss(x, y, bases, params, RegularizerConfig(), with_grads=True)
                   for bases in (factored, dense)]
        (loss, grads), (dense_loss, dense_grads) = results
        assert loss == pytest.approx(dense_loss, rel=1e-13)
        flat, dense_flat = layers.pack_grads(grads), layers.pack_grads(dense_grads)
        assert np.abs(flat - dense_flat).max() <= 1e-13 * np.abs(dense_flat).max()

    def test_scipy_imported_only_for_sparse_graphs(self):
        # a 6x6 city keeps every basis dense and never loads scipy.sparse; a
        # 16x16 city loads it for its sparse bases
        script = textwrap.dedent("""
            import sys
            import numpy as np
            from mmgcn import data as D, graphs as G, layers as L
            from mmgcn.regularization import RegularizerConfig

            ds = D.generate_synthetic(D.SynthConfig(6, 6, 2, seed=1))
            bases = G.graph_bases(ds.graphs, 4)
            samples = D.make_windows(ds.series)[:4]
            x = np.stack([s.input for s in samples])
            y = np.stack([s.target[:, 0] for s in samples])
            specs = L.make_layer_specs([L.GGCN, L.MRGCN], x.shape[2], [4, 1])
            params = L.init_network_params(L.NetworkConfig(3, 4, specs), 0)
            L.batch_loss(x, y, bases, params, RegularizerConfig(), with_grads=True)
            assert "scipy.sparse" not in sys.modules, "6x6"
            city = D.generate_synthetic(D.SynthConfig(16, 16, 2, seed=1))
            G.graph_bases(city.graphs, 4)
            assert "scipy.sparse" in sys.modules, "16x16"
        """)
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join([str(ROOT / "src")] + ([path] if path else []))}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=300)
        assert done.returncode == 0, done.stderr[-4000:]


class TestGraphStatistics:
    def test_density_two_vertices(self):
        g = RelationGraph("custom", np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert graph_density(g) == 1.0

    def test_density_empty(self):
        assert graph_density(RelationGraph("custom", np.zeros((5, 5)))) == 0.0

    def test_density_partial(self):
        adj = np.zeros((4, 4))
        for i, j in [(0, 1), (1, 2), (2, 3)]:
            adj[i, j] = adj[j, i] = 1.0
        assert graph_density(RelationGraph("custom", adj)) == 0.5

    def test_density_complete(self):
        adj = np.ones((6, 6)) - np.eye(6)
        assert graph_density(RelationGraph("custom", adj)) == 1.0

    def test_density_single_vertex_invalid(self):
        with pytest.raises(ValueError):
            graph_density(RelationGraph("custom", np.zeros((1, 1))))

    def _graph_from_edges(self, n, edges):
        adj = np.zeros((n, n))
        for i, j in edges:
            adj[i, j] = adj[j, i] = 1.0
        return RelationGraph("custom", adj)

    def test_compare_identical(self):
        g = self._graph_from_edges(4, [(0, 1), (2, 3)])
        result = compare_graphs(g, g)
        assert result.f_measure == 1.0
        assert result.edit_distance == 0

    def test_compare_disjoint(self):
        g1 = self._graph_from_edges(6, [(0, 1), (2, 3)])
        g2 = self._graph_from_edges(6, [(0, 2), (1, 3), (4, 5)])
        result = compare_graphs(g1, g2)
        assert result.f_measure == 0.0
        assert result.edit_distance == 5

    def test_compare_partial_overlap(self):
        g1 = self._graph_from_edges(4, [(0, 1), (1, 2)])
        g2 = self._graph_from_edges(4, [(1, 2), (2, 3)])
        result = compare_graphs(g1, g2)
        assert result.f_measure == 0.5
        assert result.edit_distance == 2

    def test_compare_both_empty(self):
        g = self._graph_from_edges(3, [])
        result = compare_graphs(g, g)
        assert result.f_measure == 1.0
        assert result.edit_distance == 0

    def test_compare_dimension_mismatch(self):
        with pytest.raises(ValueError):
            compare_graphs(self._graph_from_edges(3, []), self._graph_from_edges(4, []))


def test_builders_preserve_invariants():
    rng = np.random.default_rng(4)
    nb = build_neighborhood(4, 5)
    poi = build_poi_similarity(rng.uniform(0.0, 2.0, (20, 7)))
    raw = np.triu((rng.uniform(size=(20, 20)) < 0.2).astype(float), k=1)
    road = build_road_connectivity(raw + raw.T, nb)
    for g in (nb, poi, road):
        assert np.array_equal(g.adjacency, g.adjacency.T)
        assert not np.diagonal(g.adjacency).any()
        assert (g.adjacency >= 0).all()
