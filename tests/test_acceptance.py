"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criterion 6 trains two
full-size models on a 6x6 synthetic city and dominates the suite's runtime.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from mmgcn import data as D
from mmgcn import graphs as G
from mmgcn import layers as L
from mmgcn import metrics as M
from mmgcn import training as T
from mmgcn.cli import dispatch
from mmgcn.numerics import mode_unfold
from mmgcn.regularization import (
    FLIP_FLOP_INVERSE_MLE,
    FLIP_FLOP_LITERAL,
    CovarianceSet,
    RegularizerConfig,
    flip_flop_update,
    tensor_normal_loss,
)

from conftest import (
    basis_terms,
    cheb_conv,
    finite_diff_gradient,
    historical_average_rmse,
    pack_grads,
    pack_params,
    random_graph,
    random_spd,
    unpack_params,
    zeros_baseline_rmse,
)


def _kron_chain(mats):
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def test_criterion_1_gradient_suite():
    """J_W gradients (prediction loss + both regularizers) match central
    finite differences with relative error < 1e-4 on 20 random instances."""
    started = time.perf_counter()
    reg = RegularizerConfig(alpha_intra=0.1, alpha_low=1e-2, alpha_high=1e-2,
                            frozen_modes=())
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        vertices = int(rng.integers(2, 5))
        degree = int(rng.integers(0, 3))
        hidden = int(rng.integers(2, 4))
        input_dim = int(rng.integers(2, 4))
        graph_list = [random_graph(rng, vertices, modality=f"custom{i}") for i in range(2)]
        bases = G.graph_bases(graph_list, degree)
        specs = (
            L.LayerSpec(L.GGCN, input_dim, hidden, L.RELU),
            L.LayerSpec(L.MRGCN, hidden, 1, L.IDENTITY),
        )
        config = L.NetworkConfig(2, degree, specs)
        params = L.init_network_params(config, seed, frozen_modes=())
        # random SPD covariances so the tensor-normal term is non-trivial
        cov_dims = (hidden, 1, degree + 1, 2)
        params.layers[1].covariances = CovarianceSet(
            [random_spd(rng, d) for d in cov_dims], (False,) * 4
        )
        batch = [
            (rng.uniform(0.0, 1.0, (vertices, input_dim)),
             rng.uniform(0.0, 1.0, (vertices, 1)))
            for _ in range(int(rng.integers(1, 4)))
        ]
        x = np.stack([a for a, _ in batch])
        y = np.stack([b[:, 0] for _, b in batch])
        analytic = pack_grads(L.batch_loss(x, y, bases, params, reg, with_grads=True)[1])

        def objective(flat):
            candidate = unpack_params(params, flat)
            loss, _ = L.batch_loss(x, y, bases, candidate, reg, with_grads=False)
            return loss

        numeric = finite_diff_gradient(objective, pack_params(params), 1e-5)
        rel = np.abs(analytic - numeric) / np.maximum(np.abs(analytic) + np.abs(numeric), 1e-8)
        worst = max(worst, float(rel.max()))
        assert rel.max() < 1e-4, f"instance {seed}: relative error {rel.max():.2e}"
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"gradient suite took {elapsed:.1f}s"
    print(f"ACCEPTANCE 1 (gradient suite): PASS "
          f"(20 instances, worst rel err {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_2_mgcn_degeneracy():
    """GGCN with zeroed inter-modality blocks equals independent per-modality
    convolution stacks within 1e-12 on 100 random instances."""
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        vertices = int(rng.integers(2, 6))
        modalities = int(rng.integers(2, 4))
        degree = int(rng.integers(0, 4))
        f1, f2 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        graph_list = [random_graph(rng, vertices, modality=f"custom{i}")
                      for i in range(modalities)]
        bases = G.graph_bases(graph_list, degree)
        terms = [basis_terms(G.normalized_laplacian(g), degree) for g in graph_list]
        weights = rng.normal(size=(modalities, modalities, degree + 1, f1, f2))
        for i in range(modalities):
            for j in range(modalities):
                if i != j:
                    weights[i, j] = 0.0
        biases = rng.normal(size=(modalities, f2))
        layer = L.LayerParams(weights, biases)
        xs = [rng.normal(size=(vertices, f1)) for _ in range(modalities)]
        outputs = L.ggcn_forward(xs, bases, layer, L.RELU)
        for j in range(modalities):
            expected = np.maximum(
                cheb_conv(xs[j], terms[j], weights[j, j]) + biases[j], 0.0
            )
            diff = np.abs(outputs[j] - expected).max()
            worst = max(worst, float(diff))
            assert diff <= 1e-12, f"instance {seed}, modality {j}: diff {diff:.2e}"
    print(f"ACCEPTANCE 2 (MGCN degeneracy): PASS (100 instances, worst diff {worst:.2e})")


def test_criterion_3_kronecker_oracle():
    """Tensor-normal loss and both flip-flop forms match explicit Kronecker
    brute force within 1e-8 on dims <= 3 per mode."""
    rng = np.random.default_rng(7)
    for trial in range(12):
        dims = tuple(int(d) for d in rng.integers(1, 4, size=4))
        weights = rng.normal(size=dims)
        cov = CovarianceSet([random_spd(rng, d) for d in dims], (False,) * 4)

        precision = _kron_chain([np.linalg.inv(s) for s in cov.sigma])
        vec = weights.reshape(-1)
        expected_loss = 0.5 * float(vec @ precision @ vec)
        loss, _ = tensor_normal_loss(weights, cov)
        assert abs(loss - expected_loss) <= 1e-8 * max(1.0, abs(expected_loss))

        for form in (FLIP_FLOP_LITERAL, FLIP_FLOP_INVERSE_MLE):
            for mode in range(4):
                factors = [
                    cov.sigma[k] if form == FLIP_FLOP_LITERAL else np.linalg.inv(cov.sigma[k])
                    for k in range(4) if k != mode
                ]
                unfolded = mode_unfold(weights, mode)
                expected = (dims[mode] / weights.size) * (
                    unfolded @ _kron_chain(factors) @ unfolded.T
                ) + 1e-6 * np.eye(dims[mode])
                got = flip_flop_update(weights, cov, mode, 1e-6, form)
                assert np.abs(got - expected).max() <= 1e-8
    print("ACCEPTANCE 3 (Kronecker oracle): PASS (12 dim draws, both flip-flop forms)")


def test_criterion_4_spd_and_freezing(covariance_updates):
    """After 200 training batches, non-frozen covariances are symmetric with
    min eigenvalue >= epsilon while frozen input/output modes stay identity."""
    cfg = D.SynthConfig(4, 4, weeks=2, noise_scale=0.4, seed=13)
    ds = D.generate_synthetic(cfg)
    samples = D.make_windows(ds.series)
    splits = {"train": samples[:320], "val": samples[320:]}
    specs = L.make_layer_specs(["ggcn", "mrgcn"], 5, [8, 1])
    net = L.NetworkConfig(3, 2, specs)
    train_cfg = T.TrainConfig(learning_rate=1e-2, batch_size=32, max_epochs=20,
                              patience=20, seed=0, reg=RegularizerConfig())
    result = T.train(splits, ds.graphs, net, train_cfg)
    batches_per_epoch = -(-len(splits["train"]) // train_cfg.batch_size)
    assert batches_per_epoch * len(result.history) == 200
    final = covariance_updates[-1]
    assert final, "no high-layer covariances tracked"
    for cov in final:
        for mode, sigma in enumerate(cov.sigma):
            if mode in (0, 1):
                np.testing.assert_array_equal(sigma, np.eye(sigma.shape[0]))
            else:
                assert np.abs(sigma - sigma.T).max() <= 1e-10
                eigs = np.linalg.eigvalsh(sigma)
                assert eigs[0] >= train_cfg.reg.epsilon - 1e-12
    print("ACCEPTANCE 4 (SPD + freezing after 200 batches): PASS")


def test_criterion_5_laplacian_spectrum():
    """Eigenvalues of every generated normalized Laplacian lie in
    [-1e-9, 2 + 1e-9] for |V| <= 64."""
    rng = np.random.default_rng(21)
    graph_pool = []
    for n in (2, 5, 17, 40, 64):
        graph_pool.append(random_graph(rng, n, density=0.3))
        graph_pool.append(random_graph(rng, n, density=0.9))
    graph_pool.append(G.RelationGraph("custom", np.zeros((8, 8))))
    graph_pool.append(G.RelationGraph("custom", np.ones((8, 8)) - np.eye(8)))
    for shape in ((4, 4), (8, 8)):
        ds = D.generate_synthetic(D.SynthConfig(shape[0], shape[1], weeks=2, seed=3))
        graph_pool.extend(ds.graphs)
    checked = 0
    for graph in graph_pool:
        lap = G.normalized_laplacian(graph)
        eigs = np.linalg.eigvalsh(lap)
        assert eigs[0] >= -1e-9, f"min eigenvalue {eigs[0]:.2e}"
        assert eigs[-1] <= 2.0 + 1e-9, f"max eigenvalue {eigs[-1]:.2e}"
        checked += 1
    print(f"ACCEPTANCE 5 (Laplacian spectrum): PASS ({checked} graphs)")


ACCEPT6 = None


def _desk_scale_run():
    """Train the full variant and the MGCN baseline on the 6x6 benchmark."""
    global ACCEPT6
    if ACCEPT6 is not None:
        return ACCEPT6
    started = time.perf_counter()
    cfg = D.SynthConfig(6, 6, weeks=8, drift_rate=1.5, noise_scale=0.5, seed=7)
    ds = D.generate_synthetic(cfg)
    samples = D.make_windows(ds.series)
    ranges = D.default_splits(cfg)
    train_s, val_s, test_s = D.split_dataset(
        samples, ranges["train"], ranges["val"], ranges["test"]
    )
    splits = {"train": train_s, "val": val_s}
    bases = G.graph_bases(ds.graphs, 4)

    def fit(kinds, reg):
        specs = L.make_layer_specs(kinds, 5, [32, 64, 32, 1])
        net = L.NetworkConfig(3, 4, specs)
        train_cfg = T.TrainConfig(learning_rate=1e-2, batch_size=32, max_epochs=25,
                                  patience=8, seed=0, reg=reg)
        result = T.train(splits, ds.graphs, net, train_cfg)
        predictions = L.predict_batches(test_s, bases, result.state.params)
        return M.rmse(predictions, M.stack_targets(test_s))

    full = fit(["ggcn", "ggcn", "mrgcn", "mrgcn"], RegularizerConfig())
    mgcn = fit(["mrgcn"] * 4,
               RegularizerConfig(frozen_modes=("I", "O", "C", "M"),
                                 alpha_low=0.0, alpha_high=0.0))
    ACCEPT6 = {
        "full": full,
        "mgcn": mgcn,
        "zeros": zeros_baseline_rmse(test_s),
        "historical": historical_average_rmse(train_s, test_s),
        "elapsed": time.perf_counter() - started,
    }
    return ACCEPT6


def test_criterion_6_desk_scale_learning():
    """On the seeded 6x6 / 8-week dataset the full variant beats the zero and
    historical-average predictors by >= 20% and beats MGCN, in < 10 min."""
    run = _desk_scale_run()
    assert run["full"] <= 0.8 * run["zeros"], run
    assert run["full"] <= 0.8 * run["historical"], run
    assert run["full"] < run["mgcn"], run
    assert run["elapsed"] < 600.0, f"took {run['elapsed']:.0f}s"
    print(
        "ACCEPTANCE 6 (desk-scale learning): PASS "
        f"(full {run['full']:.3f} vs MGCN {run['mgcn']:.3f}, zeros {run['zeros']:.3f}, "
        f"historical avg {run['historical']:.3f}, {run['elapsed']:.0f}s)"
    )


def test_criterion_7_drift_instrumentation():
    """With drift > 0 and no noise, weekly KL divergence from the last train
    week is nondecreasing across test weeks."""
    cfg = D.SynthConfig(5, 5, weeks=10, drift_rate=2.0, noise_scale=0.0, seed=17)
    ds = D.generate_synthetic(cfg)
    week = ds.series.week_intervals
    kls = M.kl_temporal_drift(
        ds.series.values[:, 6 * week : 7 * week],
        ds.series.values[:, 7 * week :],
        cfg.interval_minutes,
    )
    assert len(kls) == 3
    assert all(later >= earlier for earlier, later in zip(kls, kls[1:])), kls
    assert kls[-1] > 0.0
    print(f"ACCEPTANCE 7 (drift instrumentation): PASS (KL by week: "
          + ", ".join(f"{v:.3e}" for v in kls) + ")")


def test_criterion_8_determinism_and_persistence(tmp_path):
    """Identical configs give bit-identical history; evaluate after restore
    reproduces the recorded best validation RMSE within 1e-9."""
    synth_cfg = tmp_path / "synth.json"
    synth_cfg.write_text(json.dumps({
        "grid_rows": 4, "grid_cols": 4, "weeks": 4, "seed": 3,
        "drift_rate": 1.0, "noise_scale": 0.3,
    }))
    data_dir = tmp_path / "dataset"
    assert dispatch(["synth", "--config", str(synth_cfg), "--out", str(data_dir)]) == 0
    run_cfg = tmp_path / "run.json"
    run_cfg.write_text(json.dumps({
        "manifest": str(data_dir / "manifest.json"),
        "variant": "GGCN_plus_MRGCN_2S",
        "network": {"output_dims": [8, 1], "cheb_degree": 2},
        "train": {"learning_rate": 1e-2, "max_epochs": 3, "seed": 5},
    }))
    histories = []
    for attempt in range(2):
        out = tmp_path / f"run_{attempt}"
        assert dispatch(["train", "--config", str(run_cfg), "--out", str(out)]) == 0
        histories.append((out / "history.csv").read_bytes())
    assert histories[0] == histories[1]

    out = tmp_path / "run_0"
    assert dispatch(["evaluate", "--config", str(run_cfg), "--out", str(out)]) == 0
    report = json.loads((out / "evaluation.json").read_text())
    assert abs(report["val_rmse"] - report["recorded_best_val_rmse"]) <= 1e-9
    print("ACCEPTANCE 8 (determinism + persistence): PASS")


def test_criterion_9_graph_statistics():
    """Density, F-measure, and edit distance reproduce hand-computed values;
    the road graph never intersects the neighborhood graph."""
    two = G.RelationGraph("custom", np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert G.graph_density(G.edge_mask(two)) == 1.0

    square = np.zeros((4, 4))
    for i, j in [(0, 1), (1, 2), (2, 3)]:
        square[i, j] = square[j, i] = 1.0
    assert G.graph_density(G.edge_mask(G.RelationGraph("custom", square))) == 0.5

    def from_edges(n, edges):
        adj = np.zeros((n, n))
        for i, j in edges:
            adj[i, j] = adj[j, i] = 1.0
        return G.edge_mask(G.RelationGraph("custom", adj))

    cmp_partial = G.compare_graphs(from_edges(4, [(0, 1), (1, 2)]),
                                   from_edges(4, [(1, 2), (2, 3)]))
    assert cmp_partial.f_measure == 0.5
    assert cmp_partial.edit_distance == 2
    cmp_disjoint = G.compare_graphs(from_edges(6, [(0, 1), (2, 3)]),
                                    from_edges(6, [(0, 2), (1, 3), (4, 5)]))
    assert cmp_disjoint.f_measure == 0.0
    assert cmp_disjoint.edit_distance == 5

    # structural Table-5 mirror: A_C is built with neighborhood edges removed
    ds = D.generate_synthetic(D.SynthConfig(5, 5, weeks=2, seed=29))
    neighborhood, _, road = ds.graphs
    assert not np.any((neighborhood.adjacency > 0) & (road.adjacency > 0))
    if road.adjacency.any():
        cmp_nc = G.compare_graphs(G.edge_mask(neighborhood), G.edge_mask(road))
        assert cmp_nc.f_measure == 0.0
    print("ACCEPTANCE 9 (graph statistics): PASS")
