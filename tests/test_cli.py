import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from mmgcn.cli import dispatch


def write_json(path: Path, payload: dict) -> Path:
    path.write_text(json.dumps(payload, indent=2))
    return path


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One synth datasets + one trained run shared by the read-only tests."""
    root = tmp_path_factory.mktemp("runs")
    synth_cfg = write_json(root / "synth.json", {
        "grid_rows": 4, "grid_cols": 4, "weeks": 4, "seed": 7,
        "drift_rate": 1.0, "noise_scale": 0.3,
    })
    data_dir = root / "dataset"
    assert dispatch(["synth", "--config", str(synth_cfg), "--out", str(data_dir)]) == 0

    run_cfg = write_json(root / "run.json", {
        "manifest": str(data_dir / "manifest.json"),
        "variant": "GGCN_plus_MRGCN_2S",
        "network": {"output_dims": [4, 1], "cheb_degree": 2},
        "train": {"learning_rate": 2e-2, "max_epochs": 2, "seed": 0},
    })
    run_dir = root / "run_a"
    assert dispatch(["train", "--config", str(run_cfg), "--out", str(run_dir)]) == 0
    return {"root": root, "data": data_dir, "config": run_cfg, "run": run_dir}


class TestSynth:
    def test_writes_dataset_files(self, workspace):
        data = workspace["data"]
        for name in ("manifest.json", "demand.csv", "poi.csv", "road.csv"):
            assert (data / name).exists()
        manifest = json.loads((data / "manifest.json").read_text())
        assert manifest["vertex_count"] == 16
        assert manifest["splits"]["train"][0] == 336

    def test_rejects_unknown_field(self, tmp_path):
        cfg = write_json(tmp_path / "bad.json", {"grid_rows": 2, "grid_cols": 2,
                                                 "weeks": 3, "bogus": 1})
        assert dispatch(["synth", "--config", str(cfg), "--out", str(tmp_path)]) == 2


class TestTrain:
    def test_outputs_exist(self, workspace):
        run = workspace["run"]
        for name in ("run.json", "history.csv", "checkpoint.bin", "checkpoint.json"):
            assert (run / name).exists()
        history = (run / "history.csv").read_text().strip().splitlines()
        assert history[0] == "epoch,train_rmse,val_rmse"
        assert len(history) == 3

    def test_run_json_materializes_defaults(self, workspace):
        resolved = json.loads((workspace["run"] / "run.json").read_text())
        assert resolved["train"]["reg"]["alpha_intra"] == 0.1
        assert resolved["train"]["reg"]["frozen_modes"] == ["I", "O"]
        assert resolved["network"]["layer_kinds"] == ["ggcn", "mrgcn"]
        assert resolved["train"]["adam_beta1"] == 0.9

    def test_missing_manifest_field(self, tmp_path):
        cfg = write_json(tmp_path / "r.json", {"variant": "MGCN"})
        assert dispatch(["train", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    def test_unknown_variant(self, tmp_path, workspace):
        cfg = write_json(tmp_path / "r.json", {
            "manifest": str(workspace["data"] / "manifest.json"),
            "variant": "NOPE",
        })
        assert dispatch(["train", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    def test_variant_runs_deterministic(self, workspace, tmp_path):
        base = {
            "manifest": str(workspace["data"] / "manifest.json"),
            "network": {"output_dims": [4, 1], "cheb_degree": 2},
            "train": {"learning_rate": 2e-2, "max_epochs": 2, "seed": 0},
        }
        histories = {}
        for variant in ("MGCN", "GGCN_only"):
            runs = []
            for attempt in range(2):
                out = tmp_path / f"{variant}_{attempt}"
                cfg = write_json(tmp_path / f"{variant}_{attempt}.json",
                                 {**base, "variant": variant})
                assert dispatch(["train", "--config", str(cfg), "--out", str(out)]) == 0
                runs.append((out / "history.csv").read_bytes())
            assert runs[0] == runs[1]
            histories[variant] = runs[0]
        assert histories["MGCN"] != histories["GGCN_only"]

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_non_finite_evaluation_exits_3(self, workspace, tmp_path, capsys):
        # One full-batch Adam step at lr 1e300 moves every weight by about
        # 1e300, so the first evaluation overflows to a non-finite RMSE
        # before any later gradient could be checked.
        cfg = write_json(tmp_path / "r.json", {
            "manifest": str(workspace["data"] / "manifest.json"),
            "variant": "MGCN",
            "network": {"output_dims": [4, 1], "cheb_degree": 2},
            "train": {"learning_rate": 1e300, "batch_size": 100000, "max_epochs": 3,
                      "seed": 0},
        })
        out = tmp_path / "run"
        assert dispatch(["train", "--config", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "epoch 0: non-finite evaluation" in err
        assert not (out / "history.csv").exists()


class TestEvaluate:
    def test_matches_recorded_best(self, workspace):
        run = workspace["run"]
        assert dispatch(["evaluate", "--config", str(workspace["config"]),
                         "--out", str(run)]) == 0
        report = json.loads((run / "evaluation.json").read_text())
        assert report["val_rmse"] == pytest.approx(
            report["recorded_best_val_rmse"], abs=1e-9
        )
        assert report["test_rmse"] > 0.0

    def test_resolved_run_json_is_a_valid_config(self, workspace):
        # a run must be reproducible from its own artifacts
        run = workspace["run"]
        assert dispatch(["evaluate", "--config", str(run / "run.json"),
                         "--out", str(run)]) == 0
        report = json.loads((run / "evaluation.json").read_text())
        assert report["val_rmse"] == pytest.approx(
            report["recorded_best_val_rmse"], abs=1e-9
        )

    def test_truncated_checkpoint_exits_2(self, workspace, tmp_path, capsys):
        run = tmp_path / "run"
        shutil.copytree(workspace["run"], run)
        blob = (run / "checkpoint.bin").read_bytes()
        (run / "checkpoint.bin").write_bytes(blob[: len(blob) // 2])
        assert dispatch(["evaluate", "--config", str(workspace["config"]),
                         "--out", str(run)]) == 2
        assert "ends inside tensor" in capsys.readouterr().err


class TestPredict:
    def test_writes_prediction_vector(self, workspace):
        run = workspace["run"]
        assert dispatch(["predict", "--config", str(workspace["config"]),
                         "--out", str(run), "--index", "400"]) == 0
        prediction = np.loadtxt(run / "prediction_400.csv", delimiter=",")
        assert prediction.shape == (16,)
        assert np.isfinite(prediction).all()

    def test_rejects_invalid_index(self, workspace):
        assert dispatch(["predict", "--config", str(workspace["config"]),
                         "--out", str(workspace["run"]), "--index", "10"]) == 2


class TestAnalyze:
    def test_exports_artifacts(self, workspace):
        run = workspace["run"]
        assert dispatch(["analyze", "--config", str(workspace["config"]),
                         "--out", str(run)]) == 0

        stats = json.loads((run / "graph_stats.json").read_text())
        assert set(stats["density"]) == {
            "neighborhood", "poi_similarity", "road_connectivity",
        }
        # road edges never overlap neighborhood edges, so F-measure is 0
        pair = stats["pairs"]["neighborhood__road_connectivity"]
        assert pair["f_measure"] == 0.0

        drift = (run / "drift.csv").read_text().strip().splitlines()
        assert drift[0] == "week_index,kl_divergence,test_rmse"
        assert len(drift) == 2  # one test week

        independence = json.loads((run / "feature_independence.json").read_text())
        assert independence["layers"][0]["layer"] == 1
        assert set(independence["layers"][0]["per_modality"]) == set(stats["density"])

        rel = (run / "relationship_layer2.csv").read_text().strip().splitlines()
        assert rel[0] == "row,col,correlation,raw_covariance"
        assert len(rel) == 1 + 9  # 3x3 cells
        diag = [line for line in rel[1:] if line.split(",")[0] == line.split(",")[1]]
        assert all(float(line.split(",")[2]) == 1.0 for line in diag)

        rel_json = json.loads((run / "relationship_layer2.json").read_text())
        assert rel_json["labels"] == list(independence["layers"][0]["per_modality"])
        drift_json = json.loads((run / "drift.json").read_text())
        assert len(drift_json["weeks"]) == 1
        assert (run / "feature_independence.csv").exists()


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as err:
        dispatch(["frobnicate"])
    assert err.value.code == 2
