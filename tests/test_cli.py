import json
import shutil
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from mmgcn.cli import dispatch
from mmgcn.data import SynthConfig
from mmgcn.regularization import RegularizerConfig
from mmgcn.training import TrainConfig


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
        # a blob cut in half, and a checkpoint.json without its scalars
        for damaged, message in (("checkpoint.bin", "ends inside tensor"),
                                 ("checkpoint.json", "missing field 'scalars'")):
            run = tmp_path / damaged
            shutil.copytree(workspace["run"], run)
            if damaged == "checkpoint.bin":
                blob = (run / damaged).read_bytes()
                (run / damaged).write_bytes(blob[: len(blob) // 2])
            else:
                manifest = json.loads((run / damaged).read_text())
                del manifest["scalars"]
                write_json(run / damaged, manifest)
            assert dispatch(["evaluate", "--config", str(workspace["config"]),
                             "--out", str(run)]) == 2
            assert message in capsys.readouterr().err


class TestPredict:
    def test_writes_prediction_vector(self, workspace):
        run = workspace["run"]
        assert dispatch(["predict", "--config", str(workspace["config"]),
                         "--out", str(run), "--index", "400"]) == 0
        prediction = np.loadtxt(run / "prediction_400.csv", delimiter=",")
        assert prediction.shape == (16,)
        assert np.isfinite(prediction).all()

    def test_rejects_invalid_index(self, workspace):
        # before the first full week of history, and past the end (T = 4 weeks)
        for index in ("10", str(4 * 336)):
            assert dispatch(["predict", "--config", str(workspace["config"]),
                             "--out", str(workspace["run"]), "--index", index]) == 2


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


def run_pipeline(root: Path, train_seed: int = 0) -> None:
    """synth, train, evaluate, predict and analyze on a tiny city under ``root``."""
    root.mkdir()
    synth = write_json(root / "synth.json", {
        "grid_rows": 3, "grid_cols": 3, "weeks": 4, "seed": 2, "noise_scale": 0.2,
    })
    config = write_json(root / "config.json", {
        "manifest": "data/manifest.json",
        "variant": "GGCN_plus_MRGCN_4S",
        "network": {"output_dims": [4, 1], "cheb_degree": 2},
        "train": {"learning_rate": 1e-2, "max_epochs": 2, "seed": train_seed},
    })
    common = ["--config", str(config), "--out", str(root / "run")]
    assert dispatch(["synth", "--config", str(synth), "--out", str(root / "data")]) == 0
    for command in (["train"], ["evaluate"], ["predict", "--index", "700"], ["analyze"]):
        assert dispatch(command + common) == 0


def test_pipeline_artifacts_bit_identical(tmp_path):
    # both runs use the same paths, because run.json records the manifest's
    # absolute path
    work = tmp_path / "work"
    run_pipeline(work)
    first = work.rename(tmp_path / "first")
    run_pipeline(work)
    names = sorted(p.relative_to(first) for p in first.rglob("*") if p.is_file())
    assert names == sorted(p.relative_to(work) for p in work.rglob("*") if p.is_file())
    assert Path("run/relationship_layer2.csv") in names
    for name in names:
        assert (first / name).read_bytes() == (work / name).read_bytes(), name


def test_json_artifacts_are_strict(tmp_path):
    # with train seed 3, every layer-1 feature of the POI modality is zero, so
    # its independence score (and the layer mean) is unbounded
    with pytest.warns(UserWarning, match="independence is unbounded"):
        run_pipeline(tmp_path / "work", train_seed=3)

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    for path in (tmp_path / "work").rglob("*.json"):
        json.loads(path.read_text(), parse_constant=reject)
    run = tmp_path / "work" / "run"
    layer = json.loads((run / "feature_independence.json").read_text())["layers"][0]
    assert layer["per_modality"]["poi_similarity"] is None
    assert layer["mean"] is None
    assert "1,poi_similarity,inf" in (run / "feature_independence.csv").read_text()


@pytest.mark.parametrize("command,payload,field", [
    ("train", {"network": 5}, "config.network"),
    ("train", [], "config"),
    ("train", {"train": {"reg": 3}}, "config.train.reg"),
    ("train", {"train": {"batch_size": "x"}}, "config.train.batch_size"),
    ("synth", {"seed": "a"}, "config.seed"),
    ("synth", {"grid_rows": "a", "grid_cols": 2, "weeks": 3}, "config.grid_rows"),
    ("synth", {"grid_rows": 2.5, "grid_cols": 2, "weeks": 3}, "config.grid_rows"),
    ("train", {"manifest": 5}, "config.manifest"),
    ("analyze", {"manifest": "m.json", "analysis": {"max_samples": -300}},
     "config.analysis.max_samples"),
    ("analyze", {"manifest": "m.json", "analysis": {"max_samples": 0}},
     "config.analysis.max_samples"),
    ("analyze", {"manifest": "m.json", "analysis": {"edge_threshold": -0.5}},
     "config.analysis.edge_threshold"),
    ("train", {"manifest": "m.json", "network": {"output_dims": [32, "a", 1]}},
     "config.network.output_dims[1]"),
    ("train", {"manifest": "m.json", "network": {"output_dims": [4, 2.5, 1]}},
     "config.network.output_dims[1]"),
], ids=["network-number", "top-level-list", "reg-number", "batch-size-string", "seed-string",
        "grid-rows-string", "grid-rows-float", "manifest-number", "max-samples-negative",
        "max-samples-zero", "edge-threshold-negative", "output-dim-string", "output-dim-float"])
def test_malformed_config_exits_2_naming_field(tmp_path, capsys, command, payload, field):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(payload))
    assert dispatch([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert f"{field} must be" in capsys.readouterr().err


@pytest.fixture(scope="module")
def city3x3(tmp_path_factory):
    """A 3x3, 4-week synthetic dataset (1344 intervals); returns its directory."""
    root = tmp_path_factory.mktemp("city3x3")
    synth = write_json(root / "synth.json", {"grid_rows": 3, "grid_cols": 3, "weeks": 4})
    assert dispatch(["synth", "--config", str(synth), "--out", str(root / "data")]) == 0
    return root / "data"


@pytest.mark.parametrize("edit,message", [
    (lambda manifest: [1, 2], "manifest must be a JSON object"),
    (lambda manifest: {**manifest, "splits": {k: v for k, v in manifest["splits"].items()
                                              if k != "val"}}, "splits.val must be"),
    (lambda manifest: {**manifest, "splits": {**manifest["splits"], "val": "672-1008"}},
     "splits.val must be"),
    (lambda manifest: {**manifest, "splits": {**manifest["splits"], "test": [1008, 99999]}},
     "splits.test must be a pair of integers [lo, hi] with 0 <= lo <= hi <= 1344"),
    (lambda manifest: {**manifest, "demand_csv": 5}, "demand_csv must be a string, got 5"),
    (lambda manifest: {**manifest, "vertex_count": 9.7},
     "vertex_count must be an integer, got 9.7"),
    (lambda manifest: {**manifest, "interval_minutes": 30.5},
     "interval_minutes must be an integer, got 30.5"),
    (lambda manifest: {**manifest, "grid_rows": "3"}, "grid_rows must be an integer, got '3'"),
    (lambda manifest: {**manifest, "vertex_count": True},
     "vertex_count must be an integer, got True"),
], ids=["not-an-object", "val-missing", "val-string", "test-past-end", "demand-csv-number",
        "vertex-count-float", "interval-float", "grid-rows-string", "vertex-count-bool"])
def test_malformed_manifest_exits_2(city3x3, tmp_path, capsys, edit, message):
    manifest = json.loads((city3x3 / "manifest.json").read_text())
    edited = write_json(city3x3 / f"{tmp_path.name}.json", edit(manifest))
    config = write_json(tmp_path / "run.json", {
        "manifest": str(edited), "network": {"output_dims": [2, 1], "cheb_degree": 1},
        "train": {"max_epochs": 1},
    })
    assert dispatch(["train", "--config", str(config), "--out", str(tmp_path / "run")]) == 2
    assert message in capsys.readouterr().err


@pytest.fixture(scope="module")
def run3x3(city3x3, tmp_path_factory):
    """A one-epoch run on the 3x3 city; returns its config and run directory."""
    root = tmp_path_factory.mktemp("run3x3")
    config = write_json(root / "run.json", {
        "manifest": str(city3x3 / "manifest.json"),
        "network": {"output_dims": [2, 1], "cheb_degree": 1}, "train": {"max_epochs": 1},
    })
    assert dispatch(["train", "--config", str(config), "--out", str(root / "run")]) == 0
    return config, root / "run"


def _set(path, value):
    """An edit that sets the field at ``path`` of a parsed JSON document."""
    def edit(document):
        *keys, last = path
        holder = document
        for key in keys:
            holder = holder[key]
        holder[last] = value
        return document
    return edit


@pytest.mark.parametrize("edit,message", [
    (lambda manifest: [1, 2], "checkpoint.json must be an object, got [1, 2]"),
    (_set(["tensor_index", 0], [1]),
     "checkpoint.json field tensor_index[0] must be an object, got [1]"),
    (_set(["net_config", "layers", 0, "in_dim"], "5"),
     "checkpoint.json field net_config.layers[0].in_dim must be an integer, got '5'"),
    (_set(["scalars", "step"], "x"),
     "checkpoint.json field scalars.step must be an integer, got 'x'"),
    (_set(["scalars", "best_epoch"], 1.5),
     "checkpoint.json field scalars.best_epoch must be an integer, got 1.5"),
    (_set(["scalars", "best_val_rmse"], float("nan")),
     "checkpoint.json field scalars.best_val_rmse must be a finite number or null, got nan"),
], ids=["not-an-object", "index-entry-list", "in-dim-string", "step-string",
        "best-epoch-float", "best-val-rmse-nan"])
def test_malformed_checkpoint_exits_2_naming_field(run3x3, tmp_path, capsys, edit, message):
    config, run = run3x3
    copied = tmp_path / "run"
    shutil.copytree(run, copied)
    manifest = json.loads((copied / "checkpoint.json").read_text())
    write_json(copied / "checkpoint.json", edit(manifest))
    assert dispatch(["evaluate", "--config", str(config), "--out", str(copied)]) == 2
    assert message in capsys.readouterr().err


def test_invalid_json_names_the_file(run3x3, tmp_path, capsys):
    config, run = run3x3
    copied = tmp_path / "run"
    shutil.copytree(run, copied)
    checkpoint = copied / "checkpoint.json"
    checkpoint.write_text("{bad")
    assert dispatch(["evaluate", "--config", str(config), "--out", str(copied)]) == 2
    assert f"error: {checkpoint}: not valid JSON: " in capsys.readouterr().err

    manifest = tmp_path / "manifest.json"
    manifest.write_text("{bad")
    config = write_json(tmp_path / "bad_manifest.json", {
        **json.loads(config.read_text()), "manifest": str(manifest)})
    assert dispatch(["train", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert f"error: {manifest}: not valid JSON: " in capsys.readouterr().err


def test_echoed_defaults_match_dataclasses(tmp_path):
    # 60-minute intervals halve the windows of a full default-length fit
    given = {"grid_rows": 2, "grid_cols": 2, "weeks": 4, "interval_minutes": 60}
    synth = write_json(tmp_path / "synth.json", given)
    assert dispatch(["synth", "--config", str(synth), "--out", str(tmp_path / "data")]) == 0
    echoed = json.loads((tmp_path / "data" / "synth_config.json").read_text())
    assert echoed == {**asdict(SynthConfig(**given)), "val_weeks": 1, "test_weeks": 1}

    # the 4S variant freezes no mode and keeps both regularizers
    config = write_json(tmp_path / "run.json", {
        "manifest": "data/manifest.json",
        "variant": "GGCN_plus_MRGCN_4S",
        "network": {"output_dims": [2, 1], "cheb_degree": 1},
    })
    assert dispatch(["train", "--config", str(config), "--out", str(tmp_path / "run")]) == 0
    train = json.loads((tmp_path / "run" / "run.json").read_text())["train"]
    reg = train.pop("reg")
    expected_train = asdict(TrainConfig())
    del expected_train["reg"]
    assert train == expected_train
    assert reg == {**asdict(RegularizerConfig()), "frozen_modes": []}


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as err:
        dispatch(["frobnicate"])
    assert err.value.code == 2
