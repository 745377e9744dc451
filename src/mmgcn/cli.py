"""Command-line entry point: declarative JSON configs, one run per process.

Subcommands: ``synth`` writes a synthetic dataset, ``train`` fits a model and
writes a checkpoint plus history, ``evaluate`` recomputes split RMSEs from a
checkpoint, ``predict`` emits one prediction vector, and ``analyze`` exports
drift, feature-independence, modality-relationship, and graph statistics.
Exit codes: 0 success, 2 invalid configuration, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import copy
import json
import sys
from dataclasses import MISSING, asdict, fields
from itertools import combinations
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import data as D
from . import layers as L
from . import metrics as M
from . import training as T
from .graphs import (CHEBYSHEV_BASIS, POWER_BASIS, compare_graphs, edge_mask, graph_bases,
                     graph_density)
from .jsonio import checked, prefixed, read_json
from .numerics import NumericalFailure
from .regularization import RegularizerConfig

WINDOW_LENGTH = len(D.WINDOW_OFFSETS)

# each variant's layer kinds, lower and higher half, and the ``train.reg``
# values it fixes: the weight of a regularizer it leaves out is zero
VARIANTS = {
    "MGCN": {"lower": L.MRGCN, "higher": L.MRGCN,
             "reg": {"frozen_modes": ["I", "O", "C", "M"], "alpha_low": 0.0, "alpha_high": 0.0}},
    "GGCN_only": {"lower": L.GGCN, "higher": L.GGCN,
                  "reg": {"frozen_modes": ["I", "O", "C", "M"], "alpha_high": 0.0}},
    "MRGCN_only": {"lower": L.MRGCN, "higher": L.MRGCN,
                   "reg": {"frozen_modes": ["I", "O"], "alpha_low": 0.0}},
    "GGCN_plus_MRGCN_2S": {"lower": L.GGCN, "higher": L.MRGCN, "reg": {"frozen_modes": ["I", "O"]}},
    "GGCN_plus_MRGCN_4S": {"lower": L.GGCN, "higher": L.MRGCN, "reg": {"frozen_modes": []}},
}


def _field_defaults(cls, skip=()) -> dict:
    """A dataclass's defaults by field name; a field without one maps to its
    annotated type, which a ``jsonio`` schema treats as required."""
    types = get_type_hints(cls)
    return {f.name: types[f.name] if f.default is MISSING else f.default
            for f in fields(cls) if f.name not in skip}


# ``network``, ``train`` and ``train.reg`` take their defaults from the
# dataclasses.  ``network.layer_kinds`` and ``train.reg``'s ``frozen_modes``,
# ``alpha_low`` and ``alpha_high`` are derived from the variant: an omitted
# one takes the variant's value (an alpha it does not fix, the dataclass
# default) and a given one must equal it, so a written run.json reads back
_RUN_DEFAULTS = {
    "manifest": str,
    "variant": "GGCN_plus_MRGCN_2S",
    "network": {
        **_field_defaults(L.NetworkConfig, skip=("modalities", "layer_specs", "vertex_count")),
        "cheb_degree": 4,
        "output_dims": [32, 64, 32, 1],
        "layer_kinds": (list, None),
    },
    "train": {
        **_field_defaults(T.TrainConfig, skip=("reg",)),
        "reg": {**_field_defaults(RegularizerConfig), "frozen_modes": (list, None),
                "alpha_low": (float, None), "alpha_high": (float, None)},
    },
    "analysis": {"edge_threshold": 0.0, "include_diagonal": True, "max_samples": 256},
}

_SYNTH_DEFAULTS = {**_field_defaults(D.SynthConfig), "val_weeks": 1, "test_weeks": 1}


def _resolve_run_config(path) -> dict:
    config = checked(read_json(path), _RUN_DEFAULTS, "config")
    if config["variant"] not in VARIANTS:
        raise ValueError(
            f"unknown config field value variant={config['variant']!r}; "
            f"expected one of {sorted(VARIANTS)}"
        )
    network = config["network"]
    if network["basis"] not in (POWER_BASIS, CHEBYSHEV_BASIS):
        raise ValueError(f"config.network.basis must be {POWER_BASIS!r} or "
                         f"{CHEBYSHEV_BASIS!r}, got {network['basis']!r}")
    if network["cheb_degree"] < 0:
        raise ValueError("config.network.cheb_degree must be >= 0, "
                         f"got {network['cheb_degree']!r}")
    dims = network["output_dims"]
    if not dims or min(dims) < 1 or dims[-1] != 1:
        raise ValueError("config.network.output_dims must be positive widths ending in 1, "
                         f"got {dims!r}")
    analysis = config["analysis"]
    if analysis["max_samples"] < 1:
        raise ValueError("config.analysis.max_samples must be >= 1, "
                         f"got {analysis['max_samples']!r}")
    if analysis["edge_threshold"] < 0.0:
        raise ValueError("config.analysis.edge_threshold must be nonnegative, "
                         f"got {analysis['edge_threshold']!r}")
    manifest = Path(config["manifest"])
    if not manifest.is_absolute():
        manifest = (Path(path).parent / manifest).resolve()
    config["manifest"] = str(manifest)
    variant = VARIANTS[config["variant"]]
    lower = len(dims) // 2
    kinds = [variant["lower"] if i < lower else variant["higher"] for i in range(len(dims))]
    reg = config["train"]["reg"]
    for path, section, name, fixed in (
        ("network", network, "layer_kinds", kinds),
        *(("train.reg", reg, key, copy.deepcopy(variant["reg"].get(key)))
          for key in ("frozen_modes", "alpha_low", "alpha_high")),
    ):
        if section[name] is None:
            section[name] = getattr(RegularizerConfig, name) if fixed is None else fixed
        elif fixed is not None and section[name] != fixed:
            raise ValueError(f"config.{path}.{name} is {section[name]!r}, but variant "
                             f"{config['variant']} gives {fixed!r}")
    _train_config(config)  # range checks, before any command touches a file
    return config


def _build_net_config(config: dict, vertex_count: int) -> L.NetworkConfig:
    net = dict(config["network"])
    specs = L.make_layer_specs(net.pop("layer_kinds"), WINDOW_LENGTH, net.pop("output_dims"))
    return L.NetworkConfig(modalities=3, layer_specs=specs, vertex_count=vertex_count, **net)


def _train_config(config: dict) -> T.TrainConfig:
    section = dict(config["train"])
    # each range error's message begins with the field's name
    reg = prefixed("config.train.reg.", RegularizerConfig, **section.pop("reg"))
    return prefixed("config.train.", T.TrainConfig, reg=reg, **section)


def _split_samples(dataset) -> dict:
    samples = D.make_windows(dataset.series)
    parts = D.split_dataset(samples, *(dataset.splits[name] for name in D.SPLIT_NAMES))
    return dict(zip(D.SPLIT_NAMES, parts))


def _write_json(path: Path, payload: dict) -> None:
    """Strict JSON: a non-finite float (an unbounded score) is written as null."""
    payload = json.loads(json.dumps(payload), parse_constant=lambda _: None)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _write_csv(path: Path, header, rows) -> None:
    """One line per row; a float is written as its ``repr``, the shortest text
    that reads back to the same double."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(float(v)) if isinstance(v, float) else str(v)
                              for v in row))
    path.write_text("\n".join(lines) + "\n")


def _cmd_synth(config_path, out_dir) -> int:
    config = checked(read_json(config_path), _SYNTH_DEFAULTS, "config")
    synth_cfg = prefixed("config.", D.SynthConfig, **{
        k: v for k, v in config.items() if k not in ("val_weeks", "test_weeks")})
    splits = prefixed("config.", D.default_splits, synth_cfg, config["val_weeks"],
                      config["test_weeks"])
    dataset = D.generate_synthetic(synth_cfg)
    manifest_path = D.save_dataset(dataset, out_dir, splits)
    _write_json(Path(out_dir) / "synth_config.json", config)
    print(f"wrote dataset manifest {manifest_path}")
    return 0


def _cmd_train(config_path, out_dir) -> int:
    config = _resolve_run_config(config_path)
    dataset = D.load_dataset(config["manifest"])
    splits = _split_samples(dataset)
    net_config = _build_net_config(config, dataset.series.vertex_count)
    train_cfg = _train_config(config)
    result = T.train(splits, dataset.graphs, net_config, train_cfg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "run.json", config)
    _write_csv(out / "history.csv", ("epoch", "train_rmse", "val_rmse"),
               [(row.epoch, row.train_rmse, row.val_rmse) for row in result.history])
    T.save_checkpoint(out, result.state)
    print(
        f"trained {config['variant']} for {len(result.history)} epochs; "
        f"best val RMSE {result.state.best_val_rmse:.6f} at epoch {result.state.best_epoch}"
    )
    return 0


def _load_run(config_path, out_dir):
    config = _resolve_run_config(config_path)
    dataset = D.load_dataset(config["manifest"])
    state = T.load_checkpoint(out_dir)
    net = state.params.config
    # a library-trained checkpoint records no vertex count
    for field, recorded, actual, unit in (
        ("modalities", net.modalities, len(dataset.graphs), "graphs"),
        ("vertex_count", net.vertex_count, dataset.series.vertex_count, "vertices"),
        ("layers[0].in_dim", net.layer_specs[0].in_dim, WINDOW_LENGTH, "columns per window"),
    ):
        if recorded is not None and recorded != actual:
            raise ValueError(f"{Path(out_dir) / 'checkpoint.json'}.net_config.{field} is "
                             f"{recorded}, but the dataset has {actual} {unit}")
    # the basis kind and degree are the checkpoint's, whatever the config says
    bases = graph_bases(dataset.graphs, net.cheb_degree, net.basis)
    return config, dataset, state, bases


def _cmd_evaluate(config_path, out_dir) -> int:
    _, dataset, state, bases = _load_run(config_path, out_dir)
    report = {
        f"{name}_rmse": T.evaluate_rmse(samples, bases, state.params) if samples else None
        for name, samples in _split_samples(dataset).items()
    }
    report["recorded_best_val_rmse"] = state.best_val_rmse
    report["best_epoch"] = state.best_epoch
    _write_json(Path(out_dir) / "evaluation.json", report)
    shown = {k: v for k, v in report.items() if isinstance(v, float)}
    print("; ".join(f"{k}={v:.6f}" for k, v in sorted(shown.items())))
    return 0


def _cmd_predict(config_path, out_dir, target_index: int) -> int:
    _, dataset, state, bases = _load_run(config_path, out_dir)
    sample = D.Sample(dataset.series, target_index)
    prediction = L.predict_batches([sample], bases, state.params)[0]
    path = Path(out_dir) / f"prediction_{target_index}.csv"
    np.savetxt(path, prediction, delimiter=",", fmt="%.9g")
    print(f"wrote {path}")
    return 0


def _graph_stats(graphs, threshold: float) -> dict:
    """Each graph's density and each pair's comparison, from one edge mask
    per graph."""
    masks = {g.modality_id: edge_mask(g, threshold) for g in graphs}
    return {
        "density": {name: graph_density(edges) for name, edges in masks.items()},
        "pairs": {f"{a}__{b}": asdict(compare_graphs(masks[a], masks[b]))
                  for a, b in combinations(masks, 2)},
    }


def _drift_rows(dataset, test_samples, state, bases) -> list:
    """(week, KL from the last train week, test RMSE) per whole test week."""
    series = dataset.series
    week = series.week_intervals
    train_hi = dataset.splits["train"][1]
    test_lo, test_hi = dataset.splits["test"]
    n_weeks = (test_hi - test_lo) // week
    if train_hi < week or n_weeks < 1:
        raise ValueError("drift analysis needs at least one whole week in train and test")
    kls = M.kl_temporal_drift(
        series.values[:, train_hi - week : train_hi],
        series.values[:, test_lo : test_lo + n_weeks * week],
        series.interval_minutes,
    )
    rows = []
    for k, kl in enumerate(kls):
        lo = test_lo + k * week
        picked = [s for s in test_samples if lo <= s.target_index < lo + week]
        rows.append((k, kl, T.evaluate_rmse(picked, bases, state.params)))
    return rows


def _independence(covariances, names, include_diag: bool) -> list:
    """Per hidden layer with at least two features, each modality's score."""
    layers = []
    for idx, cov in enumerate(covariances, start=1):
        if cov.shape[-1] < 2:
            continue
        per_modality = {name: M.feature_independence(cj, include_diag)
                        for name, cj in zip(names, cov)}
        mean = float(np.mean(list(per_modality.values())))
        layers.append({"layer": idx, "per_modality": per_modality, "mean": mean})
    return layers


def _cmd_analyze(config_path, out_dir) -> int:
    config, dataset, state, bases = _load_run(config_path, out_dir)
    analysis = config["analysis"]
    out = Path(out_dir)
    names = tuple(g.modality_id for g in dataset.graphs)
    _write_json(out / "graph_stats.json",
                _graph_stats(dataset.graphs, analysis["edge_threshold"]))

    splits = _split_samples(dataset)
    header = ("week_index", "kl_divergence", "test_rmse")
    rows = _drift_rows(dataset, splits["test"], state, bases)
    _write_csv(out / "drift.csv", header, rows)
    _write_json(out / "drift.json", {"weeks": [dict(zip(header, row)) for row in rows]})

    # _drift_rows has checked that the test split holds a whole week
    covariances = L.feature_covariances(splits["test"][: analysis["max_samples"]], bases,
                                        state.params)
    independence = _independence(covariances, names, analysis["include_diagonal"])
    _write_json(out / "feature_independence.json", {"layers": independence})
    _write_csv(out / "feature_independence.csv", ("layer", "modality", "independence"),
               [(e["layer"], name, value)
                for e in independence for name, value in e["per_modality"].items()])

    for idx, (spec, layer) in enumerate(
        zip(state.params.config.layer_specs, state.params.layers), start=1
    ):
        if spec.kind != L.MRGCN:
            continue
        raw = layer.covariances.sigma[3]
        matrix = M.modality_relationship(raw)
        _write_csv(out / f"relationship_layer{idx}.csv",
                   ("row", "col", "correlation", "raw_covariance"),
                   [(names[a], names[b], matrix[a, b], raw[a, b])
                    for a, b in np.ndindex(matrix.shape)])
        _write_json(out / f"relationship_layer{idx}.json", {
            "layer": idx,
            "labels": list(names),
            "correlation": matrix.tolist(),
            "raw_covariance": raw.tolist(),
        })
    print(f"wrote analysis artifacts to {out}")
    return 0


def dispatch(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="mmgcn",
        description="Multi-modal multi-graph convolution forecasting runs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, txt in (
        ("synth", "generate a synthetic dataset"),
        ("train", "train a model and write checkpoint + history"),
        ("evaluate", "compute split RMSEs from a checkpoint"),
        ("predict", "emit predictions for one target index"),
        ("analyze", "export drift, independence, relationship, and graph stats"),
    ):
        cmd = sub.add_parser(name, help=txt)
        cmd.add_argument("--config", required=True, help="path to the JSON config")
        cmd.add_argument("--out", required=True, help="output (run) directory")
        if name == "predict":
            cmd.add_argument("--index", required=True, type=int,
                             help="target interval index to predict")
    args = parser.parse_args(argv)
    try:
        if args.command == "synth":
            return _cmd_synth(args.config, args.out)
        if args.command == "train":
            return _cmd_train(args.config, args.out)
        if args.command == "evaluate":
            return _cmd_evaluate(args.config, args.out)
        if args.command == "predict":
            return _cmd_predict(args.config, args.out, args.index)
        return _cmd_analyze(args.config, args.out)
    except (ValueError, OSError) as exc:  # an OSError names the output path it failed on
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
