"""``jsonio``: one table of edits to the three JSON inputs (the run config,
a dataset's ``manifest.json`` and a ``checkpoint.json``), each read back
through the program's own reader."""

import json
import math
import shutil

import pytest

from mmgcn import cli
from mmgcn import data as D
from mmgcn import layers as L
from mmgcn import training as T


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    """A 2x2 dataset, an untrained checkpoint and a config that names only
    its manifest."""
    root = tmp_path_factory.mktemp("originals")
    cfg = D.SynthConfig(2, 2, weeks=4, seed=1, interval_minutes=60)
    D.save_dataset(D.generate_synthetic(cfg), root / "data", D.default_splits(cfg))
    net = L.NetworkConfig(3, 1, L.make_layer_specs([L.GGCN, L.MRGCN], 5, [2, 1]),
                          vertex_count=4)
    state = T.init_train_state(L.init_network_params(net, seed=0), seed=0)
    T.save_checkpoint(root / "run", state)
    (root / "config.json").write_text(json.dumps({"manifest": "data/manifest.json"}))
    return root


READERS = {
    "config": ("config.json", cli._resolve_run_config),
    "manifest": ("data/manifest.json", D.load_dataset),
    "checkpoint": ("run/checkpoint.json", lambda path: T.load_checkpoint(path.parent)),
}


def _set(*path, value):
    """An edit that sets the field at ``path``, creating missing objects."""
    def edit(document):
        holder = document
        for key in path[:-1]:
            holder = holder.setdefault(key, {})
        holder[path[-1]] = value
        return document
    return edit


def _delete(*paths):
    def edit(document):
        for path in paths:
            holder = document
            for key in path[:-1]:
                holder = holder[key]
            del holder[path[-1]]
        return document
    return edit


# (file, edit, expected): an error naming the field, where ``{path}`` stands
# for the edited file, or a check of what the reader returns
CASES = {
    "bool-as-integer": ("config", _set("train", "batch_size", value=True),
                        "config.train.batch_size must be an integer, got True"),
    "bool-as-number": ("config", _set("train", "learning_rate", value=False),
                       "config.train.learning_rate must be a finite number, got False"),
    "integer-as-float": ("config", _set("train", "learning_rate", value=1),
                         lambda config: type(config["train"]["learning_rate"]) is int),
    "config-nan": ("config", _set("train", "reg", "alpha_low", value=math.nan),
                   "config.train.reg.alpha_low must be a finite number or null, got nan"),
    "manifest-infinity": ("manifest", _set("vertex_count", value=math.inf),
                          "{path}.vertex_count must be an integer, got inf"),
    "checkpoint-infinity": ("checkpoint", _set("scalars", "best_val_rmse", value=-math.inf),
                            "{path}.scalars.best_val_rmse must be a finite number or null, "
                            "got -inf"),
    "type-before-missing": ("config", lambda config: {"network": {"cheb_degree": "2"}},
                            "config.network.cheb_degree must be an integer, got '2'"),
    "checkpoint-type-before-missing": (
        "checkpoint", lambda doc: _delete(("scalars",))(_set("version", value="1")(doc)),
        "{path}.version must be an integer, got '1'"),
    "omitted-object-missing": ("checkpoint", _delete(("scalars",)),
                               "missing field {path}.scalars"),
    "omitted-section-defaults": (
        "config", lambda config: config,
        lambda config: (config["analysis"] == {"edge_threshold": 0.0, "include_diagonal": True,
                                               "max_samples": 256}
                        and config["train"]["reg"]["alpha_intra"] == 0.1)),
    "checkpoint-defaults": (
        "checkpoint", _delete(("net_config", "per_vertex_bias"), ("net_config", "vertex_count")),
        lambda state: (state.params.config.per_vertex_bias is False
                       and state.params.config.vertex_count is None)),
    "manifest-unknown": ("manifest", _set("note", value=1), "unknown field {path}.note"),
    "manifest-unknown-split": ("manifest", _set("splits", "extra", value=[0, 1]),
                               "unknown field {path}.splits.extra"),
    "checkpoint-unknown": ("checkpoint", _set("scalars", "note", value="x"),
                           "unknown field {path}.scalars.note"),
}


@pytest.mark.parametrize("case", list(CASES))
def test_reader_checks_schema(originals, tmp_path, case):
    kind, edit, expected = CASES[case]
    shutil.copytree(originals, tmp_path, dirs_exist_ok=True)
    name, reader = READERS[kind]
    path = tmp_path / name
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    if isinstance(expected, str):
        with pytest.raises(ValueError) as err:
            reader(path)
        assert expected.format(path=path) in str(err.value)
    else:
        assert expected(reader(path))
