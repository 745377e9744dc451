"""Adam training loop alternating weight updates with flip-flop covariance
re-estimation, plus checkpointing that restores bit-exactly."""

from __future__ import annotations

import copy
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import layers as L
from .graphs import POWER_BASIS, graph_bases
from .metrics import rmse, stack_targets
from .numerics import MODE_NAMES, NumericalFailure
from .regularization import CovarianceSet, RegularizerConfig, flip_flop_update, normalize_trace

CHECKPOINT_VERSION = 1


@dataclass
class TrainConfig:
    learning_rate: float = 5e-4
    batch_size: int = 32
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    max_epochs: int = 100
    patience: int = 10
    cov_update_every: int = 1
    seed: int = 0
    reg: RegularizerConfig = field(default_factory=RegularizerConfig)

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.max_epochs < 0:
            raise ValueError("max_epochs must be >= 0")
        if self.cov_update_every < 1:
            raise ValueError("cov_update_every must be >= 1")


@dataclass
class TrainState:
    params: L.NetworkParams
    first_moment: list
    second_moment: list
    step: int = 0
    best_val_rmse: float = float("inf")
    best_epoch: int = -1
    epochs_since_improvement: int = 0
    rng: np.random.Generator | None = None


@dataclass(frozen=True)
class HistoryRow:
    epoch: int
    train_rmse: float
    val_rmse: float


@dataclass
class TrainResult:
    state: TrainState
    history: list


def init_train_state(params: L.NetworkParams, seed: int) -> TrainState:
    arrays = [arr for _, arr in L.named_param_arrays(params)]
    return TrainState(
        params,
        [np.zeros_like(a) for a in arrays],
        [np.zeros_like(a) for a in arrays],
        rng=np.random.default_rng(seed + 1),
    )


def _storage_order(param, grad, m, v):
    """Views of the four Adam operands with their axes in ``param``'s storage
    order, largest stride first.  A parameter and moments stored without
    gaps, as the library allocates them, are then C-contiguous, so every
    update is one contiguous loop; an operand of another layout is read
    through its strides, element for element."""
    if param.flags.c_contiguous:
        return param, grad, m, v
    axes = sorted(range(param.ndim), key=lambda axis: -param.strides[axis])
    return [arr.transpose(axes) for arr in (param, grad, m, v)]


def adam_step(state: TrainState, grads, cfg: TrainConfig) -> TrainState:
    """Standard bias-corrected Adam, in place; rejects non-finite gradients.

    Every parameter is updated through two scratch arrays, with the same
    IEEE operations in the same order as ``m_hat = m / (1 - beta1**t)``,
    ``v_hat = v / (1 - beta2**t)``,
    ``param -= lr * m_hat / (sqrt(v_hat) + eps)``.  Each array is read in
    its parameter's storage order (:func:`_storage_order`), so the update is
    a contiguous loop whatever that order is, and a gradient in any layout
    gives the same bits."""
    named = L.named_param_arrays(state.params)
    flat_grads = []
    for layer_grads in grads:
        flat_grads.extend([layer_grads.weights, layer_grads.biases])
    state.step += 1
    t = state.step
    size = max(param.size for _, param in named)
    scratch_a, scratch_b = np.empty(size), np.empty(size)
    for (name, param), grad, m, v in zip(named, flat_grads, state.first_moment,
                                         state.second_moment):
        param, grad, m, v = _storage_order(param, grad, m, v)
        if not np.isfinite(grad).all():
            raise NumericalFailure(f"non-finite gradient in {name}")
        a = scratch_a[: param.size].reshape(param.shape)
        b = scratch_b[: param.size].reshape(param.shape)
        m *= cfg.adam_beta1
        m += np.multiply(1.0 - cfg.adam_beta1, grad, out=a)
        v *= cfg.adam_beta2
        v += np.multiply(1.0 - cfg.adam_beta2, np.square(grad, out=a), out=a)
        np.divide(m, 1.0 - cfg.adam_beta1**t, out=a)  # m_hat
        np.multiply(cfg.learning_rate, a, out=a)
        np.divide(v, 1.0 - cfg.adam_beta2**t, out=b)  # v_hat
        np.sqrt(b, out=b)
        b += cfg.adam_eps
        param -= np.divide(a, b, out=a)
    return state


def _update_covariances(params: L.NetworkParams, reg: RegularizerConfig) -> None:
    """Flip-flop pass over the non-frozen modes of every high layer, using the
    post-step weights; optional unit trace-average rescale fixes the gauge."""
    for spec, layer in zip(params.config.layer_specs, params.layers):
        if spec.kind != L.MRGCN:
            continue
        cov = layer.covariances
        for mode in range(4):
            if cov.frozen[mode]:
                continue
            sigma = flip_flop_update(
                layer.weights, cov, mode, reg.epsilon, reg.flip_flop_form
            )
            if reg.normalize_covariance:
                sigma = normalize_trace(sigma, reg.epsilon)
            cov.replace(mode, sigma)


def evaluate_rmse(samples, bases, params: L.NetworkParams) -> float:
    """RMSE of the chunked predictions over ``samples``, reduced in the same
    floating-point order wherever a split is evaluated."""
    predictions = L.predict_batches(samples, bases, params)
    return rmse(predictions, stack_targets(samples))


def train(dataset_splits, graphs, net_config: L.NetworkConfig, cfg: TrainConfig,
          basis_kind: str = POWER_BASIS) -> TrainResult:
    """Mini-batch loop: seeded shuffle per epoch, Adam on the total objective,
    covariance re-estimation whenever ``state.step`` is a multiple of
    ``cov_update_every``, and early stopping that returns the state of the
    epoch with the best validation RMSE: a deep copy (each array keeps its
    memory order) carrying the run's final ``epochs_since_improvement``.

    An epoch's ``train_rmse`` is pooled over the predictions its training
    steps make, each with the parameters in place before that batch's
    update; only the validation split is evaluated after the epoch."""
    train_samples, val_samples = dataset_splits["train"], dataset_splits["val"]
    if not train_samples or not val_samples:
        raise ValueError("train and validation splits must be nonempty")
    bases = graph_bases(graphs, net_config.cheb_degree, basis_kind)
    params = L.init_network_params(net_config, cfg.seed, cfg.reg.frozen_modes)
    state = init_train_state(params, cfg.seed)
    history = []
    best = state  # until an epoch improves; the first finite one always does

    targets = stack_targets(train_samples)
    inputs = np.stack([s.input for s in train_samples])
    for epoch in range(cfg.max_epochs):
        order = state.rng.permutation(len(train_samples))
        sq_errors = []
        for start in range(0, len(train_samples), cfg.batch_size):
            picked = order[start : start + cfg.batch_size]
            try:
                _, grads = L.batch_loss(
                    inputs[picked], targets[picked], bases, state.params, cfg.reg,
                    with_grads=True, sq_errors=sq_errors,
                )
                adam_step(state, grads, cfg)
                if state.step % cfg.cov_update_every == 0:
                    _update_covariances(state.params, cfg.reg)
            except NumericalFailure as exc:
                raise NumericalFailure(
                    f"epoch {epoch}, batch {start // cfg.batch_size}: {exc}"
                ) from exc
        train_rmse = float(np.sqrt(sum(sq_errors) / targets.size))
        val_rmse = evaluate_rmse(val_samples, bases, state.params)
        if not (np.isfinite(train_rmse) and np.isfinite(val_rmse)):
            # a NaN never compares below the best and would pass for "no improvement"
            raise NumericalFailure(
                f"epoch {epoch}: non-finite evaluation "
                f"(train_rmse={train_rmse!r}, val_rmse={val_rmse!r})"
            )
        history.append(HistoryRow(epoch, train_rmse, val_rmse))
        if val_rmse < state.best_val_rmse:
            state.best_val_rmse = val_rmse
            state.best_epoch = epoch
            state.epochs_since_improvement = 0
            best = copy.deepcopy(state)
        else:
            state.epochs_since_improvement += 1
            if state.epochs_since_improvement >= cfg.patience:
                break
    best.epochs_since_improvement = state.epochs_since_improvement
    return TrainResult(best, history)


# ---------------------------------------------------------------------------
# checkpointing

def _net_config_to_dict(config: L.NetworkConfig) -> dict:
    return {
        "modalities": config.modalities,
        "cheb_degree": config.cheb_degree,
        "per_vertex_bias": config.per_vertex_bias,
        "vertex_count": config.vertex_count,
        "layers": [
            {
                "kind": s.kind,
                "in_dim": s.in_dim,
                "out_dim": s.out_dim,
                "activation": s.activation,
            }
            for s in config.layer_specs
        ],
    }


def net_config_from_dict(payload: dict) -> L.NetworkConfig:
    """The network a ``checkpoint.json`` ``net_config`` object describes, whose
    JSON types :func:`load_checkpoint` has checked."""
    specs = tuple(
        L.LayerSpec(s["kind"], s["in_dim"], s["out_dim"], s["activation"])
        for s in payload["layers"]
    )
    return L.NetworkConfig(
        payload["modalities"],
        payload["cheb_degree"],
        specs,
        payload.get("per_vertex_bias", False),
        payload.get("vertex_count"),
    )


def _checkpoint_tensors(state: TrainState):
    tensors = []
    for (name, arr), m, v in zip(
        L.named_param_arrays(state.params), state.first_moment, state.second_moment
    ):
        tensors.append((name, arr))
        tensors.append((f"adam_m.{name}", m))
        tensors.append((f"adam_v.{name}", v))
    for idx, layer in enumerate(state.params.layers):
        if isinstance(layer, L.MrgcnLayerParams):
            for mode, sigma in enumerate(layer.covariances.sigma):
                tensors.append((f"layer{idx}.cov.{MODE_NAMES[mode]}", sigma))
    return tensors


def save_checkpoint(out_dir, state: TrainState, frozen_modes) -> None:
    """Strict JSON manifest plus one little-endian float64 blob, canonical
    layout; a best validation RMSE that no epoch set is written as null.
    Neither file is overwritten until both are fully written."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tensors = _checkpoint_tensors(state)
    index = []
    offset = 0
    blob = bytearray()
    for name, arr in tensors:
        data = np.ascontiguousarray(arr, dtype="<f8").tobytes()
        index.append({"name": name, "shape": list(arr.shape), "offset": offset})
        blob.extend(data)
        offset += len(data)
    manifest = {
        "version": CHECKPOINT_VERSION,
        "net_config": _net_config_to_dict(state.params.config),
        "frozen_modes": list(frozen_modes),
        "tensor_index": index,
        "scalars": {
            "step": state.step,
            "best_val_rmse": None if state.best_val_rmse == np.inf else
                             state.best_val_rmse,
            "best_epoch": state.best_epoch,
            "epochs_since_improvement": state.epochs_since_improvement,
        },
        "rng_state": state.rng.bit_generator.state,
    }
    _replace_files([
        (out / "checkpoint.bin", bytes(blob)),
        (out / "checkpoint.json",
         (json.dumps(manifest, indent=2, allow_nan=False) + "\n").encode()),
    ])


def _replace_files(files) -> None:
    """Write every (path, bytes) pair to a temporary file beside its target,
    then rename each into place with ``os.replace``, in order.  A failed
    write leaves every target as it was; only a crash between two renames
    can leave a new file beside an old one."""
    temps = []
    try:
        for path, data in files:
            temps.append(path.with_name(f".{path.name}.{os.getpid()}.tmp"))
            temps[-1].write_bytes(data)
        for (path, _), temp in zip(files, temps):
            os.replace(temp, path)
    finally:
        for temp in temps:
            temp.unlink(missing_ok=True)


def _read_tensors(index, blob: bytes, expected: dict) -> dict:
    """Tensors of ``blob`` by name, after checking the index against the
    expected ``{name: shape}`` and the canonical back-to-back layout."""
    seen = set()
    for entry in index:
        name = entry["name"]
        if name not in expected:
            raise ValueError(f"checkpoint has unexpected tensor {name!r}")
        if name in seen:
            raise ValueError(f"checkpoint lists tensor {name!r} twice")
        seen.add(name)
    missing = [name for name in expected if name not in seen]
    if missing:
        raise ValueError(f"checkpoint is missing tensor {missing[0]!r}")
    by_name = {}
    position = 0
    for entry in index:
        name, shape = entry["name"], tuple(entry["shape"])
        if shape != expected[name]:
            raise ValueError(
                f"checkpoint tensor {name!r} has shape {shape}, expected {expected[name]}"
            )
        if entry["offset"] != position:
            raise ValueError(
                f"checkpoint tensor {name!r} starts at byte {entry['offset']}, "
                f"expected {position}"
            )
        count = int(np.prod(shape))
        if position + 8 * count > len(blob):
            raise ValueError(
                f"checkpoint blob of {len(blob)} bytes ends inside tensor {name!r}"
            )
        arr = np.frombuffer(blob, dtype="<f8", count=count, offset=position)
        by_name[name] = arr.reshape(shape).astype(float)
        position += 8 * count
    if position != len(blob):
        raise ValueError(
            f"checkpoint blob holds {len(blob)} bytes, its tensors {position}"
        )
    return by_name


class _Fields(dict):
    """A ``checkpoint.json`` object whose missing field raises ``ValueError``."""

    def __missing__(self, key):
        raise ValueError(f"checkpoint.json is missing field {key!r}")


_JSON_TYPES = {  # a JSON boolean is never a number
    "an integer": (int,),
    "an integer or null": (int, type(None)),
    "a finite number or null": (int, float, type(None)),
    "a string": (str,),
    "a boolean": (bool,),
}

# The JSON type of every ``checkpoint.json`` field that load_checkpoint reads:
# an object maps its fields, a list holds one element type.
_CHECKPOINT_TYPES = {
    "version": "an integer",
    "net_config": {
        "modalities": "an integer",
        "cheb_degree": "an integer",
        "per_vertex_bias": "a boolean",
        "vertex_count": "an integer or null",
        "layers": [{"kind": "a string", "in_dim": "an integer", "out_dim": "an integer",
                    "activation": "a string"}],
    },
    "frozen_modes": ["a string"],
    "tensor_index": [{"name": "a string", "shape": ["an integer"], "offset": "an integer"}],
    "scalars": {
        "step": "an integer",
        "best_val_rmse": "a finite number or null",
        "best_epoch": "an integer",
        "epochs_since_improvement": "an integer",
    },
    "rng_state": {
        "bit_generator": "a string",
        "state": {"state": "an integer", "inc": "an integer"},
        "has_uint32": "an integer",
        "uinteger": "an integer",
    },
}


def _check_types(value, types, field: str = "") -> None:
    """Raise ``ValueError`` naming the first field of ``value`` whose JSON type
    is not the one ``types`` gives; a missing field raises once it is read."""
    if isinstance(types, dict):
        kind, ok = "an object", isinstance(value, dict)
    elif isinstance(types, list):
        kind, ok = "a list", type(value) is list
    else:
        # NaN and Infinity parse as floats, but save_checkpoint never writes them
        kind = types
        ok = type(value) in _JSON_TYPES[types] and (type(value) is not float
                                                   or np.isfinite(value))
    if not ok:
        name = f"checkpoint.json field {field}" if field else "checkpoint.json"
        raise ValueError(f"{name} must be {kind}, got {value!r}")
    if isinstance(types, dict):
        for key, sub in types.items():
            if key in value:
                _check_types(value[key], sub, f"{field}.{key}" if field else key)
    elif isinstance(types, list):
        for idx, item in enumerate(value):
            _check_types(item, types[0], f"{field}[{idx}]")


def load_checkpoint(out_dir) -> TrainState:
    """Restore a checkpoint; a manifest that is not valid JSON, a missing or
    wrongly typed manifest field, a blob or index that does not match the
    network it describes, or a frozen covariance mode that is not exactly
    ``I`` raises ``ValueError`` naming the file, field, tensor or mode."""
    out = Path(out_dir)
    path = out / "checkpoint.json"
    try:
        manifest = json.loads(path.read_text(), object_hook=_Fields)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from exc
    _check_types(manifest, _CHECKPOINT_TYPES)
    if manifest["version"] != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {manifest['version']}")
    blob = (out / "checkpoint.bin").read_bytes()
    config = net_config_from_dict(manifest["net_config"])
    params = L.init_network_params(config, seed=0, frozen_modes=manifest["frozen_modes"])
    state = init_train_state(params, seed=0)
    tensors = _checkpoint_tensors(state)
    by_name = _read_tensors(manifest["tensor_index"], blob,
                            {name: arr.shape for name, arr in tensors})
    for name, arr in tensors:
        arr[...] = by_name[name]
    for idx, layer in enumerate(state.params.layers):
        if isinstance(layer, L.MrgcnLayerParams):
            try:  # a frozen mode must still hold exactly the identity
                CovarianceSet(layer.covariances.sigma, layer.covariances.frozen)
            except ValueError as exc:
                raise ValueError(f"checkpoint layer {idx}: {exc}") from exc
    scalars = manifest["scalars"]
    state.step = scalars["step"]
    best_val_rmse = scalars["best_val_rmse"]
    state.best_val_rmse = np.inf if best_val_rmse is None else best_val_rmse
    state.best_epoch = scalars["best_epoch"]
    state.epochs_since_improvement = scalars["epochs_since_improvement"]
    state.rng.bit_generator.state = manifest["rng_state"]
    return state
