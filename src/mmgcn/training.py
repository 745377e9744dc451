"""Adam training loop alternating weight updates with flip-flop covariance
re-estimation, plus checkpointing that restores bit-exactly."""

from __future__ import annotations

import copy
import json
import math
import os
from dataclasses import asdict, dataclass, field
from itertools import zip_longest
from pathlib import Path

import numpy as np

from . import layers as L
from .graphs import graph_bases
from .jsonio import checked, prefixed, read_json
from .metrics import rmse, stack_targets
from .numerics import MODE_NAMES, NumericalFailure
from .regularization import CovarianceSet, RegularizerConfig, flip_flop_update, normalize_trace

CHECKPOINT_VERSION = 2


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
        # each check is written so that NaN fails it, and each message
        # begins with its field's name
        if not 0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be positive and finite, "
                             f"got {self.learning_rate!r}")
        for name in ("adam_beta1", "adam_beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise ValueError(f"{name} must lie in [0, 1), got {getattr(self, name)!r}")
        if not 0 < self.adam_eps < math.inf:
            raise ValueError(f"adam_eps must be positive and finite, got {self.adam_eps!r}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.max_epochs < 0:
            raise ValueError("max_epochs must be >= 0")
        if self.cov_update_every < 1:
            raise ValueError("cov_update_every must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed!r}")


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


def adam_step(state: TrainState, grads, cfg: TrainConfig) -> TrainState:
    """Standard bias-corrected Adam, in place; rejects non-finite gradients
    before any array moves, so a failure leaves the state as it was.

    Every parameter is updated through two scratch arrays, with the same
    IEEE operations in the same order as ``m_hat = m / (1 - beta1**t)``,
    ``v_hat = v / (1 - beta2**t)``,
    ``param -= lr * m_hat / (sqrt(v_hat) + eps)``.  The scratch arrays are
    ``np.empty_like(param)``, so numpy's elementwise loops follow the
    parameter's memory layout, and a gradient in any layout gives the same
    bits."""
    named = L.named_param_arrays(state.params)
    flat_grads = []
    for layer_grads in grads:
        flat_grads.extend([layer_grads.weights, layer_grads.biases])
    for (name, _), grad in zip(named, flat_grads):
        if not np.isfinite(grad).all():
            raise NumericalFailure(f"non-finite gradient in {name}")
    state.step += 1
    t = state.step
    for (_, param), grad, m, v in zip(named, flat_grads, state.first_moment,
                                      state.second_moment):
        a, b = np.empty_like(param), np.empty_like(param)
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


def train(dataset_splits, graphs, net_config: L.NetworkConfig, cfg: TrainConfig) -> TrainResult:
    """Mini-batch loop: seeded shuffle per epoch, Adam on the total objective,
    covariance re-estimation whenever ``state.step`` is a multiple of
    ``cov_update_every``, and early stopping that returns the state of the
    epoch with the best validation RMSE: a deep copy (each array keeps its
    memory order) carrying the run's final ``epochs_since_improvement``.

    An epoch's ``train_rmse`` is pooled over the predictions its training
    steps make, each with the parameters in place before that batch's
    update; only the validation split is evaluated after the epoch.  Each
    batch's windows are read from its samples when the batch runs, so no
    copy of the split's windows is held."""
    train_samples, val_samples = dataset_splits["train"], dataset_splits["val"]
    if not train_samples or not val_samples:
        raise ValueError("train and validation splits must be nonempty")
    bases = graph_bases(graphs, net_config.cheb_degree, net_config.basis)
    params = L.init_network_params(net_config, cfg.seed, cfg.reg.frozen_modes)
    state = init_train_state(params, cfg.seed)
    history = []
    best = state  # until an epoch improves; the first finite one always does

    cells = len(train_samples) * train_samples[0].target.size
    for epoch in range(cfg.max_epochs):
        order = state.rng.permutation(len(train_samples))
        sq_errors = []
        for start in range(0, len(train_samples), cfg.batch_size):
            batch = [train_samples[i] for i in order[start : start + cfg.batch_size]]
            try:
                _, grads = L.batch_loss(
                    np.stack([s.input for s in batch]), stack_targets(batch), bases,
                    state.params, cfg.reg, with_grads=True, sq_errors=sq_errors,
                )
                adam_step(state, grads, cfg)
                if state.step % cfg.cov_update_every == 0:
                    _update_covariances(state.params, cfg.reg)
            except NumericalFailure as exc:
                raise NumericalFailure(
                    f"epoch {epoch}, batch {start // cfg.batch_size}: {exc}"
                ) from exc
        train_rmse = float(np.sqrt(sum(sq_errors) / cells))
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

def _checkpoint_tensors(state: TrainState):
    """Every tensor of a checkpoint as ``(name, array)``, in blob order: the
    one description of the layout that save and load share."""
    tensors = []
    for (name, arr), m, v in zip(
        L.named_param_arrays(state.params), state.first_moment, state.second_moment
    ):
        tensors.append((name, arr))
        tensors.append((f"adam_m.{name}", m))
        tensors.append((f"adam_v.{name}", v))
    for idx, layer in enumerate(state.params.layers):
        if layer.covariances is not None:
            for mode, sigma in enumerate(layer.covariances.sigma):
                tensors.append((f"layer{idx}.cov.{MODE_NAMES[mode]}", sigma))
    return tensors


def _tensor_index(tensors):
    """The ``tensor_index`` of ``(name, array)`` pairs laid out back to back
    as ``<f8``, and the size of that blob in bytes."""
    index, offset = [], 0
    for name, arr in tensors:
        index.append({"name": name, "shape": list(arr.shape), "offset": offset})
        offset += 8 * arr.size
    return index, offset


# every ``checkpoint.json`` field, as save_checkpoint writes it; ``scalars``
# lists the ``TrainState`` fields saved as they are, an infinity as null
_CHECKPOINT_SCHEMA = {
    "version": int,
    "net_config": {
        "modalities": int,
        "cheb_degree": int,
        "per_vertex_bias": False,
        "vertex_count": (int, None),
        "basis": str,
        "layers": [{"kind": str, "in_dim": int, "out_dim": int, "activation": str}],
    },
    "frozen_modes": [str],
    "tensor_index": [{"name": str, "shape": [int], "offset": int}],
    "scalars": {
        "step": int,
        "best_val_rmse": (float, type(None)),
        "best_epoch": int,
        "epochs_since_improvement": int,
    },
    "rng_state": {
        "bit_generator": str,
        "state": {"state": int, "inc": int},
        "has_uint32": int,
        "uinteger": int,
    },
}


def save_checkpoint(out_dir, state: TrainState) -> None:
    """Strict JSON manifest plus one little-endian float64 blob, canonical
    layout; the frozen modes are those of the network's covariance sets (none
    without one), and a best validation RMSE that no epoch set is written as
    null.  Neither file is overwritten until both are fully written."""
    frozen = {layer.covariances.frozen for layer in state.params.layers
              if layer.covariances is not None}
    if len(frozen) > 1:
        raise ValueError("the network's covariance sets freeze different modes")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tensors = _checkpoint_tensors(state)
    net_config = asdict(state.params.config)
    net_config["layers"] = net_config.pop("layer_specs")
    manifest = {
        "version": CHECKPOINT_VERSION,
        "net_config": net_config,
        "frozen_modes": [name for name, f in zip(MODE_NAMES, frozen.pop() if frozen else ()) if f],
        "tensor_index": _tensor_index(tensors)[0],
        "scalars": {name: None if getattr(state, name) == math.inf else getattr(state, name)
                    for name in _CHECKPOINT_SCHEMA["scalars"]},
        "rng_state": state.rng.bit_generator.state,
    }
    _replace_files([
        (out / "checkpoint.bin",
         b"".join(np.asarray(arr, dtype="<f8").tobytes() for _, arr in tensors)),
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


def load_checkpoint(out_dir) -> TrainState:
    """Restore a checkpoint; a manifest that is not valid JSON or of another
    version (checked first: an older one may lack fields), a wrongly typed,
    missing or unknown field or a value the network rejects, a ``tensor_index``
    other than the one :func:`save_checkpoint` writes for the network (the
    first differing entry is named), a blob of another size, or a frozen
    covariance mode that is not exactly ``I`` raises ``ValueError`` naming the
    file, field, tensor, byte counts or mode."""
    out = Path(out_dir)
    path = out / "checkpoint.json"
    document = read_json(path)
    version = document.get("version") if isinstance(document, dict) else None
    if type(version) is int and version != CHECKPOINT_VERSION:
        raise ValueError(f"{path}.version is {version}; this program reads {CHECKPOINT_VERSION}")
    manifest = checked(document, _CHECKPOINT_SCHEMA, str(path))
    net_config = dict(manifest["net_config"])
    specs = net_config.pop("layers")
    config = prefixed(f"{path}.net_config: ", lambda: L.NetworkConfig(
        layer_specs=tuple(L.LayerSpec(**spec) for spec in specs), **net_config))
    params = prefixed(f"{path}.frozen_modes: ", L.init_network_params, config, seed=0,
                      frozen_modes=manifest["frozen_modes"])
    state = init_train_state(params, seed=0)
    tensors = _checkpoint_tensors(state)
    blob = (out / "checkpoint.bin").read_bytes()
    expected, size = _tensor_index(tensors)
    for i, (listed, wanted) in enumerate(zip_longest(manifest["tensor_index"], expected)):
        if listed != wanted:
            raise ValueError(f"checkpoint tensor_index[{i}] is {listed}, expected {wanted}")
    if len(blob) != size:
        raise ValueError(f"checkpoint blob holds {len(blob)} bytes, its tensors {size}")
    values = np.frombuffer(blob, dtype="<f8")
    for (_, arr), entry in zip(tensors, expected):
        start = entry["offset"] // 8
        arr[...] = values[start : start + arr.size].reshape(arr.shape)
    for idx, layer in enumerate(state.params.layers):
        if layer.covariances is not None:
            try:  # a frozen mode must still hold exactly the identity
                CovarianceSet(layer.covariances.sigma, layer.covariances.frozen)
            except ValueError as exc:
                raise ValueError(f"checkpoint layer {idx}: {exc}") from exc
    for name, value in manifest["scalars"].items():
        setattr(state, name, math.inf if value is None else value)
    state.rng.bit_generator.state = manifest["rng_state"]
    return state
