"""Graph-convolution layers, the assembled network, and its gradients.

Lower layers mix modalities (every modality's output sums convolutions of
every modality's input over that source's own graph); higher layers keep
intra-modality weights only, stored as one joint 4-mode tensor so the
tensor-normal prior can act on it.  A modality-wise average fuses the final
single-feature outputs into the prediction.

The backward pass is hand-written; its contract is agreement with central
finite differences, which the test suite enforces.  Forward and gradient
evaluation are pure given the parameters; only the trainer mutates them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import LaplacianBasis
from .regularization import CovarianceSet, RegularizerConfig, group_lasso, tensor_normal_loss

GGCN = "ggcn"
MRGCN = "mrgcn"

RELU = "relu"
IDENTITY = "identity"

# Smoothing floor under the square root of the prediction loss; keeps the
# batch-RMSE objective differentiable at an exact fit.
LOSS_SMOOTHING = 1e-12


@dataclass(frozen=True)
class LayerSpec:
    kind: str
    in_dim: int
    out_dim: int
    activation: str = RELU

    def __post_init__(self):
        if self.kind not in (GGCN, MRGCN):
            raise ValueError(f"unknown layer kind {self.kind!r}")
        if self.activation not in (RELU, IDENTITY):
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.in_dim < 1 or self.out_dim < 1:
            raise ValueError("layer dimensions must be positive")


@dataclass(frozen=True)
class NetworkConfig:
    """Layer stack layout plus the shared modality count and polynomial degree."""

    modalities: int
    cheb_degree: int
    layer_specs: tuple
    per_vertex_bias: bool = False
    vertex_count: int | None = None

    def __post_init__(self):
        if self.modalities < 1:
            raise ValueError("at least one modality is required")
        if self.cheb_degree < 0:
            raise ValueError("polynomial degree must be >= 0")
        if not self.layer_specs:
            raise ValueError("network needs at least one layer")
        for prev, nxt in zip(self.layer_specs, self.layer_specs[1:]):
            if prev.out_dim != nxt.in_dim:
                raise ValueError(
                    f"layer output dim {prev.out_dim} does not feed input dim {nxt.in_dim}"
                )
        if self.layer_specs[-1].out_dim != 1:
            raise ValueError("final layer must output a single feature for fusion")
        if self.per_vertex_bias and not self.vertex_count:
            raise ValueError("per-vertex biases require vertex_count")


def make_layer_specs(kinds, input_dim: int, output_dims) -> tuple:
    """Chain dims through the stack; ReLU everywhere except the final layer."""
    if len(kinds) != len(output_dims):
        raise ValueError("one output dim per layer kind is required")
    specs = []
    f_in = input_dim
    for idx, (kind, f_out) in enumerate(zip(kinds, output_dims)):
        activation = IDENTITY if idx == len(kinds) - 1 else RELU
        specs.append(LayerSpec(kind, f_in, f_out, activation))
        f_in = f_out
    return tuple(specs)


@dataclass
class GgcnLayerParams:
    """Cross-modality weights (M, M, K+1, f1, f2): block (i, j) maps source
    modality i to target modality j.  Biases broadcast per feature unless the
    per-vertex flag reshapes them to (M, V, f2)."""

    weights: np.ndarray
    biases: np.ndarray


@dataclass
class MrgcnLayerParams:
    """Intra-modality weights as one joint tensor (f1, f2, K+1, M), plus the
    per-mode covariances of its tensor-normal prior."""

    weights: np.ndarray
    biases: np.ndarray
    covariances: CovarianceSet


@dataclass
class LayerGrads:
    weights: np.ndarray
    biases: np.ndarray


@dataclass
class NetworkParams:
    config: NetworkConfig
    layers: list


def init_network_params(
    config: NetworkConfig, seed: int, frozen_modes=("I", "O")
) -> NetworkParams:
    """Seeded uniform init in +-sqrt(6 / (f1 + f2)) per slice, zero biases."""
    rng = np.random.default_rng(seed)
    m = config.modalities
    kp1 = config.cheb_degree + 1
    layers = []
    for spec in config.layer_specs:
        bound = np.sqrt(6.0 / (spec.in_dim + spec.out_dim))
        if config.per_vertex_bias:
            biases = np.zeros((m, config.vertex_count, spec.out_dim))
        else:
            biases = np.zeros((m, spec.out_dim))
        if spec.kind == GGCN:
            weights = rng.uniform(-bound, bound, (m, m, kp1, spec.in_dim, spec.out_dim))
            layers.append(GgcnLayerParams(weights, biases))
        else:
            weights = rng.uniform(-bound, bound, (spec.in_dim, spec.out_dim, kp1, m))
            cov = CovarianceSet.identity((spec.in_dim, spec.out_dim, kp1, m), frozen_modes)
            layers.append(MrgcnLayerParams(weights, biases, cov))
    return NetworkParams(config, layers)


def copy_network_params(params: NetworkParams) -> NetworkParams:
    layers = []
    for layer in params.layers:
        if isinstance(layer, GgcnLayerParams):
            layers.append(GgcnLayerParams(layer.weights.copy(), layer.biases.copy()))
        else:
            layers.append(
                MrgcnLayerParams(layer.weights.copy(), layer.biases.copy(), layer.covariances.copy())
            )
    return NetworkParams(params.config, layers)


def named_param_arrays(params: NetworkParams):
    """Trainable arrays in a fixed order (covariances are not trainable)."""
    out = []
    for idx, layer in enumerate(params.layers):
        out.append((f"layer{idx}.weights", layer.weights))
        out.append((f"layer{idx}.bias", layer.biases))
    return out


def pack_params(params: NetworkParams) -> np.ndarray:
    return np.concatenate([arr.ravel() for _, arr in named_param_arrays(params)])


def unpack_params(params: NetworkParams, flat: np.ndarray) -> NetworkParams:
    """New parameter structure with trainable values taken from ``flat``."""
    result = copy_network_params(params)
    offset = 0
    for _, arr in named_param_arrays(result):
        arr[...] = flat[offset : offset + arr.size].reshape(arr.shape)
        offset += arr.size
    if offset != flat.size:
        raise ValueError(f"flat vector has {flat.size} entries, expected {offset}")
    return result


def pack_grads(grads) -> np.ndarray:
    return np.concatenate([np.concatenate([g.weights.ravel(), g.biases.ravel()]) for g in grads])


# ---------------------------------------------------------------------------
# forward / backward cores
#
# Activations are vertex-major, (M, V, B, f): modality i's whole batch is one
# contiguous (V, B*f) matrix, so propagating it over every degree of its
# basis is one product with the basis's row or column stack.  Both layer
# kinds are a per-source polynomial convolution sum_a B_a H W_a with the
# source's weights as (K+1, f1, g): a GGCN source feeds all M targets
# (g = M*f2), an MRGCN source only its own (g = f2).

def _propagates_input(f1: int, g: int) -> bool:
    """Propagate the input and then contract when it is no wider than the
    contracted output; otherwise contract first and propagate the output.
    Either way the K*V x V stacks multiply the narrower side."""
    return f1 <= g


def _conv_forward(h: np.ndarray, basis: LaplacianBasis, w: np.ndarray):
    """sum_a B_a h w[a] for vertex-major h (V, B, f1) and w (K+1, f1, g).

    Returns the (V, B, g) result and the operand its backward pass needs:
    the propagated input (K+1, V*B, f1), or the input itself (V*B, f1).
    """
    v, b, f1 = h.shape
    kp1, g = w.shape[0], w.shape[2]
    if _propagates_input(f1, g):
        p = np.empty((kp1, v * b, f1))
        p[0] = h.reshape(v * b, f1)
        np.matmul(basis.row_stack, h.reshape(v, b * f1),
                  out=p[1:].reshape((kp1 - 1) * v, b * f1))
        return np.tensordot(p, w, axes=([0, 2], [0, 1])).reshape(v, b, g), p
    h_flat = h.reshape(v * b, f1)
    q = np.matmul(h_flat, w)  # (K+1, V*B, g)
    z = basis.col_stack @ q[1:].reshape((kp1 - 1) * v, b * g)
    z += q[0].reshape(v, b * g)
    return z.reshape(v, b, g), h_flat


def _conv_backward(dz: np.ndarray, operand: np.ndarray, basis: LaplacianBasis,
                   w: np.ndarray, need_dh: bool):
    """Gradients of :func:`_conv_forward` for the (V, B, g) output gradient:
    ``dw`` (K+1, f1, g) and ``dh`` (V, B, f1), or None unless ``need_dh``.
    The transposed basis stacks carry the gradient back over the graph."""
    v, b, g = dz.shape
    kp1, f1 = w.shape[0], w.shape[1]
    dz_flat = dz.reshape(v * b, g)
    if _propagates_input(f1, g):
        dw = np.matmul(operand.transpose(0, 2, 1), dz_flat)
        if not need_dh:
            return dw, None
        dp = np.matmul(dz_flat, w.transpose(0, 2, 1))  # (K+1, V*B, f1)
        dh = basis.row_stack.T @ dp[1:].reshape((kp1 - 1) * v, b * f1)
        dh += dp[0].reshape(v, b * f1)
        return dw, dh.reshape(v, b, f1)
    dq = np.empty((kp1, v * b, g))
    dq[0] = dz_flat
    np.matmul(basis.col_stack.T, dz.reshape(v, b * g),
              out=dq[1:].reshape((kp1 - 1) * v, b * g))
    dw = np.matmul(operand.T, dq)
    if not need_dh:
        return dw, None
    return dw, np.tensordot(dq, w, axes=([0, 2], [0, 2])).reshape(v, b, f1)


def _source_view(weights: np.ndarray, i: int) -> np.ndarray:
    """View of the weights acting on source modality i, degree first:
    (K+1, f1, M, f2) of a GGCN tensor (M, M, K+1, f1, f2), (K+1, f1, f2) of
    an MRGCN tensor (f1, f2, K+1, M)."""
    if weights.ndim == 5:
        return weights[i].transpose(1, 2, 0, 3)
    return weights[:, :, :, i].transpose(2, 0, 1)


def _bias_view(biases: np.ndarray) -> np.ndarray:
    # (M, f2) broadcasts across vertices, (M, V, f2) is per vertex; both
    # broadcast across the batch axis of (M, V, B, f2)
    return biases[:, None, None, :] if biases.ndim == 2 else biases[:, :, None, :]


def _bias_grad(dz: np.ndarray, biases: np.ndarray) -> np.ndarray:
    return dz.sum(axis=(1, 2)) if biases.ndim == 2 else dz.sum(axis=2)


def _layer_forward(h, bases, layer, activation: str, keep_cache: bool):
    """One layer on vertex-major h (M, V, B, f1); returns its (M, V, B, f2)
    output and, if ``keep_cache``, what the backward pass needs."""
    m, v, b, _ = h.shape
    mixes = isinstance(layer, GgcnLayerParams)
    z = None
    outs = []
    sources = []
    for i in range(m):
        view = _source_view(layer.weights, i)
        w = view.reshape(view.shape[0], view.shape[1], -1)
        zi, operand = _conv_forward(h[i], bases[i], w)
        sources.append((w, operand) if keep_cache else None)
        if not mixes:
            outs.append(zi)
        elif z is None:
            z = zi
        else:
            z += zi
    if mixes:
        z = np.ascontiguousarray(z.reshape(v, b, m, -1).transpose(2, 0, 1, 3))
    else:
        z = np.stack(outs)
    z += _bias_view(layer.biases)
    mask = z > 0.0 if activation == RELU and keep_cache else None
    if activation == RELU:
        np.maximum(z, 0.0, out=z)
    return z, ((sources, mask) if keep_cache else None)


def _layer_backward(d_out, cache, bases, layer, need_dh: bool):
    """Backward of :func:`_layer_forward`: the (M, V, B, f1) input gradient,
    or None unless ``need_dh``, and the layer's parameter gradients."""
    sources, mask = cache
    dz = d_out * mask if mask is not None else d_out
    d_biases = _bias_grad(dz, layer.biases)
    m, v, b, _ = dz.shape
    if isinstance(layer, GgcnLayerParams):
        dz_all = np.ascontiguousarray(dz.transpose(1, 2, 0, 3)).reshape(v, b, -1)
        dz_sources = [dz_all] * m
    else:
        dz_sources = dz
    d_weights = np.empty_like(layer.weights)
    dh = np.empty((m, v, b, sources[0][0].shape[1])) if need_dh else None
    for i, (w, operand) in enumerate(sources):
        dw, dh_i = _conv_backward(dz_sources[i], operand, bases[i], w, need_dh)
        view = _source_view(d_weights, i)
        view[...] = dw.reshape(view.shape)
        if need_dh:
            dh[i] = dh_i
    return dh, LayerGrads(d_weights, d_biases)


def _forward_batch(x_batch, bases, params: NetworkParams, keep_caches=False,
                   keep_hidden=False):
    """Run the stack on (B, V, T) inputs; returns (B, V) predictions plus
    the per-layer caches and vertex-major outputs, each list empty unless
    asked for."""
    m = params.config.modalities
    x = np.ascontiguousarray(np.transpose(x_batch, (1, 0, 2)), dtype=float)
    h = np.broadcast_to(x, (m,) + x.shape)
    caches = []
    hidden = []
    for spec, layer in zip(params.config.layer_specs, params.layers):
        h, cache = _layer_forward(h, bases, layer, spec.activation, keep_caches)
        if keep_caches:
            caches.append(cache)
        if keep_hidden:
            hidden.append(h)
    pred = np.ascontiguousarray(h[:, :, :, 0].mean(axis=0).T)
    return pred, caches, hidden


def _backward_batch(d_pred, caches, bases, params: NetworkParams):
    m = params.config.modalities
    b, v = d_pred.shape
    dh = np.broadcast_to((d_pred.T / m)[None, :, :, None], (m, v, b, 1))
    grads = [None] * len(params.layers)
    for idx in range(len(params.layers) - 1, -1, -1):
        # layer 0's input gradient would only reach the data: not computed
        dh, grads[idx] = _layer_backward(dh, caches[idx], bases, params.layers[idx], idx > 0)
    return grads


def batch_loss(x_batch, y_batch, bases, params: NetworkParams, reg: RegularizerConfig,
               with_grads: bool, *, sq_errors: list | None = None):
    """Total objective on one batch: smoothed batch RMSE plus the two
    regularizers, each summed over the layers of its family.

    Returns (loss, grads or None).  Covariances are held constant, so they
    appear in the gradient only through the fixed mode-product image.  When
    ``sq_errors`` is given, the batch's sum of squared residuals is appended
    to it.
    """
    if x_batch.shape[0] == 0:
        raise ValueError("batch must be nonempty")
    pred, caches, _ = _forward_batch(x_batch, bases, params, keep_caches=with_grads)
    residual = pred - y_batch
    sq_sum = float(np.sum(residual**2))
    if sq_errors is not None:
        sq_errors.append(sq_sum)
    mse = sq_sum / residual.size  # the same float as np.mean(residual**2)
    j0 = float(np.sqrt(mse + LOSS_SMOOTHING))
    loss = j0
    grads = None
    if with_grads:
        d_pred = residual / (residual.size * j0)
        grads = _backward_batch(d_pred, caches, bases, params)
    for spec, layer, idx in zip(params.config.layer_specs, params.layers, range(len(params.layers))):
        if spec.kind == GGCN and reg.alpha_low > 0.0:
            block_loss, block_grad = group_lasso(layer.weights, reg.alpha_intra)
            loss += reg.alpha_low * block_loss
            if with_grads:
                grads[idx].weights += reg.alpha_low * block_grad
        elif spec.kind == MRGCN and reg.alpha_high > 0.0:
            prior_loss, prior_grad = tensor_normal_loss(layer.weights, layer.covariances)
            loss += reg.alpha_high * prior_loss
            if with_grads:
                grads[idx].weights += reg.alpha_high * prior_grad
    return loss, grads


def predict_batches(samples, bases, params: NetworkParams, chunk_size: int = 256) -> np.ndarray:
    """(N, V) predictions, chunked so training-time and restored-checkpoint
    evaluation reduce in the same floating-point order."""
    preds = []
    for start in range(0, len(samples), chunk_size):
        x_batch = np.stack([s.input for s in samples[start : start + chunk_size]])
        pred, _, _ = _forward_batch(x_batch, bases, params)
        preds.append(pred)
    return np.concatenate(preds, axis=0)


# ---------------------------------------------------------------------------
# single-sample operations

def cheb_conv(x: np.ndarray, basis: LaplacianBasis, weights: np.ndarray) -> np.ndarray:
    """Polynomial graph convolution: sum_a basis[a] @ X @ W[a]."""
    x = np.asarray(x, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 3 or weights.shape[0] != basis.degree + 1:
        raise ValueError(
            f"weights must be a (K+1, f1, f2) stack matching degree {basis.degree}"
        )
    if x.ndim != 2 or x.shape[1] != weights.shape[1]:
        raise ValueError(f"signal shape {x.shape} does not match weight f1 {weights.shape[1]}")
    if x.shape[0] != basis.powers[0].shape[0]:
        raise ValueError("signal vertex count does not match the basis")
    out = np.zeros((x.shape[0], weights.shape[2]))
    for power, w_alpha in zip(basis.powers, weights):
        out += power @ x @ w_alpha
    return out


def _single_window_layer(xs, bases, layer, activation: str, count: int):
    if len(xs) != count or len(bases) != count:
        raise ValueError(
            f"expected {count} modalities, got {len(xs)} inputs and {len(bases)} bases"
        )
    h = np.stack([np.asarray(x, dtype=float) for x in xs])[:, :, None, :]  # batch of 1
    out, _ = _layer_forward(h, bases, layer, activation, keep_cache=False)
    return [out[j, :, 0] for j in range(count)]


def ggcn_forward(xs, bases, params: GgcnLayerParams, activation: str = RELU):
    """One cross-modality layer on per-modality signals.

    Modality j's output sums convolutions of every modality i's input over
    graph i, so information travels along compound connectivity.
    """
    return _single_window_layer(xs, bases, params, activation, params.weights.shape[0])


def mrgcn_forward(xs, bases, params: MrgcnLayerParams, activation: str = RELU):
    """One intra-modality layer: modality j sees only its own graph and weights."""
    return _single_window_layer(xs, bases, params, activation, params.weights.shape[3])


def fusion_forward(xs) -> np.ndarray:
    """Modality-wise average of (V, 1) outputs."""
    stacked = np.stack([np.asarray(x, dtype=float) for x in xs])
    if stacked.ndim != 3 or stacked.shape[2] != 1:
        raise ValueError("fusion expects single-feature (V, 1) inputs")
    return stacked.mean(axis=0)


def network_forward(x_window: np.ndarray, bases, params: NetworkParams) -> np.ndarray:
    """(V, T) input window to (V, 1) prediction; the raw window is replicated
    to every modality at the first layer."""
    x_window = np.asarray(x_window, dtype=float)
    if x_window.ndim != 2 or x_window.shape[1] != params.config.layer_specs[0].in_dim:
        raise ValueError(
            f"input shape {x_window.shape} does not match first-layer dim "
            f"{params.config.layer_specs[0].in_dim}"
        )
    pred, _, _ = _forward_batch(x_window[None], bases, params)
    return pred[0][:, None]


def network_forward_hidden(x_batch: np.ndarray, bases, params: NetworkParams):
    """Predictions plus each layer's post-activation features (M, B, V, f)."""
    pred, _, hidden = _forward_batch(x_batch, bases, params, keep_hidden=True)
    return pred, [h.transpose(0, 2, 1, 3) for h in hidden]


def network_gradients(batch, bases, params: NetworkParams, reg: RegularizerConfig):
    """Gradient of the total objective for a list of (window, target) pairs,
    congruent to the trainable parameter structure."""
    if not batch:
        raise ValueError("batch must be nonempty")
    x_batch = np.stack([np.asarray(x, dtype=float) for x, _ in batch])
    y_batch = np.stack([np.asarray(y, dtype=float).reshape(-1) for _, y in batch])
    _, grads = batch_loss(x_batch, y_batch, bases, params, reg, with_grads=True)
    return grads
