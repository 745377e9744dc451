"""Graph-convolution layers, the assembled network, and its gradients.

Lower layers mix modalities (every modality's output sums convolutions of
every modality's input over that source's own graph); higher layers keep
intra-modality weights only, stored as one joint 4-mode tensor so the
tensor-normal prior can act on it.  A modality-wise average fuses the final
single-feature outputs into the prediction.

The backward pass is hand-written.  Every basis term is its own transpose,
so it propagates with the same ``spread`` and ``gather`` as the forward pass.
Its contract is agreement with central finite differences, which the test
suite enforces.  Forward and gradient evaluation are pure given the
parameters; only the trainer mutates them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .regularization import CovarianceSet, RegularizerConfig, group_lasso, tensor_normal_loss

GGCN = "ggcn"
MRGCN = "mrgcn"

RELU = "relu"
IDENTITY = "identity"

# Smoothing floor under the square root of the prediction loss; keeps the
# batch-RMSE objective differentiable at an exact fit.
LOSS_SMOOTHING = 1e-12
# Rows (one window at one vertex) per forward and backward pass.  Every
# multi-window call runs in chunks of max(1, ROW_BUDGET // V) windows, so its
# activations are bounded by the budget, not by the batch; a window's
# prediction reads only its own input, so another chunking can move it by
# BLAS rounding at most.  2048 keeps a 6x6 city's 32-window batch
# (1152 rows) whole; at V=256 a batch is four 8-window chunks.  Measured on 2
# cores, OpenBLAS at 2 threads: one V=256 training step's traced peak fell
# from 88.9 to 25.6 MB and its time from 268 to 250 ms, while 8-window chunks
# at V=36 made a step 15 % slower.
ROW_BUDGET = 2048


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
    """Seeded uniform init in +-sqrt(6 / (f1 + f2)) per slice, zero biases.
    The draws fill the logical weight shape in C order; the storage is in the
    kernel's order (:func:`_kernel_layout`)."""
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
            weights = _kernel_layout(
                rng.uniform(-bound, bound, (m, m, kp1, spec.in_dim, spec.out_dim)))
            layers.append(GgcnLayerParams(weights, biases))
        else:
            weights = _kernel_layout(
                rng.uniform(-bound, bound, (spec.in_dim, spec.out_dim, kp1, m)))
            cov = CovarianceSet.identity((spec.in_dim, spec.out_dim, kp1, m), frozen_modes)
            layers.append(MrgcnLayerParams(weights, biases, cov))
    return NetworkParams(config, layers)


def named_param_arrays(params: NetworkParams):
    """Trainable arrays in a fixed order (covariances are not trainable)."""
    out = []
    for idx, layer in enumerate(params.layers):
        out.append((f"layer{idx}.weights", layer.weights))
        out.append((f"layer{idx}.bias", layer.biases))
    return out


# ---------------------------------------------------------------------------
# forward / backward cores
#
# Activations are vertex-major, (M, V, B, f): modality i's whole batch is one
# contiguous (V, B*f) matrix, which its basis spreads over every degree or
# gathers back (``LaplacianBasis.spread``/``gather``: one product with a dense
# stack, or K products with a sparse or low-rank step).  Both layer kinds are
# a per-source polynomial convolution sum_a B_a H W_a.  A GGCN source feeds
# all M targets (g = M*f2, and all sources add into one output group); an
# MRGCN source only its own (g = f2, one group per source).  Source i adds
# into group i % groups.
#
# Propagated stacks are degree-minor, (V, B, K+1, f), so that a batch
# against a source's weights is one 2-D product: ((K+1)*f1, g) weights after
# propagating the input, (f1, (K+1)*g) before propagating the output.

def _propagates_input(f1: int, g: int) -> bool:
    """Propagate the input and then contract when it is no wider than the
    contracted output; otherwise contract first and propagate the output.
    Either way the basis propagates the narrower side."""
    return f1 <= g


def _source_major_axes(shape) -> tuple:
    """Axes of a GGCN (M, M, K+1, f1, f2) or MRGCN (f1, f2, K+1, M) weight
    tensor in the kernel's order: the source modality first and degree before
    feature on the propagated side, (M, K+1, f1, [M,] f2) when the layer
    propagates its input and (M, f1, K+1, [M,] f2) when it propagates its
    output."""
    if len(shape) == 5:
        m, f1, f2 = shape[0], shape[3], shape[4]
        return (0, 2, 3, 1, 4) if _propagates_input(f1, m * f2) else (0, 3, 2, 1, 4)
    f1, f2 = shape[:2]
    return (3, 2, 0, 1) if _propagates_input(f1, f2) else (3, 0, 2, 1)


def _source_major(weights: np.ndarray) -> np.ndarray:
    """View of a weight tensor in the kernel's order; C-contiguous for
    weights stored by :func:`_kernel_layout`."""
    return weights.transpose(_source_major_axes(weights.shape))


def _from_source_major(storage: np.ndarray, shape) -> np.ndarray:
    """View, in the logical weight ``shape``, of contiguous ``storage`` that
    holds the weights in the kernel's order."""
    axes = _source_major_axes(shape)
    return storage.reshape([shape[a] for a in axes]).transpose(np.argsort(axes))


def _kernel_layout(weights: np.ndarray) -> np.ndarray:
    """A copy of ``weights`` stored in the order the kernel reads, so that
    no forward pass has to re-lay it out; only the strides differ from a
    C-order copy, the logical shape and values are the same."""
    return _from_source_major(np.ascontiguousarray(_source_major(weights)), weights.shape)


def _bias_view(biases: np.ndarray) -> np.ndarray:
    # (M, f2) broadcasts across vertices, (M, V, f2) is per vertex; both
    # broadcast across the batch axis of (M, V, B, f2)
    return biases[:, None, None, :] if biases.ndim == 2 else biases[:, :, None, :]


def _bias_grad(dz: np.ndarray, biases: np.ndarray) -> np.ndarray:
    return dz.sum(axis=(1, 2)) if biases.ndim == 2 else dz.sum(axis=2)


def _layer_forward(h, bases, layer, activation: str, keep_cache: bool):
    """One layer on vertex-major h (M, V, B, f1); returns its (M, V, B, f2)
    output and, if ``keep_cache``, what the backward pass needs: the
    operand (the propagated input (V, B, M, K+1, f1), or the input itself),
    the per-source weight matrices and the ReLU mask."""
    m, v, b, f1 = h.shape
    kp1, f2 = layer.weights.shape[2], layer.biases.shape[-1]
    groups = 1 if isinstance(layer, GgcnLayerParams) else m
    g = m // groups * f2
    first = _propagates_input(f1, g)
    # a view of weights stored by _kernel_layout; a copy of any other layout
    w = np.ascontiguousarray(_source_major(layer.weights)).reshape(
        m, kp1 * f1 if first else f1, -1)
    if first:
        operand = np.empty((v, b, m, kp1, f1))
        for i in range(m):
            bases[i].spread(h[i], operand[:, :, i])
        z = np.matmul(operand.reshape(v * b, groups, -1).transpose(1, 0, 2),
                      w.reshape(groups, -1, g))
    else:
        operand = h
        z = np.zeros((groups, v * b, g))
        for i in range(m):
            q = h[i].reshape(v * b, f1) @ w[i]
            z[i % groups] += bases[i].gather(q.reshape(v, b, kp1, g))
    z = np.ascontiguousarray(
        z.reshape(groups, v, b, -1, f2).transpose(0, 3, 1, 2, 4)).reshape(m, v, b, f2)
    z += _bias_view(layer.biases)
    mask = z > 0.0 if activation == RELU and keep_cache else None
    if activation == RELU:
        np.maximum(z, 0.0, out=z)
    return z, ((operand, w, mask) if keep_cache else None)


def _layer_backward(d_out, cache, bases, layer, need_dh: bool):
    """Backward of :func:`_layer_forward`: the (M, V, B, f1) input gradient,
    or None unless ``need_dh``, and the layer's parameter gradients.  A
    writeable ``d_out`` belongs to the backward pass and takes the ReLU mask
    in place."""
    operand, w, mask = cache
    if mask is not None:
        d_out = np.multiply(d_out, mask, out=d_out if d_out.flags.writeable else None)
    d_biases = _bias_grad(d_out, layer.biases)
    m, v, b, f2 = d_out.shape
    kp1, f1 = layer.weights.shape[2], operand.shape[-1]
    groups = 1 if isinstance(layer, GgcnLayerParams) else m
    g = m // groups * f2
    first = _propagates_input(f1, g)
    dz = np.ascontiguousarray(
        d_out.reshape(groups, -1, v, b, f2).transpose(0, 2, 3, 1, 4)).reshape(groups, v * b, g)
    d_mats = np.empty(w.shape)  # the weight gradient's storage, in the kernel's order
    dh = np.empty((m, v, b, f1)) if need_dh else None
    if first:
        np.matmul(operand.reshape(v * b, groups, -1).transpose(1, 2, 0), dz,
                  out=d_mats.reshape(groups, -1, g))
        if need_dh:  # one source's propagated gradient at a time
            for i in range(m):
                dp = (dz[i % groups] @ w[i].T).reshape(v, b, kp1, f1)
                dh[i] = bases[i].gather(dp).reshape(v, b, f1)
    else:
        dq = np.empty((v, b, kp1, g))
        for i in range(m):
            bases[i].spread(dz[i % groups].reshape(v, b, g), dq)
            np.matmul(operand[i].reshape(v * b, f1).T, dq.reshape(v * b, -1), out=d_mats[i])
            if need_dh:
                dh[i] = (dq.reshape(v * b, -1) @ w[i].T).reshape(v, b, f1)
    return dh, LayerGrads(_from_source_major(d_mats, layer.weights.shape), d_biases)


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
        caches[idx] = None  # release this layer's propagated stack and mask
    return grads


def _window_chunks(windows: int, vertex_count: int):
    """Slices of at most ``max(1, ROW_BUDGET // V)`` windows covering ``windows``."""
    step = max(1, ROW_BUDGET // vertex_count)
    return [slice(start, start + step) for start in range(0, windows, step)]


def batch_loss(x_batch, y_batch, bases, params: NetworkParams, reg: RegularizerConfig,
               with_grads: bool, *, sq_errors: list | None = None):
    """Total objective on one batch: smoothed batch RMSE plus the two
    regularizers, each summed over the layers of its family.

    Returns (loss, grads or None).  Covariances are held constant, so they
    appear in the gradient only through the fixed mode-product image.  When
    ``sq_errors`` is given, the batch's sum of squared residuals is appended
    to it.

    The batch runs in :data:`ROW_BUDGET` chunks.  The backward pass is linear
    in its top gradient, so each chunk's pass runs against ``residual / n``
    and the RMSE's ``1 / j0`` factor scales the sum once the whole residual is
    known.
    """
    b, v = x_batch.shape[:2]
    if b == 0:
        raise ValueError("batch must be nonempty")
    residual = np.empty((b, v))
    grads = None
    for rows in _window_chunks(b, v):
        pred, caches, _ = _forward_batch(x_batch[rows], bases, params, keep_caches=with_grads)
        chunk = np.subtract(pred, y_batch[rows], out=residual[rows])
        if not with_grads:
            continue
        chunk_grads = _backward_batch(chunk / residual.size, caches, bases, params)
        if grads is None:
            grads = chunk_grads
        else:
            for total, part in zip(grads, chunk_grads):
                total.weights += part.weights
                total.biases += part.biases
    sq_sum = float(np.sum(residual**2))
    if sq_errors is not None:
        sq_errors.append(sq_sum)
    mse = sq_sum / residual.size  # the same float as np.mean(residual**2)
    j0 = float(np.sqrt(mse + LOSS_SMOOTHING))
    loss = j0
    if with_grads:
        for g in grads:
            g.weights /= j0
            g.biases /= j0
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


def predict_batches(samples, bases, params: NetworkParams) -> np.ndarray:
    """(N, V) predictions, run in :data:`ROW_BUDGET` chunks."""
    if not samples:
        raise ValueError("no samples to predict")
    v = samples[0].input.shape[0]
    preds = np.empty((len(samples), v))
    for rows in _window_chunks(len(samples), v):
        x_batch = np.stack([s.input for s in samples[rows]])
        preds[rows] = _forward_batch(x_batch, bases, params)[0]
    return preds


# ---------------------------------------------------------------------------
# single-sample operations

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
    """(B, V) predictions plus each layer's post-activation features
    (M, B, V, f), run in :data:`ROW_BUDGET` chunks."""
    b, v = x_batch.shape[:2]
    pred = np.empty((b, v))
    hidden = [np.empty((params.config.modalities, b, v, spec.out_dim))
              for spec in params.config.layer_specs]
    for rows in _window_chunks(b, v):
        pred[rows], _, chunk_hidden = _forward_batch(x_batch[rows], bases, params,
                                                     keep_hidden=True)
        for out, h in zip(hidden, chunk_hidden):
            out[:, rows] = h.transpose(0, 2, 1, 3)
    return pred, hidden
