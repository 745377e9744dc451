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

from .graphs import CHEBYSHEV_BASIS, POWER_BASIS, GraphBases
from .regularization import CovarianceSet, RegularizerConfig, group_lasso, tensor_normal_loss

GGCN = "ggcn"
MRGCN = "mrgcn"

RELU = "relu"
IDENTITY = "identity"

# Smoothing floor under the square root of the prediction loss; keeps the
# batch-RMSE objective differentiable at an exact fit.
LOSS_SMOOTHING = 1e-12
# Bytes of kernel operands per chunk of a multi-window pass.  A chunk is
# max(1, CHUNK_BYTES // (V * 8 * floats)) windows, where floats counts each
# layer's operand per (window, vertex) row (_chunk_floats), so what a chunk
# holds is bounded in V, K and width, not by the batch.  A window's
# prediction reads only its own input, so another chunking can move it by
# BLAS rounding at most.  The budget gives the default network (K=4, widths
# [32, 64, 32, 1]) 32 training and 56 forward-only windows at V=36, and 4
# and 8 at V=256, the chunks measured best at those sizes (README, "Inside
# the network"); any budget from 7,864,320 to 7,879,679 bytes does that.
CHUNK_BYTES = 7_864_320  # 7.5 MiB


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
    """Layer stack layout plus the shared modality count, degree and basis kind."""

    modalities: int
    cheb_degree: int
    layer_specs: tuple
    per_vertex_bias: bool = False
    vertex_count: int | None = None
    basis: str = POWER_BASIS

    def __post_init__(self):
        if self.modalities < 1:
            raise ValueError("at least one modality is required")
        if self.cheb_degree < 0:
            raise ValueError("polynomial degree must be >= 0")
        if self.basis not in (POWER_BASIS, CHEBYSHEV_BASIS):
            raise ValueError(f"unknown basis kind {self.basis!r}")
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
class LayerParams:
    """One layer's weights and biases; gradients have the same shape and no
    covariances.  GGCN weights are cross-modality, (M, M, K+1, f1, f2): block
    (i, j) maps source modality i to target modality j.  MRGCN weights are
    intra-modality, one joint tensor (f1, f2, K+1, M), and ``covariances``
    holds the per-mode covariances of its tensor-normal prior.  Biases
    broadcast per feature unless the per-vertex flag reshapes them to
    (M, V, f2)."""

    weights: np.ndarray
    biases: np.ndarray
    covariances: CovarianceSet | None = None


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
        shape = ((m, m, kp1, spec.in_dim, spec.out_dim) if spec.kind == GGCN
                 else (spec.in_dim, spec.out_dim, kp1, m))
        weights = _kernel_layout(rng.uniform(-bound, bound, shape))
        cov = None if spec.kind == GGCN else CovarianceSet.identity(shape, frozen_modes)
        layers.append(LayerParams(weights, biases, cov))
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


def _layer_forward(h, bases, layer: LayerParams, kind: str, activation: str, keep_cache: bool):
    """One layer of ``kind`` on vertex-major h (M, V, B, f1); returns its
    (M, V, B, f2) output and, if ``keep_cache``, what the backward pass
    needs: the operand (the propagated input (V, B, M, K+1, f1), or the input
    itself), the per-source weight matrices, the ReLU mask and the output
    group count."""
    if not isinstance(bases, GraphBases):
        bases = GraphBases(bases)  # per basis: a plain sequence has no stack
    m, v, b, f1 = h.shape
    kp1, f2 = layer.weights.shape[2], layer.biases.shape[-1]
    groups = 1 if kind == GGCN else m
    g = m // groups * f2
    first = _propagates_input(f1, g)
    # a view of weights stored by _kernel_layout; a copy of any other layout
    w = np.ascontiguousarray(_source_major(layer.weights)).reshape(
        m, kp1 * f1 if first else f1, -1)
    if first:
        operand = np.empty((v, b, m, kp1, f1))
        bases.spread(h, operand)
        z = np.matmul(operand.reshape(v * b, groups, -1).transpose(1, 0, 2),
                      w.reshape(groups, -1, g))
    elif kind == MRGCN and bases.stacks(b * g):  # source i is group i: every q_i at once
        operand = h
        z = bases.gather(np.matmul(h.reshape(m, v * b, f1), w).reshape(m, v, b, kp1, g))
    else:
        operand = h
        z = np.zeros((groups, v * b, g))
        for i in range(m):
            q = h[i].reshape(v * b, f1) @ w[i]
            z[i % groups] += bases[i].gather(q.reshape(v, b, kp1, g))
    if not keep_cache:
        operand = None  # the contraction was the propagated stack's last reader
    z = np.ascontiguousarray(
        z.reshape(groups, v, b, -1, f2).transpose(0, 3, 1, 2, 4)).reshape(m, v, b, f2)
    z += _bias_view(layer.biases)
    mask = z > 0.0 if activation == RELU and keep_cache else None
    if activation == RELU:
        np.maximum(z, 0.0, out=z)
    return z, ((operand, w, mask, groups) if keep_cache else None)


def _layer_backward(d_out, caches: list, bases, layer: LayerParams, need_dh: bool):
    """Backward of :func:`_layer_forward` for the layer whose cache is the
    last of ``caches``: the (M, V, B, f1) input gradient, or None unless
    ``need_dh``, and the layer's parameter gradients.  A writeable ``d_out``
    belongs to the backward pass and takes the ReLU mask in place.  The cache
    is popped here, not passed in, so that no caller's frame keeps it, and the
    propagated stack is freed as soon as the weight gradient is formed, before
    the input-gradient products."""
    operand, w, mask, groups = caches.pop()
    if mask is not None:
        d_out = np.multiply(d_out, mask, out=d_out if d_out.flags.writeable else None)
    d_biases = _bias_grad(d_out, layer.biases)
    m, v, b, f2 = d_out.shape
    kp1, f1 = layer.weights.shape[2], operand.shape[-1]
    g = m // groups * f2
    first = _propagates_input(f1, g)
    dz = np.ascontiguousarray(
        d_out.reshape(groups, -1, v, b, f2).transpose(0, 2, 3, 1, 4)).reshape(groups, v * b, g)
    d_mats = np.empty(w.shape)  # the weight gradient's storage, in the kernel's order
    dh = np.empty((m, v, b, f1)) if need_dh else None
    if first:
        np.matmul(operand.reshape(v * b, groups, -1).transpose(1, 2, 0), dz,
                  out=d_mats.reshape(groups, -1, g))
        del operand
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
                np.matmul(dq.reshape(v * b, -1), w[i].T, out=dh[i].reshape(v * b, f1))
    return dh, LayerParams(_from_source_major(d_mats, layer.weights.shape), d_biases)


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
        h, cache = _layer_forward(h, bases, layer, spec.kind, spec.activation, keep_caches)
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
        dh, grads[idx] = _layer_backward(dh, caches, bases, params.layers[idx], idx > 0)
    return grads


def _chunk_floats(config: NetworkConfig, training: bool) -> int:
    """Floats per (window, vertex) row of the kernel operands that one chunk
    holds: each layer's propagated input, M*(K+1)*f1, or its input, M*f1,
    when it contracts first.  A training chunk keeps every layer's operand
    until its backward pass, so it counts their sum; a forward-only chunk
    holds one at a time and counts the largest."""
    m, kp1 = config.modalities, config.cheb_degree + 1
    counts = []
    for spec in config.layer_specs:
        g = m * spec.out_dim if spec.kind == GGCN else spec.out_dim
        counts.append(m * spec.in_dim * (kp1 if _propagates_input(spec.in_dim, g) else 1))
    return sum(counts) if training else max(counts)


def _forward_chunks(windows, bases, params: NetworkParams, keep_caches=False,
                    keep_hidden=False):
    """An iterator over ``windows`` in chunks sized by :data:`CHUNK_BYTES`,
    yielding each chunk's slice with :func:`_forward_batch`'s
    ``(pred, caches, hidden)`` for the chunk.  ``windows`` is a (B, V, T)
    array, or a list of samples whose inputs are read only when their chunk
    runs.  No windows raise ``ValueError`` here, at the call, so a caller may
    read its outputs' shape from the windows once this returns."""
    if len(windows) == 0:
        raise ValueError("a pass needs a nonempty batch of windows")
    stacked = isinstance(windows, np.ndarray)
    v = windows.shape[1] if stacked else len(windows[0].target)
    step = max(1, CHUNK_BYTES // (v * 8 * _chunk_floats(params.config, keep_caches)))

    def run(rows):
        chunk = windows[rows] if stacked else np.stack([s.input for s in windows[rows]])
        return rows, *_forward_batch(chunk, bases, params, keep_caches, keep_hidden)

    return map(run, (slice(start, start + step) for start in range(0, len(windows), step)))


def batch_loss(x_batch, y_batch, bases, params: NetworkParams, reg: RegularizerConfig,
               with_grads: bool, *, sq_errors: list | None = None):
    """Total objective on one batch: smoothed batch RMSE plus the two
    regularizers, each summed over the layers of its family.

    Returns (loss, grads or None).  Covariances are held constant, so they
    appear in the gradient only through the fixed mode-product image.  When
    ``sq_errors`` is given, the batch's sum of squared residuals is appended
    to it.

    The batch runs in :data:`CHUNK_BYTES` chunks, training ones when
    ``with_grads``.  The backward pass is linear in its top gradient, so each
    chunk's pass runs against ``residual / n`` and the RMSE's ``1 / j0``
    factor scales the sum once the whole residual is known.
    """
    residual = np.empty(x_batch.shape[:2])
    grads = None
    for rows, pred, caches, _ in _forward_chunks(x_batch, bases, params, keep_caches=with_grads):
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
    """(N, V) predictions, run in :data:`CHUNK_BYTES` chunks; each chunk's
    windows are read from its samples only when it runs."""
    chunks = _forward_chunks(samples, bases, params)  # rejects an empty list
    preds = np.empty((len(samples), len(samples[0].target)))
    for rows, pred, _, _ in chunks:
        preds[rows] = pred
    return preds


# ---------------------------------------------------------------------------
# single-sample operations

def _single_window_layer(xs, bases, layer: LayerParams, kind: str, activation: str):
    count = layer.biases.shape[0]
    if len(xs) != count or len(bases) != count:
        raise ValueError(
            f"expected {count} modalities, got {len(xs)} inputs and {len(bases)} bases"
        )
    h = np.stack([np.asarray(x, dtype=float) for x in xs])[:, :, None, :]  # batch of 1
    out, _ = _layer_forward(h, bases, layer, kind, activation, keep_cache=False)
    return [out[j, :, 0] for j in range(count)]


def ggcn_forward(xs, bases, params: LayerParams, activation: str = RELU):
    """One cross-modality layer on per-modality signals.

    Modality j's output sums convolutions of every modality i's input over
    graph i, so information travels along compound connectivity.
    """
    return _single_window_layer(xs, bases, params, GGCN, activation)


def mrgcn_forward(xs, bases, params: LayerParams, activation: str = RELU):
    """One intra-modality layer: modality j sees only its own graph and weights."""
    return _single_window_layer(xs, bases, params, MRGCN, activation)


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
    (M, B, V, f), run in :data:`CHUNK_BYTES` chunks."""
    b, v = x_batch.shape[:2]
    pred = np.empty((b, v))
    hidden = [np.empty((params.config.modalities, b, v, spec.out_dim))
              for spec in params.config.layer_specs]
    for rows, chunk_pred, _, chunk_hidden in _forward_chunks(x_batch, bases, params,
                                                             keep_hidden=True):
        pred[rows] = chunk_pred
        for out, h in zip(hidden, chunk_hidden):
            out[:, rows] = h.transpose(0, 2, 1, 3)
    return pred, hidden


def feature_covariances(samples, bases, params: NetworkParams) -> list:
    """Each layer's per-modality (M, f, f) covariance of its post-activation
    features over the (window, vertex) rows of ``samples``, as ``np.cov``
    gives it, from a pass in :data:`CHUNK_BYTES` chunks: each chunk's mean and
    centred scatter merge into the running ones (Chan, Golub & LeVeque 1979),
    so no layer's features outlive their chunk.  ``samples`` is a (B, V, T)
    array or a list of samples, whose inputs are read one chunk at a time, as
    in :func:`predict_batches`."""
    moments = [(0, 0.0, 0.0)] * len(params.layers)  # rows so far, mean, scatter
    for _, _, _, hidden in _forward_chunks(samples, bases, params, keep_hidden=True):
        for idx, h in enumerate(hidden):
            rows = h.reshape(h.shape[0], -1, h.shape[-1])
            n, mean = rows.shape[1], rows.mean(axis=1)
            centred = rows - mean[:, None]
            seen, seen_mean, seen_scatter = moments[idx]
            delta, total = mean - seen_mean, seen + n
            moments[idx] = (total, seen_mean + delta * (n / total),
                            seen_scatter + centred.transpose(0, 2, 1) @ centred
                            + delta[:, :, None] * delta[:, None, :] * (seen * n / total))
    return [scatter * (1.0 / (n - 1)) for n, _, scatter in moments]
