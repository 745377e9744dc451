"""Weight-structure penalties and covariance estimation.

Two regularizers act on different layer families: a flexible group lasso on
the cross-modality weight blocks of lower layers, and a tensor-normal
negative log-prior on the joint 4-mode weight tensor of higher layers.  The
per-mode covariances of the tensor-normal prior are re-estimated by a
flip-flop update, with selected modes frozen to the identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import MODE_NAMES, mode_products, mode_unfold, spd_inverse

FLIP_FLOP_LITERAL = "literal"
FLIP_FLOP_INVERSE_MLE = "inverse_mle"

_SYMMETRY_TOL = 1e-10


def _mode_indices(frozen_modes) -> tuple:
    flags = [False, False, False, False]
    for name in frozen_modes:
        if name not in MODE_NAMES:
            raise ValueError(f"unknown covariance mode {name!r}; expected one of {MODE_NAMES}")
        flags[MODE_NAMES.index(name)] = True
    return tuple(flags)


@dataclass
class RegularizerConfig:
    """Trade-off coefficients and flip-flop settings.

    ``alpha_intra`` is the intra-modality discount inside the group lasso;
    ``alpha_low``/``alpha_high`` scale the two regularizers in the total loss
    (zero disables one, which the unregularized baseline variants rely on).
    ``frozen_modes`` freezes per-mode covariances to the identity; the default
    freezes input and output.
    """

    alpha_intra: float = 0.1
    alpha_low: float = 1e-4
    alpha_high: float = 1e-4
    epsilon: float = 1e-6
    frozen_modes: tuple = ("I", "O")
    flip_flop_form: str = FLIP_FLOP_LITERAL
    normalize_covariance: bool = True

    def __post_init__(self):
        if self.alpha_intra <= 0:
            raise ValueError("alpha_intra must be positive")
        if self.alpha_low < 0 or self.alpha_high < 0:
            raise ValueError("regularizer coefficients must be nonnegative")
        if not 0 < self.epsilon < 1:
            raise ValueError("epsilon must lie in (0, 1)")
        if self.flip_flop_form not in (FLIP_FLOP_LITERAL, FLIP_FLOP_INVERSE_MLE):
            raise ValueError(f"unknown flip_flop_form {self.flip_flop_form!r}")
        self.frozen_modes = tuple(self.frozen_modes)
        _mode_indices(self.frozen_modes)


@dataclass
class CovarianceSet:
    """Per-mode covariances (input, output, polynomial, modality) of one layer.

    Frozen modes hold exactly the identity matrix and are never updated.
    """

    sigma: list
    frozen: tuple

    def __post_init__(self):
        if len(self.sigma) != 4 or len(self.frozen) != 4:
            raise ValueError("a covariance set holds exactly 4 modes")
        self.frozen = tuple(bool(f) for f in self.frozen)
        self.sigma = [np.asarray(s, dtype=float) for s in self.sigma]
        for k, (mat, frozen) in enumerate(zip(self.sigma, self.frozen)):
            if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
                raise ValueError(f"mode {MODE_NAMES[k]} covariance must be square")
            if np.abs(mat - mat.T).max(initial=0.0) > _SYMMETRY_TOL:
                raise ValueError(f"mode {MODE_NAMES[k]} covariance is not symmetric")
            if frozen and not np.array_equal(mat, np.eye(mat.shape[0])):
                raise ValueError(f"frozen mode {MODE_NAMES[k]} must hold the identity")

    @classmethod
    def identity(cls, dims, frozen_modes=()) -> "CovarianceSet":
        """Identity covariances, frozen in the named modes ("I", "O", "C", "M")."""
        return cls([np.eye(d) for d in dims], _mode_indices(frozen_modes))

    @property
    def dims(self) -> tuple:
        return tuple(s.shape[0] for s in self.sigma)

    def replace(self, mode: int, matrix: np.ndarray) -> None:
        if self.frozen[mode]:
            raise ValueError(f"mode {MODE_NAMES[mode]} is frozen")
        self.sigma[mode] = matrix


def group_lasso(weights: np.ndarray, alpha_intra: float):
    """Blockwise Frobenius penalty on a (M, M, K+1, f1, f2) weight tensor.

    Intra-modality blocks (i == j) are discounted by ``alpha_intra``;
    inter-modality blocks carry weight 1.  Returns (loss, subgradient), with
    subgradient 0 on exactly-zero blocks.  The norms are summed over a
    C-order copy, so the same values in any memory layout give the same bits.
    """
    modalities = weights.shape[0]
    canonical = np.ascontiguousarray(weights)
    norms = np.sqrt(np.einsum("ijabc,ijabc->ij", canonical, canonical))
    coeff = np.where(np.eye(modalities, dtype=bool), alpha_intra, 1.0)
    loss = float((coeff * norms).sum())
    safe = np.where(norms > 0.0, norms, 1.0)
    grad = (coeff / safe)[:, :, None, None, None] * weights
    return loss, grad


def tensor_normal_loss(weights: np.ndarray, cov: CovarianceSet):
    """Negative log tensor-normal prior 1/2 vec(W)^T Sigma^{-1} vec(W).

    The Kronecker-structured inverse is applied by successive mode products;
    a frozen mode holds exactly the identity and is skipped.  Returns (loss,
    gradient); the covariances are treated as constants, so the gradient is
    just the mode-product image of W.
    """
    if cov.dims != weights.shape:
        raise ValueError(f"covariance dims {cov.dims} do not match weights {weights.shape}")
    inverses = [None if frozen else spd_inverse(s) for s, frozen in zip(cov.sigma, cov.frozen)]
    image = mode_products(weights, inverses)
    if image is weights:  # every mode frozen: the gradient must not alias W
        image = weights.copy()
    loss = 0.5 * float(np.vdot(weights, image).real)
    return loss, image


def flip_flop_update(
    weights: np.ndarray,
    cov: CovarianceSet,
    mode: int,
    epsilon: float,
    form: str = FLIP_FLOP_LITERAL,
) -> np.ndarray:
    """One-mode covariance re-estimate from the current weight tensor.

    The literal form multiplies the mode unfolding by the Kronecker product of
    the *other* modes' covariances; the inverse-MLE form uses their inverses
    (the classical matrix-normal fixed point).  Either way the Kronecker
    factor is applied through mode products and never materialized, and
    ``epsilon * I`` keeps the result positive definite.
    """
    if cov.frozen[mode]:
        raise ValueError(f"mode {MODE_NAMES[mode]} is frozen; flip-flop update not applicable")
    if cov.dims != weights.shape:
        raise ValueError(f"covariance dims {cov.dims} do not match weights {weights.shape}")
    if form not in (FLIP_FLOP_LITERAL, FLIP_FLOP_INVERSE_MLE):
        raise ValueError(f"unknown flip-flop form {form!r}")
    factors = [
        None if k == mode or cov.frozen[k]
        else cov.sigma[k] if form == FLIP_FLOP_LITERAL else spd_inverse(cov.sigma[k])
        for k in range(4)
    ]
    image = mode_products(weights, factors)
    unfolded = mode_unfold(weights, mode)
    scaled = mode_unfold(image, mode)
    dim = weights.shape[mode]
    sigma = (dim / weights.size) * (unfolded @ scaled.T) + epsilon * np.eye(dim)
    return (sigma + sigma.T) / 2.0


def normalize_trace(sigma: np.ndarray, epsilon: float) -> np.ndarray:
    """Rescale a covariance to unit trace-average (trace/dim = 1).

    Only the data part above the ``epsilon * I`` jitter floor is rescaled, so
    the minimum eigenvalue stays >= epsilon.  A covariance at the floor is
    returned unchanged.
    """
    dim = sigma.shape[0]
    excess = np.trace(sigma) - dim * epsilon
    if excess <= dim * epsilon:
        return sigma
    scale = dim * (1.0 - epsilon) / excess
    return scale * (sigma - epsilon * np.eye(dim)) + epsilon * np.eye(dim)
