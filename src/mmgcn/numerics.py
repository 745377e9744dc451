"""Tensor-mode algebra and small linear-algebra primitives.

4-mode weight tensors are plain ``numpy`` arrays with the canonical logical
mode order (input, output, polynomial-degree, modality).  Their memory order
may differ (the layers store them in the order their kernel reads), but
``arr.reshape(-1)`` still reads the logical C order and so remains the
canonical vectorization: the last mode varies fastest.  Every
Kronecker-product identity in this package is pinned to that convention.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

MODE_NAMES = ("I", "O", "C", "M")

# The largest eigenvalue ratio that ``spd_inverse`` accepts as numerically SPD.
SPD_COND_LIMIT = 1e12


class NumericalFailure(RuntimeError):
    """A linear-algebra operation left the numerically trustworthy regime."""


def mode_unfold(tensor: np.ndarray, mode: int) -> np.ndarray:
    """Unfold a 4-mode tensor into a ``d_mode x prod(other dims)`` matrix.

    Columns are ordered by the canonical layout restricted to the remaining
    modes, which makes ``unfold(t, i) @ kron(others)`` line up with successive
    mode products.
    """
    if not 0 <= mode < tensor.ndim:
        raise ValueError(f"mode {mode} out of range for {tensor.ndim}-mode tensor")
    return np.ascontiguousarray(np.moveaxis(tensor, mode, 0)).reshape(tensor.shape[mode], -1)


def mode_product(tensor: np.ndarray, matrix: np.ndarray, mode: int) -> np.ndarray:
    """Multiply ``tensor`` along ``mode`` by ``matrix`` (shape ``d_mode x d_mode``)."""
    if matrix.shape[1] != tensor.shape[mode]:
        raise ValueError(
            f"matrix of shape {matrix.shape} cannot act on mode {mode} "
            f"of tensor with dims {tensor.shape}"
        )
    return np.moveaxis(np.tensordot(matrix, tensor, axes=(1, mode)), 0, mode)


def mode_products(tensor: np.ndarray, matrices: Sequence) -> np.ndarray:
    """Apply ``matrices[k]`` along mode k for every mode in turn, skipping
    ``None`` entries (an identity factor)."""
    image = tensor
    for mode, matrix in enumerate(matrices):
        if matrix is not None:
            image = mode_product(image, matrix, mode)
    return image


def spd_inverse(matrix: np.ndarray) -> np.ndarray:
    """Invert a symmetric positive definite matrix.

    The condition is estimated on the input itself, so a singular matrix
    fails even though the factorization gets one jitter retry (``+1e-10 I``)
    against rounding-induced Cholesky breakdowns.
    """
    matrix = np.asarray(matrix, dtype=float)
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    sym = (matrix + matrix.T) / 2.0
    eigs = np.linalg.eigvalsh(sym)
    if eigs[0] <= 0.0 or eigs[-1] / eigs[0] > SPD_COND_LIMIT:
        raise NumericalFailure(
            f"matrix of size {n} is not numerically SPD "
            f"(eigenvalue range [{eigs[0]:.3g}, {eigs[-1]:.3g}], limit {SPD_COND_LIMIT:g})"
        )
    chol = None
    for jitter in (0.0, 1e-10):
        try:
            chol = np.linalg.cholesky(sym + jitter * np.eye(n) if jitter else sym)
            break
        except np.linalg.LinAlgError:
            continue
    if chol is None:
        raise NumericalFailure(f"Cholesky factorization failed for matrix of size {n}")
    lower = np.linalg.solve(chol, np.eye(n))
    inverse = np.linalg.solve(chol.T, lower)
    return (inverse + inverse.T) / 2.0

