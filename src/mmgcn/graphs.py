"""Modality graphs over a fixed region set and their Laplacian bases.

Three relationships are built from raw region data: grid neighborhood,
POI-category cosine similarity, and long-range road connectivity with
neighborhood edges removed.  All adjacency matrices are dense, symmetric,
nonnegative, and zero on the diagonal.  Graphs and bases are immutable after
construction and safe to share across threads.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

NEIGHBORHOOD = "neighborhood"
POI_SIMILARITY = "poi_similarity"
ROAD_CONNECTIVITY = "road_connectivity"

POWER_BASIS = "power"
CHEBYSHEV_BASIS = "chebyshev"


@dataclass(frozen=True)
class RelationGraph:
    """One modality's weighted adjacency over the shared vertex set."""

    modality_id: str
    adjacency: np.ndarray

    def __post_init__(self):
        adj = np.asarray(self.adjacency, dtype=float)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ValueError(f"adjacency must be square, got shape {adj.shape}")
        if not np.isfinite(adj).all():
            raise ValueError("adjacency contains non-finite entries")
        if (adj < 0).any():
            raise ValueError("adjacency weights must be nonnegative")
        if np.diagonal(adj).any():
            raise ValueError("adjacency diagonal must be zero")
        if not np.array_equal(adj, adj.T):
            raise ValueError("adjacency must be symmetric")
        object.__setattr__(self, "adjacency", adj)

    @property
    def vertex_count(self) -> int:
        return self.adjacency.shape[0]


@dataclass(frozen=True)
class LaplacianBasis:
    """Stack of matrices [B_0 .. B_K] applied by the graph convolution.

    ``kind = "power"`` stores raw Laplacian powers L^a (so B_0 = I and
    B_a = B_{a-1} B_1); ``kind = "chebyshev"`` stores Chebyshev polynomials
    T_a(L - I) of the rescaled Laplacian.  Either way B_0 = I, which the
    convolution applies as a copy.

    The non-identity terms are also held as the row stack
    ``[B_1; ...; B_K]`` (K*V x V) and the column stack ``[B_1 ... B_K]``
    (V x K*V), so one matrix product propagates a whole batch over all
    degrees.  ``powers[1:]`` are views into the row stack; every array is
    read-only.
    """

    powers: tuple
    degree: int
    kind: str = POWER_BASIS
    row_stack: np.ndarray = field(init=False, repr=False, compare=False)
    col_stack: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.powers) != self.degree + 1:
            raise ValueError("basis must hold degree + 1 matrices")
        mats = [np.asarray(p, dtype=float) for p in self.powers]
        n = mats[0].shape[0]
        if any(p.shape != (n, n) for p in mats):
            raise ValueError("basis matrices must all be square of one size")
        identity = np.eye(n)
        if not np.array_equal(mats[0], identity):
            raise ValueError("basis term B_0 must be the identity")
        terms = np.array(mats[1:]).reshape(self.degree, n, n)
        row_stack = terms.reshape(self.degree * n, n)
        col_stack = terms.transpose(1, 0, 2).reshape(n, self.degree * n)
        for arr in (terms, row_stack, col_stack, identity):
            arr.setflags(write=False)
        object.__setattr__(self, "powers", (identity,) + tuple(terms))
        object.__setattr__(self, "row_stack", row_stack)
        object.__setattr__(self, "col_stack", col_stack)


def build_neighborhood(grid_rows: int, grid_cols: int) -> RelationGraph:
    """Connect every grid cell to the 8 surrounding cells (row-major indexing)."""
    if grid_rows < 1 or grid_cols < 1:
        raise ValueError(f"grid dimensions must be positive, got {grid_rows}x{grid_cols}")
    n = grid_rows * grid_cols
    rows, cols = np.divmod(np.arange(n), grid_cols)
    near = (np.abs(rows[:, None] - rows[None, :]) <= 1) & (
        np.abs(cols[:, None] - cols[None, :]) <= 1
    )
    adjacency = near.astype(float)
    np.fill_diagonal(adjacency, 0.0)
    return RelationGraph(NEIGHBORHOOD, adjacency)


def build_poi_similarity(poi: np.ndarray) -> RelationGraph:
    """Cosine similarity between region POI-category vectors.

    The diagonal (self-similarity) is zeroed; a region with an all-zero POI
    vector gets a zeroed row/column and a warning instead of an error.
    """
    poi = np.asarray(poi, dtype=float)
    if poi.ndim != 2 or poi.shape[1] < 1:
        raise ValueError(f"POI matrix must be |V| x P with P >= 1, got shape {poi.shape}")
    if (poi < 0).any():
        raise ValueError("POI counts must be nonnegative")
    norms = np.linalg.norm(poi, axis=1)
    degenerate = norms == 0.0
    if degenerate.any():
        warnings.warn(
            f"regions {np.flatnonzero(degenerate).tolist()} have zero POI vectors; "
            "their similarity rows are set to 0",
            stacklevel=2,
        )
    safe = np.where(degenerate, 1.0, norms)
    unit = poi / safe[:, None]
    adjacency = unit @ unit.T
    adjacency = (adjacency + adjacency.T) / 2.0
    np.fill_diagonal(adjacency, 0.0)
    return RelationGraph(POI_SIMILARITY, adjacency)


def build_road_connectivity(conn: np.ndarray, neighborhood: RelationGraph) -> RelationGraph:
    """Keep road/rail links that do not coincide with neighborhood edges."""
    conn = np.asarray(conn, dtype=float)
    n = neighborhood.vertex_count
    if conn.shape != (n, n):
        raise ValueError(
            f"connectivity shape {conn.shape} does not match {n} neighborhood vertices"
        )
    if not np.isin(conn, (0.0, 1.0)).all():
        raise ValueError("connectivity entries must be 0 or 1")
    if np.diagonal(conn).any():
        raise ValueError("connectivity diagonal must be zero")
    if not np.array_equal(conn, conn.T):
        raise ValueError("connectivity must be symmetric")
    adjacency = np.maximum(0.0, conn - neighborhood.adjacency)
    return RelationGraph(ROAD_CONNECTIVITY, adjacency)


def normalized_laplacian(g: RelationGraph) -> np.ndarray:
    """Symmetric normalized Laplacian L = I - D^{-1/2} A D^{-1/2}.

    Isolated vertices take D^{-1/2} = 0, so their row/column is the identity
    row (L = I for the empty graph); eigenvalues always lie in [0, 2].
    """
    degrees = g.adjacency.sum(axis=1)
    inv_sqrt = np.where(degrees > 0.0, 1.0 / np.sqrt(np.where(degrees > 0.0, degrees, 1.0)), 0.0)
    lap = np.eye(g.vertex_count) - inv_sqrt[:, None] * g.adjacency * inv_sqrt[None, :]
    return (lap + lap.T) / 2.0


def laplacian_basis(lap: np.ndarray, degree: int, kind: str = POWER_BASIS) -> LaplacianBasis:
    """Matrices the convolution sums over: raw powers of L, or Chebyshev
    polynomials of the rescaled L - I when ``kind = "chebyshev"``."""
    if degree < 0:
        raise ValueError(f"polynomial degree must be >= 0, got {degree}")
    lap = np.asarray(lap, dtype=float)
    n = lap.shape[0]
    if kind == POWER_BASIS:
        mats = [np.eye(n)]
        for _ in range(degree):
            mats.append(mats[-1] @ lap)
    elif kind == CHEBYSHEV_BASIS:
        rescaled = lap - np.eye(n)
        mats = [np.eye(n)]
        if degree >= 1:
            mats.append(rescaled)
        for _ in range(2, degree + 1):
            mats.append(2.0 * rescaled @ mats[-1] - mats[-2])
    else:
        raise ValueError(f"unknown basis kind {kind!r}")
    return LaplacianBasis(tuple(mats), degree, kind)


def graph_bases(graph_list, degree: int, kind: str = POWER_BASIS) -> list:
    """One Laplacian basis per modality graph, in modality order."""
    return [laplacian_basis(normalized_laplacian(g), degree, kind) for g in graph_list]


def _edge_set(adjacency: np.ndarray, threshold: float) -> set:
    rows, cols = np.nonzero(np.triu(adjacency, k=1) > threshold)
    return set(zip(rows.tolist(), cols.tolist()))


def graph_density(g: RelationGraph, threshold: float = 0.0) -> float:
    """2|E| / (|V| (|V|-1)) with edges binarized at ``threshold``."""
    if threshold < 0:
        raise ValueError("threshold must be nonnegative")
    n = g.vertex_count
    if n < 2:
        raise ValueError("density is undefined for graphs with fewer than 2 vertices")
    edges = len(_edge_set(g.adjacency, threshold))
    return 2.0 * edges / (n * (n - 1))


@dataclass(frozen=True)
class GraphComparison:
    f_measure: float
    edit_distance: int


def compare_graphs(g1: RelationGraph, g2: RelationGraph, threshold: float = 0.0) -> GraphComparison:
    """F-measure 2|E1 n E2| / (|E1| + |E2|) and symmetric-difference edit
    distance of the binarized edge sets (F = 1 when both sets are empty)."""
    if g1.vertex_count != g2.vertex_count:
        raise ValueError(
            f"vertex counts differ: {g1.vertex_count} vs {g2.vertex_count}"
        )
    e1 = _edge_set(g1.adjacency, threshold)
    e2 = _edge_set(g2.adjacency, threshold)
    if not e1 and not e2:
        f_measure = 1.0
    else:
        f_measure = 2.0 * len(e1 & e2) / (len(e1) + len(e2))
    return GraphComparison(f_measure, len(e1 ^ e2))
