"""Modality graphs over a fixed region set and their Laplacian bases.

Three relationships are built from raw region data: grid neighborhood,
POI-category cosine similarity, and long-range road connectivity with
neighborhood edges removed.  All adjacency matrices are dense, symmetric,
nonnegative, and zero on the diagonal.  The POI similarity graph also carries
its Gram factor, the unit POI vectors, from which its basis applies the
Laplacian as a diagonal minus a rank-P product.  A graph holds read-only
copies of its arrays, so it cannot be changed after it is validated.  Graphs
and bases are immutable after construction and safe to share across threads
(two threads that both ask a sparse or factored basis for its dense
``powers`` first may each build them).
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


# A Gram factor F matches its adjacency when offdiag(F F^T) differs from it by
# at most this much, relative to the largest |f_i|^2 (which bounds |f_i . f_j|).
GRAM_RTOL = 1e-12


@dataclass(frozen=True)
class RelationGraph:
    """One modality's weighted adjacency over the shared vertex set.

    ``gram_factor``, if given, is a V x P matrix F whose Gram matrix F F^T,
    with its diagonal zeroed, is the adjacency.  The graph keeps read-only
    copies of both arrays.
    """

    modality_id: str
    adjacency: np.ndarray
    gram_factor: np.ndarray | None = None

    def __post_init__(self):
        adj = np.array(self.adjacency, dtype=float)
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
        adj.setflags(write=False)
        object.__setattr__(self, "adjacency", adj)
        if self.gram_factor is not None:
            object.__setattr__(self, "gram_factor", self._checked_factor())

    def _checked_factor(self) -> np.ndarray:
        factor = np.array(self.gram_factor, dtype=float)
        n = self.adjacency.shape[0]
        if factor.ndim != 2 or factor.shape[0] != n or factor.shape[1] < 1:
            raise ValueError(f"{self.modality_id}: Gram factor must be {n} x P with P >= 1, "
                             f"got shape {factor.shape}")
        if not np.isfinite(factor).all():
            raise ValueError(f"{self.modality_id}: Gram factor contains non-finite entries")
        gram = factor @ factor.T
        scale = np.diagonal(gram).max(initial=0.0)
        np.fill_diagonal(gram, 0.0)
        error = np.abs(gram - self.adjacency).max(initial=0.0)
        if error > GRAM_RTOL * scale:
            raise ValueError(f"{self.modality_id}: the off-diagonal Gram matrix of the factor "
                             f"differs from the adjacency by {error:.3g}")
        factor.setflags(write=False)
        return factor

    @property
    def vertex_count(self) -> int:
        return self.adjacency.shape[0]


# A basis whose step matrix B_1 has at most V^2 / SPARSE_FILL nonzeros is
# applied as K CSR products instead of a dense (K*V, V) stack.  One product
# with 1024 columns (2 cores, OpenBLAS at 2 threads, scipy 1.17): at V=256
# the dense stack takes 1.9 ms, CSR 1.09 ms at density 0.032 (neighbourhood),
# 0.51 ms at 0.008 (road) and 36 ms at 1.0 (POI); at V=36, density 0.056
# (road), 0.074 ms dense and 0.068 ms CSR, but with 32 columns 0.005 ms dense
# and 0.011 ms CSR.  1/25 keeps every power basis of a 6x6 city dense.
SPARSE_FILL = 25

# A dense basis given as diag(d) - Y Y^T with Y of rank P is applied as K
# products with that form, O(V*P) per column, when V >= LOW_RANK_RATIO * P;
# otherwise it keeps the dense stacks.  Synthetic cities with P = 13, K = 4,
# widths [32, 64, 32, 1], only the POI basis switched (2 cores, OpenBLAS at 2
# threads), dense -> factored medians: one-window network_forward 1.38 ->
# 1.55 ms at V=36, 2.52 -> 2.71 at V=100, 2.38 -> 2.42 at V=144, 4.32 ->
# 4.03 at V=196 and 3.98 -> 3.36 at V=256; a 32-window training step 134 ->
# 138 ms at V=144, even at V=196 and V=256.  16 * 13 = 208 keeps the 6x6
# city dense and factors the 16x16 city's POI basis.
LOW_RANK_RATIO = 16


@dataclass(frozen=True)
class LaplacianBasis:
    """The polynomial [B_0 .. B_K] of the step matrix B_1 that the graph
    convolution sums over, applied by :meth:`spread` and :meth:`gather`.

    ``kind = "power"`` takes raw Laplacian powers (B_1 = L, B_a = B_{a-1} B_1);
    ``kind = "chebyshev"`` takes Chebyshev polynomials T_a(L - I) of the
    rescaled Laplacian (B_1 = L - I, B_a = 2 B_1 B_{a-1} - B_{a-2}).  Either way
    B_0 = I, which is applied as a copy.  ``step`` must be exactly symmetric,
    so every B_a is its own transpose.  ``low_rank``, if given, is a pair
    (d, Y) with ``step`` = diag(d) - Y Y^T up to rounding, as
    :func:`graph_bases` derives it from a graph's Gram factor.

    The representation is chosen once, here.  A step matrix with at most
    V^2 / ``SPARSE_FILL`` nonzeros is held as CSR (``sparse``); otherwise a
    ``low_rank`` form with V >= ``LOW_RANK_RATIO`` * P is kept instead
    (``factored``).  Either is applied by its recursion, K products with
    B_1.  Anything else holds the terms as the dense row stack
    ``[B_1; ...; B_K]`` (K*V x V) and column stack ``[B_1 ... B_K]``
    (V x K*V), so one matrix product reaches every degree.  ``powers``, the
    dense terms, is built on first use for a sparse or factored basis.  Every
    array is read-only.
    """

    step: np.ndarray
    degree: int
    kind: str = POWER_BASIS
    low_rank: tuple | None = field(default=None, repr=False, compare=False)
    sparse: bool = field(init=False)
    factored: bool = field(init=False)
    _csr: object = field(init=False, repr=False, compare=False)
    _row_stack: np.ndarray = field(init=False, repr=False, compare=False)
    _col_stack: np.ndarray = field(init=False, repr=False, compare=False)
    _powers: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError(f"polynomial degree must be >= 0, got {self.degree}")
        if self.kind not in (POWER_BASIS, CHEBYSHEV_BASIS):
            raise ValueError(f"unknown basis kind {self.kind!r}")
        step = np.array(self.step, dtype=float)
        n = step.shape[0]
        if step.shape != (n, n):
            raise ValueError(f"step matrix must be square, got shape {step.shape}")
        if not np.array_equal(step, step.T):
            raise ValueError("step matrix must be symmetric")
        step.setflags(write=False)
        low_rank = None if self.low_rank is None else _read_only_low_rank(self.low_rank, n)
        sparse = bool(np.count_nonzero(step) * SPARSE_FILL <= n * n)
        factored = (not sparse and low_rank is not None
                    and n >= LOW_RANK_RATIO * low_rank[1].shape[1])
        csr = row_stack = col_stack = powers = None
        if sparse:
            from scipy.sparse import csr_array  # imported only by a city with sparse graphs

            csr = csr_array(step)
        elif not factored:
            terms = _polynomial_terms(step, self.degree, self.kind)
            row_stack = terms.reshape(self.degree * n, n)
            col_stack = terms.transpose(1, 0, 2).reshape(n, self.degree * n)
            for arr in (terms, row_stack, col_stack):
                arr.setflags(write=False)
            powers = (_identity(n),) + tuple(terms)
        for name, value in (("step", step), ("low_rank", low_rank), ("sparse", sparse),
                            ("factored", factored), ("_csr", csr), ("_row_stack", row_stack),
                            ("_col_stack", col_stack), ("_powers", powers)):
            object.__setattr__(self, name, value)

    @property
    def powers(self) -> tuple:
        """[B_0 .. B_K] as dense read-only V x V matrices."""
        if self._powers is None:
            n = self.step.shape[0]
            terms = _polynomial_terms(self.step, self.degree, self.kind)
            terms.setflags(write=False)
            object.__setattr__(self, "_powers", (_identity(n),) + tuple(terms))
        return self._powers

    def _apply_step(self, x: np.ndarray) -> np.ndarray:
        """B_1 x for a (V, n) matrix x, as a new array: one CSR product, or
        d * x - Y (Y^T x) for a factored basis."""
        if self.sparse:
            return self._csr @ x
        diagonal, factor = self.low_rank
        out = diagonal[:, None] * x
        out -= factor @ (factor.T @ x)
        return out

    def spread(self, x: np.ndarray, out: np.ndarray, transpose: bool = False) -> None:
        """Write every B_a x (B_a^T x if ``transpose``; the same unless the
        basis is dense) into the degree-minor ``out`` (V, B, K+1, f), for x
        (V, B, f)."""
        v, b, f = x.shape
        out[:, :, 0] = x
        if self._row_stack is not None:
            stack = self._col_stack.T if transpose else self._row_stack
            terms = (stack @ x.reshape(v, b * f)).reshape(-1, v, b, f)
            out[:, :, 1:] = terms.transpose(1, 2, 0, 3)
            return
        prev, cur = None, x.reshape(v, b * f)
        for a in range(1, self.degree + 1):
            nxt = self._apply_step(cur)
            if prev is not None and self.kind == CHEBYSHEV_BASIS:
                nxt *= 2.0
                nxt -= prev
            out[:, :, a] = nxt.reshape(v, b, f)
            prev, cur = cur, nxt

    def gather(self, y: np.ndarray, transpose: bool = False) -> np.ndarray:
        """sum_a B_a y[:, :, a] (B_a^T if ``transpose``; the same unless the
        basis is dense) over the degree-minor y (V, B, K+1, f); returns a new
        (V*B, f) array."""
        v, b, kp1, f = y.shape
        if self._row_stack is not None:
            stack = self._row_stack.T if transpose else self._col_stack
            rows = np.ascontiguousarray(y[:, :, 1:].transpose(2, 0, 1, 3)).reshape(
                (kp1 - 1) * v, b * f)
            out = (stack @ rows).reshape(v, b, f)
            out += y[:, :, 0]
            return out.reshape(v * b, f)
        # Horner's rule (power) or Clenshaw's recurrence (Chebyshev), reading
        # the degree slices in place; step a turns acc = b_{a+1} and
        # older = b_{a+2} into b_a
        acc, older = np.array(y[:, :, -1]), None
        for a in range(kp1 - 2, -1, -1):
            nxt = self._apply_step(acc.reshape(v, b * f)).reshape(v, b, f)
            if self.kind == CHEBYSHEV_BASIS:
                if a > 0:
                    nxt *= 2.0
                if older is not None:
                    nxt -= older
            nxt += y[:, :, a]
            acc, older = nxt, acc
        return acc.reshape(v * b, f)


def _read_only_low_rank(low_rank, n: int) -> tuple:
    diagonal, factor = (np.array(arr, dtype=float) for arr in low_rank)
    if diagonal.shape != (n,) or factor.ndim != 2 or factor.shape[0] != n or factor.shape[1] < 1:
        raise ValueError(f"low-rank form must be a ({n},) diagonal and a {n} x P factor with "
                         f"P >= 1, got shapes {diagonal.shape} and {factor.shape}")
    for arr in (diagonal, factor):
        arr.setflags(write=False)
    return diagonal, factor


def _identity(n: int) -> np.ndarray:
    identity = np.eye(n)
    identity.setflags(write=False)
    return identity


def _polynomial_terms(step: np.ndarray, degree: int, kind: str) -> np.ndarray:
    """[B_1 .. B_K] as one dense (K, V, V) array."""
    n = step.shape[0]
    terms = np.empty((degree, n, n))
    for a in range(degree):
        if a == 0:
            terms[a] = step
        elif kind == POWER_BASIS:
            terms[a] = terms[a - 1] @ step
        else:
            terms[a] = 2.0 * step @ terms[a - 1] - (terms[a - 2] if a > 1 else np.eye(n))
    return terms


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
    vector gets a zeroed row/column and a warning instead of an error.  The
    unit POI vectors (a zero row for such a region) are the graph's Gram
    factor.
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
    return RelationGraph(POI_SIMILARITY, adjacency, gram_factor=unit)


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


def _inverse_sqrt_degrees(g: RelationGraph) -> np.ndarray:
    degrees = g.adjacency.sum(axis=1)
    return np.where(degrees > 0.0, 1.0 / np.sqrt(np.where(degrees > 0.0, degrees, 1.0)), 0.0)


def normalized_laplacian(g: RelationGraph) -> np.ndarray:
    """Symmetric normalized Laplacian L = I - D^{-1/2} A D^{-1/2}.

    Isolated vertices take D^{-1/2} = 0, so their row/column is the identity
    row (L = I for the empty graph); eigenvalues always lie in [0, 2].
    """
    inv_sqrt = _inverse_sqrt_degrees(g)
    lap = np.eye(g.vertex_count) - inv_sqrt[:, None] * g.adjacency * inv_sqrt[None, :]
    return (lap + lap.T) / 2.0


def _laplacian_low_rank(g: RelationGraph) -> tuple:
    """(d, Y) with the normalized Laplacian L = diag(d) - Y Y^T, for a graph
    whose adjacency is offdiag(F F^T): Y = D^{-1/2} F and d = 1 + |y_i|^2,
    since D^{-1/2} diag(|f_i|^2) D^{-1/2} is the diagonal the adjacency lacks.
    An isolated vertex gets a zero row of Y and d = 1, as in L."""
    factor = _inverse_sqrt_degrees(g)[:, None] * g.gram_factor
    return 1.0 + np.square(factor).sum(axis=1), factor


def laplacian_basis(lap: np.ndarray, degree: int, kind: str = POWER_BASIS,
                    low_rank: tuple | None = None) -> LaplacianBasis:
    """Matrices the convolution sums over: raw powers of L, or Chebyshev
    polynomials of the rescaled L - I when ``kind = "chebyshev"``.
    ``low_rank`` = (d, Y) with L = diag(d) - Y Y^T is shifted the same way."""
    lap = np.asarray(lap, dtype=float)
    if kind == CHEBYSHEV_BASIS:
        lap = lap - np.eye(lap.shape[0])
        if low_rank is not None:
            low_rank = (low_rank[0] - 1.0, low_rank[1])
    return LaplacianBasis(lap, degree, kind, low_rank)


def graph_bases(graph_list, degree: int, kind: str = POWER_BASIS) -> list:
    """One Laplacian basis per modality graph, in modality order; a graph
    with a Gram factor passes its Laplacian's low-rank form along."""
    return [laplacian_basis(normalized_laplacian(g), degree, kind,
                            None if g.gram_factor is None else _laplacian_low_rank(g))
            for g in graph_list]


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
