"""Modality graphs over a fixed region set and their Laplacian bases.

Three relationships are built from raw region data: grid neighborhood,
POI-category cosine similarity, and long-range road connectivity with
neighborhood edges removed.  All adjacency matrices are dense, symmetric,
nonnegative, and zero on the diagonal.  The POI similarity graph is given by
its Gram factor, the unit POI vectors, from which it derives its adjacency and
its basis applies the Laplacian as a diagonal minus a rank-P product.  A graph
holds read-only copies of its arrays, so it cannot be changed after it is
validated.  Graphs and bases are immutable after construction and safe to
share across threads.
"""

from __future__ import annotations

import warnings
from dataclasses import InitVar, dataclass, field

import numpy as np

NEIGHBORHOOD = "neighborhood"
POI_SIMILARITY = "poi_similarity"
ROAD_CONNECTIVITY = "road_connectivity"

POWER_BASIS = "power"
CHEBYSHEV_BASIS = "chebyshev"


@dataclass(frozen=True, eq=False)
class RelationGraph:
    """One modality's weighted adjacency over the shared vertex set, given
    either as ``adjacency`` or as ``gram_factor``, exactly one of them.

    A Gram factor is a V x P matrix F; the adjacency is then its Gram matrix
    F F^T, symmetrized, with the diagonal zeroed.  The graph keeps read-only
    copies of its arrays.
    """

    modality_id: str
    adjacency: np.ndarray | None = None
    gram_factor: np.ndarray | None = None

    def __post_init__(self):
        if (self.adjacency is None) == (self.gram_factor is None):
            raise ValueError(f"{self.modality_id}: give exactly one of an adjacency and "
                             "a Gram factor")
        if self.gram_factor is None:
            adj = np.array(self.adjacency, dtype=float)
        else:
            factor = self._checked_factor()
            object.__setattr__(self, "gram_factor", factor)
            adj = factor @ factor.T
            adj = (adj + adj.T) / 2.0
            np.fill_diagonal(adj, 0.0)
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

    def _checked_factor(self) -> np.ndarray:
        factor = np.array(self.gram_factor, dtype=float)
        if factor.ndim != 2 or factor.shape[1] < 1:
            raise ValueError(f"{self.modality_id}: Gram factor must be V x P with P >= 1, "
                             f"got shape {factor.shape}")
        if not np.isfinite(factor).all():
            raise ValueError(f"{self.modality_id}: Gram factor contains non-finite entries")
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

# A GraphBases whose bases are all dense applies them by one batched product
# over their stacked row stacks when the pass's stacked terms, M*K*V*B*w*8
# bytes for B windows of width w, take at most STACKED_BYTES; a wider pass
# applies one basis at a time.  The default network's layers on the 6x6 city
# (K=4, 2 cores, OpenBLAS at 2 threads, glibc's default malloc settings), as
# stacked / per-basis time: 0.52-0.96 for one window (3.5-111 kB) and 0.81
# for the 1-wide layer of 32 windows (111 kB), but 0.68-1.15 from 221 kB up
# (the 32-wide MRGCN layer of 32 and 56 windows, 3.5 and 6.2 MB, ran 9-15 %
# slower).  Unbounded, an in-process 6x6 `mmgcn train` took 121k-212k minor
# faults instead of 4.3k-4.8k.  128 KiB, glibc's default mmap threshold,
# stacks only passes measured faster, and no stacked temporary larger than it.
STACKED_BYTES = 1 << 17  # 128 KiB


@dataclass(frozen=True, eq=False)
class LaplacianBasis:
    """The polynomial [B_0 .. B_K] of a graph's Laplacian L that the graph
    convolution sums over, applied by :meth:`spread` and :meth:`gather`.

    ``kind = "power"`` takes B_a = L^a (B_1 = L, B_a = B_{a-1} B_1);
    ``kind = "chebyshev"`` takes Chebyshev polynomials T_a(L - I) of the
    rescaled Laplacian (B_1 = L - I, B_a = 2 B_1 B_{a-1} - B_{a-2}).  Either way
    B_0 = I, which is applied as a copy.  L must be exactly symmetric, so
    every B_a is its own transpose, and the backward pass applies the same
    :meth:`spread` and :meth:`gather` as the forward pass.  ``low_rank``, if
    given, is a pair (d, Y) with L = diag(d) - Y Y^T up to rounding, as
    :func:`graph_bases` derives it from a graph's Gram factor; it is shifted
    like L, to B_1's (d - 1, Y) for Chebyshev.

    The representation is chosen once, here, from the dense B_1, which is then
    kept only in the form that is applied: with at most V^2 / ``SPARSE_FILL``
    nonzeros, ``step`` is its CSR array (``sparse``); otherwise, given
    ``low_rank`` with V >= ``LOW_RANK_RATIO`` * P, ``step`` is None and the
    pair is kept (``factored``).  Either is applied by its recursion, K
    products with B_1.  Anything else keeps the dense ``step``, spreads the
    identity through that recursion and holds the terms once as the row stack
    ``[B_1; ...; B_K]`` (K*V x V), each term set to (B_a + B_a^T) / 2, so one
    matrix product reaches every degree and :meth:`gather` multiplies by the
    stack's transpose.  Only a factored basis keeps ``low_rank``.  Every array
    is read-only, and a basis, like a graph, compares by identity.
    """

    laplacian: InitVar[np.ndarray]
    degree: int
    kind: str = POWER_BASIS
    low_rank: tuple | None = field(default=None, repr=False)
    step: object = field(init=False)
    sparse: bool = field(init=False)
    factored: bool = field(init=False)
    _row_stack: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, laplacian):
        if self.degree < 0:
            raise ValueError(f"polynomial degree must be >= 0, got {self.degree}")
        if self.kind not in (POWER_BASIS, CHEBYSHEV_BASIS):
            raise ValueError(f"unknown basis kind {self.kind!r}")
        step = np.array(laplacian, dtype=float)
        n = step.shape[0]
        if step.shape != (n, n):
            raise ValueError(f"Laplacian must be square, got shape {step.shape}")
        if not np.array_equal(step, step.T):
            raise ValueError("Laplacian must be symmetric")
        low_rank = None if self.low_rank is None else _checked_low_rank(self.low_rank, n)
        if self.kind == CHEBYSHEV_BASIS:
            step -= np.eye(n)
            if low_rank is not None:
                np.subtract(low_rank[0], 1.0, out=low_rank[0])
        sparse = bool(np.count_nonzero(step) * SPARSE_FILL <= n * n)
        factored = (not sparse and low_rank is not None
                    and n >= LOW_RANK_RATIO * low_rank[1].shape[1])
        dense = not (sparse or factored)
        if sparse:
            from scipy.sparse import csr_array  # imported only by a city with sparse graphs

            step = csr_array(step)
        row_stack = np.empty((self.degree * n, n)) if dense else None
        for name, value in (("step", None if factored else step),
                            ("low_rank", low_rank if factored else None), ("sparse", sparse),
                            ("factored", factored), ("_row_stack", row_stack)):
            object.__setattr__(self, name, value)
        if dense:
            for a, term in enumerate(self._terms(np.eye(n))):
                np.divide(term + term.T, 2.0, out=term)  # before the next term uses it
                row_stack[a * n : (a + 1) * n] = term
        for arr in (low_rank if factored else (step, row_stack) if dense
                    else (step.data, step.indices, step.indptr)):
            arr.setflags(write=False)

    def _apply_step(self, x: np.ndarray) -> np.ndarray:
        """B_1 x for a (V, n) matrix x, as a new array: one product with the
        dense or CSR ``step``, or d * x - Y (Y^T x) for a factored basis."""
        if self.step is not None:
            return self.step @ x
        diagonal, factor = self.low_rank
        out = diagonal[:, None] * x
        out -= factor @ (factor.T @ x)
        return out

    def _terms(self, x: np.ndarray):
        """Yield B_a x for a = 1 .. K, each a new (V, n) array, by the power or
        Chebyshev recursion, which reads each term as the caller leaves it."""
        prev, cur = None, x
        for _ in range(self.degree):
            nxt = self._apply_step(cur)
            if prev is not None and self.kind == CHEBYSHEV_BASIS:
                nxt *= 2.0
                nxt -= prev
            yield nxt
            prev, cur = cur, nxt

    def spread(self, x: np.ndarray, out: np.ndarray) -> None:
        """Write every B_a x into the degree-minor ``out`` (V, B, K+1, f), for
        x (V, B, f)."""
        v, b, f = x.shape
        out[:, :, 0] = x
        if self._row_stack is not None:
            terms = (self._row_stack @ x.reshape(v, b * f)).reshape(-1, v, b, f)
            out[:, :, 1:] = terms.transpose(1, 2, 0, 3)
            return
        for a, term in enumerate(self._terms(x.reshape(v, b * f)), start=1):
            out[:, :, a] = term.reshape(v, b, f)

    def gather(self, y: np.ndarray) -> np.ndarray:
        """sum_a B_a y[:, :, a] over the degree-minor y (V, B, K+1, f); returns
        a new (V*B, f) array."""
        v, b, kp1, f = y.shape
        if self._row_stack is not None:
            rows = np.ascontiguousarray(y[:, :, 1:].transpose(2, 0, 1, 3)).reshape(
                (kp1 - 1) * v, b * f)
            out = (self._row_stack.T @ rows).reshape(v, b, f)
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


def _checked_low_rank(low_rank, n: int) -> tuple:
    diagonal, factor = (np.array(arr, dtype=float) for arr in low_rank)
    if diagonal.shape != (n,) or factor.ndim != 2 or factor.shape[0] != n or factor.shape[1] < 1:
        raise ValueError(f"low-rank form must be a ({n},) diagonal and a {n} x P factor with "
                         f"P >= 1, got shapes {diagonal.shape} and {factor.shape}")
    return diagonal, factor


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
    graph is given by its Gram factor, the unit POI vectors (a zero row for
    such a region).  A negative or non-finite count is an error naming its row.
    """
    poi = np.asarray(poi, dtype=float)
    if poi.ndim != 2 or poi.shape[1] < 1:
        raise ValueError(f"POI matrix must be |V| x P with P >= 1, got shape {poi.shape}")
    valid = (poi >= 0.0) & (poi < np.inf)  # NaN fails both
    if not valid.all():
        row, col = np.argwhere(~valid)[0]
        raise ValueError(f"POI counts must be finite and nonnegative, "
                         f"row {row} holds {float(poi[row, col])!r}")
    norms = np.linalg.norm(poi, axis=1)
    degenerate = norms == 0.0
    if degenerate.any():
        warnings.warn(
            f"regions {np.flatnonzero(degenerate).tolist()} have zero POI vectors; "
            "their similarity rows are set to 0",
            stacklevel=2,
        )
    safe = np.where(degenerate, 1.0, norms)
    return RelationGraph(POI_SIMILARITY, gram_factor=poi / safe[:, None])


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
    asym = np.argwhere(conn != conn.T)
    if asym.size:
        raise ValueError(f"connectivity must be symmetric, but row {asym[0][0]}, "
                         f"col {asym[0][1]} differs from its transpose")
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


class GraphBases(tuple):
    """One Laplacian basis per modality graph, in modality order, applied to
    every source at once by :meth:`spread` and :meth:`gather`.

    When every basis is dense, ``stack`` holds their row stacks as one
    read-only (M, K*V, V) array, each basis's row stack a view of it, and a
    pass narrow enough (:meth:`stacks`) applies every basis by one batched
    product over it.  Each GEMM keeps the shape of its per-basis product, so
    both ways give the same bytes.  Otherwise ``stack`` is None, and every
    pass applies one basis at a time.
    """

    stack: np.ndarray | None = None

    def stacks(self, columns: int) -> bool:
        """Whether a pass of ``columns`` (windows times width) per source
        is applied over ``stack``: its stacked terms, M*K*V*columns*8 bytes,
        take at most ``STACKED_BYTES``."""
        return (self.stack is not None
                and self.stack.shape[0] * self.stack.shape[1] * columns * 8 <= STACKED_BYTES)

    def spread(self, h: np.ndarray, out: np.ndarray) -> None:
        """Write basis i's :meth:`LaplacianBasis.spread` of h[i] into
        out[:, :, i] for every source i, for h (M, V, B, f) and out
        (V, B, M, K+1, f)."""
        m, v, b, f = h.shape
        if not self.stacks(b * f):
            for i, basis in enumerate(self):
                basis.spread(h[i], out[:, :, i])
            return
        out[:, :, :, 0] = h.transpose(1, 2, 0, 3)
        terms = np.matmul(self.stack, h.reshape(m, v, b * f))
        out[:, :, :, 1:] = terms.reshape(m, -1, v, b, f).transpose(2, 3, 0, 1, 4)

    def gather(self, y: np.ndarray) -> np.ndarray:
        """Basis i's :meth:`LaplacianBasis.gather` of y[i] for every source
        i, for y (M, V, B, K+1, f); returns a new (M, V*B, f) array."""
        m, v, b, kp1, f = y.shape
        if not self.stacks(b * f):
            return np.stack([basis.gather(y_i) for basis, y_i in zip(self, y)])
        rows = np.ascontiguousarray(y[:, :, :, 1:].transpose(0, 3, 1, 2, 4))
        out = np.matmul(self.stack.transpose(0, 2, 1),
                        rows.reshape(m, (kp1 - 1) * v, b * f)).reshape(m, v * b, f)
        out += y[:, :, :, 0].reshape(m, v * b, f)
        return out


def graph_bases(graph_list, degree: int, kind: str = POWER_BASIS) -> GraphBases:
    """One Laplacian basis per modality graph, in modality order; a graph
    with a Gram factor passes its Laplacian's low-rank form along.  Each
    basis chooses its own representation, so the stack is built after them,
    and each dense basis then gives up its own row stack for its view."""
    bases = GraphBases(LaplacianBasis(normalized_laplacian(g), degree, kind,
                                      None if g.gram_factor is None else _laplacian_low_rank(g))
                       for g in graph_list)
    row_stacks = [basis._row_stack for basis in bases]
    if row_stacks and all(rows is not None for rows in row_stacks):
        bases.stack = np.stack(row_stacks)
        bases.stack.setflags(write=False)
        for basis, rows in zip(bases, bases.stack):
            object.__setattr__(basis, "_row_stack", rows)  # the same values, one copy
    return bases


def edge_mask(g: RelationGraph, threshold: float = 0.0) -> np.ndarray:
    """The edges above ``threshold``, as a boolean mask of the strict upper
    triangle, which :func:`graph_density` and :func:`compare_graphs` count."""
    if threshold < 0:
        raise ValueError("threshold must be nonnegative")
    return np.triu(g.adjacency > threshold, k=1)


def graph_density(edges: np.ndarray) -> float:
    """2|E| / (|V| (|V|-1)) for an :func:`edge_mask`."""
    n = edges.shape[0]
    if n < 2:
        raise ValueError("density is undefined for graphs with fewer than 2 vertices")
    return 2.0 * int(np.count_nonzero(edges)) / (n * (n - 1))


@dataclass(frozen=True)
class GraphComparison:
    f_measure: float
    edit_distance: int


def compare_graphs(e1: np.ndarray, e2: np.ndarray) -> GraphComparison:
    """F-measure 2|E1 n E2| / (|E1| + |E2|) and symmetric-difference edit
    distance of two graphs' :func:`edge_mask` edge sets (F = 1 when both sets
    are empty)."""
    if e1.shape != e2.shape:
        raise ValueError(f"vertex counts differ: {e1.shape[0]} vs {e2.shape[0]}")
    total = int(np.count_nonzero(e1)) + int(np.count_nonzero(e2))
    f_measure = 1.0 if total == 0 else 2.0 * int(np.count_nonzero(e1 & e2)) / total
    return GraphComparison(f_measure, int(np.count_nonzero(e1 ^ e2)))
